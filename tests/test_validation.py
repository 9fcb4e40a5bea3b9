"""Every public entry point answers a bad argument with a ValueError naming it.

A table gives, for each callable, arguments it accepts and the contract of
each scalar and object parameter.  The property (in the manner of
QuickCheck, Claessen & Hughes 2000) swaps one parameter at a time for a
value drawn from a class its contract rejects: None, a bool, a string, a
complex number, NaN or an infinity, a negative value, a float where an
integer, an index in (0, 1), an enum member or an object belongs, and a
fracbm object of another class where a grid, seed, path, function,
integrand or callable belongs.  It expects a ValueError whose message names
the parameter.
"""

import math
import os
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fracbm.experiments import VerifyConfig, run_experiment
from fracbm.fbmintegrate import (
    EpsilonSchedule,
    ForwardProcess,
    backward_integral,
    covariation,
    extended_forward_integral,
    fbm_ito_formula_check,
    forward_integral,
    fractional_forward_process,
    integral_record,
    riemann_stieltjes_integral,
    symmetric_forward_relation_check,
    symmetric_integral,
    telescoping_tolerance,
)
from fracbm.fraccalc import (
    DifferintegralSpec,
    GridFunction,
    OperatorKind,
    Side,
    WholeLineSide,
    cauchy_repeated_integral,
    fractal_integral,
    fractional_derivative,
    fractional_integral,
    whole_line_fractional_integral,
    write_grid_csv,
)
from fracbm.gaussianpaths import (
    GridSpec,
    RngSeed,
    SamplePath,
    bm_covariance,
    bm_ensemble,
    fbm_cholesky_ensemble,
    fbm_circulant_ensemble,
    fbm_covariance,
    fbm_moving_average_ensemble,
    generate_bm,
    generate_fbm_cholesky,
    generate_fbm_circulant,
    generate_fbm_moving_average,
    empirical_covariance,
    increment_cross_covariance,
    normalizing_constant,
    scale_path,
    time_invert_bm,
    write_path_csv,
)
from fracbm.itocalc import (
    AdaptedIntegrand,
    ItoProcess,
    SimpleProcess,
    endpoint_comparison,
    isometry_check,
    ito_formula_apply,
    ito_integral,
    ito_integral_qv,
)
from fracbm.pathstats import (
    empirical_acf,
    holder_exponent,
    hurst_record,
    lrd_diagnostic,
    p_variation,
    quadratic_variation,
    theoretical_acf,
    variation_index,
)

FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
# no decimal digit, so numpy cannot read the text as a finite number either
TEXT = st.text(st.characters(blacklist_categories=("Nd", "Cs")))

G = GridSpec(1.0, 16)
SEED = RngSeed(1, 0)
PATH = generate_fbm_circulant(G, 0.7, SEED)
BM = generate_bm(G, SEED)
LONG = generate_fbm_circulant(GridSpec(1.0, 2**10), 0.7, SEED)
UNIT_SPACED = generate_fbm_circulant(GridSpec(64.0, 64), 0.7, SEED)
F = GridFunction.from_callable(np.sin, 0.0, 1.0, 16)
SPEC = {"side": Side.LEFT, "kind": OperatorKind.INTEGRAL}
ONE = AdaptedIntegrand.constant(1.0)
EPS = EpsilonSchedule.default_for(G)

REJECTED = {
    "none": st.none(),
    "bool": st.booleans(),
    "str": TEXT,
    "complex": st.complex_numbers(),
    "non-finite": st.sampled_from([math.nan, math.inf, -math.inf]),
    "negative": st.floats(max_value=0.0, exclude_max=True, allow_infinity=False),
    "float": FINITE_FLOATS,
    "outside (0, 1)": FINITE_FLOATS.filter(lambda x: not 0.0 <= x <= 1.0),
    "negative integer": st.integers(max_value=-1),
    # one of each class; the test skips a draw of the class the parameter takes
    "fracbm object": st.sampled_from([G, SEED, PATH, F, ONE, EPS, DifferintegralSpec(0.5)]),
}

#: what each contract rejects
FINITE = ("none", "bool", "str", "complex", "non-finite")
NONNEGATIVE = FINITE + ("negative",)
UNIT = FINITE + ("outside (0, 1)",)
INTEGER = FINITE + ("float", "negative integer")
ENUM = INTEGER  # an enum member is looked up by value, so a number is no member either
OBJECT = ("none", "str", "float", "fracbm object")
OPTIONAL_UNIT = UNIT[1:]
OPTIONAL_OBJECT = OBJECT[1:]
ENUMS = {"Side": Side, "OperatorKind": OperatorKind, "WholeLineSide": WholeLineSide}
GRID = {"grid": (OBJECT, "grid")}

# (callable, accepted keyword arguments, {parameter: (contract, name in the message)})
TABLE = {
    "GridSpec": (GridSpec, dict(t_max=1.0, n_steps=4), {
        "t_max": (NONNEGATIVE, "t_max"), "n_steps": (INTEGER, "n_steps")}),
    "RngSeed": (RngSeed, dict(root=1, stream=0), {
        "root": (INTEGER, "root"), "stream": (INTEGER, "stream")}),
    "SamplePath": (SamplePath, dict(grid=G, values=PATH.values, hurst=0.7, seed=SEED), {
        **GRID, "hurst": (OPTIONAL_UNIT, "hurst"), "seed": (OPTIONAL_OBJECT, "seed")}),
    "bm_covariance": (bm_covariance, dict(s=0.5, t=1.0), {
        "s": (NONNEGATIVE, "times"), "t": (NONNEGATIVE, "times")}),
    "fbm_covariance": (fbm_covariance, dict(H=0.7, s=0.5, t=1.0), {
        "H": (UNIT, "H"), "s": (NONNEGATIVE, "times"), "t": (NONNEGATIVE, "times")}),
    "increment_cross_covariance": (
        increment_cross_covariance, dict(H=0.7, s=0.0, t=1.0, u=1.0, v=2.0), {
            "H": (UNIT, "H"), "s": (NONNEGATIVE, "times"), "t": (NONNEGATIVE, "times"),
            "u": (NONNEGATIVE, "times"), "v": (NONNEGATIVE, "times")}),
    "normalizing_constant": (normalizing_constant, dict(H=0.7), {"H": (UNIT, "H")}),
    "generate_bm": (generate_bm, dict(grid=G, seed=SEED), {
        **GRID, "seed": (OBJECT, "seed")}),
    "generate_fbm_cholesky": (
        generate_fbm_cholesky, dict(grid=G, H=0.7, seed=SEED, max_nodes=64), {
            **GRID, "H": (UNIT, "H"), "seed": (OBJECT, "seed"),
            "max_nodes": (INTEGER, "max_nodes")}),
    "generate_fbm_circulant": (generate_fbm_circulant, dict(grid=G, H=0.7, seed=SEED), {
        **GRID, "H": (UNIT, "H"), "seed": (OBJECT, "seed")}),
    "generate_fbm_moving_average": (generate_fbm_moving_average, dict(grid=G, H=0.7, seed=SEED), {
        **GRID, "H": (UNIT, "H"), "seed": (OBJECT, "seed")}),
    "bm_ensemble": (bm_ensemble, dict(grid=G, root=1, replicates=2), {
        **GRID, "root": (INTEGER, "root"), "replicates": (INTEGER, "replicates")}),
    "fbm_cholesky_ensemble": (
        fbm_cholesky_ensemble, dict(grid=G, H=0.7, root=1, replicates=2, max_nodes=64), {
            **GRID, "H": (UNIT, "H"), "root": (INTEGER, "root"),
            "replicates": (INTEGER, "replicates"), "max_nodes": (INTEGER, "max_nodes")}),
    "fbm_circulant_ensemble": (
        fbm_circulant_ensemble, dict(grid=G, H=0.7, root=1, replicates=2), {
            **GRID, "H": (UNIT, "H"), "root": (INTEGER, "root"),
            "replicates": (INTEGER, "replicates")}),
    "fbm_moving_average_ensemble": (
        fbm_moving_average_ensemble, dict(grid=G, H=0.7, root=1, replicates=2), {
            **GRID, "H": (UNIT, "H"), "root": (INTEGER, "root"),
            "replicates": (INTEGER, "replicates")}),
    "scale_path": (scale_path, dict(path=PATH, a=2.0), {
        "path": (OBJECT, "path"), "a": (NONNEGATIVE, "a")}),
    "time_invert_bm": (time_invert_bm, dict(path=BM), {"path": (OBJECT, "path")}),
    "write_path_csv": (write_path_csv, dict(path=PATH, dest=os.devnull), {
        "path": (OBJECT, "path")}),
    "DifferintegralSpec": (DifferintegralSpec, dict(alpha=0.5, **SPEC), {
        "alpha": (NONNEGATIVE, "order"), "side": (ENUM, "Side"),
        "kind": (ENUM, "OperatorKind")}),
    # a scalar is no sample array, so the non-finite scalars are rejected too
    "GridFunction": (GridFunction, dict(a=0.0, b=1.0, values=F.values), {
        "a": (FINITE, "a"), "b": (NONNEGATIVE, "b"), "values": (FINITE, "samples")}),
    "GridFunction.from_callable": (
        GridFunction.from_callable, dict(fn=np.sin, a=0.0, b=1.0, n=16), {
            "fn": (OBJECT, "fn"), "a": (FINITE, "a"), "b": (NONNEGATIVE, "b"),
            "n": (INTEGER, "n")}),
    "fractional_integral": (fractional_integral, dict(f=F, spec=DifferintegralSpec(0.5)), {
        "f": (OBJECT, "f"), "spec": (OBJECT, "spec")}),
    "fractional_derivative": (
        fractional_derivative, dict(f=F, spec=DifferintegralSpec(0.5, kind="derivative")), {
            "f": (OBJECT, "f"), "spec": (OBJECT, "spec")}),
    "cauchy_repeated_integral": (cauchy_repeated_integral, dict(f=F, m=2), {
        "f": (OBJECT, "f"), "m": (INTEGER, "m")}),
    "whole_line_fractional_integral": (
        whole_line_fractional_integral, dict(f=F, alpha=0.5, side=WholeLineSide.MINUS), {
            "f": (OBJECT, "f"), "alpha": (UNIT, "alpha"), "side": (ENUM, "WholeLineSide")}),
    "fractal_integral": (fractal_integral, dict(f=F, g=F, alpha=0.5), {
        "f": (OBJECT, "f"), "g": (OBJECT, "g"), "alpha": (UNIT, "alpha")}),
    "write_grid_csv": (write_grid_csv, dict(f=F, path=os.devnull), {"f": (OBJECT, "f")}),
    "quadratic_variation": (quadratic_variation, dict(path=PATH), {"path": (OBJECT, "path")}),
    "p_variation": (p_variation, dict(path=PATH, p=2.0, levels=3), {
        "path": (OBJECT, "path"), "p": (NONNEGATIVE, "p"), "levels": (INTEGER, "levels")}),
    "variation_index": (
        variation_index, dict(path=LONG, p_lo=0.8, p_hi=8.0, levels=5, h_tol=1e-3), {
            "path": (OBJECT, "path"), "p_lo": (NONNEGATIVE, "p_lo"),
            "p_hi": (NONNEGATIVE, "p_hi"), "levels": (INTEGER, "levels"),
            "h_tol": (NONNEGATIVE, "h_tol")}),
    "holder_exponent": (holder_exponent, dict(path=LONG), {"path": (OBJECT, "path")}),
    "hurst_record": (hurst_record, dict(estimate=holder_exponent(LONG), series=LONG.values), {
        "estimate": (OBJECT, "estimate")}),
    "theoretical_acf": (theoretical_acf, dict(H=0.7, n=3), {
        "H": (UNIT, "H"), "n": (INTEGER, "n")}),
    "empirical_acf": (empirical_acf, dict(path=UNIT_SPACED, max_lag=2), {
        "path": (OBJECT, "path"), "max_lag": (INTEGER, "max_lag")}),
    "lrd_diagnostic": (lrd_diagnostic, dict(H=0.7, N=10), {
        "H": (UNIT, "H"), "N": (INTEGER, "N")}),
    "EpsilonSchedule.default_for": (EpsilonSchedule.default_for, dict(grid=G), GRID),
    "EpsilonSchedule.strides": (EPS.strides, dict(grid=G), GRID),
    "telescoping_tolerance": (telescoping_tolerance, dict(g=PATH, eps=EPS), {
        "g": (OBJECT, "g"), "eps": (OBJECT, "eps")}),
    "symmetric_integral": (symmetric_integral, dict(f=1.0, g=PATH, eps=EPS, tol=0.05), {
        "f": (FINITE, "f"), "g": (OBJECT, "g"), "eps": (OPTIONAL_OBJECT, "eps"),
        "tol": (NONNEGATIVE, "tol")}),
    "forward_integral": (forward_integral, dict(f=1.0, g=PATH, eps=EPS, tol=0.05), {
        "f": (FINITE, "f"), "g": (OBJECT, "g"), "eps": (OPTIONAL_OBJECT, "eps"),
        "tol": (NONNEGATIVE, "tol")}),
    "backward_integral": (backward_integral, dict(f=1.0, g=PATH, eps=EPS, tol=0.05), {
        "f": (FINITE, "f"), "g": (OBJECT, "g"), "eps": (OPTIONAL_OBJECT, "eps"),
        "tol": (NONNEGATIVE, "tol")}),
    "covariation": (covariation, dict(x=PATH, y=PATH, eps=EPS, tol=0.05), {
        "x": (OBJECT, "x"), "y": (FINITE, "y"), "eps": (OPTIONAL_OBJECT, "eps"),
        "tol": (NONNEGATIVE, "tol")}),
    "riemann_stieltjes_integral": (
        riemann_stieltjes_integral, dict(u=1.0, g=PATH, levels=3, tol=0.01), {
            "u": (FINITE, "u"), "g": (OBJECT, "g"), "levels": (INTEGER, "levels"),
            "tol": (NONNEGATIVE, "tol")}),
    # a tolerance no ladder misses, so the accepted arguments converge
    "symmetric_forward_relation_check": (
        symmetric_forward_relation_check, dict(f=1.0, g=PATH, eps=EPS, tol=1e9), {
            "g": (OBJECT, "g"), "eps": (OPTIONAL_OBJECT, "eps")}),
    "extended_forward_integral": (
        extended_forward_integral, dict(f=1.0, g=PATH, eps_levels=3, u_points=4, tol=0.02), {
            "f": (FINITE, "f"), "g": (OBJECT, "g"), "eps_levels": (INTEGER, "eps_levels"),
            "u_points": (INTEGER, "u_points"), "tol": (NONNEGATIVE, "tol")}),
    "fractional_forward_process": (
        fractional_forward_process, dict(x0=0.5, alpha=0.0, f=1.0, g=PATH), {
            "x0": (FINITE, "x0"), "alpha": (FINITE, "alpha"), "f": (FINITE, "f"),
            "g": (OBJECT, "g")}),
    "ForwardProcess": (ForwardProcess, dict(grid=G, values=PATH.values, hurst=0.7), {
        **GRID, "hurst": (OPTIONAL_UNIT, "hurst")}),
    "fbm_ito_formula_check": (
        fbm_ito_formula_check,
        dict(g_fn=lambda t, x: x * x, g_t=lambda t, x: 0.0, g_x=lambda t, x: 2 * x, X=PATH), {
            # the formula's function g, whatever the parameter is called
            "g_fn": (OBJECT, "g"), "g_t": (OBJECT, "g_t"), "g_x": (OBJECT, "g_x"),
            "X": (OBJECT, "X")}),
    "integral_record": (integral_record, dict(result=forward_integral(1.0, PATH)), {
        "result": (OBJECT, "result")}),
    "AdaptedIntegrand": (
        AdaptedIntegrand, dict(rule=lambda t, p: 1.0, grid_eval=lambda t, x: np.ones(t.shape)), {
            "rule": (OBJECT, "rule"), "grid_eval": (OPTIONAL_OBJECT, "grid_eval")}),
    "AdaptedIntegrand.constant": (AdaptedIntegrand.constant, dict(c=1.0), {
        "c": (FINITE, "c")}),
    "AdaptedIntegrand.deterministic": (AdaptedIntegrand.deterministic, dict(fn=np.sin), {
        "fn": (OBJECT, "fn")}),
    "SimpleProcess": (SimpleProcess, dict(partition=[0.0, 0.5, 1.0], rule=lambda i, t, p: t), {
        "rule": (OBJECT, "rule")}),
    "ito_integral": (ito_integral, dict(f=ONE, path=BM), {
        "f": (OBJECT, "f"), "path": (OBJECT, "path")}),
    "ito_integral_qv": (ito_integral_qv, dict(f=ONE, path=BM), {
        "f": (OBJECT, "f"), "path": (OBJECT, "path")}),
    # an array parameter: each rejected value is a scalar, so no (replicates, nodes) array
    "empirical_covariance": (empirical_covariance, dict(values=np.zeros((2, 17))), {
        "values": (FINITE, "values")}),
    "endpoint_comparison": (
        endpoint_comparison, dict(values=np.zeros((1000, 17)), grid=G, T=0.5), {
            "values": (FINITE, "values"), **GRID, "T": (NONNEGATIVE, "T")}),
    "isometry_check": (isometry_check, dict(f=ONE, values=np.zeros((1000, 17)), grid=G), {
        "f": (OBJECT, "f"), "values": (FINITE, "values"), **GRID}),
    "ItoProcess": (
        ItoProcess, dict(x0=0.5, drift=ONE, diffusion=ONE, driving_path=BM), {
            "x0": (FINITE, "x0"), "drift": (OBJECT, "drift"),
            "diffusion": (OBJECT, "diffusion"), "driving_path": (OBJECT, "driving_path")}),
    "ito_formula_apply": (
        ito_formula_apply,
        dict(g=lambda t, x: x * x, g_t=lambda t, x: 0.0, g_x=lambda t, x: 2 * x,
             g_xx=lambda t, x: 2.0, process=ItoProcess(0.0, ONE, ONE, BM)), {
            "g": (OBJECT, "g"), "g_t": (OBJECT, "g_t"), "g_x": (OBJECT, "g_x"),
            "g_xx": (OBJECT, "g_xx"), "process": (OBJECT, "process")}),
    "run_experiment": (run_experiment, dict(exp_id="E3", cfg=VerifyConfig()), {
        "cfg": (OPTIONAL_OBJECT, "cfg")}),
}

CASES = [
    pytest.param(entry, param, kind, id=f"{entry}-{param}-{kind}")
    for entry, (_, _, params) in TABLE.items()
    for param, (contract, _) in params.items()
    for kind in contract
]


@pytest.mark.parametrize("entry", sorted(TABLE))
def test_the_table_arguments_are_accepted(entry):
    fn, kwargs, _ = TABLE[entry]
    fn(**kwargs)


@pytest.mark.parametrize("entry, param, kind", CASES)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_a_rejected_argument_raises_a_value_error_naming_it(entry, param, kind, data):
    fn, kwargs, params = TABLE[entry]
    name = params[param][1]
    bad = data.draw(REJECTED[kind], label=param)
    if name in ENUMS:
        assume(bad not in {m.value for m in ENUMS[name]})  # an enum takes its values too
    if kind == "fracbm object":
        assume(type(bad) is not type(kwargs[param]))
    with pytest.raises(ValueError) as info:
        fn(**{**kwargs, param: bad})
    assert re.search(rf"\b{re.escape(name)}\b", str(info.value)), str(info.value)


@pytest.mark.parametrize("position", [0, 1, 2])
@pytest.mark.parametrize("bad", [None, "abc", 1j, math.nan, math.inf, -math.inf, -0.25, True, np.True_])
def test_each_epsilon_level_is_checked(position, bad):
    # a bool entry is refused although float conversion would read True as 1.0
    values = [0.5, 0.25, 0.125]
    values[position] = bad
    with pytest.raises(ValueError, match="epsilon values"):
        EpsilonSchedule(tuple(values))


def test_a_bool_array_is_no_epsilon_ladder():
    with pytest.raises(ValueError, match="epsilon values must be real numbers"):
        EpsilonSchedule(np.array([True, False, False]))


def test_an_enum_parameter_takes_the_member_values():
    # a side given by its value, such as "left", selects that side
    f = GridFunction.from_callable(lambda t: t, 0.0, 1.0, 64)
    by_value = DifferintegralSpec(0.5, "left", "integral")
    assert by_value.side is Side.LEFT and by_value.kind is OperatorKind.INTEGRAL
    want = fractional_integral(f, DifferintegralSpec(0.5, Side.LEFT))
    assert np.array_equal(fractional_integral(f, by_value).values, want.values)
    got = whole_line_fractional_integral(f, 0.5, "minus")
    assert np.array_equal(got.values, want.values)
