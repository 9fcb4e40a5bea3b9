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

A second table rebuilds the paths, grids and samples of each entry that
takes them on [0, 1e-300] and on [0, 1e300].  There an entry returns finite
values or raises a ValueError naming what overflows, and a sum of samples
times a power of two is the sum times that power, bitwise.
"""

import dataclasses
import inspect
import math
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fracbm.experiments import VerifyConfig, run_experiment
from fracbm.fbmintegrate import (
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
    rescaled_range_hurst,
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
    "fracbm object": st.sampled_from([G, SEED, PATH, F, ONE, DifferintegralSpec(0.5)]),
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
        **GRID, "values": (FINITE, "values"), "hurst": (OPTIONAL_UNIT, "hurst"),
        "seed": (OPTIONAL_OBJECT, "seed")}),
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
    "generate_fbm_cholesky": (generate_fbm_cholesky, dict(grid=G, H=0.7, seed=SEED), {
        **GRID, "H": (UNIT, "H"), "seed": (OBJECT, "seed")}),
    "generate_fbm_circulant": (generate_fbm_circulant, dict(grid=G, H=0.7, seed=SEED), {
        **GRID, "H": (UNIT, "H"), "seed": (OBJECT, "seed")}),
    "generate_fbm_moving_average": (generate_fbm_moving_average, dict(grid=G, H=0.7, seed=SEED), {
        **GRID, "H": (UNIT, "H"), "seed": (OBJECT, "seed")}),
    "bm_ensemble": (bm_ensemble, dict(grid=G, root=1, replicates=2), {
        **GRID, "root": (INTEGER, "root"), "replicates": (INTEGER, "replicates")}),
    "fbm_cholesky_ensemble": (
        fbm_cholesky_ensemble, dict(grid=G, H=0.7, root=1, replicates=2), {
            **GRID, "H": (UNIT, "H"), "root": (INTEGER, "root"),
            "replicates": (INTEGER, "replicates")}),
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
    # the five dyadic meshes need a path of at least 32 steps
    "p_variation": (p_variation, dict(path=LONG, p=2.0), {
        "path": (OBJECT, "path"), "p": (NONNEGATIVE, "p")}),
    "variation_index": (variation_index, dict(path=LONG, p_hi=8.0), {
        "path": (OBJECT, "path"), "p_hi": (NONNEGATIVE, "p_hi")}),
    "holder_exponent": (holder_exponent, dict(path=LONG), {"path": (OBJECT, "path")}),
    "rescaled_range_hurst": (rescaled_range_hurst, dict(series=LONG.values), {
        "series": (FINITE, "series")}),
    "hurst_record": (hurst_record, dict(estimate=holder_exponent(LONG), series=LONG.values), {
        "estimate": (OBJECT, "estimate")}),
    "theoretical_acf": (theoretical_acf, dict(H=0.7, n=3), {
        "H": (UNIT, "H"), "n": (INTEGER, "n")}),
    "empirical_acf": (empirical_acf, dict(path=UNIT_SPACED, max_lag=2), {
        "path": (OBJECT, "path"), "max_lag": (INTEGER, "max_lag")}),
    "lrd_diagnostic": (lrd_diagnostic, dict(H=0.7, N=10), {
        "H": (UNIT, "H"), "N": (INTEGER, "N")}),
    "telescoping_tolerance": (telescoping_tolerance, dict(g=PATH), {"g": (OBJECT, "g")}),
    "symmetric_integral": (symmetric_integral, dict(f=1.0, g=PATH), {
        "f": (FINITE, "f"), "g": (OBJECT, "g")}),
    "forward_integral": (forward_integral, dict(f=1.0, g=PATH), {
        "f": (FINITE, "f"), "g": (OBJECT, "g")}),
    "backward_integral": (backward_integral, dict(f=1.0, g=PATH), {
        "f": (FINITE, "f"), "g": (OBJECT, "g")}),
    "covariation": (covariation, dict(x=PATH, y=PATH), {
        "x": (OBJECT, "x"), "y": (FINITE, "y")}),
    "riemann_stieltjes_integral": (riemann_stieltjes_integral, dict(u=1.0, g=LONG), {
        "u": (FINITE, "u"), "g": (OBJECT, "g")}),
    # f = 1 telescopes and has no covariation, so the accepted arguments converge
    "symmetric_forward_relation_check": (
        symmetric_forward_relation_check, dict(f=1.0, g=PATH), {
            "f": (FINITE, "f"), "g": (OBJECT, "g")}),
    "extended_forward_integral": (extended_forward_integral, dict(f=1.0, g=PATH), {
        "f": (FINITE, "f"), "g": (OBJECT, "g")}),
    "fractional_forward_process": (
        fractional_forward_process, dict(x0=0.5, alpha=0.0, f=1.0, g=PATH), {
            "x0": (FINITE, "x0"), "alpha": (FINITE, "alpha"), "f": (FINITE, "f"),
            "g": (OBJECT, "g")}),
    "ForwardProcess": (ForwardProcess, dict(grid=G, values=PATH.values, hurst=0.7), {
        **GRID, "values": (FINITE, "values"), "hurst": (OPTIONAL_UNIT, "hurst")}),
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
        "partition": (FINITE, "partition"), "rule": (OBJECT, "rule")}),
    "ito_integral": (ito_integral, dict(f=ONE, path=BM, sub_partition=[0.0, 0.5, 1.0]), {
        "f": (OBJECT, "f"), "path": (OBJECT, "path"), "sub_partition": (FINITE[1:], "sub_partition")}),
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

# settings that only tests ever changed: each is a module constant, with no argument in its place
REMOVED = {
    "symmetric_integral": ("eps",),
    "forward_integral": ("eps",),
    "backward_integral": ("eps",),
    "covariation": ("eps",),
    "symmetric_forward_relation_check": ("eps",),
    "telescoping_tolerance": ("eps",),
    "riemann_stieltjes_integral": ("levels",),
    "p_variation": ("levels",),
    "extended_forward_integral": ("eps_levels", "u_points"),
    "variation_index": ("p_lo", "levels", "h_tol"),
    "generate_fbm_cholesky": ("max_nodes",),
    "fbm_cholesky_ensemble": ("max_nodes",),
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


@pytest.mark.parametrize(
    "entry, param", [pytest.param(e, p, id=f"{e}-{p}") for e, ps in REMOVED.items() for p in ps]
)
def test_a_fixed_setting_is_no_argument(entry, param):
    fn, kwargs, _ = TABLE[entry]
    assert param not in inspect.signature(fn).parameters
    with pytest.raises(TypeError, match=rf"\b{param}\b"):
        fn(**kwargs, **{param: None})


def test_an_enum_parameter_takes_the_member_values():
    # a side given by its value, such as "left", selects that side
    f = GridFunction.from_callable(lambda t: t, 0.0, 1.0, 64)
    by_value = DifferintegralSpec(0.5, "left", "integral")
    assert by_value.side is Side.LEFT and by_value.kind is OperatorKind.INTEGRAL
    want = fractional_integral(f, DifferintegralSpec(0.5, Side.LEFT))
    assert np.array_equal(fractional_integral(f, by_value).values, want.values)
    got = whole_line_fractional_integral(f, 0.5, "minus")
    assert np.array_equal(got.values, want.values)


# ---------------------------------------------------------------------------
# scale extremes: the table's paths, grids and samples rebuilt on [0, t_max]


class OnScale:
    """The table's grid, paths and samples on [0, t_max] at Hurst index H."""

    def __init__(self, t_max: float, H: float):
        self.t_max, self.H = t_max, H
        self.grid = GridSpec(t_max, 16)
        self.path = generate_fbm_circulant(self.grid, H, SEED)
        self.bm = generate_bm(self.grid, SEED)
        self.long = generate_fbm_circulant(GridSpec(t_max, 2**10), H, SEED)
        self.unit_spaced = generate_fbm_circulant(GridSpec(t_max, 64), H, SEED)
        self.f = GridFunction(0.0, t_max, self.path.values)
        self.ensemble = bm_ensemble(self.grid, 1, 1000)


#: g(t, x) = x: a formula whose terms stay in the float range wherever the path does
LINEAR = dict(g_t=lambda t, x: 0.0, g_x=lambda t, x: 1.0)

# the TABLE entries that take a path, grid or grid samples, with those arguments on scale s
AT_SCALE = {
    "GridSpec": lambda s: dict(t_max=s.t_max, n_steps=4),
    "SamplePath": lambda s: dict(grid=s.grid, values=s.path.values, hurst=s.H, seed=SEED),
    "generate_bm": lambda s: dict(grid=s.grid, seed=SEED),
    "generate_fbm_cholesky": lambda s: dict(grid=s.grid, H=s.H, seed=SEED),
    "generate_fbm_circulant": lambda s: dict(grid=s.grid, H=s.H, seed=SEED),
    "generate_fbm_moving_average": lambda s: dict(grid=s.grid, H=s.H, seed=SEED),
    "bm_ensemble": lambda s: dict(grid=s.grid, root=1, replicates=2),
    "fbm_cholesky_ensemble": lambda s: dict(grid=s.grid, H=s.H, root=1, replicates=2),
    "fbm_circulant_ensemble": lambda s: dict(grid=s.grid, H=s.H, root=1, replicates=2),
    "fbm_moving_average_ensemble": lambda s: dict(grid=s.grid, H=s.H, root=1, replicates=2),
    "scale_path": lambda s: dict(path=s.path, a=2.0),
    "time_invert_bm": lambda s: dict(path=s.bm),
    "write_path_csv": lambda s: dict(path=s.path, dest=os.devnull),
    "GridFunction": lambda s: dict(a=0.0, b=s.t_max, values=s.path.values),
    "GridFunction.from_callable": lambda s: dict(fn=np.sin, a=0.0, b=s.t_max, n=16),
    "fractional_integral": lambda s: dict(f=s.f, spec=DifferintegralSpec(0.5)),
    "fractional_derivative": lambda s: dict(f=s.f, spec=DifferintegralSpec(0.5, kind="derivative")),
    "cauchy_repeated_integral": lambda s: dict(f=s.f, m=2),
    "whole_line_fractional_integral": lambda s: dict(f=s.f, alpha=0.5, side=WholeLineSide.MINUS),
    "fractal_integral": lambda s: dict(f=s.f, g=s.f, alpha=0.3),
    "write_grid_csv": lambda s: dict(f=s.f, path=os.devnull),
    "quadratic_variation": lambda s: dict(path=s.path),
    "p_variation": lambda s: dict(path=s.long, p=2.0),
    "variation_index": lambda s: dict(path=s.long),
    "holder_exponent": lambda s: dict(path=s.long),
    "rescaled_range_hurst": lambda s: dict(series=s.long.values),
    "hurst_record": lambda s: dict(estimate=holder_exponent(s.long), series=s.long.values),
    "empirical_acf": lambda s: dict(path=s.unit_spaced, max_lag=2),
    "telescoping_tolerance": lambda s: dict(g=s.path),
    "symmetric_integral": lambda s: dict(f=1.0, g=s.path),
    "forward_integral": lambda s: dict(f=1.0, g=s.path),
    "backward_integral": lambda s: dict(f=1.0, g=s.path),
    "covariation": lambda s: dict(x=s.path, y=s.path),
    "riemann_stieltjes_integral": lambda s: dict(u=1.0, g=s.long),
    "symmetric_forward_relation_check": lambda s: dict(f=1.0, g=s.path),
    "extended_forward_integral": lambda s: dict(f=1.0, g=s.path),
    "fractional_forward_process": lambda s: dict(x0=0.5, alpha=0.0, f=1.0, g=s.path),
    "ForwardProcess": lambda s: dict(grid=s.grid, values=s.path.values, hurst=s.H),
    "fbm_ito_formula_check": lambda s: dict(g_fn=lambda t, x: x, **LINEAR, X=s.path),
    "integral_record": lambda s: dict(result=forward_integral(1.0, s.path)),
    "ito_integral": lambda s: dict(f=ONE, path=s.bm, sub_partition=[0.0, 0.5 * s.t_max, s.t_max]),
    "ito_integral_qv": lambda s: dict(f=AdaptedIntegrand.path_value(), path=s.bm),
    "empirical_covariance": lambda s: dict(values=s.ensemble),
    "endpoint_comparison": lambda s: dict(values=s.ensemble, grid=s.grid, T=0.5 * s.t_max),
    "isometry_check": lambda s: dict(f=ONE, values=s.ensemble, grid=s.grid),
    "ItoProcess": lambda s: dict(x0=0.5, drift=ONE, diffusion=ONE, driving_path=s.bm),
    "ito_formula_apply": lambda s: dict(
        g=lambda t, x: x, **LINEAR, g_xx=lambda t, x: 0.0, process=ItoProcess(0.0, ONE, ONE, s.bm)),
}


def _floats(out):
    """Every float an entry returns, through its arrays, tuples, records and dataclasses."""
    if dataclasses.is_dataclass(out):
        out = [getattr(out, f.name) for f in dataclasses.fields(out)]
    if isinstance(out, dict):
        out = list(out.values())
    if isinstance(out, (list, tuple)):
        return [x for item in out for x in _floats(item)]
    if isinstance(out, (float, np.floating, np.ndarray)):
        return np.ravel(out).tolist()
    return []


def test_each_entry_on_a_path_or_grid_has_a_scale_case():
    on_grid = (GridSpec, SamplePath, GridFunction, ItoProcess, np.ndarray)
    takes = {e for e, (_, kwargs, _) in TABLE.items() if any(isinstance(v, on_grid) for v in kwargs.values())}
    assert takes <= set(AT_SCALE) <= set(TABLE)


def _refusal(entry: str, H: float) -> str:
    """The message of the ValueError the entry raises on the unit scale [0, 1], or ''."""
    try:
        TABLE[entry][0](**AT_SCALE[entry](OnScale(1.0, H)))
    except ValueError as exc:
        return str(exc)
    return ""


@pytest.mark.parametrize("H", [0.05, 0.95])
@pytest.mark.parametrize("t_max", [1e-300, 1e300])
@pytest.mark.parametrize("entry", sorted(AT_SCALE))
def test_an_extreme_scale_gives_finite_values_or_names_the_overflow(entry, t_max, H):
    # overflow and invalid values are errors; underflow stays allowed, as at 1e-300 many
    # sums underflow harmlessly.  p_variation's mesh_levels, in the path's units, are
    # documented to overflow to inf; the unit-spacing rule of the ACF has a unit of time
    s = OnScale(t_max, H)
    with warnings.catch_warnings():
        warnings.filterwarnings("error", "overflow|invalid value", RuntimeWarning)
        try:
            out = TABLE[entry][0](**AT_SCALE[entry](s))
        except ValueError as exc:
            assert re.search("overflows|at unit spacing", str(exc)) or str(exc) == _refusal(entry, H), str(exc)
            return
    if entry == "p_variation":
        out = out.verdict
    values = _floats(out)
    assert np.isfinite(values).all(), values


# ensemble checks whose per-row sums leave the float range where the ensemble does not:
# the squared path-value integral on [0, 1e300] and the endpoint sums on [0, 1.5e308]
ENSEMBLE_AT_SCALE = {
    "isometry_check": (1e300, lambda v, grid: dict(f=AdaptedIntegrand.path_value(), values=v, grid=grid)),
    "endpoint_comparison": (1.5e308, lambda v, grid: dict(values=v, grid=grid, T=grid.t_max)),
}


@pytest.mark.parametrize("entry", sorted(ENSEMBLE_AT_SCALE))
def test_an_ensemble_sum_past_the_float_range_gives_finite_values_or_names_it(entry):
    # once overflow warnings in dots**2 and in block * steps, and inf and nan results
    t_max, kwargs = ENSEMBLE_AT_SCALE[entry]
    grid = GridSpec(t_max, 16)
    values = bm_ensemble(grid, 1, 1000)
    with warnings.catch_warnings():
        warnings.filterwarnings("error", "overflow|invalid value", RuntimeWarning)
        try:
            out = TABLE[entry][0](**kwargs(values, grid))
        except ValueError as exc:
            assert "overflows a float" in str(exc), str(exc)
            return
    assert np.isfinite(_floats(out)).all(), out


ENSEMBLE_INTEGRANDS = {
    "one": ONE,
    "time": AdaptedIntegrand.deterministic(lambda t: t),
    "path": AdaptedIntegrand.path_value(),
}


def _ensemble_call(check: str, values: np.ndarray, grid: GridSpec):
    """endpoint_comparison up to t_max, or isometry_check-<integrand> of ENSEMBLE_INTEGRANDS."""
    entry, _, integrand = check.partition("-")
    if entry == "endpoint_comparison":
        return endpoint_comparison(values, grid, grid.t_max)
    return isometry_check(ENSEMBLE_INTEGRANDS[integrand], values, grid)


@pytest.mark.parametrize("t_max", [1e-300, 1e300, 1.5e308])
@pytest.mark.parametrize(
    "check", ["endpoint_comparison", "isometry_check-one", "isometry_check-time", "isometry_check-path"]
)
def test_an_ensemble_check_on_an_extreme_horizon_gives_finite_values_or_names_the_overflow(check, t_max):
    grid = GridSpec(t_max, 16)
    values = bm_ensemble(grid, 1, 1000)
    with warnings.catch_warnings():
        warnings.filterwarnings("error", "overflow|invalid value", RuntimeWarning)
        try:
            out = _ensemble_call(check, values, grid)
        except ValueError as exc:
            assert "overflows a float" in str(exc), str(exc)
            return
    assert np.isfinite(_floats(out)).all(), out


# ---------------------------------------------------------------------------
# sums of samples times a power of two

SUM_PATH = generate_fbm_circulant(GridSpec(1.0, 256), 0.7, RngSeed(31, 0))
SUM_BM = generate_bm(GridSpec(1.0, 256), RngSeed(31, 1))
SUM_G = 1.0 + np.cos(3.0 * SUM_PATH.times)  # g(b) != g(a), so the boundary term counts


def _exact(*arrays) -> bool:
    """Whether every nonzero entry is a normal float, so that scaling it by a power of two was exact."""
    return all(((a == 0.0) | (np.abs(a) >= np.finfo(float).tiny)).all() for a in arrays)


def assert_scaled(call, base, shifts, names, samples):
    """call() is base times 2^shift entry by entry where the scaled samples are exact floats,
    or raises a ValueError naming the first entry past the float range."""
    for b, shift, name in zip(base, shifts, names):
        try:
            math.ldexp(b, shift)
        except OverflowError:
            with pytest.raises(ValueError, match=f"^{name} overflows a float$"):
                call()
            return
    got = call()
    if _exact(*samples):
        assert got == tuple(math.ldexp(b, shift) for b, shift in zip(base, shifts))
    else:
        assert np.isfinite(got).all()


@settings(max_examples=40, deadline=None)
@given(j=st.integers(-1000, 1000), k=st.integers(-1000, 1000), alpha=st.sampled_from([0.0, 0.3, 0.5, 1.0]))
@example(j=1000, k=1000, alpha=0.3)
@example(j=-1000, k=-1000, alpha=0.3)
@example(j=300, k=-200, alpha=0.5)
@example(j=-200, k=300, alpha=0.0)
def test_a_sum_of_samples_times_a_power_of_two_is_the_sum_times_its_power(j, k, alpha):
    # each sum is formed in units of a power of two at its samples' largest; once
    # quadratic_variation and ito_integral_qv returned inf and fractal_integral nan
    x, b = np.ldexp(SUM_PATH.values, j), np.ldexp(SUM_BM.values, j)
    f, g = GridFunction(0.0, 1.0, x), GridFunction(0.0, 1.0, np.ldexp(SUM_G, k))
    bm = SamplePath(SUM_BM.grid, b, 0.5)
    integrand = AdaptedIntegrand.path_value()
    with warnings.catch_warnings():
        warnings.filterwarnings("error", "overflow|invalid value", RuntimeWarning)
        assert_scaled(lambda: (quadratic_variation(SamplePath(SUM_PATH.grid, x, 0.7)),),
                      (quadratic_variation(SUM_PATH),), (2 * j,), ("the quadratic variation",),
                      (np.diff(x),))
        assert_scaled(lambda: ito_integral_qv(integrand, bm), ito_integral_qv(integrand, SUM_BM),
                      (4 * j, 2 * j), ("the quadratic variation", "the integral of f squared"),
                      (b, np.diff(b)))
        base = fractal_integral(GridFunction(0.0, 1.0, SUM_PATH.values), GridFunction(0.0, 1.0, SUM_G), alpha)
        assert_scaled(lambda: (fractal_integral(f, g, alpha),), (base,), (j + k,), ("the fractal integral",),
                      (f.values - f.values[0], g.values - g.values[-1]))


ENSEMBLE = bm_ensemble(GridSpec(1.0, 64), 32, 1000)

# each mean's power of two when the ensemble is multiplied by 2^j, and its name
ENSEMBLE_POWERS = {
    "endpoint_comparison": ((2, 2), ("the mean left-endpoint sum", "the mean right-endpoint sum")),
    "isometry_check-one": ((2, 0), ("the mean squared integral", "the mean integral of f squared")),
    "isometry_check-time": ((2, 0), ("the mean squared integral", "the mean integral of f squared")),
    "isometry_check-path": ((4, 2), ("the mean squared integral", "the mean integral of f squared")),
}


@pytest.mark.parametrize("j", [-400, -100, 100, 400, 600])
@pytest.mark.parametrize("check", sorted(ENSEMBLE_POWERS))
def test_an_ensemble_times_a_power_of_two_gives_its_means_times_their_powers(check, j):
    # the per-row sums are formed in units of each block's power of two; once the squared
    # path-value integral overflowed with a warning and returned inf
    grid = GridSpec(1.0, 64)
    powers, names = ENSEMBLE_POWERS[check]
    scaled = np.ldexp(ENSEMBLE, j)
    with warnings.catch_warnings():
        warnings.filterwarnings("error", "overflow|invalid value", RuntimeWarning)
        assert_scaled(lambda: _ensemble_call(check, scaled, grid)[:2], _ensemble_call(check, ENSEMBLE, grid)[:2],
                      tuple(p * j for p in powers), names, (scaled,))
