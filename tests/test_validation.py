"""Every public entry point answers a bad scalar argument with a ValueError naming it.

A table gives, for each callable, arguments it accepts and the contract of
each scalar parameter.  The property (in the manner of QuickCheck, Claessen
& Hughes 2000) swaps one parameter at a time for a value drawn from a class
its contract rejects: None, a bool, a string, a complex number, NaN or an
infinity, a negative value, and a float where an integer, an index in
(0, 1) or an enum member belongs.  It expects a ValueError whose message
names the parameter.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fracbm.fbmintegrate import (
    EpsilonSchedule,
    ForwardProcess,
    backward_integral,
    covariation,
    extended_forward_integral,
    forward_integral,
    fractional_forward_process,
    riemann_stieltjes_integral,
    symmetric_integral,
)
from fracbm.fraccalc import (
    DifferintegralSpec,
    GridFunction,
    OperatorKind,
    Side,
    WholeLineSide,
    cauchy_repeated_integral,
    fractal_integral,
    fractional_integral,
    whole_line_fractional_integral,
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
    moving_average_truncation_bias,
    normalizing_constant,
    scale_path,
)
from fracbm.itocalc import AdaptedIntegrand, ItoProcess, endpoint_comparison, isometry_check
from fracbm.pathstats import (
    empirical_acf,
    lrd_diagnostic,
    p_variation,
    theoretical_acf,
    variation_index,
)

FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
# no decimal digit, so numpy cannot read the text as a finite number either
TEXT = st.text(st.characters(blacklist_categories=("Nd", "Cs")))

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
}

#: what each contract rejects
FINITE = ("none", "bool", "str", "complex", "non-finite")
NONNEGATIVE = FINITE + ("negative",)
UNIT = FINITE + ("outside (0, 1)",)
INTEGER = FINITE + ("float", "negative integer")
ENUM = INTEGER  # an enum member is looked up by value, so a number is no member either
OPTIONAL_UNIT = UNIT[1:]
OPTIONAL_NONNEGATIVE = NONNEGATIVE[1:]
ENUMS = {"Side": Side, "OperatorKind": OperatorKind, "WholeLineSide": WholeLineSide}

G = GridSpec(1.0, 16)
SEED = RngSeed(1, 0)
PATH = generate_fbm_circulant(G, 0.7, SEED)
BM = generate_bm(G, SEED)
LONG = generate_fbm_circulant(GridSpec(1.0, 2**10), 0.7, SEED)
UNIT_SPACED = generate_fbm_circulant(GridSpec(64.0, 64), 0.7, SEED)
F = GridFunction.from_callable(np.sin, 0.0, 1.0, 16)
SPEC = {"side": Side.LEFT, "kind": OperatorKind.INTEGRAL}
ONE = AdaptedIntegrand.constant(1.0)

# (callable, accepted keyword arguments, {parameter: (contract, name in the message)})
TABLE = {
    "GridSpec": (GridSpec, dict(t_max=1.0, n_steps=4), {
        "t_max": (NONNEGATIVE, "t_max"), "n_steps": (INTEGER, "n_steps")}),
    "RngSeed": (RngSeed, dict(root=1, stream=0), {
        "root": (INTEGER, "root"), "stream": (INTEGER, "stream")}),
    "SamplePath": (SamplePath, dict(grid=G, values=PATH.values, hurst=0.7), {
        "hurst": (OPTIONAL_UNIT, "hurst")}),
    "bm_covariance": (bm_covariance, dict(s=0.5, t=1.0), {
        "s": (NONNEGATIVE, "times"), "t": (NONNEGATIVE, "times")}),
    "fbm_covariance": (fbm_covariance, dict(H=0.7, s=0.5, t=1.0), {
        "H": (UNIT, "H"), "s": (NONNEGATIVE, "times"), "t": (NONNEGATIVE, "times")}),
    "increment_cross_covariance": (
        increment_cross_covariance, dict(H=0.7, s=0.0, t=1.0, u=1.0, v=2.0), {
            "H": (UNIT, "H"), "s": (NONNEGATIVE, "times"), "t": (NONNEGATIVE, "times"),
            "u": (NONNEGATIVE, "times"), "v": (NONNEGATIVE, "times")}),
    "normalizing_constant": (normalizing_constant, dict(H=0.7), {"H": (UNIT, "H")}),
    "moving_average_truncation_bias": (
        moving_average_truncation_bias, dict(H=0.7, truncation=10.0, t=1.0), {
            "H": (UNIT, "H"), "truncation": (NONNEGATIVE, "truncation"),
            "t": (NONNEGATIVE, "times")}),
    "generate_fbm_cholesky": (
        generate_fbm_cholesky, dict(grid=G, H=0.7, seed=SEED, max_nodes=64), {
            "H": (UNIT, "H"), "max_nodes": (INTEGER, "max_nodes")}),
    "generate_fbm_circulant": (generate_fbm_circulant, dict(grid=G, H=0.7, seed=SEED), {
        "H": (UNIT, "H")}),
    "generate_fbm_moving_average": (
        generate_fbm_moving_average,
        dict(grid=G, H=0.7, seed=SEED, truncation=10.0, kernel_mesh=2), {
            "H": (UNIT, "H"), "truncation": (OPTIONAL_NONNEGATIVE, "truncation"),
            "kernel_mesh": (INTEGER, "kernel_mesh")}),
    "bm_ensemble": (bm_ensemble, dict(grid=G, root=1, replicates=2), {
        "root": (INTEGER, "root"), "replicates": (INTEGER, "replicates")}),
    "fbm_cholesky_ensemble": (
        fbm_cholesky_ensemble, dict(grid=G, H=0.7, root=1, replicates=2, max_nodes=64), {
            "H": (UNIT, "H"), "root": (INTEGER, "root"),
            "replicates": (INTEGER, "replicates"), "max_nodes": (INTEGER, "max_nodes")}),
    "fbm_circulant_ensemble": (
        fbm_circulant_ensemble, dict(grid=G, H=0.7, root=1, replicates=2), {
            "H": (UNIT, "H"), "root": (INTEGER, "root"), "replicates": (INTEGER, "replicates")}),
    "fbm_moving_average_ensemble": (
        fbm_moving_average_ensemble,
        dict(grid=G, H=0.7, root=1, replicates=2, truncation=10.0, kernel_mesh=2), {
            "H": (UNIT, "H"), "root": (INTEGER, "root"), "replicates": (INTEGER, "replicates"),
            "truncation": (OPTIONAL_NONNEGATIVE, "truncation"),
            "kernel_mesh": (INTEGER, "kernel_mesh")}),
    "scale_path": (scale_path, dict(path=PATH, a=2.0), {"a": (NONNEGATIVE, "a")}),
    "DifferintegralSpec": (DifferintegralSpec, dict(alpha=0.5, **SPEC), {
        "alpha": (NONNEGATIVE, "order"), "side": (ENUM, "Side"),
        "kind": (ENUM, "OperatorKind")}),
    "GridFunction": (GridFunction, dict(a=0.0, b=1.0, values=F.values), {
        "a": (FINITE, "a"), "b": (NONNEGATIVE, "b")}),
    "cauchy_repeated_integral": (cauchy_repeated_integral, dict(f=F, m=2), {
        "m": (INTEGER, "m")}),
    "whole_line_fractional_integral": (
        whole_line_fractional_integral, dict(f=F, alpha=0.5, side=WholeLineSide.MINUS), {
            "alpha": (UNIT, "alpha"), "side": (ENUM, "WholeLineSide")}),
    "fractal_integral": (fractal_integral, dict(f=F, g=F, alpha=0.5), {
        "alpha": (UNIT, "alpha")}),
    "p_variation": (p_variation, dict(path=PATH, p=2.0, levels=3), {
        "p": (NONNEGATIVE, "p"), "levels": (INTEGER, "levels")}),
    "variation_index": (
        variation_index, dict(path=LONG, p_lo=0.8, p_hi=8.0, levels=5, h_tol=1e-3), {
            "p_lo": (NONNEGATIVE, "p_lo"), "p_hi": (NONNEGATIVE, "p_hi"),
            "levels": (INTEGER, "levels"), "h_tol": (NONNEGATIVE, "h_tol")}),
    "theoretical_acf": (theoretical_acf, dict(H=0.7, n=3), {
        "H": (UNIT, "H"), "n": (INTEGER, "n")}),
    "empirical_acf": (empirical_acf, dict(path=UNIT_SPACED, max_lag=2), {
        "max_lag": (INTEGER, "max_lag")}),
    "lrd_diagnostic": (lrd_diagnostic, dict(H=0.7, N=10), {
        "H": (UNIT, "H"), "N": (INTEGER, "N")}),
    "symmetric_integral": (symmetric_integral, dict(f=1.0, g=PATH, tol=0.05), {
        "f": (FINITE, "f"), "tol": (NONNEGATIVE, "tol")}),
    "forward_integral": (forward_integral, dict(f=1.0, g=PATH, tol=0.05), {
        "f": (FINITE, "f"), "tol": (NONNEGATIVE, "tol")}),
    "backward_integral": (backward_integral, dict(f=1.0, g=PATH, tol=0.05), {
        "f": (FINITE, "f"), "tol": (NONNEGATIVE, "tol")}),
    "covariation": (covariation, dict(x=PATH, y=PATH, tol=0.05), {
        "tol": (NONNEGATIVE, "tol")}),
    "riemann_stieltjes_integral": (
        riemann_stieltjes_integral, dict(u=1.0, g=PATH, levels=3, tol=0.01), {
            "u": (FINITE, "u"), "levels": (INTEGER, "levels"), "tol": (NONNEGATIVE, "tol")}),
    "extended_forward_integral": (
        extended_forward_integral, dict(f=1.0, g=PATH, eps_levels=3, u_points=4, tol=0.02), {
            "f": (FINITE, "f"), "eps_levels": (INTEGER, "eps_levels"),
            "u_points": (INTEGER, "u_points"), "tol": (NONNEGATIVE, "tol")}),
    "fractional_forward_process": (
        fractional_forward_process, dict(x0=0.5, alpha=0.0, f=1.0, g=PATH), {
            "x0": (FINITE, "x0"), "alpha": (FINITE, "alpha"), "f": (FINITE, "f")}),
    "ForwardProcess": (ForwardProcess, dict(grid=G, values=PATH.values, hurst=0.7), {
        "hurst": (OPTIONAL_UNIT, "hurst")}),
    "AdaptedIntegrand.constant": (AdaptedIntegrand.constant, dict(c=1.0), {
        "c": (FINITE, "c")}),
    # an array parameter: each rejected value is a scalar, so no (replicates, nodes) array
    "empirical_covariance": (empirical_covariance, dict(values=np.zeros((2, 17))), {
        "values": (FINITE, "values")}),
    "endpoint_comparison": (
        endpoint_comparison, dict(values=np.zeros((1000, 17)), grid=G, T=0.5), {
            "values": (FINITE, "values"), "T": (NONNEGATIVE, "T")}),
    "isometry_check": (isometry_check, dict(f=ONE, values=np.zeros((1000, 17)), grid=G), {
        "values": (FINITE, "values")}),
    "ItoProcess": (
        ItoProcess, dict(x0=0.5, drift=ONE, diffusion=ONE, driving_path=BM), {
            "x0": (FINITE, "x0")}),
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
