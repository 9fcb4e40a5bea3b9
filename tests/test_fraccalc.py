import re

import numpy as np
import pytest
from math import gamma
from hypothesis import given, settings, strategies as st
from scipy.integrate import cumulative_trapezoid, quad
from scipy.special import gamma as scipy_gamma, gammaln

from fracbm import fraccalc
from fracbm._nodecalc import diffpow
from fracbm.gaussianpaths import GridSpec, RngSeed, generate_fbm_circulant, write_path_csv
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
    read_grid_csv,
    write_grid_csv,
)

D = OperatorKind.DERIVATIVE


def hat(x):
    return np.maximum(0.0, 1.0 - np.abs(2.0 * x - 1.0))


class TestGridFunction:
    def test_from_callable_nodes(self):
        f = GridFunction.from_callable(np.sin, 0.0, 2.0, 8)
        assert f.n == 8
        assert f.h == pytest.approx(0.25)
        assert np.allclose(f.values, np.sin(f.times))

    def test_reflection_is_an_involution(self):
        f = GridFunction.from_callable(lambda x: x**3 - x, 0.0, 1.0, 32)
        g = f.reflected().reflected()
        assert np.array_equal(g.values, f.values)
        assert g.a == f.a and g.b == f.b

    def test_rejects_degenerate_interval(self):
        with pytest.raises(ValueError):
            GridFunction(1.0, 1.0, np.zeros(4))

    def test_rejects_scalar_values(self):
        with pytest.raises(ValueError):
            GridFunction(0.0, 1.0, np.array(3.0))

    @pytest.mark.parametrize(
        "values", [[True, False, True], np.array([True, False, True]), ["0", "x", "1"]],
        ids=["bools", "bool-array", "text"],
    )
    def test_samples_must_be_real_numbers(self, values):
        # float conversion would read the bools as 1, 0, 1
        with pytest.raises(ValueError, match="samples must be real numbers"):
            GridFunction(0.0, 1.0, values)

    def test_from_callable_takes_a_whole_node_count(self):
        with pytest.raises(ValueError, match="n must be an integer of at least 2, got 2.5"):
            GridFunction.from_callable(np.sin, 0.0, 1.0, 2.5)


class TestSpecValidation:
    def test_integral_order_any_positive(self):
        DifferintegralSpec(1.5)
        DifferintegralSpec(3.0)

    @pytest.mark.parametrize("alpha", [0.0, -0.5])
    def test_integral_order_must_be_positive(self, alpha):
        with pytest.raises(ValueError):
            DifferintegralSpec(alpha)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5])
    def test_derivative_order_open_unit_interval(self, alpha):
        with pytest.raises(ValueError):
            DifferintegralSpec(alpha, kind=D)

    @pytest.mark.parametrize("alpha", [None, 1j, "0.5", True, np.nan, np.inf])
    def test_order_must_be_a_finite_real_number(self, alpha):
        with pytest.raises(ValueError, match="order must be a finite real number"):
            DifferintegralSpec(alpha)
        with pytest.raises(ValueError, match="order must be a finite real number"):
            DifferintegralSpec(alpha, kind=D)


class TestIntegralExactCases:
    def test_unit_order_of_one_is_the_ramp(self):
        f = GridFunction.from_callable(lambda x: np.ones_like(x), 0.0, 1.0, 512)
        out = fractional_integral(f, DifferintegralSpec(1.0))
        assert np.abs(out.values - f.times).max() <= 1e-12

    def test_half_order_of_ramp_is_power_law(self):
        f = GridFunction.from_callable(lambda x: x, 0.0, 1.0, 2048)
        out = fractional_integral(f, DifferintegralSpec(0.5))
        closed = gamma(2.0) / gamma(2.5) * f.times**1.5
        assert np.abs(out.values - closed).max() <= 1e-10

    @pytest.mark.parametrize("k", [512, 1024, 2048])
    def test_half_order_of_ramp_against_quadrature(self, k):
        f = GridFunction.from_callable(lambda x: x, 0.0, 1.0, 2048)
        out = fractional_integral(f, DifferintegralSpec(0.5))
        t = f.times[k]
        ref = quad(lambda u: (t - u) ** -0.5 * u, 0.0, t, points=[t])[0] / gamma(0.5)
        assert abs(out.values[k] - ref) <= 1e-10

    def test_derivative_of_constant_decays_from_base(self):
        c = 2.5
        f = GridFunction(0.25, 1.25, np.full(2049, c))
        out = fractional_derivative(f, DifferintegralSpec(0.5, kind=D))
        t = f.times[1:]
        closed = c * (t - 0.25) ** -0.5 / gamma(0.5)
        assert np.abs(out.values[1:] - closed).max() <= 1e-12
        # the base node itself blows up and is reported as inf
        assert np.isposinf(out.values[0])


def direct_integral(vals, alpha, h):
    """The two-sum product quadrature, each sum by np.convolve."""
    n = vals.size - 1
    w0, w1 = fraccalc._integral_weights(alpha, h, n)
    out = np.zeros_like(vals)
    out[1:] = np.convolve(vals[:-1], w0)[:n] + np.convolve(vals[1:], w1)[:n]
    return out


def direct_derivative(vals, alpha, h):
    """Marchaud quadrature with its far-cell sums over p0 and p1 by np.convolve."""
    n = vals.size - 1
    d = np.arange(2, n + 1, dtype=float)
    p0 = -diffpow(d, -alpha) / alpha
    p1 = (d * p0 - diffpow(d, 1.0 - alpha) / (1.0 - alpha)) * h ** (1.0 - alpha)
    p0 *= h ** (-alpha)
    slope = np.diff(vals) / h
    core = np.diff(vals) * h ** (-alpha) / (1.0 - alpha)
    core[1:] += (
        vals[2:] * np.cumsum(p0)
        - np.convolve(vals[:-2], p0)[: n - 1]
        - np.convolve(slope[:-1], p1)[: n - 1]
    )
    k = np.arange(1, n + 1)
    out = np.empty_like(vals)
    out[1:] = (vals[1:] * (k * h) ** (-alpha) + alpha * core) / gamma(1.0 - alpha)
    out[0] = 0.0 if vals[0] == 0.0 else np.inf * np.sign(vals[0])
    return out


OPERATORS = [
    (fractional_integral, DifferintegralSpec(0.5), direct_integral),
    (fractional_integral, DifferintegralSpec(1.0), direct_integral),
    (fractional_integral, DifferintegralSpec(3.0), direct_integral),
    (fractional_derivative, DifferintegralSpec(0.4, kind=D), direct_derivative),
]
OPERATOR_IDS = ["integral-0.5", "integral-1", "integral-3", "derivative-0.4"]


def fbm_samples(n=2**12):
    return GridFunction(0.0, 1.0, generate_fbm_circulant(GridSpec(1.0, n), 0.7, RngSeed(8, 0)).values)


class TestFftEvaluation:
    """Each operator is one FFT convolution; the direct two-sum quadrature is the reference."""

    # 2^12 cells transform at 8,192 points; 3,000 cells at 6,000, where a
    # power of two would take 8,192
    @pytest.mark.parametrize("n", [2**12, 3000])
    @pytest.mark.parametrize("op,spec,direct", OPERATORS, ids=OPERATOR_IDS)
    def test_agrees_with_the_direct_sum(self, op, spec, direct, n):
        f = fbm_samples(n)
        out = op(f, spec).values
        ref = direct(f.values, spec.alpha, f.h)
        finite = np.isfinite(ref)
        assert np.array_equal(finite, np.isfinite(out))
        assert np.abs(out[finite] - ref[finite]).max() <= 1e-12 * np.abs(ref[finite]).max()

    @pytest.mark.parametrize("op,spec", [case[:2] for case in OPERATORS], ids=OPERATOR_IDS)
    def test_kept_kernel_gives_the_cold_result(self, op, spec):
        f = fbm_samples()
        kernel = fraccalc._integral_kernel if op is fractional_integral else fraccalc._derivative_kernel
        kernel.cache_clear()
        cold = op(f, spec).values
        warm = op(f, spec).values
        assert kernel.cache_info().hits == 1
        assert np.array_equal(cold, warm)
        assert not any(a.flags.writeable for a in kernel(float(spec.alpha), f.h, f.n))

    def test_a_left_right_pair_builds_each_kernel_once(self):
        f = fbm_samples()
        for op, kernel, kind, alpha in [
            (fractional_integral, fraccalc._integral_kernel, OperatorKind.INTEGRAL, 0.5),
            (fractional_derivative, fraccalc._derivative_kernel, D, 0.4),
        ]:
            kernel.cache_clear()
            for side in (Side.LEFT, Side.RIGHT):
                op(f, DifferintegralSpec(alpha, side, kind))
            info = kernel.cache_info()
            assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
            for m in (2**10, 2**9):
                op(fbm_samples(m), DifferintegralSpec(alpha, Side.LEFT, kind))
            assert kernel.cache_info().currsize == kernel.cache_info().maxsize
        # the two derivatives of the Stieltjes integral at alpha = 1/2 share one kernel
        fraccalc._derivative_kernel.cache_clear()
        fractal_integral(GridFunction(0.0, 1.0, np.linspace(0.0, 1.0, f.n + 1)), f, 0.5)
        assert fraccalc._derivative_kernel.cache_info()[:2] == (1, 1)

    def test_fractal_integral_keeps_both_orders(self):
        # orders alpha and 1 - alpha each build their kernel once on one grid
        f = fbm_samples(256)
        t = GridFunction(0.0, 1.0, np.linspace(0.0, 1.0, f.n + 1))
        fraccalc._derivative_kernel.cache_clear()
        values = [fractal_integral(t, f, 0.3) for _ in range(3)]
        assert fraccalc._derivative_kernel.cache_info()[:2] == (4, 2)
        assert values[0] == values[1] == values[2]

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 2**11),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.floats(0.01, 6.0),
        beta=st.floats(0.01, 0.99),
    )
    def test_right_side_is_bitwise_the_reflected_left_side(self, n, seed, alpha, beta):
        f = GridFunction(0.0, 1.0, np.random.default_rng(seed).standard_normal(n + 1))
        for op, spec in [
            (fractional_integral, DifferintegralSpec(alpha, Side.RIGHT)),
            (fractional_derivative, DifferintegralSpec(beta, Side.RIGHT, D)),
        ]:
            left = DifferintegralSpec(spec.alpha, Side.LEFT, spec.kind)
            mirrored = op(f.reflected(), left).reflected()
            assert np.array_equal(op(f, spec).values, mirrored.values)


class TestHighOrders:
    def test_order_200_underflows_to_zero_on_the_unit_interval(self):
        # t**200 / 200! is below the smallest double everywhere on [0, 1]
        f = GridFunction(0.0, 1.0, np.ones(65))
        out = fractional_integral(f, DifferintegralSpec(200.0))
        assert np.array_equal(out.values, np.zeros(65))

    def test_order_200_of_one_is_the_power_law(self):
        f = GridFunction(0.0, 128.0, np.ones(65))
        out = fractional_integral(f, DifferintegralSpec(200.0))
        closed = np.exp(200.0 * np.log(f.times[1:]) - gammaln(201.0))
        assert out.values[0] == 0.0
        assert np.abs(out.values[1:] - closed).max() <= 1e-12 * closed.max()

    def test_unrepresentable_order_is_named(self):
        f = GridFunction(0.0, 1e4, np.ones(65))
        with pytest.raises(ValueError, match="order 200.0 overflows"):
            fractional_integral(f, DifferintegralSpec(200.0))

    def test_overflowing_samples_are_named(self):
        f = GridFunction(0.0, 4.0, np.full(65, 1e308))  # reaches 2.3e308 at t = 4
        with pytest.raises(ValueError, match="order 0.5 overflows"):
            fractional_integral(f, DifferintegralSpec(0.5))

    @pytest.mark.parametrize(
        "b, alpha, overflows",
        [(1.0, 1e307, False), (128.0, 1e307, False), (1.0, 1.7e308, False), (128.0, 1.7e308, True)],
    )
    def test_huge_orders(self, b, alpha, overflows):
        # log Gamma(alpha+1) overflows a double here; the weights underflow to
        # zero unless alpha*log(b) overflows too, which is named
        f = GridFunction(0.0, b, np.ones(65))
        if overflows:
            with pytest.raises(ValueError, match=re.escape(f"integral of order {alpha} overflows")):
                fractional_integral(f, DifferintegralSpec(alpha))
        else:
            out = fractional_integral(f, DifferintegralSpec(alpha))
            assert np.array_equal(out.values, np.zeros(65))

    def test_gamma_constants_match_scipy(self):
        # the orders the operators use: Gamma(1-alpha) for derivatives,
        # log Gamma(alpha+1) for integrals up to order 200, and Gamma(1+eps)
        # in extended_forward_integral.  The weights carry exp(-log Gamma), so
        # below 1 in magnitude its absolute error is the weights' relative one.
        # Measured: 1.0e-15 at most on these grids (a few ulp).
        orders = np.linspace(0.0, 1.0, 4001)[1:-1]
        eps = 10.0 ** -np.arange(1, 13)
        for x in np.concatenate([1.0 - orders, 1.0 + eps]):
            want = scipy_gamma(x)
            assert abs(gamma(x) - want) <= 2e-15 * want
        for x in np.linspace(0.0, 200.0, 8001)[1:] + 1.0:
            want = gammaln(x)
            assert abs(fraccalc._gammaln(x) - want) <= 2e-15 * max(1.0, abs(want))

    def test_log_gamma_is_as_accurate_as_scipy_on_low_orders(self):
        # integral orders 0-9 take log Gamma on (1, 10); math.lgamma is off by
        # up to 1.25e-15 on this sample, log(math.gamma(x)) by 7.8e-16
        for x in np.linspace(1.0, 10.0, 2001)[1:-1]:
            want = gammaln(x)
            assert abs(fraccalc._gammaln(x) - want) <= 1e-15 * max(1.0, abs(want))


class TestRoundTrips:
    def test_derivative_undoes_integral(self):
        f = GridFunction.from_callable(np.sin, 0.0, 1.0, 4096)
        g = fractional_integral(f, DifferintegralSpec(0.3))
        back = fractional_derivative(g, DifferintegralSpec(0.3, kind=D))
        assert np.abs(back.values - f.values).max() <= 1e-4

    def test_inversion_both_ways_at_order_point_four(self):
        f = GridFunction.from_callable(np.sin, 0.0, 1.0, 4096)
        spec_i = DifferintegralSpec(0.4)
        spec_d = DifferintegralSpec(0.4, kind=D)
        di = fractional_derivative(fractional_integral(f, spec_i), spec_d)
        assert np.abs(di.values - f.values).max() <= 2e-4
        # sin vanishes at the base point, so its derivative stays finite and
        # the opposite composition applies as well
        df = fractional_derivative(f, spec_d)
        idf = fractional_integral(df, spec_i)
        assert np.abs(idf.values - f.values).max() <= 2e-4

    def test_derivative_agrees_with_gradient_of_complement(self):
        # two routes to the same half derivative: direct, and the classical
        # gradient of the complementary half integral; away from the base
        # point they coincide
        f = GridFunction.from_callable(np.sin, 0.0, 1.0, 4096)
        direct = fractional_derivative(f, DifferintegralSpec(0.5, kind=D))
        other = np.gradient(fractional_integral(f, DifferintegralSpec(0.5)).values, f.h)
        window = f.times >= 0.05
        assert np.abs(direct.values[window] - other[window]).max() <= 1e-4


class TestOperatorAlgebra:
    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("b", [0.25, 0.5, 0.75])
    def test_semigroup_residual_shrinks_with_resolution(self, a, b):
        def residual(n):
            f = GridFunction.from_callable(np.sin, 0.0, 1.0, n)
            two = fractional_integral(
                fractional_integral(f, DifferintegralSpec(b)), DifferintegralSpec(a)
            )
            one = fractional_integral(f, DifferintegralSpec(a + b))
            return np.abs(two.values - one.values).max()

        r1, r2 = residual(2048), residual(4096)
        assert r1 <= 1e-5
        assert r1 / r2 >= 1.5

    @pytest.mark.parametrize("kind", [OperatorKind.INTEGRAL, D])
    def test_right_side_is_reflected_left_side(self, kind):
        f = GridFunction.from_callable(lambda x: np.sin(2.0 * x) + x * x, 0.0, 1.0, 1024)
        right = fractional_integral(f, DifferintegralSpec(0.5, Side.RIGHT)) \
            if kind is OperatorKind.INTEGRAL \
            else fractional_derivative(f, DifferintegralSpec(0.5, Side.RIGHT, kind))
        op = fractional_integral if kind is OperatorKind.INTEGRAL else fractional_derivative
        mirrored = op(f.reflected(), DifferintegralSpec(0.5, Side.LEFT, kind)).reflected()
        finite = np.isfinite(right.values)
        assert np.array_equal(finite, np.isfinite(mirrored.values))
        assert np.abs(right.values[finite] - mirrored.values[finite]).max() <= 1e-12

    def test_sides_exchange_under_the_inner_product(self):
        def residual(n):
            f = GridFunction.from_callable(lambda x: np.sin(2.0 * x), 0.0, 1.0, n)
            g = GridFunction.from_callable(lambda x: np.cos(3.0 * x), 0.0, 1.0, n)
            lf = fractional_integral(f, DifferintegralSpec(0.5, Side.LEFT))
            rg = fractional_integral(g, DifferintegralSpec(0.5, Side.RIGHT))
            h = f.h
            return abs(
                np.trapezoid(lf.values * g.values, dx=h)
                - np.trapezoid(f.values * rg.values, dx=h)
            )

        r1, r2 = residual(4096), residual(8192)
        assert r1 <= 1e-5
        assert r1 / r2 >= 1.5


class TestRepeatedIntegral:
    def test_two_fold_of_one_is_half_square(self):
        f = GridFunction.from_callable(lambda x: np.ones_like(x), 0.0, 1.0, 1024)
        out = cauchy_repeated_integral(f, 2)
        assert np.abs(out.values - f.times**2 / 2.0).max() <= 1e-12

    def test_three_fold_of_ramp_is_quartic(self):
        f = GridFunction.from_callable(lambda x: x, 0.0, 1.0, 1024)
        out = cauchy_repeated_integral(f, 3)
        assert np.abs(out.values - f.times**4 / 24.0).max() <= 1e-12

    def test_three_fold_matches_iterated_quadrature(self):
        n = 1024
        f = GridFunction.from_callable(lambda x: x, 0.0, 1.0, n)
        out = cauchy_repeated_integral(f, 3)
        tt = np.linspace(0.0, 1.0, 10 * n + 1)
        ref = tt.copy()
        for _ in range(3):
            ref = cumulative_trapezoid(ref, dx=tt[1], initial=0.0)
        assert np.abs(out.values - ref[::10]).max() <= 1e-6

    def test_single_fold_is_bitwise_the_unit_integral(self):
        f = GridFunction.from_callable(lambda x: x, 0.0, 1.0, 1024)
        a = cauchy_repeated_integral(f, 1)
        b = fractional_integral(f, DifferintegralSpec(1.0))
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("m", [0, -1, 1.5, True, None])
    def test_rejects_bad_repeat_counts(self, m):
        f = GridFunction.from_callable(lambda x: x, 0.0, 1.0, 64)
        with pytest.raises(ValueError, match="repetition count m must be a positive integer"):
            cauchy_repeated_integral(f, m)


class TestWholeLine:
    def test_collapses_to_one_sided_on_the_support(self):
        wide = GridFunction.from_callable(hat, -1.0, 2.0, 3072)
        narrow = GridFunction.from_callable(hat, 0.0, 1.0, 1024)
        k0 = 1024  # node of the wide grid sitting at t = 0
        minus = whole_line_fractional_integral(wide, 0.4, WholeLineSide.MINUS)
        left = fractional_integral(narrow, DifferintegralSpec(0.4, Side.LEFT))
        assert np.abs(minus.values[k0 : k0 + 1025] - left.values).max() <= 1e-10
        plus = whole_line_fractional_integral(wide, 0.4, WholeLineSide.PLUS)
        right = fractional_integral(narrow, DifferintegralSpec(0.4, Side.RIGHT))
        assert np.abs(plus.values[k0 : k0 + 1025] - right.values).max() <= 1e-10

    def test_indicator_closed_form_below_the_support(self):
        t = np.linspace(-1.0, 2.0, 3073)
        ind = GridFunction(-1.0, 2.0, ((t >= 0.0) & (t <= 1.0)).astype(float))
        out = whole_line_fractional_integral(ind, 0.25, WholeLineSide.PLUS)
        # nodes right below the jump see it smeared over one cell, so stand
        # off by a few cells before comparing
        sel = out.times <= -0.125
        s = out.times[sel]
        closed = ((1.0 - s) ** 0.25 - (-s) ** 0.25) / gamma(1.25)
        assert np.abs(out.values[sel] - closed).max() <= 5e-3

    def test_small_orders_approach_the_identity(self):
        wide = GridFunction.from_callable(hat, -1.0, 2.0, 3072)
        devs = [
            np.abs(
                whole_line_fractional_integral(wide, a, WholeLineSide.MINUS).values
                - wide.values
            ).max()
            for a in (0.2, 0.1, 0.05, 0.01)
        ]
        assert all(b < a for a, b in zip(devs, devs[1:]))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.3, np.nan, "0.5", None, 1j, True])
    def test_order_restricted_to_open_unit_interval(self, alpha):
        f = GridFunction.from_callable(hat, -1.0, 2.0, 64)
        with pytest.raises(ValueError, match="alpha must lie in"):
            whole_line_fractional_integral(f, alpha, WholeLineSide.MINUS)


class TestFractalIntegral:
    def test_constant_integrand_telescopes(self):
        g = GridFunction.from_callable(lambda x: x * x, 0.0, 1.0, 1024)
        f = GridFunction(0.0, 1.0, np.full(1025, 1.7))
        val = fractal_integral(f, g, 0.5)
        assert abs(val - 1.7 * (g.values[-1] - g.values[0])) <= 1e-8

    def test_linear_pair_gives_half(self):
        f = GridFunction.from_callable(lambda x: x, 0.0, 1.0, 4096)
        assert abs(fractal_integral(f, f, 0.5) - 0.5) <= 1e-3

    def test_value_does_not_depend_on_the_order(self):
        f = GridFunction.from_callable(np.sin, 0.0, 1.0, 4096)
        g = GridFunction.from_callable(lambda x: x * x, 0.0, 1.0, 4096)
        vals = [fractal_integral(f, g, a) for a in (0.3, 0.5, 0.7)]
        classical = 2.0 * (np.sin(1.0) - np.cos(1.0))
        assert max(vals) - min(vals) <= 1e-3
        assert all(abs(v - classical) <= 1e-3 for v in vals)

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, np.nan, "0.5", None, 1j, True])
    def test_order_must_be_a_real_in_the_unit_interval(self, alpha):
        f = GridFunction.from_callable(np.sin, 0.0, 1.0, 64)
        with pytest.raises(ValueError, match="alpha must lie in"):
            fractal_integral(f, f, alpha)

    def test_rejects_mismatched_grids(self):
        f = GridFunction.from_callable(np.sin, 0.0, 1.0, 64)
        g = GridFunction.from_callable(np.sin, 0.0, 2.0, 64)
        with pytest.raises(ValueError):
            fractal_integral(f, g, 0.5)

    def test_rejects_grids_that_differ_on_a_small_horizon(self):
        # an absolute 1e-12 once read [0, 1e-300] and [0, 3e-300] as one grid
        f = GridFunction(0.0, 1e-300, np.linspace(0.0, 1.0, 65))
        g = GridFunction(0.0, 3e-300, np.linspace(0.0, 1.0, 65))
        with pytest.raises(ValueError, match="f and g must share one grid"):
            fractal_integral(f, g, 0.5)

    def test_accepts_grids_that_differ_by_rounding_on_a_large_horizon(self):
        # and rejected two grids on [0, 1e6] whose right ends differ by 1e-15 relative
        f = GridFunction(0.0, 1e6, np.linspace(0.0, 1.0, 65))
        g = GridFunction(0.0, 1e6 * (1 + 1e-15), f.values)
        assert g.b != f.b
        assert fractal_integral(f, g, 0.5) == fractal_integral(f, f, 0.5)


def test_grid_csv_round_trip(tmp_path):
    f = GridFunction.from_callable(lambda x: np.sin(3.0 * x), 0.25, 1.5, 257)
    dest = tmp_path / "grid.csv"
    write_grid_csv(f, dest)
    back = read_grid_csv(dest)
    assert back.a == f.a and back.b == f.b
    assert np.array_equal(back.values, f.values)


def test_grid_csv_malformed_row_reports_the_line(tmp_path):
    dest = tmp_path / "bad.csv"
    dest.write_text("t,value\n0.0,0.0\n0.5,1.0\n1.0,oops\n1.5,2.0\n")
    with pytest.raises(ValueError, match="line 4"):
        read_grid_csv(dest)


def test_grid_csv_uneven_spacing_rejected(tmp_path):
    dest = tmp_path / "uneven.csv"
    dest.write_text("t,value\n0.0,0.0\n0.1,0.2\n0.9,0.3\n")
    with pytest.raises(ValueError, match="uniformly spaced"):
        read_grid_csv(dest)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_grid_csv_non_finite_time_rejected(tmp_path, bad):
    dest = tmp_path / "bad.csv"
    dest.write_text(f"t,value\n0,1\n{bad},2\n2,3\n")
    with pytest.raises(ValueError, match="column 't'"):
        read_grid_csv(dest)


def test_grid_csv_reads_a_path_file(tmp_path):
    # the `fracbm fracint --input run/path.csv` workflow: provenance lines are skipped
    p = generate_fbm_circulant(GridSpec(2.0, 64), 0.7, RngSeed(5, 1))
    dest = tmp_path / "path.csv"
    write_path_csv(p, dest)
    f = read_grid_csv(dest)
    assert f.a == 0.0 and f.b == 2.0
    assert np.array_equal(f.values, p.values)
