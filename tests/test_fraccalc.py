import numpy as np
import pytest
from math import gamma
from scipy.integrate import cumulative_trapezoid, quad

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

    @pytest.mark.parametrize("m", [0, -1, 1.5])
    def test_rejects_bad_repeat_counts(self, m):
        f = GridFunction.from_callable(lambda x: x, 0.0, 1.0, 64)
        with pytest.raises(ValueError):
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

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.3])
    def test_order_restricted_to_open_unit_interval(self, alpha):
        f = GridFunction.from_callable(hat, -1.0, 2.0, 64)
        with pytest.raises(ValueError):
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

    def test_rejects_mismatched_grids(self):
        f = GridFunction.from_callable(np.sin, 0.0, 1.0, 64)
        g = GridFunction.from_callable(np.sin, 0.0, 2.0, 64)
        with pytest.raises(ValueError):
            fractal_integral(f, g, 0.5)


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


def test_grid_csv_reads_a_path_file(tmp_path):
    # the `fracbm fracint --input run/path.csv` workflow: provenance lines are skipped
    p = generate_fbm_circulant(GridSpec(2.0, 64), 0.7, RngSeed(5, 1))
    dest = tmp_path / "path.csv"
    write_path_csv(p, dest)
    f = read_grid_csv(dest)
    assert f.a == 0.0 and f.b == 2.0
    assert np.array_equal(f.values, p.values)
