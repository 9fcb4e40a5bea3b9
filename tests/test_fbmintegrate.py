import json
import math
import warnings
from math import gamma

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fracbm.gaussianpaths import (
    GridSpec,
    RngSeed,
    SamplePath,
    generate_bm,
    generate_fbm_circulant,
    generate_fbm_moving_average,
)
from fracbm.itocalc import AdaptedIntegrand, ItoProcess, ito_integral
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

G12 = GridSpec(1.0, 2**12)
G14 = GridSpec(1.0, 2**14)


@pytest.fixture(scope="module")
def g75():
    return generate_fbm_circulant(G12, 0.75, RngSeed(20, 0))


@pytest.fixture(scope="module")
def bm():
    return generate_bm(G12, RngSeed(21, 0))


def ramp(grid=G12):
    return SamplePath(grid, grid.times.copy(), None)


class TestQuotientLadders:
    def test_symmetric_of_one_telescopes(self, g75):
        span = g75.values[-1] - g75.values[0]
        res = symmetric_integral(1.0, g75)
        tol = telescoping_tolerance(g75)
        assert res.converged
        assert abs(res.value - span) <= tol

    def test_forward_of_one_telescopes(self, g75):
        span = g75.values[-1] - g75.values[0]
        res = forward_integral(1.0, g75)
        tol = telescoping_tolerance(g75)
        assert res.converged
        assert abs(res.value - span) <= tol

    def test_backward_of_one_telescopes_with_the_literal_sign(self, g75):
        span = g75.values[-1] - g75.values[0]
        res = backward_integral(1.0, g75)
        assert res.converged
        assert abs(res.value + span) <= telescoping_tolerance(g75)

    def test_symmetric_parts_identity_for_time_integrand(self, g75):
        res = symmetric_integral(g75.times, g75)
        whole = 1.0 * g75.values[-1]
        assert abs(res.value + np.trapezoid(g75.values, dx=g75.dt) - whole) <= 0.01

    def test_symmetric_self_integral_is_half_the_square(self, g75):
        span = g75.values[-1] - g75.values[0]
        res = symmetric_integral(g75, g75)
        assert abs(res.value - 0.5 * span**2) <= 0.02

    def test_forward_on_brownian_matches_left_sums(self, bm):
        res = forward_integral(bm, bm)
        left = ito_integral(AdaptedIntegrand.path_value(), bm)
        assert res.converged
        assert abs(res.value - left) <= 0.03

    def test_non_finite_scalar_integrand_rejected(self, g75):
        with pytest.raises(ValueError, match="f must be finite"):
            forward_integral(float("inf"), g75)

    def test_forward_diverges_on_rough_input(self):
        g = generate_fbm_circulant(G12, 0.25, RngSeed(21, 1))
        assert not forward_integral(g, g).converged

    def test_forward_backward_gap_is_the_quadratic_variation(self, bm):
        fwd = forward_integral(bm, bm)
        bwd = backward_integral(bm, bm)
        # the literal backward kernel returns minus the right sums
        assert abs((-bwd.value) - fwd.value - 1.0) <= 0.05

    def test_forward_backward_gap_vanishes_for_smooth_paths(self):
        r = ramp()
        fwd = forward_integral(r, r)
        bwd = backward_integral(r, r)
        assert abs((-bwd.value) - fwd.value) <= 1e-3

    def test_ladders_are_linear_in_the_integrand(self, g75):
        fa = np.sin(g75.times)
        fb = np.cos(2.0 * g75.times)
        combined = symmetric_integral(2.0 * fa - 0.5 * fb, g75)
        a = symmetric_integral(fa, g75)
        b = symmetric_integral(fb, g75)
        for (_, vc), (_, va), (_, vb) in zip(combined.levels, a.levels, b.levels):
            assert abs(vc - (2.0 * va - 0.5 * vb)) <= 1e-12

    def test_integration_by_parts_across_indices(self):
        # f = t against rough drivers of varying persistence
        for H in (0.6, 0.75, 0.9):
            for s in range(10):
                g = generate_fbm_circulant(G12, H, RngSeed(24, s))
                res = symmetric_integral(g.times, g)
                gap = abs(res.value + np.trapezoid(g.values, dx=g.dt) - g.values[-1])
                assert gap <= 0.02


class TestRiemannStieltjes:
    def test_smooth_integrand_converges(self, g75):
        res = riemann_stieltjes_integral(np.sin(g75.times), g75)
        assert res.converged
        assert abs(res.levels[-1][1] - res.levels[-2][1]) <= 0.01

    def test_independent_rough_integrand_converges(self, g75):
        u = generate_fbm_circulant(G12, 0.75, RngSeed(22, 5))
        assert riemann_stieltjes_integral(u, g75).converged

    def test_brownian_case_reproduces_left_sums(self, bm):
        res = riemann_stieltjes_integral(bm, bm)
        left = float(np.dot(bm.values[:-1], np.diff(bm.values)))
        assert res.value == pytest.approx(left, abs=1e-12)
        assert res.converged
        # p-variation near 2 sits outside the sufficient condition; that is
        # reported, not fatal
        assert "variation" in res.diagnostic

    def test_scalar_integrand(self, g75):
        span = g75.values[-1] - g75.values[0]
        res = riemann_stieltjes_integral(2.0, g75)
        assert res.value == pytest.approx(2.0 * span, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 31])
    def test_a_path_too_short_for_the_dyadic_levels_names_its_steps(self, n):
        # the five dyadic meshes, 16 down to 1 step, need 32 steps; once the message named
        # a levels argument that the CLI has no flag for
        g = generate_fbm_circulant(GridSpec(1.0, n), 0.75, RngSeed(1, 0))
        with pytest.raises(ValueError, match=f"at least 32 steps, got {n} steps"):
            riemann_stieltjes_integral(1.0, g)

    @pytest.mark.parametrize("n", [32, 33, 64])
    def test_a_path_of_32_steps_takes_all_five_levels(self, n):
        g = generate_fbm_circulant(GridSpec(1.0, n), 0.75, RngSeed(1, 0))
        res = riemann_stieltjes_integral(1.0, g)
        assert len(res.levels) == 5 and np.isfinite([v for _, v in res.levels]).all()

    def test_constant_integrand_meets_the_variation_condition(self, g75):
        # a constant has bounded variation, so no heuristic probe is needed
        res = riemann_stieltjes_integral(1.0, g75)
        assert "heuristic" not in res.diagnostic

    def test_non_finite_scalar_integrand_rejected(self, g75):
        with pytest.raises(ValueError, match="u must be finite"):
            riemann_stieltjes_integral(float("nan"), g75)


class TestCovariation:
    def test_brownian_self_covariation_is_the_clock(self, bm):
        assert abs(covariation(bm, bm).value - 1.0) <= 0.05

    def test_persistent_self_covariation_vanishes(self):
        g = generate_fbm_circulant(G14, 0.75, RngSeed(20, 0))
        assert abs(covariation(g, g).value) <= 0.02

    def test_brownian_against_smooth_vanishes(self, bm):
        assert abs(covariation(bm, ramp()).value) <= 0.01

    def test_symmetry(self, bm, g75):
        assert covariation(bm, g75).value == covariation(g75, bm).value


class TestRelationCheck:
    def test_brownian_residual_small(self, bm):
        sym, fwd, cov, residual = symmetric_forward_relation_check(bm, bm)
        assert abs(residual) <= 0.05
        # the covariation itself is order one, so the residual is a real
        # cancellation, not two small terms
        assert abs(cov) > 0.5

    def test_smooth_inputs_collapse_the_correction(self):
        r = ramp()
        sym, fwd, cov, residual = symmetric_forward_relation_check(r, r)
        assert abs(cov) <= 1e-3
        assert abs(sym - fwd) <= 1e-3

    def test_persistent_inputs_all_agree(self):
        g = generate_fbm_circulant(G14, 0.75, RngSeed(20, 0))
        sym, fwd, cov, residual = symmetric_forward_relation_check(g, g)
        assert abs(residual) <= 0.02
        assert abs(sym - fwd) <= 0.02
        assert abs(cov) <= 0.02


class TestExtendedForward:
    def test_unit_integrand_telescopes(self, g75):
        span = g75.values[-1] - g75.values[0]
        res = extended_forward_integral(1.0, g75)
        assert res.converged
        assert abs(res.value - span) <= 0.01

    def test_smooth_integrand_matches_plain_forward(self, g75):
        f = np.cos(3.0 * g75.times)
        ext = extended_forward_integral(f, g75)
        fwd = forward_integral(f, g75)
        assert abs(ext.value - fwd.value) <= 0.02

    def test_weighted_average_on_the_ramp_matches_closed_form(self):
        # for g(t) = t the inner quotient is T - u/2 exactly, so the whole
        # weighted average has the closed form T^(1+e) (1/Gamma(1+e)
        # - 1/(2 (1+e) Gamma(e))); the largest gap, at e = 1e-4, is 1.22e-4
        r = ramp()
        res = extended_forward_integral(1.0, r)
        assert len(res.levels) == 4
        for e, est in res.levels:
            closed = 1.0 / gamma(1.0 + e) - 1.0 / (2.0 * (1.0 + e) * gamma(e))
            assert abs(est - closed) <= 5e-4

    def test_agrees_with_interpolated_shifts(self, g75):
        # reference: each shifted path from np.interp, each I(u) by np.trapezoid
        f = np.cos(3.0 * g75.times)
        times, gv, h = g75.times, g75.values, g75.dt

        def inner(u):
            return float(np.trapezoid(f * (np.interp(times + u, times, gv) - gv), dx=h)) / u

        edges = h * (1.0 / h) ** (np.arange(49) / 48)
        i_mid = np.array([inner(u) for u in np.sqrt(edges[:-1] * edges[1:])])
        res = extended_forward_integral(f, g75)
        assert [e for e, _ in res.levels] == [10.0**-j for j in range(1, 5)]
        for e, est in res.levels:
            cell = edges[:-1] ** e * np.expm1(e * np.log(1.0 / h) / 48) / gamma(1.0 + e)
            ref = float(np.dot(cell, i_mid)) + inner(h) * h**e / gamma(1.0 + e)
            assert abs(est - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("t_max", [1e-300, 1e300])
    def test_any_time_unit_gives_finite_levels(self, t_max):
        # as raw products the u midpoints underflow to 0 on [0, 1e-300] and overflow on [0, 1e300]
        g = generate_fbm_circulant(GridSpec(t_max, 1024), 0.75, RngSeed(1, 0))
        res = extended_forward_integral(1.0, g)
        span = g.values[-1] - g.values[0]
        assert np.isfinite([est for _, est in res.levels]).all()
        assert abs(res.value - span) <= 0.1 * abs(span)

    def test_the_levels_do_not_read_the_unit_of_time(self):
        # the paths of `fracbm generate --generator moving-average --hurst 0.7 --tmax T`:
        # with u in absolute units each level was about T^eps times its value at T = 1,
        # 0.986 and 1.132 of the span at eps = 1e-4 and diverging at T = 1e-300 and 1e300
        ladders = []
        for t_max in (1e-300, 1.0, 1e300):
            g = generate_fbm_moving_average(GridSpec(t_max, 1024), 0.7, RngSeed(42, 0))
            res = extended_forward_integral(1.0, g)
            span = g.values[-1] - g.values[0]
            ladders.append(([est / span for _, est in res.levels], res.converged))
        for shares, converged in ladders:
            assert converged
            assert shares == pytest.approx(ladders[1][0], rel=1e-13)
        assert ladders[1][0][-1] == pytest.approx(1.0564, abs=1e-4)


def scaled(path, j):
    return SamplePath(path.grid, np.ldexp(path.values, j), path.hurst)


class TestUnitFreeVerdict:
    """A ladder converges when its last two levels differ by at most 5% of max|f| osc g.

    Once the gap was compared with an absolute tolerance, so the verdict read the
    units of the path; the cases below are those it got wrong.
    """

    @pytest.fixture(scope="class")
    def q(self):
        return generate_fbm_circulant(G12, 0.75, RngSeed(3, 0))

    @pytest.mark.parametrize("scale", [1, 16, 1024])
    def test_self_integral_converges_at_every_scale(self, q, scale):
        # the value scales by scale^2 (0.0890 to 93,329); the verdict once flipped at 1,024
        x = SamplePath(G12, q.values * scale, q.hurst)
        res = symmetric_integral(x, x)
        assert res.converged
        assert res.value == pytest.approx(0.0890 * scale**2, rel=1e-3)

    def test_integral_of_one_converges_on_a_scaled_path(self, q):
        assert symmetric_integral(1.0, scaled(q, 10)).converged

    def test_a_diverging_ladder_stays_diverging_on_a_small_path(self):
        x = scaled(generate_fbm_circulant(G12, 0.3, RngSeed(3, 0)), -20)
        assert not forward_integral(x, x).converged

    @pytest.mark.parametrize("H, votes", [(0.3, 0), (0.4, 0), (0.6, 20)])
    def test_the_bound_splits_the_vote_paths(self, H, votes):
        # E12's forward-ladder vote paths: the gap reads at most 3.7% of max|x| osc x
        # at H = 0.6, at least 5.5% at H = 0.4 and at least 47% at H = 0.3
        paths = (generate_fbm_circulant(G14, H, RngSeed(25, s)) for s in range(20))
        assert sum(forward_integral(x, x).converged for x in paths) == votes


PROPERTY_PATH = generate_fbm_circulant(GridSpec(1.0, 256), 0.75, RngSeed(22, 256))
PROPERTY_F = 2.0 + np.cos(3.0 * PROPERTY_PATH.times)
LADDERS = {
    "symmetric": symmetric_integral,
    "forward": forward_integral,
    "backward": backward_integral,
    "covariation": lambda f, g: covariation(g, f),
    "stieltjes": riemann_stieltjes_integral,
    "extended": extended_forward_integral,
}


@pytest.mark.parametrize("ladder", list(LADDERS))
@settings(max_examples=25, deadline=None)
@given(j=st.integers(-500, 500), k=st.integers(-500, 500))
@example(j=500, k=500)
@example(j=-500, k=-500)
def test_ladders_do_not_depend_on_the_units_of_f_and_g(ladder, j, k):
    base = LADDERS[ladder](PROPERTY_F, PROPERTY_PATH)
    res = LADDERS[ladder](np.ldexp(PROPERTY_F, j), scaled(PROPERTY_PATH, k))
    assert res.value == math.ldexp(base.value, j + k)
    assert res.levels == tuple((e, math.ldexp(v, j + k)) for e, v in base.levels)
    assert (res.converged, res.diagnostic) == (base.converged, base.diagnostic)


@settings(max_examples=25, deadline=None)
@given(j=st.integers(-900, 900))
@example(j=900)
@example(j=-900)
def test_extended_levels_do_not_depend_on_the_unit_of_time(j):
    base = LADDERS["extended"](PROPERTY_F, PROPERTY_PATH)
    path = SamplePath(GridSpec(math.ldexp(1.0, j), 256), PROPERTY_PATH.values, PROPERTY_PATH.hurst)
    res = LADDERS["extended"](PROPERTY_F, path)
    assert (res.value, res.levels, res.converged, res.diagnostic) == (
        base.value, base.levels, base.converged, base.diagnostic)


class TestFloatRange:
    @pytest.fixture(scope="class")
    def paths(self):
        return {t: generate_fbm_moving_average(GridSpec(t, 64), 0.7, RngSeed(1, 0)) for t in (1e-300, 1e300)}

    @pytest.mark.parametrize("ladder", list(LADDERS))
    def test_a_level_past_the_float_range_is_named(self, paths, ladder):
        # x dx on [0, 1e300] is about 1e420: once numpy overflow warnings and a nan value
        g = paths[1e300]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="level at .* overflows a float"):
                LADDERS[ladder](g.values, g)

    EPS_LADDERS = {
        "symmetric": lambda g: symmetric_integral(1.0, g),
        "forward": lambda g: forward_integral(1.0, g),
        "backward": lambda g: backward_integral(1.0, g),
        "covariation": lambda g: covariation(g, 1.0),
        "telescoping": telescoping_tolerance,
        "relation": lambda g: symmetric_forward_relation_check(1.0, g),
    }

    @pytest.mark.parametrize("t_max", [6.4e307, 1.5e308])
    @pytest.mark.parametrize("ladder", list(EPS_LADDERS))
    def test_an_epsilon_ladder_past_the_float_range_is_named(self, ladder, t_max):
        # on 16 steps the symmetric span 2 eps at 32 steps overflows; a kernel divided
        # by it read 0 at 6.4e307, where the widest eps itself still fits a float
        g = SamplePath(GridSpec(t_max, 16), np.sin(np.arange(17.0)), None)
        with pytest.raises(ValueError, match="the epsilon ladder overflows a float"):
            self.EPS_LADDERS[ladder](g)

    # the relation check refuses this path at any scale: its forward ladder does not converge
    @pytest.mark.parametrize("ladder", [name for name in EPS_LADDERS if name != "relation"])
    def test_an_epsilon_ladder_just_inside_the_float_range_is_finite_and_silent(self, ladder):
        # on [0, 4.4e307] in 16 steps the symmetric span 2 eps at 32 steps is 1.76e308, a float
        g = SamplePath(GridSpec(4.4e307, 16), np.sin(np.arange(17.0)), None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = self.EPS_LADDERS[ladder](g)
        if hasattr(out, "levels"):
            out = [v for _, v in out.levels]
        assert np.isfinite(out).all()

    @pytest.mark.parametrize("t_max", [1e-300, 1e300])
    def test_a_process_on_another_horizon_is_rejected(self, paths, t_max):
        # the grids were once compared within 1e-12 in absolute terms below t_max = 1
        g = paths[t_max]
        other = generate_fbm_moving_average(GridSpec(3.0 * t_max, 64), 0.7, RngSeed(2, 0))
        with pytest.raises(ValueError, match="y lives on a different grid"):
            covariation(g, other)

    @pytest.mark.parametrize("t_max, f", [(1e-300, "self"), (1e-300, "one"), (1e300, "one")])
    @pytest.mark.parametrize("ladder", list(LADDERS))
    def test_levels_in_the_float_range_are_finite_and_silent(self, paths, ladder, t_max, f):
        g = paths[t_max]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = LADDERS[ladder](g.values if f == "self" else 1.0, g)
        assert np.isfinite([v for _, v in res.levels]).all()


def clamped(values, k):
    """values at node i + k, held at the end values off the grid, by an index gather."""
    return values[np.clip(np.arange(values.size) + k, 0, values.size - 1)]


def trap(y, h):
    return float(np.trapezoid(y, dx=h))


class TestEndValueRule:
    """Every regularized integral against np.clip-gather references, bitwise.

    The ladder's strides 32 and 16 pass the end of the 16-step grid, so whole
    shifts lie beyond it; f and x do not vanish at the ends.
    """

    KERNELS = {
        symmetric_integral: lambda gv, k, e: (clamped(gv, k) - clamped(gv, -k)) / (2.0 * e),
        forward_integral: lambda gv, k, e: (clamped(gv, k) - gv) / e,
        backward_integral: lambda gv, k, e: (clamped(gv, -k) - gv) / e,
    }

    @pytest.fixture(
        params=[64, 16, 4096, 48, 100, 1000],
        ids=["default-64", "past-the-end-16", "default-4096", "default-48", "default-100", "default-1000"],
    )
    def case(self, request):
        grid = GridSpec(1.0, request.param)
        g = generate_fbm_circulant(grid, 0.75, RngSeed(22, request.param))
        f = 2.0 + np.cos(3.0 * grid.times)
        return g, f, [(k * grid.dt, k) for k in (32, 16, 8, 4, 2)]

    def quotient_levels(self, integral, f, g, rungs):
        h = g.dt
        return [(e, trap(f * self.KERNELS[integral](g.values, k, k * h), h)) for e, k in rungs]

    @staticmethod
    def covariation_levels(xv, yv, h, rungs):
        return [(e, trap((clamped(xv, k) - xv) * (clamped(yv, k) - yv), h) / e) for e, k in rungs]

    @pytest.mark.parametrize("integral", list(KERNELS), ids=lambda fn: fn.__name__)
    def test_quotient_ladders(self, case, integral):
        g, f, rungs = case
        assert list(integral(f, g).levels) == self.quotient_levels(integral, f, g, rungs)

    def test_telescoping_tolerance(self, case):
        # 3 eps_last max|dg| / h, eps_last = 2 h
        g, _, rungs = case
        steepest = float(np.max(np.abs(np.diff(g.values))))
        assert telescoping_tolerance(g) == 3.0 * rungs[-1][0] * steepest / g.dt

    def test_covariation(self, case):
        g, f, rungs = case
        x = ForwardProcess(g.grid, 1.5 + g.values + 0.2 * g.times, 0.75)
        ref = self.covariation_levels(x.values, f, g.dt, rungs)
        assert list(covariation(x, f).levels) == ref

    def test_relation_check(self, case):
        g, f, rungs = case
        if g.grid.n_steps == 16:
            # on 16 steps the last two symmetric levels differ by 8.0% of max|f| osc g
            with pytest.raises(ValueError, match="symmetric ladder did not converge"):
                symmetric_forward_relation_check(f, g)
            return
        sym = self.quotient_levels(symmetric_integral, f, g, rungs)[-1][1]
        fwd = self.quotient_levels(forward_integral, f, g, rungs)[-1][1]
        cov = self.covariation_levels(f - f[0], g.values, g.dt, rungs)[-1][1]
        ref = (sym, fwd, cov, sym - fwd - 0.5 * cov)
        assert symmetric_forward_relation_check(f, g) == ref

    def test_extended_forward(self, case):
        # the interpolated shift of every u-grid midpoint, from gathers up to n + 1 steps
        g, f, _ = case
        gv, h, n = g.values, g.dt, g.grid.n_steps
        a = h * f
        a[[0, -1]] *= 0.5

        def inner(u):
            k = min(int(u / h), n)
            theta = u / h - k
            lo = np.add.reduce(a * (clamped(gv, k) - gv))
            hi = np.add.reduce(a * (clamped(gv, k + 1) - gv))
            return float((1.0 - theta) * lo + theta * hi) / u

        edges = h * (1.0 / h) ** (np.arange(49) / 48)
        i_mid = np.array([inner(u) for u in np.sqrt(edges[:-1] * edges[1:])])
        ref = []
        for j in range(1, 5):
            e = 10.0**-j
            cell = edges[:-1] ** e * math.expm1(e * math.log(1.0 / h) / 48) / gamma(1.0 + e)
            ref.append((e, float(np.dot(cell, i_mid)) + inner(h) * h**e / gamma(1.0 + e)))
        assert list(extended_forward_integral(f, g).levels) == ref


class TestForwardProcess:
    def test_pure_noise_accumulation_shifts_the_path(self, g75):
        x0 = 1.2
        proc = fractional_forward_process(x0, 0.0, 1.0, g75)
        assert np.abs(proc.values - (x0 + g75.values)).max() <= 1e-12
        assert proc.hurst == g75.hurst

    def test_brownian_driver_matches_the_ito_process_bitwise(self, bm):
        # for a Brownian driver the forward sum is the Ito sum
        ito, _ = ItoProcess(
            0.4, AdaptedIntegrand.constant(-0.3), AdaptedIntegrand.path_value(), bm
        ).realize()
        fwd = fractional_forward_process(0.4, -0.3, bm.values, bm)
        assert np.array_equal(ito, fwd.values)

    def test_pure_drift_accumulation_is_a_line(self, g75):
        proc = fractional_forward_process(1.2, 1.0, 0.0, g75)
        assert np.abs(proc.values - (1.2 + g75.times)).max() <= 1e-12

    def test_time_integrand_obeys_integration_by_parts(self, g75):
        proc = fractional_forward_process(0.0, 0.0, g75.times, g75)
        want = 1.0 * g75.values[-1] - np.trapezoid(g75.values, dx=g75.dt)
        assert abs(proc.values[-1] - want) <= 0.01


class TestChangeOfVariables:
    def test_identity_map_is_exact(self, g75):
        _, _, gap = fbm_ito_formula_check(
            lambda t, x: x, lambda t, x: 0.0, lambda t, x: 1.0, g75
        )
        assert gap <= 1e-12

    def test_drifted_linear_map_is_exact(self, g75):
        proc = fractional_forward_process(0.5, 1.0, 1.0, g75)
        _, _, gap = fbm_ito_formula_check(
            lambda t, x: t + x, lambda t, x: 1.0, lambda t, x: 1.0, proc
        )
        assert gap <= 1e-12

    def test_half_square_gap_stays_small_without_a_correction(self):
        gaps = []
        for s in range(10):
            g = generate_fbm_circulant(GridSpec(1.0, 2**13), 0.75, RngSeed(23, s))
            _, _, gap = fbm_ito_formula_check(
                lambda t, x: 0.5 * x * x, lambda t, x: 0.0, lambda t, x: x, g
            )
            gaps.append(gap)
        assert np.median(gaps) <= 0.02

    def test_rough_paths_rejected(self):
        g = generate_fbm_circulant(GridSpec(1.0, 2**12), 0.25, RngSeed(23, 0))
        with pytest.raises(ValueError):
            fbm_ito_formula_check(lambda t, x: x, lambda t, x: 0.0, lambda t, x: 1.0, g)


def test_integral_record_round_trips(g75):
    res = symmetric_integral(1.0, g75)
    rec = json.loads(json.dumps(integral_record(res)))
    assert rec["value"] == res.value
    assert rec["converged"] is True
    assert len(rec["levels"]) == len(res.levels)
