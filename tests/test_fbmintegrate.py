import json
from math import gamma

import numpy as np
import pytest

from fracbm.gaussianpaths import (
    GridSpec,
    RngSeed,
    SamplePath,
    generate_bm,
    generate_fbm_circulant,
)
from fracbm.itocalc import AdaptedIntegrand, ito_integral
from fracbm.fbmintegrate import (
    EpsilonSchedule,
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


class TestEpsilonSchedule:
    def test_default_ladder_ends_two_steps_above_the_grid(self):
        eps = EpsilonSchedule.default_for(G12)
        assert eps.values[-1] == pytest.approx(2.0 / 4096)
        assert eps.strides(G12) == [32, 16, 8, 4, 2]

    def test_needs_three_levels(self):
        with pytest.raises(ValueError):
            EpsilonSchedule((0.1, 0.01))

    def test_must_decrease(self):
        with pytest.raises(ValueError):
            EpsilonSchedule((0.1, 0.1, 0.01))

    def test_sub_grid_epsilon_rejected(self):
        eps = EpsilonSchedule((0.5, 0.25, 1e-9))
        with pytest.raises(ValueError):
            eps.strides(G12)

    def test_off_grid_epsilon_rejected(self):
        eps = EpsilonSchedule((0.5, 0.25, 0.013))
        with pytest.raises(ValueError):
            eps.strides(G12)


class TestQuotientLadders:
    def test_symmetric_of_one_telescopes(self, g75):
        span = g75.values[-1] - g75.values[0]
        res = symmetric_integral(1.0, g75)
        tol = telescoping_tolerance(g75, EpsilonSchedule.default_for(G12))
        assert res.converged
        assert abs(res.value - span) <= tol

    def test_forward_of_one_telescopes(self, g75):
        span = g75.values[-1] - g75.values[0]
        res = forward_integral(1.0, g75)
        tol = telescoping_tolerance(g75, EpsilonSchedule.default_for(G12))
        assert res.converged
        assert abs(res.value - span) <= tol

    def test_backward_of_one_telescopes_with_the_literal_sign(self, g75):
        span = g75.values[-1] - g75.values[0]
        res = backward_integral(1.0, g75)
        assert res.converged
        assert abs(res.value + span) <= telescoping_tolerance(g75, EpsilonSchedule.default_for(G12))

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

    def test_too_few_levels_rejected(self, g75):
        with pytest.raises(ValueError):
            riemann_stieltjes_integral(1.0, g75, levels=2)

    def test_constant_integrand_meets_the_variation_condition(self, g75):
        # a constant has bounded variation, so no heuristic probe is needed
        res = riemann_stieltjes_integral(1.0, g75)
        assert "heuristic" not in res.diagnostic


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
        # - 1/(2 (1+e) Gamma(e)))
        r = ramp()
        res = extended_forward_integral(1.0, r, eps_levels=3)
        for e, est in res.levels:
            closed = 1.0 / gamma(1.0 + e) - 1.0 / (2.0 * (1.0 + e) * gamma(e))
            assert abs(est - closed) <= 5e-4

    def test_level_bounds(self, g75):
        with pytest.raises(ValueError):
            extended_forward_integral(1.0, g75, eps_levels=2)
        with pytest.raises(ValueError):
            extended_forward_integral(1.0, g75, eps_levels=13)

    @pytest.mark.parametrize("u_points", [0, -3])
    def test_u_points_must_be_positive(self, g75, u_points):
        with pytest.raises(ValueError, match="u_points"):
            extended_forward_integral(1.0, g75, u_points=u_points)


class TestForwardProcess:
    def test_pure_noise_accumulation_shifts_the_path(self, g75):
        x0 = 1.2
        proc = fractional_forward_process(x0, 0.0, 1.0, g75)
        assert np.abs(proc.values - (x0 + g75.values)).max() <= 1e-12
        assert proc.hurst == g75.hurst

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
