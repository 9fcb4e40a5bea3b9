import json
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fracbm.gaussianpaths import (
    GridSpec,
    RngSeed,
    SamplePath,
    generate_bm,
    generate_fbm_circulant,
    increment_cross_covariance,
)
from fracbm.pathstats import (
    HurstMethod,
    VariationVerdict,
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

GRID = GridSpec(1.0, 2**14)


def fbm(H, root, stream, grid=GRID):
    return generate_fbm_circulant(grid, H, RngSeed(root, stream))


class TestQuadraticVariation:
    def test_brownian_mean_over_seeds(self):
        qvs = [quadratic_variation(generate_bm(GRID, RngSeed(1, s))) for s in range(100)]
        assert abs(np.mean(qvs) - 1.0) <= 0.05

    def test_smooth_ramp_value_is_the_mesh(self):
        n = 1024
        ramp = SamplePath(GridSpec(1.0, n), np.linspace(0.0, 1.0, n + 1), None)
        assert quadratic_variation(ramp) == pytest.approx(1.0 / n, abs=1e-15)

    def test_persistent_path_has_small_variation(self):
        assert quadratic_variation(fbm(0.75, 2, 0)) <= 0.02


class TestPvariation:
    @pytest.mark.parametrize(
        "H,want",
        [
            (0.25, VariationVerdict.DIVERGES),
            (0.5, VariationVerdict.STABILIZES),
            (0.75, VariationVerdict.CONVERGES_TO_ZERO),
        ],
    )
    def test_square_sum_verdicts(self, H, want):
        path = generate_bm(GRID, RngSeed(3, 0)) if H == 0.5 else fbm(H, 3, 0)
        assert p_variation(path, 2.0).verdict is want

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -2.0])
    def test_order_must_be_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match="p must be positive and finite"):
            p_variation(generate_bm(GridSpec(1.0, 64), RngSeed(3, 1)), bad)

    def test_mesh_levels_decrease(self):
        est = p_variation(generate_bm(GRID, RngSeed(3, 1)), 2.0)
        meshes = [m for m, _ in est.mesh_levels]
        assert all(b < a for a, b in zip(meshes, meshes[1:]))

    def test_a_path_below_eight_steps_is_named(self):
        with pytest.raises(ValueError, match="at least 8 steps, got 4 steps"):
            p_variation(generate_bm(GridSpec(1.0, 4), RngSeed(3, 1)), 2.0)


class TestVariationIndex:
    @pytest.mark.parametrize("H,lo,hi", [(0.25, 0.15, 0.4), (0.5, 0.4, 0.6), (0.75, 0.6, 0.9)])
    def test_crossover_brackets_the_index(self, H, lo, hi):
        path = generate_bm(GRID, RngSeed(4, 0)) if H == 0.5 else fbm(H, 4, 0)
        est = variation_index(path)
        assert lo <= est.h_hat <= hi

    @pytest.mark.parametrize("H", [0.25, 0.75])
    def test_increments_formed_once_give_the_per_step_estimate(self, H):
        # the bisection as it was: |increments| formed anew at every order p, here
        # in units of the power of two at the largest of them
        path = fbm(H, 6, 1, GridSpec(1.0, 2**12))
        largest = max(np.abs(np.diff(path.values[:: 2**j])).max() for j in range(5))
        unit = 2.0 ** np.frexp(largest)[1]

        def slope(p):
            pairs = [
                (2**j * path.dt, float(np.sum((np.abs(np.diff(path.values[:: 2**j])) / unit) ** p)))
                for j in range(4, -1, -1)
            ]
            x, y = np.log([m for m, _ in pairs]), np.log([v for _, v in pairs])
            xm, ym = x - x.mean(), y - y.mean()
            return float(np.dot(xm, ym)) / float(np.dot(xm, xm))

        lo, hi = 0.8, 8.0
        trace = {lo: slope(lo), hi: slope(hi)}
        while 1.0 / lo - 1.0 / hi > 1e-3:
            mid = 0.5 * (lo + hi)
            trace[mid] = slope(mid)
            lo, hi = (mid, hi) if trace[mid] < 0.0 else (lo, mid)
        est = variation_index(path)
        assert est.h_hat == 1.0 / (0.5 * (lo + hi))
        assert est.stderr == 0.5 * (1.0 / lo - 1.0 / hi)
        assert est.block_data == tuple(sorted(trace.items()))

    def test_degenerate_path_rejected(self):
        flat = SamplePath(GridSpec(1.0, 2**12), np.zeros(2**12 + 1), None)
        with pytest.raises(ValueError):
            variation_index(flat)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"h_tol": 0.0},  # no bisection reaches a bracket of width <= 0
            {"h_tol": -1.0},
            {"h_tol": np.nan},  # every comparison with NaN is false
            {"p_lo": 0.0},
            {"p_lo": np.nan},
            {"p_hi": 0.5},  # below p_lo
            {"p_hi": np.inf},
            {"levels": 2},  # p_variation needs 3 as well
            {"levels": 11},  # 2^10 steps hold 10 dyadic meshes
        ],
        ids=repr,
    )
    def test_bad_arguments_are_named(self, kwargs):
        path = fbm(0.7, 6, 2, GridSpec(1.0, 2**10))
        (name,) = kwargs
        with pytest.raises(ValueError, match=rf"^{name} must "):
            variation_index(path, **kwargs)

    def test_a_tolerance_below_the_float_spacing_ends_at_adjacent_floats(self):
        path = fbm(0.7, 6, 2, GridSpec(1.0, 2**10))
        tight = variation_index(path, h_tol=1e-300)
        assert 0.0 < tight.stderr <= 1e-15
        assert abs(tight.h_hat - variation_index(path).h_hat) <= 1e-3


SCALED = fbm(0.7, 8, 0, GridSpec(1.0, 4096))


@settings(max_examples=40, deadline=None)
@given(j=st.integers(-900, 900))
@example(j=300)
@example(j=-300)
@example(j=600)
@example(j=-600)
def test_hurst_estimators_do_not_depend_on_the_scale_of_the_path(j):
    # a path times 2^j is exact, and the estimators read increments in units of a
    # power of two near their largest.  Once R/S returned nan at 2^600 and found
    # no usable block at 2^-600, the variation index named a wrong bracket at 2^300
    # and a zero sum at 2^-300, and p_variation read inf sums as STABILIZES
    path = SamplePath(SCALED.grid, SCALED.values * 2.0**j, SCALED.hurst)
    for a, b in ((rescaled_range_hurst(np.diff(path.values)), rescaled_range_hurst(np.diff(SCALED.values))),
                 (variation_index(path), variation_index(SCALED))):
        assert (a.h_hat, a.stderr, a.block_data) == (b.h_hat, b.stderr, b.block_data)
    assert p_variation(path, 2.0).verdict is p_variation(SCALED, 2.0).verdict is VariationVerdict.CONVERGES_TO_ZERO


UNIT_SCALED = fbm(0.7, 8, 0, GridSpec(4096.0, 4096))


@settings(max_examples=40, deadline=None)
@given(j=st.integers(-900, 900))
@example(j=520)
@example(j=-540)
def test_empirical_acf_does_not_depend_on_the_scale_of_the_path(j):
    # the centred increments are read in units of a power of two at their largest;
    # once 2^520 overflowed the lag sums into nan and 2^-540 read as zero variance
    path = SamplePath(UNIT_SCALED.grid, UNIT_SCALED.values * 2.0**j, UNIT_SCALED.hurst)
    assert np.array_equal(empirical_acf(path, 10), empirical_acf(UNIT_SCALED, 10))


class TestRescaledRange:
    def test_recovers_persistent_index(self):
        p = fbm(0.7, 5, 0, GridSpec(1.0, 4096))
        assert abs(rescaled_range_hurst(np.diff(p.values)).h_hat - 0.7) <= 0.1

    def test_iid_noise_sits_at_half(self):
        noise = RngSeed(6, 0).generator().standard_normal(4096)
        assert abs(rescaled_range_hurst(noise).h_hat - 0.5) <= 0.1

    def test_recovers_rough_index(self):
        p = fbm(0.25, 7, 0, GridSpec(1.0, 4096))
        assert abs(rescaled_range_hurst(np.diff(p.values)).h_hat - 0.25) <= 0.12

    @staticmethod
    def looped_block_data(x):
        # block-by-block statement of the statistic
        out = []
        size = 16
        while size <= x.size // 8:
            ratios = []
            for start in range(0, x.size - size + 1, size):
                block = x[start : start + size]
                s = float(np.std(block))
                if s == 0.0:
                    continue
                y = np.cumsum(block - block.mean())
                ratios.append((float(np.max(y)) - float(np.min(y))) / s)
            if ratios:
                out.append((size, float(np.mean(ratios))))
            size *= 2
        return tuple(out)

    @pytest.mark.parametrize("n", [2**12, 2**14, 5000])
    def test_block_data_is_bitwise_the_block_loop(self, n):
        x = RngSeed(6, 2).generator().standard_normal(n)
        x[:64] = 1.5  # constant blocks up to size 64 are skipped
        x[640:672] = -0.25
        est = rescaled_range_hurst(x)
        assert est.block_data == self.looped_block_data(x)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="256"):
            rescaled_range_hurst(np.zeros(100))

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="usable blocks"):
            rescaled_range_hurst(np.full(300, 1.5))

    def test_record_is_json_ready(self):
        noise = RngSeed(6, 1).generator().standard_normal(512)
        est = rescaled_range_hurst(noise)
        rec = json.loads(json.dumps(hurst_record(est, noise)))
        assert rec["estimator"] == HurstMethod.RESCALED_RANGE.value
        assert len(rec["inputs_sha256"]) == 64
        assert 0.0 < rec["h_hat"] < 1.0


class TestAutocorrelation:
    def test_theoretical_values(self):
        assert theoretical_acf(0.5, 3) == 0.0
        assert theoretical_acf(0.75, 1) == pytest.approx(0.41421356237309515, abs=1e-12)
        assert theoretical_acf(0.75, 0) == 1.0

    def test_matches_increment_cross_covariance(self):
        for H in (0.25, 0.75):
            for n in range(1, 101):
                lhs = theoretical_acf(H, n)
                rhs = increment_cross_covariance(H, 0.0, 1.0, float(n), float(n + 1))
                assert abs(lhs - rhs) <= 1e-12

    @given(H=st.floats(0.05, 0.95), n=st.integers(1, 500))
    def test_increment_covariance_identity_everywhere(self, H, n):
        lhs = theoretical_acf(H, n)
        rhs = increment_cross_covariance(H, 0.0, 1.0, float(n), float(n + 1))
        assert abs(lhs - rhs) <= 1e-9

    @pytest.mark.parametrize("H", [0.25, 0.75, 0.95])
    def test_large_lags_keep_their_relative_accuracy(self, H):
        # 50-digit reference; the second difference of n^2H in doubles lost up
        # to 9e-5 relative between lags 10 and 10^6, the expm1 form 2e-10
        p = Decimal(2.0 * H)  # the double's exact value
        with localcontext() as ctx:
            ctx.prec = 50
            for n in sorted(set(np.geomspace(10, 10**6, 61).astype(int).tolist())):
                k = Decimal(n)
                want = float(((k + 1) ** p - 2 * k**p + (k - 1) ** p) / 2)
                assert abs(theoretical_acf(H, n) - want) <= 1e-9 * abs(want), n

    @pytest.mark.parametrize("H", [0.05, 0.25, 0.5, 0.7, 0.75, 0.95])
    def test_lag_one_is_the_plain_second_difference_bitwise(self, H):
        # the E11 target
        p = 2.0 * H
        assert theoretical_acf(H, 1) == 0.5 * ((1 + 1) ** p - 2.0 * 1**p + (1 - 1) ** p)

    def test_sign_follows_the_index(self):
        lags = range(1, 1001)
        assert all(theoretical_acf(0.25, n) < 0.0 for n in lags)
        assert all(theoretical_acf(0.75, n) > 0.0 for n in lags)
        assert all(theoretical_acf(0.5, n) == 0.0 for n in lags)

    def test_empirical_lag_one_persistent(self):
        # unit-spacing grid so path increments are unit-lag samples
        g = GridSpec(float(2**14), 2**14)
        p = generate_fbm_circulant(g, 0.75, RngSeed(8, 0))
        ac = empirical_acf(p, 5)
        assert ac[0] == 1.0
        assert abs(ac[1] - theoretical_acf(0.75, 1)) <= 0.05

    def test_empirical_brownian_lags_vanish(self):
        g = GridSpec(float(2**14), 2**14)
        p = generate_bm(g, RngSeed(8, 1))
        ac = empirical_acf(p, 10)
        assert np.abs(ac[1:]).max() <= 5.0 / np.sqrt(2**14)

    def test_a_finer_grid_is_read_at_its_unit_nodes(self):
        # 4,096 steps on [0, 1024]: every fourth node is an integer time
        p = fbm(0.75, 8, 2, GridSpec(1024.0, 4096))
        unit = SamplePath(GridSpec(1024.0, 1024), p.values[::4], 0.75)
        assert np.array_equal(empirical_acf(p, 10), empirical_acf(unit, 10))

    @pytest.mark.parametrize("t_max", [2048.0, 1e300])
    def test_a_grid_coarser_than_unit_spacing_is_named(self, t_max):
        # resampling would interpolate half-steps at dt = 2 and ask for 1e300 floats
        p = fbm(0.75, 8, 3, GridSpec(t_max, 1024))
        with pytest.raises(ValueError, match="path dt must be at most 1") as exc:
            empirical_acf(p, 5)
        assert str(exc.value).endswith(f"got {p.dt!r}")


class TestLongRangeDependence:
    def test_persistent_sums_keep_growing(self):
        partial, ratio = lrd_diagnostic(0.75, 10**5)
        half = partial[len(partial) // 2 - 1]
        assert (partial[-1] - half) / half > 0.01
        assert abs(ratio[-1] - 1.0) <= 1e-6

    def test_rough_sums_flatten(self):
        partial, ratio = lrd_diagnostic(0.25, 10**5)
        half = partial[len(partial) // 2 - 1]
        assert (partial[-1] - half) / half < 1e-3
        assert abs(ratio[-1] - 1.0) <= 1e-6

    @pytest.mark.parametrize("N", [1.5, True, 0, None, "10"])
    def test_term_count_must_be_a_positive_integer(self, N):
        with pytest.raises(ValueError, match="N must be a positive integer"):
            lrd_diagnostic(0.75, N)


class TestHolderExponent:
    @pytest.mark.parametrize("H,lo,hi", [(0.25, 0.15, 0.35), (0.75, 0.6, 0.85)])
    def test_brackets_the_index(self, H, lo, hi):
        est = holder_exponent(fbm(H, 9, 0))
        assert lo <= est.h_hat <= hi
        assert est.accepted

    def test_lipschitz_ramp_flagged_out_of_model(self):
        ramp = SamplePath(GridSpec(1.0, 2048), np.linspace(0.0, 1.0, 2049), None)
        est = holder_exponent(ramp)
        assert est.h_hat == pytest.approx(1.0, abs=1e-6)
        assert not est.accepted

    def test_short_path_rejected(self):
        p = generate_bm(GridSpec(1.0, 512), RngSeed(9, 1))
        with pytest.raises(ValueError):
            holder_exponent(p)


class TestIncrementGrowth:
    """Steepest increment per unit time under dyadic coarsening."""

    @staticmethod
    def max_slope(vals, dt, stride):
        return np.max(np.abs(vals[stride::stride] - vals[:-stride:stride])) / (stride * dt)

    def test_random_paths_steepen_without_bound(self):
        for path in (generate_bm(GRID, RngSeed(10, 0)), fbm(0.25, 10, 1)):
            slopes = [self.max_slope(path.values, path.dt, s) for s in (64, 16, 4, 1)]
            ratios = [b / a for a, b in zip(slopes, slopes[1:])]
            assert all(r > 1.2 for r in ratios)

    def test_smooth_path_slopes_stabilize(self):
        smooth = SamplePath(GRID, np.sin(2.0 * np.pi * GRID.times), None)
        slopes = [self.max_slope(smooth.values, smooth.dt, s) for s in (64, 16, 4, 1)]
        ratios = [b / a for a, b in zip(slopes, slopes[1:])]
        assert all(r < 1.05 for r in ratios)
