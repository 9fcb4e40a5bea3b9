import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from math import gamma, pi, sin

from fracbm.gaussianpaths import (
    CHOLESKY_MAX_NODES,
    GridSpec,
    PathGenerator,
    RngSeed,
    SamplePath,
    bm_covariance,
    bm_ensemble,
    empirical_covariance,
    ensemble_manifest,
    fbm_cholesky_ensemble,
    fbm_circulant_ensemble,
    fbm_covariance,
    fbm_moving_average_ensemble,
    generate_bm,
    generate_fbm_cholesky,
    generate_fbm_circulant,
    generate_fbm_moving_average,
    increment_cross_covariance,
    moving_average_truncation_bias,
    normalizing_constant,
    read_path_csv,
    scale_path,
    time_invert_bm,
    write_path_csv,
)


def exact_cov_matrix(H, times):
    return np.array([[fbm_covariance(H, s, t) for t in times] for s in times])


class TestCovarianceFormulas:
    def test_brownian_values(self):
        assert bm_covariance(2.0, 3.0) == 2.0
        for t in (0.25, 1.0, 7.5):
            assert bm_covariance(t, t) == t
        assert bm_covariance(0.0, 5.0) == 0.0

    def test_half_index_reduces_to_brownian(self):
        for s, t in ((0.3, 0.9), (1.0, 1.0), (2.0, 0.5)):
            assert fbm_covariance(0.5, s, t) == pytest.approx(min(s, t), abs=1e-14)

    def test_unit_time_variance_is_one(self):
        for H in (0.1, 0.5, 0.9):
            assert fbm_covariance(H, 1.0, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_three_quarters_value(self):
        assert fbm_covariance(0.75, 1.0, 2.0) == pytest.approx(np.sqrt(2.0), abs=1e-14)

    def test_increment_cross_values(self):
        # disjoint Brownian increments are uncorrelated
        assert increment_cross_covariance(0.5, 0.0, 1.0, 1.0, 2.0) == pytest.approx(0.0, abs=1e-14)
        # persistent regime: adjacent unit increments correlate positively
        want = 0.5 * (2.0**1.5 - 2.0)
        assert increment_cross_covariance(0.75, 0.0, 1.0, 1.0, 2.0) == pytest.approx(want, abs=1e-14)
        assert want > 0.0
        # an increment against itself is its variance
        assert increment_cross_covariance(0.75, 0.0, 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_increments_are_stationary(self):
        rng = np.random.default_rng(5)
        for H in (0.25, 0.5, 0.75):
            for _ in range(30):
                s, dt, u, dv, c = rng.uniform(0.0, 3.0, 5)
                lhs = increment_cross_covariance(H, s, s + dt, u, u + dv)
                rhs = increment_cross_covariance(H, s + c, s + dt + c, u + c, u + dv + c)
                assert abs(lhs - rhs) <= 1e-12

    def test_increments_dependent_away_from_half(self):
        assert increment_cross_covariance(0.75, 0.0, 1.0, 1.0, 2.0) > 0.05
        assert increment_cross_covariance(0.25, 0.0, 1.0, 1.0, 2.0) < -0.05
        assert increment_cross_covariance(0.5, 0.0, 1.0, 1.0, 2.0) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("H", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("grid", [GridSpec(1.0, 64), GridSpec(2.0, 512)])
    def test_matrices_symmetric_and_nonnegative(self, H, grid):
        M = exact_cov_matrix(H, grid.times[1:])
        assert np.abs(M - M.T).max() <= 1e-12
        emin = np.linalg.eigvalsh(M).min()
        assert emin >= -1e-10 * M.diagonal().max()

    @pytest.mark.parametrize("H", [0.0, 1.0, -0.2])
    def test_hurst_range_enforced(self, H):
        with pytest.raises(ValueError):
            fbm_covariance(H, 0.5, 1.0)


class TestNormalizingConstant:
    def test_brownian_case_is_exactly_one(self):
        assert normalizing_constant(0.5) == 1.0

    def test_gamma_closed_form(self):
        for H in (0.25, 0.6, 0.75, 0.9):
            closed = gamma(H + 0.5) / np.sqrt(gamma(2.0 * H + 1.0) * sin(pi * H))
            assert normalizing_constant(H) == pytest.approx(closed, abs=1e-10)

    @pytest.mark.parametrize("n", [200_000, 400_000])
    def test_brute_force_integral(self, n):
        # squared constant = integral of ((1+s)^(H-1/2) - s^(H-1/2))^2 over
        # s > 0 plus 1/(2H); substituting s = x^2 removes the kink at 0 and
        # a power-law estimate covers the truncated tail
        H, S = 0.75, 1e4
        x = np.linspace(0.0, np.sqrt(S), n + 1)
        s = x * x
        body = ((1.0 + s) ** (H - 0.5) - s ** (H - 0.5)) ** 2 * 2.0 * x
        body[0] = 0.0
        tail = (H - 0.5) ** 2 * S ** (2.0 * H - 2.0) / (2.0 - 2.0 * H)
        brute = np.sqrt(np.trapezoid(body, x) + tail + 1.0 / (2.0 * H))
        assert abs(brute - normalizing_constant(0.75)) <= 1e-6

    def test_continuity_in_the_index(self):
        devs = [
            abs(normalizing_constant(0.7 + d) - normalizing_constant(0.7))
            for d in (0.1, 0.01, 0.001)
        ]
        assert all(b < a for a, b in zip(devs, devs[1:]))


class TestSeedsAndGrids:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 16)
        with pytest.raises(ValueError):
            GridSpec(1.0, 0)

    @pytest.mark.parametrize("n_steps", [10.5, True, "16"])
    def test_step_count_must_be_an_integer(self, n_steps):
        with pytest.raises(ValueError, match="n_steps"):
            GridSpec(1.0, n_steps)

    @pytest.mark.parametrize(
        "root, stream, field", [(True, 0, "root"), (1, False, "stream"), (1.5, 0, "root")]
    )
    def test_seed_parts_must_be_integers(self, root, stream, field):
        with pytest.raises(ValueError, match=field):
            RngSeed(root, stream)

    def test_times_span_the_interval(self):
        g = GridSpec(2.0, 8)
        assert g.times[0] == 0.0 and g.times[-1] == pytest.approx(2.0)
        assert g.dt == pytest.approx(0.25)

    def test_same_seed_same_path(self):
        g = GridSpec(1.0, 256)
        a = generate_bm(g, RngSeed(42, 0))
        b = generate_bm(g, RngSeed(42, 0))
        assert np.array_equal(a.values, b.values)

    def test_streams_differ(self):
        g = GridSpec(1.0, 256)
        a = generate_bm(g, RngSeed(42, 0))
        b = generate_bm(g, RngSeed(42, 1))
        assert not np.array_equal(a.values, b.values)

    def test_streams_decorrelated(self):
        g = GridSpec(1.0, 4096)
        a = generate_bm(g, RngSeed(99, 0)).increments()
        b = generate_bm(g, RngSeed(99, 1)).increments()
        assert abs(np.corrcoef(a, b)[0, 1]) < 5.0 / np.sqrt(4096)


class TestBrownianGenerator:
    def test_moments(self):
        grid = GridSpec(1.0, 16)
        ens = bm_ensemble(grid, 42, 10_000)
        k_half, k_one = 8, 16
        var_one = np.mean(ens[:, k_one] ** 2)
        cov_half_one = np.mean(ens[:, k_half] * ens[:, k_one])
        assert abs(var_one - 1.0) <= 0.05
        assert abs(cov_half_one - 0.5) <= 0.05

    def test_path_metadata(self):
        p = generate_bm(GridSpec(1.0, 64), RngSeed(1, 2))
        assert p.hurst == 0.5
        assert p.values[0] == 0.0
        assert p.generator is PathGenerator.BM_INCREMENTS
        assert p.seed == RngSeed(1, 2)


SINGLE_AND_ENSEMBLE = {
    "bm": (generate_bm, bm_ensemble, ()),
    "cholesky": (generate_fbm_cholesky, fbm_cholesky_ensemble, (0.7,)),
    "circulant": (generate_fbm_circulant, fbm_circulant_ensemble, (0.7,)),
    "moving-average": (generate_fbm_moving_average, fbm_moving_average_ensemble, (0.7,)),
}


class TestFbmGenerators:
    @pytest.mark.parametrize("kind", sorted(SINGLE_AND_ENSEMBLE))
    def test_single_matches_ensemble_row(self, kind):
        single_fn, ensemble_fn, args = SINGLE_AND_ENSEMBLE[kind]
        grid = GridSpec(1.0, 16)
        single = single_fn(grid, *args, RngSeed(101, 3))
        ens = ensemble_fn(grid, *args, 101, 5)
        assert np.array_equal(single.values, ens[3])

    @pytest.mark.parametrize("kind", sorted(SINGLE_AND_ENSEMBLE))
    def test_replicate_count_must_be_nonnegative(self, kind):
        _, ensemble_fn, args = SINGLE_AND_ENSEMBLE[kind]
        assert ensemble_fn(GridSpec(1.0, 8), *args, 101, 0).shape == (0, 9)
        with pytest.raises(ValueError, match="replicates"):
            ensemble_fn(GridSpec(1.0, 8), *args, 101, -1)

    def test_cholesky_covariance(self):
        grid = GridSpec(1.0, 8)
        ens = fbm_cholesky_ensemble(grid, 0.7, 101, 5000)
        err = np.abs(empirical_covariance(ens) - exact_cov_matrix(0.7, grid.times)).max()
        assert err <= 0.05

    def test_cholesky_node_cap(self):
        with pytest.raises(ValueError):
            generate_fbm_cholesky(GridSpec(1.0, CHOLESKY_MAX_NODES + 1), 0.7, RngSeed(1, 0))

    def test_circulant_covariance(self):
        grid = GridSpec(1.0, 16)
        ens = fbm_circulant_ensemble(grid, 0.25, 102, 5000)
        err = np.abs(empirical_covariance(ens) - exact_cov_matrix(0.25, grid.times)).max()
        assert err <= 0.06

    def test_moving_average_brownian_variance(self):
        grid = GridSpec(1.0, 8)
        ens = fbm_moving_average_ensemble(grid, 0.5, 103, 4000)
        assert abs(np.mean(ens[:, -1] ** 2) - 1.0) <= 0.08

    def test_generators_agree_on_the_covariance(self):
        grid = GridSpec(1.0, 8)
        cov_ma = empirical_covariance(fbm_moving_average_ensemble(grid, 0.75, 104, 5000))
        cov_ch = empirical_covariance(fbm_cholesky_ensemble(grid, 0.75, 105, 5000))
        assert np.abs(cov_ma - cov_ch).max() <= 0.06

    def test_truncation_bias_shrinks_with_the_window(self):
        bias = [moving_average_truncation_bias(0.75, w, 1.0) for w in (10.0, 50.0, 250.0)]
        assert all(b > 0 for b in bias)
        assert all(b2 < b1 for b1, b2 in zip(bias, bias[1:]))

    def test_circulant_determinism(self):
        grid = GridSpec(1.0, 64)
        a = generate_fbm_circulant(grid, 0.3, RngSeed(7, 1))
        b = generate_fbm_circulant(grid, 0.3, RngSeed(7, 1))
        assert np.array_equal(a.values, b.values)

    def test_moving_average_determinism(self):
        grid = GridSpec(1.0, 32)
        a = generate_fbm_moving_average(grid, 0.6, RngSeed(7, 2))
        b = generate_fbm_moving_average(grid, 0.6, RngSeed(7, 2))
        assert np.array_equal(a.values, b.values)


class TestTransforms:
    def test_unit_scale_is_the_identity(self):
        p = generate_bm(GridSpec(1.0, 64), RngSeed(1, 0))
        q = scale_path(p, 1.0)
        assert np.array_equal(q.values, p.values)
        assert q.grid == p.grid

    def test_scaling_covariance_identity(self):
        H, a, s, t = 0.75, 4.0, 1.0, 0.5
        lhs = a ** (-2.0 * H) * fbm_covariance(H, a * s, a * t)
        assert abs(lhs - fbm_covariance(H, s, t)) <= 1e-12

    @given(
        H=st.floats(0.05, 0.95),
        a=st.floats(0.1, 10.0),
        s=st.floats(0.0, 5.0),
        t=st.floats(0.0, 5.0),
    )
    def test_scaling_identity_holds_everywhere(self, H, a, s, t):
        lhs = a ** (-2.0 * H) * fbm_covariance(H, a * s, a * t)
        assert abs(lhs - fbm_covariance(H, s, t)) <= 1e-9

    def test_scaled_brownian_variance(self):
        xs = []
        for s in range(2000):
            p = generate_bm(GridSpec(2.0, 2048), RngSeed(106, s))
            q = scale_path(p, 2.0)
            xs.append(q.values[-1])
        assert q.grid.t_max == pytest.approx(1.0)
        assert abs(np.var(xs) - 1.0) <= 0.1

    def test_scale_requires_known_index(self):
        p = SamplePath(GridSpec(1.0, 8), np.linspace(0, 1, 9), None)
        with pytest.raises(ValueError):
            scale_path(p, 2.0)

    def test_inversion_covariance_identity(self):
        s, t = 0.5, 2.0
        assert s * t * bm_covariance(1.0 / s, 1.0 / t) == pytest.approx(min(s, t), abs=1e-14)

    def test_inverted_path_starts_at_zero(self):
        p = generate_bm(GridSpec(1.0, 64), RngSeed(2, 0))
        q = time_invert_bm(p)
        assert q.values[0] == 0.0
        assert q.hurst == 0.5

    def test_inverted_variance_at_a_divisor_node(self):
        # node u = 1 of the reciprocal grid maps to an input node, so the
        # law there is free of interpolation attenuation
        ys = []
        for s in range(2000):
            q = time_invert_bm(generate_bm(GridSpec(1.0, 1024), RngSeed(107, s)))
            ys.append(q.values[1])
        assert abs(np.var(ys) - 1.0) <= 0.12

    def test_inversion_rejects_non_brownian(self):
        p = generate_fbm_circulant(GridSpec(1.0, 64), 0.75, RngSeed(3, 0))
        with pytest.raises(ValueError):
            time_invert_bm(p)


class TestPathContainer:
    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            SamplePath(GridSpec(1.0, 4), np.array([0.1, 0.2, 0.3, 0.4, 0.5]), 0.5)

    def test_length_must_match_grid(self):
        with pytest.raises(ValueError):
            SamplePath(GridSpec(1.0, 4), np.zeros(4), 0.5)

    def test_manifest_is_json_ready(self):
        import json

        m = ensemble_manifest(GridSpec(1.0, 16), 0.7, PathGenerator.FBM_CHOLESKY, 5, 100)
        parsed = json.loads(json.dumps(m))
        assert parsed["hurst"] == 0.7
        assert parsed["replicates"] == 100


class TestCsvRoundTrip:
    def test_values_and_metadata_survive(self, tmp_path):
        p = generate_fbm_circulant(GridSpec(1.0, 32), 0.7, RngSeed(11, 4))
        dest = tmp_path / "path.csv"
        write_path_csv(p, dest)
        back = read_path_csv(dest)
        assert np.array_equal(back.values, p.values)
        assert back.hurst == p.hurst
        assert back.seed == p.seed
        assert back.generator == p.generator

    def test_external_series_is_reanchored(self, tmp_path):
        dest = tmp_path / "ext.csv"
        dest.write_text("t,value\n5.0,3.0\n5.5,3.5\n6.0,2.5\n")
        p = read_path_csv(dest)
        assert p.times[0] == 0.0
        assert p.values[0] == 0.0
        assert p.values[1] == pytest.approx(0.5)
        assert p.hurst is None

    def test_malformed_row_reports_the_line(self, tmp_path):
        dest = tmp_path / "bad.csv"
        dest.write_text("t,value\n0.0,0.0\n0.5,oops\n1.0,1.0\n")
        with pytest.raises(ValueError, match="line 3"):
            read_path_csv(dest)

    def test_uneven_spacing_rejected(self, tmp_path):
        dest = tmp_path / "uneven.csv"
        dest.write_text("t,value\n0.0,0.0\n0.1,0.2\n0.9,0.3\n")
        with pytest.raises(ValueError):
            read_path_csv(dest)

    @settings(max_examples=40, deadline=None)
    @given(
        t_max=st.floats(1e-3, 1e3),
        tail=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=40),
        hurst=st.none() | st.floats(0.01, 0.99),
    )
    def test_round_trip_is_bitwise_for_any_finite_path(self, tmp_path_factory, t_max, tail, hurst):
        p = SamplePath(GridSpec(t_max, len(tail)), [0.0] + tail, hurst)
        dest = tmp_path_factory.mktemp("csv") / "path.csv"
        write_path_csv(p, dest)
        back = read_path_csv(dest)
        assert back.grid == p.grid and back.hurst == p.hurst
        assert np.array_equal(back.values, p.values)
