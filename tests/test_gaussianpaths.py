import json
import math
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from math import gamma, pi, sin

from fracbm import gaussianpaths
from fracbm._nodecalc import diffpow, fft_size
from fracbm.gaussianpaths import (
    CHOLESKY_MAX_NODES,
    GridSpec,
    PathGenerator,
    RngSeed,
    SamplePath,
    bm_covariance,
    bm_ensemble,
    empirical_covariance,
    fbm_cholesky_ensemble,
    fbm_circulant_ensemble,
    fbm_covariance,
    fbm_moving_average_ensemble,
    generate_bm,
    generate_fbm_cholesky,
    generate_fbm_circulant,
    generate_fbm_moving_average,
    increment_cross_covariance,
    normalizing_constant,
    read_path_csv,
    scale_path,
    time_invert_bm,
    write_path_csv,
    _BLOCK_NORMALS,
    _circulant_sqrt_eigenvalues,
    _cholesky_factor,
    _keyed_generator,
    _draw,
    _HISTORY_START,
    _history_factor,
    _GEMV_MAX,
    _moving_average_law,
    _rowwise_gemv,
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize(
        "call",
        [
            lambda x: bm_covariance(x, 1.0),
            lambda x: fbm_covariance(0.7, x, 1.0),
            lambda x: fbm_covariance(0.7, 1.0, x),
            lambda x: increment_cross_covariance(0.7, 0.0, 1.0, x, 2.0),
        ],
        ids=["bm", "fbm-s", "fbm-t", "increment"],
    )
    def test_times_must_be_finite_and_nonnegative(self, call, bad):
        with pytest.raises(ValueError, match="times must be finite and nonnegative"):
            call(bad)

    @pytest.mark.parametrize(
        "call, inputs",
        [
            (lambda: fbm_covariance(0.75, 1e300, 1e300), "H=0.75, s=1e+300, t=1e+300"),
            (lambda: fbm_covariance(0.999, 1e154, 1.7e154), "H=0.999, s=1e+154, t=1.7e+154"),
            (
                lambda: increment_cross_covariance(0.75, 0, 1e300, 0, 1e300),
                "H=0.75, s=0, t=1e+300, u=0, v=1e+300",
            ),
        ],
        ids=["fbm", "fbm-sum", "increment"],
    )
    def test_a_value_past_the_float_range_names_the_inputs(self, call, inputs):
        # a float power raises OverflowError, and a sum of two finite powers can reach inf
        with pytest.raises(ValueError, match="overflows a float") as info:
            call()
        assert str(info.value).endswith(inputs)


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

    @pytest.mark.parametrize("t_max", [None, "1", 1j, np.nan, np.inf, -1.0])
    def test_horizon_must_be_a_positive_real(self, t_max):
        with pytest.raises(ValueError, match="t_max"):
            GridSpec(t_max, 4)

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


#: a grid per generator and the normals one of its streams draws
BLOCK_SPANNING = {
    "bm": (GridSpec(1.0, 1024), 1024),
    "cholesky": (GridSpec(1.0, 256), 256),
    "circulant": (GridSpec(1.0, 1024), 2048),
    "moving-average": (GridSpec(1.0, 8), 3 * 8 + 15),
}


def law_matrix(law, n):
    """The matrix A of a table law, read off by shaping unit normals: node k is row k - 1 of A z."""
    count, shape = law
    A = np.empty((count, n))
    shape(np.eye(count), A)
    return np.ascontiguousarray(A.T)  # as the law's own table, for the same gemv


def law_covariance_error(law, grid, H):
    """Sup over the nodes of |A A^T - exact|, the exact one an np.longdouble 1/2 (s^2H + t^2H - |t-s|^2H)."""
    A = law_matrix(law, grid.n_steps)
    t = np.arange(1, grid.n_steps + 1, dtype=np.longdouble) * (np.longdouble(grid.t_max) / grid.n_steps)
    p = 2 * np.longdouble(H)
    exact = (t[:, None] ** p + t[None, :] ** p - np.abs(t[:, None] - t[None, :]) ** p) / 2
    return float(np.abs(A @ A.T - exact).max())


def moving_average_reference(grid, H, z):
    """Node values of a stream's normals z, one node at a time by kernel primitives (t_max = 1).

    z holds 2n step normals a_i over [-1, 1], n + 1 hybrid normals b_j for the steps that
    end at t_0..t_n, 8 far cells [-e_(j+1), -e_j] with e = 1.3^j below 8, then 8, and the
    history's normals.  Node t weights a cell [lo, hi] by the primitive difference of
    (t - s)_+^(q-1) - (-s)_+^(q-1) over it divided by sqrt(hi - lo), adds
    sqrt(1/(2H) - 1/q^2) dt^H b for the step ending at t (the hybrid part of the exact
    integral over that step), and the history sum_k binom(q-1, k) t^k (F xi)_k.  Near
    edges are taken in steps, whole numbers, so that no rounding of t - s meets the
    singular power at 0.
    """
    n, q = grid.n_steps, H + 0.5
    dt = grid.dt
    e = np.array([1.3**j for j in range(9) if 1.3**j < _HISTORY_START] + [_HISTORY_START])
    a, b, cells, xi = np.split(z, [2 * n, 3 * n + 1, 3 * n + e.size])
    edges = np.arange(-n, n + 1.0)
    history = _history_factor(H) @ xi

    def prim(t, s):
        return (np.maximum(-s, 0.0) ** q - np.maximum(t - s, 0.0) ** q) / q

    def X(k):
        near = np.diff(prim(k, edges)) * dt**q / math.sqrt(dt)
        far = -np.diff(prim(k * dt, -e)) / np.sqrt(np.diff(e))  # cells [-e_(j+1), -e_j]
        hybrid = math.sqrt(1.0 / (2 * H) - 1.0 / q**2) * dt**H * b[k]
        past = sum((k * dt) ** j * f for j, f in enumerate(history, 1))
        return np.dot(near, a) + np.dot(far, cells) + hybrid + past

    x0 = X(0)
    return np.array([X(k) - x0 for k in range(n + 1)]) / normalizing_constant(H)


def fresh_philox(root, stream):
    return np.random.Generator(np.random.Philox(key=np.array([root, stream], dtype=np.uint64)))


def per_stream_reference(kind, grid, H, root, replicates):
    """Ensemble rows drawn one stream at a time, each from a newly built Philox."""
    n = grid.n_steps
    rows = []
    for r in range(replicates):
        rng = fresh_philox(root, r)
        if kind == "bm":
            x = np.cumsum(rng.standard_normal(n) * math.sqrt(grid.dt))
        elif kind == "cholesky":
            x = _cholesky_factor(grid.t_max, n, H) @ rng.standard_normal(n)
        elif kind == "circulant":
            # half of a Hermitian spectrum, conjugated, through one unscaled irfft
            m = 2 * n
            z = rng.standard_normal(m)
            a = _circulant_sqrt_eigenvalues(H, n) * (grid.dt**H / math.sqrt(m))
            inner = a[1:n] / math.sqrt(2.0)
            w = np.empty(n + 1, dtype=complex)
            w[0], w[n] = z[0] * a[0], z[1] * a[n]
            w[1:n] = z[2::2] * inner - 1j * (z[3::2] * inner)
            x = np.cumsum(np.fft.irfft(w, m, norm="forward")[:n])
        else:  # a table-sized grid
            table = law_matrix(_moving_average_law(grid, H), n)
            x = table @ rng.standard_normal(table.shape[1])
        rows.append(np.concatenate(([0.0], x)))
    return np.array(rows)


class TestStreamKeying:
    @pytest.mark.parametrize(
        "root, stream", [(0, 0), (7, 1), (2**64 - 1, 0), (2**64 - 1, 2**64 - 1), (1, 2**63)]
    )
    def test_rekeyed_stream_is_the_fresh_one(self, root, stream):
        rng, rekey = _keyed_generator()
        rekey(root, stream)
        assert np.array_equal(rng.standard_normal(37), fresh_philox(root, stream).standard_normal(37))
        assert np.array_equal(
            RngSeed(root, stream).generator().standard_normal(37),
            fresh_philox(root, stream).standard_normal(37),
        )

    def test_rekeying_forgets_the_previous_draw(self):
        rng, rekey = _keyed_generator()
        rekey(2**64 - 1, 5)
        rng.standard_normal(1001)
        rng.random(3, dtype=np.float32)  # leaves half a 64-bit word buffered
        for k in (1, 6, 513):
            rekey(2**64 - 1, 6)
            assert np.array_equal(rng.standard_normal(k), fresh_philox(2**64 - 1, 6).standard_normal(k))
        rekey(3, 4)
        assert np.array_equal(rng.random(5, dtype=np.float32), fresh_philox(3, 4).random(5, dtype=np.float32))


class TestFbmGenerators:
    @pytest.mark.parametrize("kind", sorted(SINGLE_AND_ENSEMBLE))
    def test_single_matches_ensemble_row(self, kind):
        # rows at the ends of three blocks of streams, the last one short
        single_fn, ensemble_fn, args = SINGLE_AND_ENSEMBLE[kind]
        grid, count = BLOCK_SPANNING[kind]
        rows = _BLOCK_NORMALS // count
        replicates = 2 * rows + rows // 4 + 1
        ens = ensemble_fn(grid, *args, 101, replicates)
        for r in (0, rows - 1, rows, 2 * rows - 1, 2 * rows, replicates - 1):
            assert np.array_equal(ens[r], single_fn(grid, *args, RngSeed(101, r)).values)

    @pytest.mark.parametrize("kind", sorted(SINGLE_AND_ENSEMBLE))
    def test_replicate_count_must_be_nonnegative(self, kind):
        _, ensemble_fn, args = SINGLE_AND_ENSEMBLE[kind]
        assert ensemble_fn(GridSpec(1.0, 8), *args, 101, 0).shape == (0, 9)
        with pytest.raises(ValueError, match="replicates"):
            ensemble_fn(GridSpec(1.0, 8), *args, 101, -1)

    @pytest.mark.parametrize("kind", sorted(SINGLE_AND_ENSEMBLE))
    @pytest.mark.parametrize("bad", [2.5, True, None, "3"])
    def test_replicate_count_must_be_an_integer(self, kind, bad):
        _, ensemble_fn, args = SINGLE_AND_ENSEMBLE[kind]
        with pytest.raises(ValueError, match="replicates"):
            ensemble_fn(GridSpec(1.0, 8), *args, 101, bad)

    @pytest.mark.parametrize("kind", sorted(SINGLE_AND_ENSEMBLE))
    @pytest.mark.parametrize("bad", [-1, 2**64, 1.0, True])
    def test_root_is_checked_before_any_draw(self, kind, bad):
        _, ensemble_fn, args = SINGLE_AND_ENSEMBLE[kind]
        with pytest.raises(ValueError, match="root"):
            ensemble_fn(GridSpec(1.0, 8), *args, bad, 0)

    @pytest.mark.parametrize("kind", ["cholesky", "circulant", "moving-average"])
    @pytest.mark.parametrize("bad", [None, "0.5", 0.5j])
    def test_hurst_index_must_be_a_real_number(self, kind, bad):
        single_fn, ensemble_fn, _ = SINGLE_AND_ENSEMBLE[kind]
        grid = GridSpec(1.0, 8)
        with pytest.raises(ValueError, match="Hurst index"):
            single_fn(grid, bad, RngSeed(1, 0))
        with pytest.raises(ValueError, match="Hurst index"):
            ensemble_fn(grid, bad, 1, 2)

    @pytest.mark.parametrize("kind", sorted(SINGLE_AND_ENSEMBLE))
    def test_ensembles_match_the_per_stream_draw(self, kind):
        _, ensemble_fn, args = SINGLE_AND_ENSEMBLE[kind]
        grid, count = BLOCK_SPANNING[kind]
        replicates = _BLOCK_NORMALS // count + 2
        want = per_stream_reference(kind, grid, *args or (0.5,), 2**64 - 1, replicates)
        assert np.array_equal(ensemble_fn(grid, *args, 2**64 - 1, replicates), want)

    def test_cholesky_covariance(self):
        grid = GridSpec(1.0, 8)
        ens = fbm_cholesky_ensemble(grid, 0.7, 101, 5000)
        err = np.abs(empirical_covariance(ens) - exact_cov_matrix(0.7, grid.times)).max()
        assert err <= 0.05

    @pytest.mark.parametrize("H", [0.05, 0.25, 0.5, 0.7, 0.95])
    @pytest.mark.parametrize("n", [1, 16, 128, 700, 2048])
    def test_cholesky_factor_reproduces_the_covariance(self, n, H):
        # max|L L^T - C| measured up to 7.4e-14 max C (n = 700, H = 0.05);
        # LAPACK's potrf reaches about 1.4e-15
        grid = GridSpec(2.0, n)
        t = grid.times[1:]
        p = 2 * H
        cov = 0.5 * (t[:, None] ** p + t[None, :] ** p - np.abs(t[:, None] - t[None, :]) ** p)
        for i, j in np.random.default_rng(n).integers(0, n, (40, 2)):
            assert abs(cov[i, j] - fbm_covariance(H, t[i], t[j])) <= 1e-15 * cov.max()
        L = _cholesky_factor(grid.t_max, n, H)
        assert np.array_equal(L, np.tril(L)) and (L.diagonal() > 0).all()
        assert np.abs(L @ L.T - cov).max() <= 1e-12 * cov.max()

    def test_cholesky_breakdown_names_the_grid(self):
        # at H this close to 1 the increments are nearly collinear, and rounding
        # drives a reflection coefficient past 1 at step 12
        with pytest.raises(ValueError, match=r"H=0\.999999999999999, n_steps=64"):
            generate_fbm_cholesky(GridSpec(1.0, 64), 1.0 - 1e-15, RngSeed(1, 0))

    def test_cholesky_rows_match_single_draws_across_row_chunks(self):
        # 700 nodes: the factor is applied in row chunks of 571 and 129 rows
        grid = GridSpec(1.0, 700)
        rows = _BLOCK_NORMALS // 700
        ens = fbm_cholesky_ensemble(grid, 0.3, 2**64 - 1, rows + 1)
        for r in (0, rows - 1, rows):
            assert np.array_equal(ens[r], generate_fbm_cholesky(grid, 0.3, RngSeed(2**64 - 1, r)).values)

    def test_cholesky_node_cap(self):
        grid = GridSpec(1.0, CHOLESKY_MAX_NODES + 1)
        cap = rf"n_steps must be an integer in \[1, {CHOLESKY_MAX_NODES}\]"
        with pytest.raises(ValueError, match=cap):
            generate_fbm_cholesky(grid, 0.7, RngSeed(1, 0))
        with pytest.raises(ValueError, match=cap):
            fbm_cholesky_ensemble(grid, 0.7, 1, 2)

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

    @pytest.mark.parametrize("t_max", [1e-300, 1.0, 1e300])
    @pytest.mark.parametrize("H", [0.01, 0.05, 0.5, 0.95, 0.99])
    def test_moving_average_is_finite_and_silent_at_the_extremes(self, t_max, H):
        # the far and history weights are formed in units of t_max and scaled by t_max^H
        grid = GridSpec(t_max, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                path = generate_fbm_moving_average(grid, H, RngSeed(1, 0))
                ens = fbm_moving_average_ensemble(grid, H, 1, 2)
        assert np.isfinite(path.values).all() and np.array_equal(ens[0], path.values)
        assert path.values[1:].any()

    # one table up to 362 steps, the convolution at 512
    @pytest.mark.parametrize("n", [8, 512])
    @pytest.mark.parametrize("t_max", [1e-300, 1e300])
    @pytest.mark.parametrize("H", [0.05, 0.95])
    def test_moving_average_is_self_similar(self, n, t_max, H):
        # every column, the far cells and history included, scales by t_max^H: a stream on
        # [0, t_max] is t_max^H times the same stream on [0, 1] (measured within 1.1e-15)
        unit = generate_fbm_moving_average(GridSpec(1.0, n), H, RngSeed(2, 0)).values
        scaled = generate_fbm_moving_average(GridSpec(t_max, n), H, RngSeed(2, 0)).values
        assert np.abs(scaled / t_max**H - unit).max() <= 1e-14 * np.abs(unit).max()

    def test_circulant_determinism(self):
        grid = GridSpec(1.0, 64)
        a = generate_fbm_circulant(grid, 0.3, RngSeed(7, 1))
        b = generate_fbm_circulant(grid, 0.3, RngSeed(7, 1))
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("H", [0.1, 0.25, 0.5, 0.75, 0.95])
    @pytest.mark.parametrize("n", [1, 2, 17, 256, 4096])
    def test_circulant_half_spectrum_is_the_full_complex_fft(self, H, n):
        # the whole 2n-point Hermitian vector through a complex FFT, as the law
        # was once formed: the paths differ by rounding only
        grid = GridSpec(1.0, n)
        m = 2 * n
        z = fresh_philox(9, 3).standard_normal(m)
        r = gaussianpaths._fgn_autocovariance(H, n)
        eig = np.fft.fft(np.concatenate([r, r[-2:0:-1]])).real
        w = np.empty(m, dtype=complex)
        w[0], w[n] = z[0], z[1]
        half = (z[2::2] + 1j * z[3::2]) / math.sqrt(2.0)
        w[1:n] = half
        w[n + 1 :] = np.conj(half[::-1])
        fgn = np.fft.fft(np.sqrt(np.clip(eig, 0.0, None) / m) * w).real[:n]
        want = np.concatenate(([0.0], np.cumsum(fgn * grid.dt**H)))
        got = generate_fbm_circulant(grid, H, RngSeed(9, 3)).values
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("H", [0.1, 0.25, 0.75, 0.95])
    def test_fgn_autocovariance_keeps_its_relative_accuracy(self, H):
        # reference: r(k) = k^p sum over even j >= 2 of binom(p, j) k^-j, terms of
        # one sign, summed exactly in fractions.  The second difference of k^p lost
        # up to 4e-6 relative at 2^16 steps; the expm1 form measured up to 3e-11
        n = 2**16
        r = gaussianpaths._fgn_autocovariance(H, n)
        p = Fraction(2 * H)
        for k in sorted({*range(2, 40), *np.geomspace(40, n, 60).astype(int).tolist()}):
            c, total, j = Fraction(1), Fraction(0), 0
            while True:
                c = c * (p - j) / (j + 1)
                j += 1
                if j % 2 == 0:
                    term = c / Fraction(k) ** j
                    total += term
                    if abs(term) < abs(total) * Fraction(1, 10**20):
                        break
            want = float(total) * math.pow(k, 2 * H)
            assert abs(r[k] - want) <= 1e-10 * abs(want), k
        assert r[0] == 1.0 and r[1] == 0.5 * (2.0 ** (2 * H) - 2.0)
        assert not gaussianpaths._fgn_autocovariance(0.5, n)[1:].any()

    def test_circulant_keeps_half_the_eigenvalues(self):
        n = 64
        got = _circulant_sqrt_eigenvalues(0.7, n)
        assert got.shape == (n + 1,)
        r = gaussianpaths._fgn_autocovariance(0.7, n)
        full = np.sqrt(np.fft.fft(np.concatenate([r, r[-2:0:-1]])).real)
        assert np.abs(got - full[: n + 1]).max() <= 1e-14
        assert np.abs(full[n + 1 :] - full[n - 1 : 0 : -1]).max() <= 1e-14

    def test_a_negative_circulant_eigenvalue_raises(self, monkeypatch):
        # the row 1, 2, 0, ..., 0, 2 has eigenvalue 1 + 4 cos(pi k / n) < 0 at k = n
        monkeypatch.setattr(gaussianpaths, "_fgn_autocovariance", lambda H, n: np.r_[1.0, 2.0, np.zeros(n - 1)])
        _circulant_sqrt_eigenvalues.cache_clear()
        try:
            with pytest.raises(ValueError, match="not nonnegative definite for H=0.7, n=4"):
                generate_fbm_circulant(GridSpec(1.0, 4), 0.7, RngSeed(1, 0))
        finally:
            _circulant_sqrt_eigenvalues.cache_clear()

    def test_a_long_circulant_draw_forms_no_full_spectrum(self):
        # 2^16 steps draw 2^17 normals (1 MiB); the complex FFT of the whole
        # Hermitian vector held about 9.5 MiB at once, half a spectrum 4.5 MiB
        grid = GridSpec(1.0, 2**16)
        generate_fbm_circulant(grid, 0.75, RngSeed(4, 0))  # eigenvalues cached
        tracemalloc.start()
        try:
            generate_fbm_circulant(grid, 0.75, RngSeed(4, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20

    @pytest.mark.parametrize("p", [0.55, 1.0, 1.25, 1.45])
    def test_power_difference(self, p):
        # u_+^p - (u - 1)_+^p against long-double powers
        u = np.array([-1.0, 0.0, 0.003, 0.2, 0.5, 1.0, 2.5, 37.0, 1e4])
        ul = u.astype(np.longdouble)
        want = np.maximum(ul, 0) ** p - np.maximum(ul - 1, 0) ** p
        assert np.allclose(diffpow(u, p), want.astype(float), rtol=1e-10, atol=0)

    def test_moving_average_determinism(self):
        grid = GridSpec(1.0, 32)
        a = generate_fbm_moving_average(grid, 0.6, RngSeed(7, 2))
        b = generate_fbm_moving_average(grid, 0.6, RngSeed(7, 2))
        assert np.array_equal(a.values, b.values)

    # the last table size and the first FFT sizes: n (3n + 15) <= _GEMV_MAX up to 362 steps
    @pytest.mark.parametrize("n, table", [(8, True), (362, True), (363, False), (364, False)])
    def test_moving_average_rows_match_single_draws_around_the_crossover(self, n, table):
        grid = GridSpec(1.0, n)
        count = 3 * n + 15
        assert _moving_average_law(grid, 0.3)[0] == count
        assert (n * count <= _GEMV_MAX) is table
        rows = _BLOCK_NORMALS // count
        replicates = 2 * rows + 1
        ens = fbm_moving_average_ensemble(grid, 0.3, 2**64 - 1, replicates)
        for r in (0, rows - 1, rows, 2 * rows - 1, 2 * rows):
            single = generate_fbm_moving_average(grid, 0.3, RngSeed(2**64 - 1, r))
            assert np.array_equal(ens[r], single.values)

    # tables up to 362 steps, FFTs beyond
    @pytest.mark.parametrize("n", [8, 64, 362, 363, 1000])
    @pytest.mark.parametrize("H", [0.05, 0.25, 0.5, 0.75, 0.95])
    def test_moving_average_is_the_per_node_reference(self, n, H):
        grid = GridSpec(1.0, n)
        for stream in (0, 1):
            new = generate_fbm_moving_average(grid, H, RngSeed(5, stream)).values
            z = fresh_philox(5, stream).standard_normal(3 * n + 15)
            old = moving_average_reference(grid, H, z)
            assert np.abs(new - old).max() <= 1e-10

    @pytest.mark.parametrize("H", [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95])
    def test_history_factor_is_the_law_beyond_the_far_cells(self, H):
        # E F(s) F(t) = int_T^inf g(s, r) g(t, r) dr, g(t, r) = (t + r)^(q-1) - r^(q-1)
        # = r^(q-1) expm1((q-1) log1p(t/r)), by quadrature over u = T/r in (0, 1],
        # against the factored power series (units of t_max); at H = 1/2, g = 0 and the
        # history vanishes
        from scipy.integrate import quad

        q = H + 0.5
        factor = _history_factor(H)
        times = (0.125, 0.5, 1.0)
        F = np.array([[t**k for k in range(1, len(factor) + 1)] for t in times]) @ factor

        def g(t, r):
            return r ** (q - 1) * math.expm1((q - 1) * math.log1p(t / r))

        for i, s in enumerate(times):
            for j, t in enumerate(times):
                want = quad(
                    lambda u: g(s, _HISTORY_START / u) * g(t, _HISTORY_START / u) * _HISTORY_START / u**2,
                    0.0, 1.0, epsabs=0, epsrel=1e-13, limit=200,
                )[0]
                assert abs(F[i] @ F[j] - want) <= 1e-11 * abs(want)

    def test_fft_lengths_are_the_least_5_smooth_numbers(self):
        def smooth(k):
            for p in (2, 3, 5):
                while k % p == 0:
                    k //= p
            return k == 1

        for n in range(1, 3000):
            size = fft_size(n)
            assert size >= n and smooth(size)
            assert not any(smooth(k) for k in range(n, size))

    def test_moving_average_ignores_the_blas_thread_count(self):
        # tables up to 362 steps, FFTs from 363; at 390 steps a table would pass
        # the 460,800 entries from which OpenBLAS threads a gemv, and from 28,572
        # steps the table of 8 far cells and 6 history normals takes two row chunks
        runs = hashes_under_blas_threads(
            """
            for n in (8, 64, 362, 363, 390, 28572):
                grid = GridSpec(1.0, n)
                single = generate_fbm_moving_average(grid, 0.7, RngSeed(3, 1)).values
                ens = fbm_moving_average_ensemble(grid, 0.3, 3, 3)
                seen[n] = [sha(single), sha(ens)]
            """
        )
        assert runs[0] == runs[1]

    def test_cholesky_ignores_the_blas_thread_count(self):
        # one row chunk at 128 steps, 2 at 700 and 43 at 4,096; ensemble row 1
        # is the single draw of stream 1
        runs = hashes_under_blas_threads(
            """
            for n in (128, 700, 4096):
                grid = GridSpec(1.0, n)
                single = generate_fbm_cholesky(grid, 0.7, RngSeed(3, 1)).values
                ens = fbm_cholesky_ensemble(grid, 0.7, 3, 3)
                seen[n] = [sha(single), sha(ens), bool((ens[1] == single).all())]
            """
        )
        assert runs[0] == runs[1]
        assert all(row_is_single for _, _, row_is_single in runs[0].values())


class TestLawConformance:
    """The covariance A A^T of a table law against the exact one, over the whole H range."""

    @pytest.mark.parametrize("H", [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99])
    @pytest.mark.parametrize("n", [8, 64, 512])
    def test_cholesky_is_exact_to_rounding(self, n, H):
        # measured at most 4.5e-14
        grid = GridSpec(1.0, n)
        assert law_covariance_error(gaussianpaths._cholesky_law(grid, H), grid, H) <= 1e-13

    # the bounds sit above the measured errors (H = 0.01, 0.05, 0.1, 0.25, 0.75, 0.9, 0.95,
    # 0.99 on 8 steps: 1.9e-3, 6.7e-3, 8.6e-3, 4.3e-3, 7.3e-4, 6.7e-4, 4.0e-4, 9.2e-5; on 64
    # steps: 1.8e-3, 5.4e-3, 5.7e-3, 1.5e-3, 2.0e-4, 2.3e-4, 1.5e-4, 3.7e-5).  The law of
    # 5 graded cells a step and far cells back to 1e4 t_max measured 0.395 at H = 0.05 and
    # 0.295 at H = 0.95 on 8 steps.  At H = 1/2 the kernel is the indicator of (0, t), whose
    # ends are step edges, so the law is exact to rounding
    @pytest.mark.parametrize(
        "n, H, bound",
        [(8, 0.05, 8e-3), (8, 0.1, 1e-2), (8, 0.25, 5e-3), (8, 0.5, 4.5e-16), (8, 0.75, 1e-3),
         (8, 0.9, 1e-3), (8, 0.95, 6e-4), (8, 0.01, 2e-3), (8, 0.99, 1e-4),
         (64, 0.05, 6.5e-3), (64, 0.1, 7e-3), (64, 0.25, 2e-3), (64, 0.5, 4.5e-16),
         (64, 0.75, 3e-4), (64, 0.9, 3e-4), (64, 0.95, 2e-4), (64, 0.01, 2e-3), (64, 0.99, 5e-5)],
    )
    def test_moving_average_covariance_error(self, n, H, bound):
        grid = GridSpec(1.0, n)
        law = _moving_average_law(grid, H)
        assert law[0] == 3 * n + 15
        assert law_covariance_error(law, grid, H) <= bound

    # 512 steps take the convolution route, 512 (3 512 + 15) > _GEMV_MAX; measured 1.7e-3,
    # 4.4e-3, 3.7e-3, 5.4e-4, 1.1e-16, 1.6e-4, 2.1e-4, 1.4e-4 and 3.4e-5.  At H = 1/2 the
    # bound leaves room for the FFT's rounding, which measured 6.8e-15 on 400 steps
    @pytest.mark.parametrize(
        "H, bound",
        [(0.01, 2e-3), (0.05, 5e-3), (0.1, 4e-3), (0.25, 6e-4), (0.5, 1e-13), (0.75, 2e-4),
         (0.9, 2.5e-4), (0.95, 2e-4), (0.99, 5e-5)],
    )
    def test_moving_average_convolution_covariance_error(self, H, bound):
        grid = GridSpec(1.0, 512)
        law = _moving_average_law(grid, H)
        assert law[0] == 3 * 512 + 15 and 512 * law[0] > gaussianpaths._GEMV_MAX
        assert law_covariance_error(law, grid, H) <= bound

    # table and convolution; the FFT rounds the a-weights within 2.8e-14 and the step's
    # variance within 4.9e-14 at H = 0.99 on 512 steps, the table within 4.5e-16
    @pytest.mark.parametrize("n, rtol", [(8, 1e-15), (512, 2e-13)])
    @pytest.mark.parametrize("H", [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99])
    def test_hybrid_step_holds_the_exact_step_integral(self, n, rtol, H):
        # node k weights the a-normal of the step that ends at it by dt^H / (q C(H)) and that
        # step's b-normal by c dt^H / C(H), c^2 = 1/(2H) - 1/q^2, so that the step carries
        # int (t_k - s)^(q-1) dW / C(H) with its exact variance dt^2H / (2H C(H)^2); every
        # node subtracts the same multiple of b_0, the step that ends at t_0 = 0
        grid = GridSpec(1.0, n)
        q, C = H + 0.5, normalizing_constant(H)
        A = law_matrix(_moving_average_law(grid, H), n)
        k = np.arange(1, n + 1)
        a, b = A[k - 1, n + k - 1], A[k - 1, 2 * n + k]
        np.testing.assert_allclose(a, grid.dt**H / (q * C), rtol=rtol, atol=0)
        np.testing.assert_allclose((a**2 + b**2) * 2 * H * C**2, grid.dt ** (2 * H), rtol=rtol, atol=0)
        np.testing.assert_allclose(A[:, 2 * n], -abs(b), rtol=rtol, atol=1e-300)


def hashes_under_blas_threads(body):
    """What `body` records in `seen` in fresh interpreters under 1 and 2 OpenBLAS threads."""
    script = "\n".join([
        "import hashlib, json",
        "from fracbm.gaussianpaths import *",
        "sha = lambda v: hashlib.sha256(v.tobytes()).hexdigest()",
        "seen = {}",
        textwrap.dedent(body),
        "print(json.dumps(seen))",
    ])
    src = str(Path(gaussianpaths.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return runs


class TestDrawLoop:
    """Blocks of streams are drawn one after another on the calling thread."""

    @pytest.mark.parametrize("kind", sorted(SINGLE_AND_ENSEMBLE))
    def test_output_is_independent_of_the_block_size(self, kind, monkeypatch):
        # three blocks at the default size, the last one short; then one stream
        # a block, and three streams a block with a short last block
        _, ensemble_fn, args = SINGLE_AND_ENSEMBLE[kind]
        grid, count = BLOCK_SPANNING[kind]
        rows = _BLOCK_NORMALS // count
        replicates = 2 * rows + rows // 4 + 1
        replicates += replicates % 3 == 0  # keeps the last block of three streams short
        draws = []
        for block in (_BLOCK_NORMALS, count, 3 * count):
            monkeypatch.setattr(gaussianpaths, "_BLOCK_NORMALS", block)
            draws.append(ensemble_fn(grid, *args, 2**64 - 1, replicates))
        assert all(np.array_equal(d, draws[0]) for d in draws[1:])

    def test_each_block_is_drawn_once(self, monkeypatch):
        # blocks of 2 streams of 4 normals: streams 0-1, 2-3, 4-5 and 6
        monkeypatch.setattr(gaussianpaths, "_BLOCK_NORMALS", 8)
        shaped = []

        def shape(z, dest):
            shaped.append((len(z), threading.get_ident()))
            dest[:] = z

        out = _draw((4, shape), GridSpec(1.0, 4), 5, range(7))
        assert shaped == [(2, threading.get_ident())] * 3 + [(1, threading.get_ident())]
        want = [fresh_philox(5, r).standard_normal(4) for r in range(7)]
        assert np.array_equal(out[:, 1:], want) and not out[:, 0].any()

    def test_shape_error_reaches_the_caller(self, monkeypatch):
        # blocks of 2 streams of 4 normals; shaping fails on the block of streams 2-3
        monkeypatch.setattr(gaussianpaths, "_BLOCK_NORMALS", 8)
        second = fresh_philox(5, 2).standard_normal()

        def shape(z, dest):
            if z[0, 0] == second:
                raise ValueError("second block")
            dest[:] = z

        with pytest.raises(ValueError, match="second block"):
            _draw((4, shape), GridSpec(1.0, 4), 5, range(6))

    def test_zero_streams_shape_nothing(self):
        def shape(z, dest):
            raise AssertionError("no block to shape")

        assert _draw((4, shape), GridSpec(1.0, 4), 5, range(0)).shape == (0, 5)


def dot_per_row(A, z, chunk):
    """A @ z[r] a row at a time, one np.dot per chunk of `chunk` rows of A: a single stream's gemvs."""
    out = np.empty((len(z), A.shape[0]))
    for zr, dr in zip(z, out):
        for lo in range(0, A.shape[0], chunk):
            np.dot(A[lo : lo + chunk], zr, out=dr[lo : lo + chunk])
    return out


class TestRowwiseGemv:
    """A table shapes a block of streams by one np.matmul per row chunk, each row bitwise its own dots.

    At 200 x 2000 and 400 x 1000 one gemm over the rows, z @ A.T, rounds differently.
    """

    @pytest.mark.parametrize("rows", [1, 2, 3, 1000])
    @pytest.mark.parametrize("n, k", [(1, 7), (16, 16), (8, 116), (200, 2000), (400, 1000), (1000, 401)])
    def test_each_row_is_the_dot_of_its_stream(self, n, k, rows):
        # (1000, 401) takes two row chunks; the far table of the FFT route reads z[:, m:],
        # rows of a wider block, and every law writes into out[:, 1:]
        rng = np.random.default_rng([n, k, rows])
        A = rng.standard_normal((n, k))
        block = rng.standard_normal((rows, k + 3))
        for z in (block[:, :k], block[:, 3:]):
            out = np.zeros((rows, n + 1))
            _rowwise_gemv(A)(z, out[:, 1:])
            assert np.array_equal(out[:, 1:], dot_per_row(A, z, max(1, _GEMV_MAX // k)))
            assert not out[:, 0].any()

    @pytest.mark.parametrize("gemv_max", [1, 300, 4 * 116 - 1])
    def test_many_row_chunks(self, gemv_max, monkeypatch):
        # one row of A a chunk, then 2 and 3 rows of 116 entries a chunk, the last one short
        monkeypatch.setattr(gaussianpaths, "_GEMV_MAX", gemv_max)
        rng = np.random.default_rng(gemv_max)
        A, z = rng.standard_normal((8, 116)), rng.standard_normal((50, 116))
        out = np.empty((50, 8))
        _rowwise_gemv(A)(z, out)
        assert np.array_equal(out, dot_per_row(A, z, max(1, gemv_max // 116)))


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

    @pytest.mark.parametrize("bad", [True, False, "2", 2 + 0j, 0.0, -1.0, math.inf, math.nan, None])
    def test_scale_factor_must_be_a_positive_real(self, bad):
        p = generate_bm(GridSpec(1.0, 8), RngSeed(1, 0))
        with pytest.raises(ValueError, match="scale factor a"):
            scale_path(p, bad)

    def test_scaling_names_an_overflowing_horizon(self):
        # t_max / a overflowed inside GridSpec, which named a horizon never passed
        p = generate_fbm_circulant(GridSpec(1e300, 16), 0.7, RngSeed(1, 0))
        with pytest.raises(ValueError, match=r"scale factor a=1e-10: the rescaled horizon t_max / a overflows a float"):
            scale_path(p, 1e-10)

    def test_scaling_names_an_underflowing_horizon(self):
        # t_max / a underflowed to 0 inside GridSpec, which named a horizon never passed
        p = generate_fbm_circulant(GridSpec(1e-300, 16), 0.7, RngSeed(1, 0))
        with pytest.raises(ValueError, match=r"scale factor a=1e\+300: the rescaled horizon t_max / a underflows to 0"):
            scale_path(p, 1e300)

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

    def test_inversion_names_an_overflowing_horizon(self):
        p = generate_bm(GridSpec(1e-310, 16), RngSeed(1, 0))
        with pytest.raises(ValueError, match=r"t_max=1e-310: the inverted horizon n / t_max overflows a float"):
            time_invert_bm(p)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_empirical_covariance_names_the_first_non_finite_row(self, bad):
        ens = bm_ensemble(GridSpec(1.0, 8), 1, 10)
        ens[7, 3] = ens[4, 8] = bad
        with pytest.raises(ValueError, match="ensemble values must be finite, row 4 is not"):
            empirical_covariance(ens)


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

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_time_rejected(self, tmp_path, bad):
        dest = tmp_path / "bad.csv"
        dest.write_text(f"t,value\n0,1\n{bad},2\n2,3\n")
        with pytest.raises(ValueError, match="column 't'"):
            read_path_csv(dest)

    @pytest.mark.parametrize(
        "line", ["hurst=abc", "seed=x", "seed=1/y", "seed=-1/0", "generator=nope"]
    )
    def test_malformed_header_names_its_key(self, tmp_path, line):
        dest = tmp_path / "bad.csv"
        dest.write_text(f"# {line}\nt,value\n0,0\n1,1\n")
        key = line.partition("=")[0]
        with pytest.raises(ValueError, match=f"header {key}="):
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
