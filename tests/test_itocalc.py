import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fracbm.fraccalc import GridFunction, fractal_integral
from fracbm.gaussianpaths import (
    GridSpec,
    RngSeed,
    SamplePath,
    bm_ensemble,
    generate_bm,
    generate_fbm_circulant,
)
from fracbm._nodecalc import eval2
from fracbm.itocalc import (
    _ENSEMBLE_ROWS,
    REPLICATE_FLOOR,
    AdaptedIntegrand,
    AdaptednessError,
    ItoProcess,
    PathPrefix,
    SimpleProcess,
    endpoint_comparison,
    isometry_check,
    ito_formula_apply,
    ito_integral,
    ito_integral_qv,
)

GRID = GridSpec(1.0, 2**14)


class TestAdaptedIntegrand:
    def test_grid_eval_agrees_with_the_rule(self):
        p = generate_bm(GridSpec(1.0, 128), RngSeed(20, 0))
        f = AdaptedIntegrand.deterministic(lambda t: np.cos(t))
        fast = f.on_nodes(p.times, p.values)
        slow = AdaptedIntegrand(f.rule).on_nodes(p.times, p.values)
        assert np.abs(fast - slow).max() <= 1e-14

    def test_prefix_blocks_look_ahead(self):
        prefix = PathPrefix(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.2, -0.1]))
        assert prefix.value_at(0.75) == pytest.approx(0.05)
        with pytest.raises(AdaptednessError):
            prefix.value_at(1.5)
        with pytest.raises(AdaptednessError):
            prefix.up_to(2.0)

    @pytest.mark.parametrize("t", [-1.0, -math.inf])
    def test_prefix_before_its_start_is_empty(self, t):
        prefix = PathPrefix(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.2, -0.1]))
        assert prefix.up_to(t).times.size == 0

    def test_peeking_integrand_raises(self):
        p = generate_bm(GridSpec(1.0, 64), RngSeed(20, 1))
        peeker = AdaptedIntegrand(lambda t, prefix: prefix.value_at(t + 0.1))
        with pytest.raises(AdaptednessError):
            ito_integral(peeker, p)

    def test_non_finite_integrand_rejected(self):
        p = generate_bm(GridSpec(1.0, 64), RngSeed(20, 2))
        bad = AdaptedIntegrand.deterministic(lambda t: np.where(t < 0.5, 0.0, np.inf))
        with pytest.raises(ValueError):
            ito_integral(bad, p)


class TestNodeEvaluation:
    @pytest.mark.parametrize("const", [0.0, 1.0, -0.0, 3, np.float64(0.25)], ids=repr)
    def test_scalar_result_is_the_value_at_every_node_from_one_call(self, const):
        p = generate_bm(GridSpec(1.0, 2**14), RngSeed(14, 0))
        calls = []

        def fn(t, x):
            calls.append(t)
            return const

        out = eval2(fn, p.times, p.values)
        assert len(calls) == 1
        per_node = np.array([float(fn(tk, xk)) for tk, xk in zip(p.times, p.values)])
        assert out.shape == p.times.shape and out.tobytes() == per_node.tobytes()

    def test_scalar_only_callable_falls_back_to_one_call_per_node(self):
        t, x = np.linspace(0.0, 1.0, 9), np.linspace(0.0, 2.0, 9)
        out = eval2(lambda s, y: math.cos(s) * y, t, x)
        assert out.tobytes() == np.array([math.cos(s) * y for s, y in zip(t, x)]).tobytes()


class TestIntegralExactCases:
    def test_constant_integrand_telescopes(self):
        p = generate_bm(GRID, RngSeed(13, 0))
        v = ito_integral(AdaptedIntegrand.constant(2.5), p)
        assert abs(v - 2.5 * p.values[-1]) <= 1e-12

    def test_constant_over_a_sub_window(self):
        p = generate_bm(GRID, RngSeed(13, 0))
        sub = p.times[4096:12289]
        v = ito_integral(AdaptedIntegrand.constant(2.5), p, sub_partition=sub)
        assert abs(v - 2.5 * (p.values[12288] - p.values[4096])) <= 1e-12

    def test_left_sums_of_the_path_square_identity(self):
        # sum B dB = B(T)^2/2 - (sum dB^2)/2 holds per path, not just in law
        p = generate_bm(GRID, RngSeed(13, 1))
        lhs = ito_integral(AdaptedIntegrand.path_value(), p)
        rhs = 0.5 * p.values[-1] ** 2 - 0.5 * np.sum(np.diff(p.values) ** 2)
        assert abs(lhs - rhs) <= 1e-10

    def test_rejects_non_brownian_driver(self):
        g = generate_fbm_circulant(GridSpec(1.0, 256), 0.75, RngSeed(13, 2))
        with pytest.raises(ValueError, match="hurst 0.5"):
            ito_integral(AdaptedIntegrand.constant(1.0), g)

    def test_linearity(self):
        p = generate_bm(GRID, RngSeed(13, 3))
        fa = AdaptedIntegrand.deterministic(lambda t: np.cos(t))
        fb = AdaptedIntegrand.path_value()
        comb = AdaptedIntegrand(
            lambda t, prefix: 2.0 * np.cos(t) - 3.0 * prefix.latest,
            lambda times, values: 2.0 * np.cos(times) - 3.0 * values,
        )
        lhs = ito_integral(comb, p)
        rhs = 2.0 * ito_integral(fa, p) - 3.0 * ito_integral(fb, p)
        assert abs(lhs - rhs) <= 1e-12

    @pytest.mark.parametrize("stride", [1, 4, 64])
    @pytest.mark.parametrize(
        "f",
        [
            AdaptedIntegrand.constant(2.5),
            AdaptedIntegrand.deterministic(lambda t: np.cos(t)),
            AdaptedIntegrand.path_value(),
        ],
        ids=["constant", "deterministic", "path-value"],
    )
    def test_rule_alone_matches_the_grid_evaluation_bitwise(self, f, stride):
        p = generate_bm(GridSpec(1.0, 1024), RngSeed(13, 4))
        sub = p.times[::stride]
        assert ito_integral(AdaptedIntegrand(f.rule), p, sub) == ito_integral(f, p, sub)

    @pytest.mark.parametrize("stride", [1, 4, 64])
    def test_rule_is_called_only_at_the_left_sub_partition_nodes(self, stride):
        p = generate_bm(GridSpec(1.0, 1024), RngSeed(13, 6))
        sub = p.times[::stride]
        f = AdaptedIntegrand.path_value()
        calls = []

        def counting_rule(t, prefix):
            calls.append(t)
            return f.rule(t, prefix)

        assert ito_integral(AdaptedIntegrand(counting_rule), p, sub) == ito_integral(f, p, sub)
        assert calls == list(sub[:-1])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_partition_time_rejected(self, bad):
        p = generate_bm(GridSpec(1.0, 64), RngSeed(13, 5))
        with pytest.raises(ValueError, match="partition time"):
            ito_integral(AdaptedIntegrand.constant(1.0), p, sub_partition=[0.0, bad])


class TestEnsembleChecks:
    def test_martingale_mean_is_statistically_zero(self):
        vals = [
            ito_integral(AdaptedIntegrand.path_value(), generate_bm(GridSpec(1.0, 2048), RngSeed(16, s)))
            for s in range(2000)
        ]
        se = np.std(vals, ddof=1) / np.sqrt(len(vals))
        assert abs(np.mean(vals)) <= 5.0 * se

    def test_endpoint_choice_splits_the_means(self):
        grid = GridSpec(2.0, 512)
        ens = bm_ensemble(grid, 17, 4000)
        mean_left, mean_right = endpoint_comparison(ens, grid, 2.0)
        assert abs(mean_left) <= 0.08
        assert abs(mean_right - 2.0) <= 0.08

    def test_degenerate_ensemble_gives_zeros(self):
        grid = GridSpec(2.0, 512)
        assert endpoint_comparison(np.zeros((2000, 513)), grid, 2.0) == (0.0, 0.0)

    @pytest.mark.parametrize("replicates", [0, 1])
    def test_isometry_needs_two_replicates(self, replicates):
        grid = GridSpec(1.0, 16)
        ens = bm_ensemble(grid, 12, replicates)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a call that fails warns of nothing
            with pytest.raises(ValueError, match="at least 2 replicates"):
                isometry_check(AdaptedIntegrand.constant(1.0), ens, grid)

    def test_endpoint_comparison_needs_a_replicate(self):
        grid = GridSpec(1.0, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a call that fails warns of nothing
            with pytest.raises(ValueError, match="at least 1 replicate, got 0"):
                endpoint_comparison(np.zeros((0, 17)), grid, 1.0)

    def test_endpoint_blocks_match_the_whole_array_formula(self):
        # 2.5 blocks of rows, T inside the grid: the per-row sums and the one
        # mean over them are those of the whole-ensemble expression
        grid = GridSpec(2.0, 64)
        ens = bm_ensemble(grid, 23, 2 * _ENSEMBLE_ROWS + _ENSEMBLE_ROWS // 2)
        for T in (0.5, 2.0):
            k = round(T / grid.dt)
            steps = np.diff(ens[:, : k + 1], axis=1)
            want = (
                float(np.mean(np.sum(ens[:, :k] * steps, axis=1))),
                float(np.mean(np.sum(ens[:, 1 : k + 1] * steps, axis=1))),
            )
            with pytest.warns(UserWarning, match=str(REPLICATE_FLOOR)):
                assert endpoint_comparison(ens, grid, T) == want

    def test_endpoint_comparison_holds_one_block_at_a_time(self):
        # a 2000 x 513 ensemble is 7.8 MiB; whole-array sums held 15.7 MiB at once
        grid = GridSpec(2.0, 512)
        ens = bm_ensemble(grid, 17, 2000)
        tracemalloc.start()
        try:
            endpoint_comparison(ens, grid, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, _ENSEMBLE_ROWS - 1, _ENSEMBLE_ROWS + 3, 2 * _ENSEMBLE_ROWS - 1])
    def test_non_finite_ensembles_rejected(self, bad, row):
        grid = GridSpec(1.0, 16)
        ens = bm_ensemble(grid, 12, 2 * _ENSEMBLE_ROWS)
        ens[row, 16] = bad  # the last node, which the endpoint sums up to T = 1/2 never read
        checks = [
            ("endpoint_comparison", lambda: endpoint_comparison(ens, grid, 0.5)),
            ("isometry_check", lambda: isometry_check(AdaptedIntegrand.constant(1.0), ens, grid)),
            ("isometry_check", lambda: isometry_check(AdaptedIntegrand.path_value(), ens, grid)),
        ]
        for what, call in checks:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a call that fails warns of nothing
                with pytest.raises(ValueError, match=f"{what}: ensemble values must be finite, row {row} "):
                    call()

    def test_small_ensembles_warn(self):
        grid = GridSpec(1.0, 16)
        with pytest.warns(UserWarning, match=str(REPLICATE_FLOOR)):
            endpoint_comparison(np.zeros((10, 17)), grid, 1.0)

    @pytest.mark.parametrize(
        "f",
        [
            AdaptedIntegrand.constant(1.0),
            AdaptedIntegrand.deterministic(lambda t: t),
            AdaptedIntegrand.path_value(),
        ],
        ids=["one", "time", "path"],
    )
    def test_isometry(self, f):
        grid = GridSpec(1.0, 1024)
        ens = bm_ensemble(grid, 12, 3000)
        lhs, rhs, ci = isometry_check(f, ens, grid)
        assert abs(lhs - rhs) <= ci

    @pytest.mark.parametrize(
        "f",
        [
            AdaptedIntegrand.constant(1.0),
            AdaptedIntegrand.deterministic(lambda t: t),
            AdaptedIntegrand.path_value(),
            AdaptedIntegrand(lambda t, prefix: prefix.latest**2),
        ],
        ids=["one", "time", "path", "rule-only"],
    )
    def test_isometry_blocks_match_the_row_loop(self, f):
        # 300 rows span three blocks; the reference takes one replicate at a time
        grid = GridSpec(2.0, 64)
        ens = bm_ensemble(grid, 21, 300)
        e = [f.on_nodes(grid.times, x) for x in ens]
        lhs = np.array([np.dot(er[:-1], np.diff(x)) ** 2 for er, x in zip(e, ens)])
        rhs = np.array([np.trapezoid(er**2, dx=grid.dt) for er in e])
        ci = 5.0 * math.sqrt((np.var(lhs, ddof=1) + np.var(rhs, ddof=1)) / ens.shape[0])
        with pytest.warns(UserWarning, match=str(REPLICATE_FLOOR)):
            got = isometry_check(f, ens, grid)
        assert got == (float(np.mean(lhs)), float(np.mean(rhs)), ci)

    @pytest.mark.parametrize("f_exp, x_exp", [(350, -600), (-300, 300), (0, 0)])
    @pytest.mark.parametrize("shape", ["constant", "time", "rule-only"])
    def test_each_side_of_the_isometry_keeps_its_own_units(self, shape, f_exp, x_exp):
        # an integrand of 2^350 on paths of 2^-600: (int f dB)^2 is about 2^-500 and int f^2 dt
        # about 2^700, both floats; one power of two for both sides once read the first as 0
        c = math.ldexp(1.0, f_exp)
        f = {
            "constant": AdaptedIntegrand.constant(c),
            "time": AdaptedIntegrand.deterministic(lambda t: c * t),
            "rule-only": AdaptedIntegrand(lambda t, prefix: c),
        }[shape]
        grid = GridSpec(2.0, 64)
        ens = np.ldexp(bm_ensemble(grid, 24, 300), x_exp)
        e = [f.on_nodes(grid.times, x) for x in ens]
        lhs = np.array([np.dot(er[:-1], np.diff(x)) ** 2 for er, x in zip(e, ens)])
        rhs = np.array([np.trapezoid(er**2, dx=grid.dt) for er in e])
        ci = 5.0 * math.sqrt((np.var(lhs, ddof=1) + np.var(rhs, ddof=1)) / ens.shape[0])
        with pytest.warns(UserWarning, match=str(REPLICATE_FLOOR)):
            got = isometry_check(f, ens, grid)
        assert got == (float(np.mean(lhs)), float(np.mean(rhs)), ci)
        assert got[0] > 0.0 and got[2] > 0.0

    @pytest.mark.parametrize("check", ["endpoint", "one", "time", "path", "rule-only"])
    def test_the_ensemble_is_left_as_it_was(self, check):
        # the blocks are scaled into a buffer of the check's own, never in place
        grid = GridSpec(1.0, 16)
        ens = bm_ensemble(grid, 25, 2 * _ENSEMBLE_ROWS + 5)
        before = ens.copy()
        integrands = {
            "one": AdaptedIntegrand.constant(1.0),
            "time": AdaptedIntegrand.deterministic(lambda t: t),
            "path": AdaptedIntegrand.path_value(),
            "rule-only": AdaptedIntegrand(lambda t, prefix: prefix.latest),
        }
        with pytest.warns(UserWarning, match=str(REPLICATE_FLOOR)):
            if check == "endpoint":
                endpoint_comparison(ens, grid, 1.0)
            else:
                isometry_check(integrands[check], ens, grid)
        assert np.array_equal(ens, before)

    def test_a_grid_eval_of_one_path_is_called_row_by_row(self):
        # on a block, v - v[0] would subtract the first path from every row
        f = AdaptedIntegrand(lambda t, prefix: prefix.latest - prefix.values[0], lambda t, v: v - v[0])
        grid = GridSpec(2.0, 64)
        ens = bm_ensemble(grid, 22, 300) + 0.5  # paths that do not start at zero
        e = [x - x[0] for x in ens]
        lhs = np.array([np.dot(er[:-1], np.diff(x)) ** 2 for er, x in zip(e, ens)])
        rhs = np.array([np.trapezoid(er**2, dx=grid.dt) for er in e])
        ci = 5.0 * math.sqrt((np.var(lhs, ddof=1) + np.var(rhs, ddof=1)) / ens.shape[0])
        with pytest.warns(UserWarning, match=str(REPLICATE_FLOOR)):
            got = isometry_check(f, ens, grid)
        assert got == (float(np.mean(lhs)), float(np.mean(rhs)), ci)


class TestQuadraticVariationOfIntegral:
    def test_unit_integrand_reproduces_the_clock(self):
        p = generate_bm(GRID, RngSeed(13, 0))
        qv, target = ito_integral_qv(AdaptedIntegrand.constant(1.0), p)
        assert target == pytest.approx(1.0, abs=1e-12)
        assert abs(qv - 1.0) <= 0.05

    def test_path_integrand_tracks_the_compensator(self):
        gaps = []
        for s in range(100):
            p = generate_bm(GRID, RngSeed(18, s))
            qv, target = ito_integral_qv(AdaptedIntegrand.path_value(), p)
            gaps.append(abs(qv - target))
        assert np.median(gaps) <= 0.1

    def test_zero_integrand_is_exactly_zero(self):
        p = SamplePath(GridSpec(1.0, 64), np.zeros(65), 0.5)
        assert ito_integral_qv(AdaptedIntegrand.constant(0.0), p) == (0.0, 0.0)


class TestSimpleProcess:
    def test_step_integrand_matches_the_coarse_sum(self):
        p = generate_bm(GRID, RngSeed(19, 0))
        part = p.times[::64]
        sp = SimpleProcess(part, lambda i, ti, prefix: prefix.latest)
        fine = ito_integral(sp.as_integrand(), p)
        coarse = float(np.dot(p.values[::64][:-1], np.diff(p.values[::64])))
        assert abs(fine - coarse) <= 1e-10

    def test_late_start_is_zero_before_the_first_time(self):
        p = generate_bm(GRID, RngSeed(19, 1))
        part = p.times[4096::64]
        sp = SimpleProcess(part, lambda i, ti, prefix: prefix.latest)
        coarse = float(np.dot(p.values[4096::64][:-1], np.diff(p.values[4096::64])))
        assert abs(ito_integral(sp.as_integrand(), p, sub_partition=part) - coarse) <= 1e-12
        assert abs(ito_integral(sp.as_integrand(), p) - coarse) <= 1e-10

    def test_repeated_times_contribute_nothing(self):
        p = generate_bm(GRID, RngSeed(19, 0))
        with_repeat = SimpleProcess(
            np.array([0.0, 0.25, 0.25, 0.5, 1.0]), lambda i, ti, prefix: prefix.latest
        )
        without = SimpleProcess(
            np.array([0.0, 0.25, 0.5, 1.0]), lambda i, ti, prefix: prefix.latest
        )
        a = ito_integral(with_repeat.as_integrand(), p)
        b = ito_integral(without.as_integrand(), p)
        assert a == b

    def test_decreasing_partition_rejected(self):
        with pytest.raises(ValueError):
            SimpleProcess(np.array([0.0, 0.5, 0.25]), lambda i, ti, prefix: 1.0)

    @pytest.mark.parametrize("t_max", [1.0, 1e-13, 1e-300])
    def test_step_indices_do_not_depend_on_the_unit_of_time(self, t_max):
        # an absolute 1e-12 once put every node of a horizon below it in the last step
        p = generate_bm(GridSpec(t_max, 8), RngSeed(1, 0))
        sp = SimpleProcess(p.times[::2], lambda i, ti, prefix: i)
        assert sp.as_integrand().on_nodes(p.times, p.values).tolist() == [0, 0, 1, 1, 2, 2, 3, 3, 3]

    @pytest.mark.parametrize("t_max", [1.0, 1e-300])
    def test_reading_the_horizon_early_raises_at_every_scale(self, t_max):
        # an absolute 1e-12 once let a rule read the path at t_max = 1e-300 from t = 0
        p = generate_bm(GridSpec(t_max, 8), RngSeed(1, 0))
        peeker = AdaptedIntegrand(lambda t, prefix: prefix.value_at(t_max))
        with pytest.raises(AdaptednessError, match="beyond its prefix end 0.0"):
            ito_integral(peeker, p)

    def test_refinement_cauchy_contraction(self):
        # left sums along nested meshes: successive differences shrink by a
        # solid factor once the mesh halves
        factors = []
        for s in range(20):
            p = generate_bm(GRID, RngSeed(15, s))
            sums = [
                ito_integral(AdaptedIntegrand.path_value(), p, sub_partition=p.times[::k])
                for k in (64, 32, 16, 8, 4, 2, 1)
            ]
            d = np.abs(np.diff(sums))
            factors.append(np.exp(np.mean(np.log(d[:-1] / d[1:]))))
        assert np.median(factors) >= 1.3


class TestItoFormula:
    def make_bm_process(self, stream):
        p = generate_bm(GRID, RngSeed(14, stream))
        return ItoProcess(
            0.0, AdaptedIntegrand.constant(0.0), AdaptedIntegrand.constant(1.0), p
        )

    def test_identity_map_is_exact(self):
        lhs, rhs = ito_formula_apply(
            lambda t, x: x,
            lambda t, x: 0.0,
            lambda t, x: 1.0,
            lambda t, x: 0.0,
            self.make_bm_process(0),
        )
        assert np.abs(lhs - rhs).max() <= 1e-10

    def test_product_with_time_needs_no_correction(self):
        lhs, rhs = ito_formula_apply(
            lambda t, x: t * x,
            lambda t, x: x,
            lambda t, x: t,
            lambda t, x: 0.0,
            self.make_bm_process(1),
        )
        assert np.abs(lhs - rhs).max() <= 0.01

    def test_half_square_needs_the_correction(self):
        proc = self.make_bm_process(2)
        lhs, rhs = ito_formula_apply(
            lambda t, x: 0.5 * x * x,
            lambda t, x: 0.0,
            lambda t, x: x,
            lambda t, x: 1.0,
            proc,
        )
        assert np.abs(lhs - rhs).max() <= 0.02
        # dropping the second-order term breaks the identity by ~t/2
        lhs2, rhs2 = ito_formula_apply(
            lambda t, x: 0.5 * x * x,
            lambda t, x: 0.0,
            lambda t, x: x,
            lambda t, x: 0.0,
            proc,
        )
        assert np.abs(lhs2 - rhs2).max() > 0.3

    def test_drift_only_process_is_a_line(self):
        p = generate_bm(GRID, RngSeed(14, 3))
        proc = ItoProcess(1.5, AdaptedIntegrand.constant(0.7), AdaptedIntegrand.constant(0.0), p)
        x, nu = proc.realize()
        assert np.abs(x - (1.5 + 0.7 * p.times)).max() <= 1e-12
        assert np.abs(nu).max() == 0.0

    def test_process_requires_brownian_driver(self):
        g = generate_fbm_circulant(GridSpec(1.0, 128), 0.75, RngSeed(14, 4))
        with pytest.raises(ValueError):
            ItoProcess(0.0, AdaptedIntegrand.constant(0.0), AdaptedIntegrand.constant(1.0), g)


UNIT_PATH = generate_bm(GridSpec(1.0, 8), RngSeed(1, 0))


def on_nodes_and_integral(path):
    """Node values and Ito integral of a step process that reads its prefix and its index."""
    sp = SimpleProcess(path.times[::2], lambda i, ti, prefix: prefix.values.size * prefix.latest + i)
    f = sp.as_integrand()
    return f.on_nodes(path.times, path.values).tolist(), ito_integral(f, path, path.times[::2])


@settings(max_examples=40, deadline=None)
@given(j=st.integers(-900, 900))
@example(j=900)
@example(j=-900)
def test_where_a_time_lies_does_not_depend_on_the_unit_of_time(j):
    t_max = math.ldexp(1.0, j)
    path = SamplePath(GridSpec(t_max, 8), UNIT_PATH.values, 0.5)
    assert on_nodes_and_integral(path) == on_nodes_and_integral(UNIT_PATH)
    peeker = AdaptedIntegrand(lambda t, prefix: prefix.value_at(t + path.dt))
    with pytest.raises(AdaptednessError):
        ito_integral(peeker, path)
    f = GridFunction(0.0, t_max, UNIT_PATH.values)
    assert math.isfinite(fractal_integral(f, GridFunction(0.0, t_max, path.values), 0.5))
    with pytest.raises(ValueError, match="share one grid"):
        fractal_integral(f, GridFunction(0.0, 3.0 * t_max, path.values), 0.5)
