"""End-to-end verification experiments with frozen seeds and tolerances.

Each experiment exercises one slice of the library against an independent
target (closed forms, exact identities, or Monte Carlo bands) and reports
per-check verdicts.  Seeds, grid sizes, and replicate counts are fixed so
reruns are bit-reproducible; `VerifyConfig(replicates=...)` caps the
Monte Carlo sizes for quick smoke runs at the cost of wider spread.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from ._validate import instance, integer
from .fraccalc import (
    DifferintegralSpec,
    GridFunction,
    OperatorKind,
    Side,
    cauchy_repeated_integral,
    fractional_derivative,
    fractional_integral,
)
from .fbmintegrate import (
    backward_integral,
    extended_forward_integral,
    fbm_ito_formula_check,
    forward_integral,
    riemann_stieltjes_integral,
    symmetric_integral,
    telescoping_tolerance,
)
from .gaussianpaths import (
    GridSpec,
    RngSeed,
    bm_covariance,
    bm_ensemble,
    empirical_covariance,
    fbm_cholesky_ensemble,
    fbm_covariance,
    fbm_moving_average_ensemble,
    generate_bm,
    generate_fbm_circulant,
)
from .itocalc import (
    AdaptedIntegrand,
    ItoProcess,
    endpoint_comparison,
    isometry_check,
    ito_formula_apply,
    ito_integral,
)
from .pathstats import (
    VariationVerdict,
    empirical_acf,
    lrd_diagnostic,
    p_variation,
    quadratic_variation,
    rescaled_range_hurst,
    theoretical_acf,
    variation_index,
)


@dataclass(frozen=True)
class CheckResult:
    """One named comparison inside an experiment."""

    name: str
    target: float
    estimate: float
    tolerance: float
    passed: bool
    detail: str = ""

    def record(self) -> dict:
        rec = asdict(self)
        rec["verdict"] = "pass" if rec.pop("passed") else "fail"
        return rec


@dataclass(frozen=True)
class ExperimentResult:
    experiment: str
    title: str
    checks: tuple
    elapsed: float
    warnings: tuple = ()  # messages of the warnings raised during the run, each once

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def record(self) -> dict:
        return {
            "experiment": self.experiment,
            "title": self.title,
            "verdict": "pass" if self.passed else "fail",
            "elapsed_seconds": round(self.elapsed, 3),
            "checks": [c.record() for c in self.checks],
            "warnings": list(self.warnings),
        }


@dataclass(frozen=True)
class VerifyConfig:
    """Knobs shared by every experiment.

    `replicates`, an integer of at least 2, caps ensemble sizes and
    seed-sweep counts (never raises them); reduced runs finish fast but
    verdicts near a tolerance edge may flip from sampling noise.
    """

    replicates: Optional[int] = None

    def __post_init__(self) -> None:
        if self.replicates is not None:
            object.__setattr__(self, "replicates", integer(self.replicates, "replicates", 2))

    def scaled(self, default: int) -> int:
        return default if self.replicates is None else min(default, self.replicates)


def _close(name, target, estimate, tolerance, detail="") -> CheckResult:
    return CheckResult(
        name, float(target), float(estimate), float(tolerance),
        abs(estimate - target) <= tolerance, detail,
    )


def _vote(name, grid, H, root, votes, passes, want_high, outcome) -> CheckResult:
    """Whether passes(path) holds in most (want_high) or few of `votes` circulant paths."""
    hits = sum(1 for s in range(votes) if passes(generate_fbm_circulant(grid, H, RngSeed(root, s))))
    ok = hits / votes > 0.5 if want_high else hits / votes < 0.5
    detail = f"{outcome} in {hits}/{votes} runs"
    return CheckResult(name, float(want_high), hits / votes, 0.5, ok, detail)


# -- operator algebra ---------------------------------------------------------


def _operator_residuals(n: int) -> dict:
    f = GridFunction.from_callable(lambda t: np.sin(2.0 * t), 0.0, 1.0, n)
    g = GridFunction.from_callable(lambda t: np.cos(3.0 * t), 0.0, 1.0, n)
    i3 = DifferintegralSpec(0.3, Side.LEFT, OperatorKind.INTEGRAL)
    i4 = DifferintegralSpec(0.4, Side.LEFT, OperatorKind.INTEGRAL)
    i7 = DifferintegralSpec(0.7, Side.LEFT, OperatorKind.INTEGRAL)
    semi = np.max(np.abs(
        fractional_integral(fractional_integral(f, i3), i4).values
        - fractional_integral(f, i7).values
    ))

    right = fractional_integral(f, DifferintegralSpec(0.5, Side.RIGHT, OperatorKind.INTEGRAL))
    left_spec = DifferintegralSpec(0.5, Side.LEFT, OperatorKind.INTEGRAL)
    refl = fractional_integral(f.reflected(), left_spec).reflected()
    reflection = np.max(np.abs(right.values - refl.values))

    i_f = fractional_integral(f, left_spec)
    i_g = fractional_integral(g, DifferintegralSpec(0.5, Side.RIGHT, OperatorKind.INTEGRAL))
    ibp = abs(
        np.trapezoid(i_f.values * g.values, dx=f.h)
        - np.trapezoid(f.values * i_g.values, dx=f.h)
    )

    d4 = DifferintegralSpec(0.4, Side.LEFT, OperatorKind.DERIVATIVE)
    inv = np.max(np.abs(fractional_derivative(fractional_integral(f, i4), d4).values - f.values))
    return {"semigroup": semi, "reflection": reflection, "parts-exchange": ibp, "inversion": inv}


def _e1(cfg: VerifyConfig):
    tol, floor, ratio_min = 1e-4, 1e-12, 1.5
    coarse, fine = _operator_residuals(4096), _operator_residuals(8192)
    checks = []
    for name in coarse:
        r1, r2 = coarse[name], fine[name]
        at_floor = r1 <= floor and r2 <= floor
        shrinks = r2 > 0.0 and r1 / r2 >= ratio_min
        passed = r1 <= tol and (at_floor or shrinks)
        detail = f"refined residual {r2:.3e}" + ("" if at_floor else f", ratio {r1 / max(r2, 1e-300):.2f}")
        checks.append(CheckResult(name, 0.0, float(r1), tol, passed, detail))
    return checks


def _e2(cfg: VerifyConfig):
    alpha, n = 0.5, 8192
    h = 1.0 / n
    t = np.linspace(0.0, 1.0, n + 1)
    vals = np.empty(n + 1)
    vals[1:] = t[1:] ** (alpha - 1.0)
    # node 0 stands in for the integrable singularity: match the first cell's mass
    vals[0] = h ** (alpha - 1.0) * (2.0 - alpha) / alpha
    f = GridFunction(0.0, 1.0, vals)
    d = fractional_derivative(f, DifferintegralSpec(alpha, Side.LEFT, OperatorKind.DERIVATIVE))
    window = t >= 0.5
    sup = float(np.max(np.abs(d.values[window])))
    return [_close("annihilation-sup", 0.0, sup, 1e-3, "window t >= 0.5, n = 8192")]


def _e3(cfg: VerifyConfig):
    n = 4096
    f = GridFunction.from_callable(lambda t: np.sin(2.0 * t), 0.0, 1.0, n)
    checks = []
    for m in (2, 3):
        ref = f.values
        for _ in range(m):  # the cumulative trapezoid, in scipy's order of operations
            ref = np.concatenate(([0.0], np.cumsum(f.h * (ref[1:] + ref[:-1]) / 2.0)))
        err = float(np.max(np.abs(cauchy_repeated_integral(f, m).values - ref)))
        checks.append(_close(f"order-{m}", 0.0, err, 1e-6, "vs iterated trapezoid"))
    return checks


# -- path laws ----------------------------------------------------------------


def _cov_error(values: np.ndarray, grid: GridSpec, cov: Callable[[float, float], float]) -> float:
    emp = empirical_covariance(values)
    t = grid.times
    ref = np.array([[cov(float(s), float(u)) for u in t] for s in t])
    return float(np.max(np.abs(emp - ref)))


def _e4(cfg: VerifyConfig):
    grid = GridSpec(1.0, 16)
    reps = cfg.scaled(10000)
    err = _cov_error(bm_ensemble(grid, 42, reps), grid, bm_covariance)
    return [_close("covariance-sup", 0.0, err, 0.05, f"{reps} replicates, 17 nodes")]


def _e5(cfg: VerifyConfig):
    reps = cfg.scaled(10000)
    checks = []
    for label, ensemble, grid, root, tol in (
        ("cholesky", fbm_cholesky_ensemble, GridSpec(1.0, 16), 43, 0.05),
        ("moving-average", fbm_moving_average_ensemble, GridSpec(1.0, 8), 47, 0.08),
    ):
        for H in (0.25, 0.5, 0.75):
            err = _cov_error(ensemble(grid, H, root, reps), grid, partial(fbm_covariance, H))
            checks.append(_close(f"{label}-H{H}", 0.0, err, tol, f"{reps} replicates"))
    return checks


def _e6(cfg: VerifyConfig):
    grid = GridSpec(2.0, 1024)
    reps = cfg.scaled(10000)
    ens = bm_ensemble(grid, 11, reps)
    checks = []
    for T in (1.0, 2.0):
        left, right = endpoint_comparison(ens, grid, T)
        checks.append(_close(f"left-mean-T{T:g}", 0.0, left, 0.05, f"{reps} replicates"))
        checks.append(_close(f"right-mean-T{T:g}", T, right, 0.05 * T, f"{reps} replicates"))
    return checks


# -- stochastic integration ---------------------------------------------------


def _e7(cfg: VerifyConfig):
    grid = GridSpec(1.0, 2**14)
    seeds = cfg.scaled(100)
    f = AdaptedIntegrand.path_value()
    worst = 0.0
    for s in range(seeds):
        path = generate_bm(grid, RngSeed(10, s))
        for stride in (1, 4, 16, 64):
            lhs = ito_integral(f, path, sub_partition=path.times[::stride])
            sub = path.values[::stride]
            rhs = 0.5 * sub[-1] ** 2 - 0.5 * float(np.sum(np.diff(sub) ** 2))
            worst = max(worst, abs(lhs - rhs))
    return [_close(
        "square-identity", 0.0, worst, 1e-10,
        f"{seeds} seeds, mesh strides 1/4/16/64 on 2^14 steps",
    )]


def _e8(cfg: VerifyConfig):
    grid = GridSpec(1.0, 1024)
    reps = cfg.scaled(10000)
    ens = bm_ensemble(grid, 12, reps)
    integrands = [
        ("constant", AdaptedIntegrand.constant(1.0)),
        ("deterministic", AdaptedIntegrand.deterministic(lambda t: t)),
        ("path-value", AdaptedIntegrand.path_value()),
    ]
    checks = []
    for name, f in integrands:
        lhs, rhs, ci = isometry_check(f, ens, grid)
        checks.append(_close(
            f"isometry-{name}", rhs, lhs, ci, f"{reps} replicates, half-width {ci:.4f}"
        ))

    fine = GridSpec(1.0, 2**14)
    seeds = cfg.scaled(100)
    gaps = np.empty(seeds)
    for s in range(seeds):
        proc = ItoProcess(
            0.0,
            AdaptedIntegrand.constant(0.0),
            AdaptedIntegrand.constant(1.0),
            generate_bm(fine, RngSeed(14, s)),
        )
        lhs_path, rhs_path = ito_formula_apply(
            lambda t, x: 0.5 * x * x,
            lambda t, x: 0.0,
            lambda t, x: x,
            lambda t, x: 1.0,
            proc,
        )
        gaps[s] = np.max(np.abs(lhs_path - rhs_path))
    checks.append(_close(
        "change-of-variables", 0.0, float(np.median(gaps)), 0.02,
        f"median sup gap over {seeds} seeds at 2^14 steps",
    ))
    return checks


def _e9(cfg: VerifyConfig):
    grid = GridSpec(1.0, 2**14)
    seeds = cfg.scaled(100)
    qv = np.empty(seeds)
    for s in range(seeds):
        qv[s] = quadratic_variation(generate_bm(grid, RngSeed(1, s)))
    worst = float(qv[np.argmax(np.abs(qv - 1.0))])
    checks = [_close(
        "brownian-qv", 1.0, worst, 0.05,
        f"widest of {seeds} single-path values, mean {np.mean(qv):.4f}",
    )]

    expected = {
        0.25: VariationVerdict.DIVERGES,
        0.5: VariationVerdict.STABILIZES,
        0.75: VariationVerdict.CONVERGES_TO_ZERO,
    }
    votes = cfg.scaled(20)
    for H, want in expected.items():
        checks.append(_vote(
            f"square-variation-H{H}", grid, H, 3, votes,
            lambda path: p_variation(path, 2.0).verdict is want, True, want.value,
        ))
    return checks


# -- estimators ---------------------------------------------------------------


def _hurst_sweep(method: str, H: float, n: int, root: int, seeds: int) -> np.ndarray:
    grid = GridSpec(1.0, n)
    out = np.empty(seeds)
    for s in range(seeds):
        path = generate_fbm_circulant(grid, H, RngSeed(root, s))
        if method == "rescaled-range":
            out[s] = rescaled_range_hurst(np.diff(path.values)).h_hat
        else:
            out[s] = variation_index(path).h_hat
    return out


def _e10(cfg: VerifyConfig):
    seeds = cfg.scaled(50)
    roots = {"rescaled-range": 11, "variation-index": 4}
    targets = (0.25, 0.5, 0.75)
    sizes = (2**10, 2**12, 2**14)
    checks = []
    for method, root in roots.items():
        medians = {
            H: [float(np.median(_hurst_sweep(method, H, n, root, seeds))) for n in sizes]
            for H in targets
        }
        for H in targets:
            checks.append(_close(
                f"{method}-H{H}", H, medians[H][1], 0.1,
                f"median over {seeds} paths of 4096 steps",
            ))
        mono_ok = 0
        details = []
        for H in targets:
            errs = [abs(m - H) for m in medians[H]]
            if errs[0] > errs[1] > errs[2]:
                mono_ok += 1
            details.append(f"H={H}: " + " > ".join(f"{m:.4f}" for m in errs))
        checks.append(CheckResult(
            f"{method}-refinement", 3.0, float(mono_ok), 0.0, mono_ok == 3,
            "median-estimate error over 2^10/2^12/2^14 steps; " + "; ".join(details),
        ))
    return checks


def _e11(cfg: VerifyConfig):
    n = 2**14
    checks = []
    for H in (0.25, 0.75):
        path = generate_fbm_circulant(GridSpec(float(n), n), H, RngSeed(7, 0))
        emp = float(empirical_acf(path, 1)[1])
        checks.append(_close(
            f"lag1-acf-H{H}", theoretical_acf(H, 1), emp, 0.05, f"{n} unit-spaced increments"
        ))

    for H, N in ((0.25, 10**7), (0.75, 10**6)):
        partial, ratio = lrd_diagnostic(H, N)
        checks.append(_close(
            f"acf-asymptote-H{H}", 1.0, float(ratio[10**4 - 1]), 0.01, "ratio at lag 1e4"
        ))
        growth = float((partial[-1] - partial[N // 2 - 1]) / partial[N // 2 - 1])
        if H > 0.5:
            passed, target, rule = growth > 0.01, 0.01, "must exceed"
        else:
            passed, target, rule = growth < 0.001, 0.001, "must stay below"
        checks.append(CheckResult(
            f"tail-growth-H{H}", target, growth, 0.0, passed,
            f"partial-sum growth over the second half up to N={N:.0e}; {rule} {target}",
        ))
    return checks


# -- regularized pathwise integrals -------------------------------------------


def _e12(cfg: VerifyConfig):
    grid = GridSpec(1.0, 2**14)
    g = generate_fbm_circulant(grid, 0.75, RngSeed(20, 0))
    span = float(g.values[-1] - g.values[0])
    tol = telescoping_tolerance(g)
    checks = [
        _close("telescope-symmetric", span, symmetric_integral(1.0, g).value, tol),
        _close("telescope-forward", span, forward_integral(1.0, g).value, tol),
        _close("telescope-backward", -span, backward_integral(1.0, g).value, tol),
        _close("telescope-stieltjes", span, riemann_stieltjes_integral(1.0, g).value, 1e-9),
        _close("telescope-extended", span, extended_forward_integral(1.0, g).value, 0.02),
    ]

    ramp = g.times
    lhs = symmetric_integral(ramp, g).value + float(np.trapezoid(g.values, dx=g.dt))
    checks.append(_close(
        "integration-by-parts", float(g.times[-1] * g.values[-1]), lhs, 0.01,
        "symmetric t dg plus trapezoid g dt vs boundary product",
    ))

    seeds = cfg.scaled(10)
    meds = {}
    for n in (2**13, 2**15):
        gaps = np.empty(seeds)
        for s in range(seeds):
            x = generate_fbm_circulant(GridSpec(1.0, n), 0.75, RngSeed(22, s))
            gaps[s] = fbm_ito_formula_check(
                lambda t, v: 0.5 * v * v, lambda t, v: 0.0, lambda t, v: v, x
            )[2]
        meds[n] = float(np.median(gaps))
    checks.append(_close(
        "change-of-variables", 0.0, meds[2**15], 0.02,
        f"median sup gap over {seeds} paths at 2^15 steps",
    ))
    checks.append(CheckResult(
        "change-of-variables-shrink", 0.0, meds[2**15], meds[2**13],
        meds[2**15] < meds[2**13],
        f"median gap {meds[2**13]:.4f} at 2^13 steps vs {meds[2**15]:.4f} at 2^15",
    ))

    votes = cfg.scaled(20)
    for H in (0.1, 0.25, 0.6, 0.75, 0.9):
        checks.append(_vote(
            f"forward-ladder-H{H}", grid, H, 25, votes,
            lambda x: forward_integral(x, x).converged, H > 0.5, "converged",
        ))
    return checks


EXPERIMENTS = {
    "E1": ("fractional operator identities on a smooth function", _e1),
    "E2": ("power-law input annihilated by the matching derivative", _e2),
    "E3": ("repeated integration collapses to one weighted integral", _e3),
    "E4": ("Brownian ensemble covariance", _e4),
    "E5": ("fractional ensembles against the exact covariance", _e5),
    "E6": ("endpoint choice separates the stochastic sums", _e6),
    "E7": ("per-path square identity at every mesh", _e7),
    "E8": ("moment identities for the stochastic integral", _e8),
    "E9": ("quadratic variation and the variation-order dichotomy", _e9),
    "E10": ("roughness recovery from single paths", _e10),
    "E11": ("correlation structure and memory of the increments", _e11),
    "E12": ("regularization ladders for pathwise integrals", _e12),
}


def run_experiment(exp_id: str, cfg: Optional[VerifyConfig] = None) -> ExperimentResult:
    if not isinstance(exp_id, str) or exp_id not in EXPERIMENTS:
        raise ValueError(f"exp_id must be one of {', '.join(EXPERIMENTS)}, got {exp_id!r:.60}")
    title, fn = EXPERIMENTS[exp_id]
    cfg = VerifyConfig() if cfg is None else instance(cfg, VerifyConfig, "cfg")
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        checks = fn(cfg)
    elapsed = time.perf_counter() - start
    messages = tuple(dict.fromkeys(str(w.message) for w in caught))
    return ExperimentResult(exp_id, title, tuple(checks), elapsed, messages)
