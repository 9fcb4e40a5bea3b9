"""Path statistics: variation sums, Hurst estimation, autocorrelation, regularity.

Variation sums are taken over dyadic sub-partitions of the path's own grid;
they are lower bounds for the supremum over all partitions, and verdicts are
driven by how the sums scale with the mesh, not by their absolute size.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .gaussianpaths import SamplePath

__all__ = [
    "VariationVerdict",
    "HurstMethod",
    "VariationEstimate",
    "HurstEstimate",
    "quadratic_variation",
    "p_variation",
    "variation_index",
    "rescaled_range_hurst",
    "theoretical_acf",
    "empirical_acf",
    "lrd_diagnostic",
    "holder_exponent",
    "hurst_record",
]

#: |log-log slope| below this reads as mesh-independent (neither shrinking nor blowing up)
SLOPE_BAND = 0.2


class VariationVerdict(enum.Enum):
    CONVERGES_TO_ZERO = "converges-to-zero"
    STABILIZES = "stabilizes"
    DIVERGES = "diverges"


class HurstMethod(enum.Enum):
    RESCALED_RANGE = "rescaled-range"
    VARIATION_INDEX = "variation-index"
    HOLDER_SUP = "holder-sup"


@dataclass(frozen=True)
class VariationEstimate:
    p: float
    mesh_levels: tuple
    verdict: VariationVerdict

    def __post_init__(self) -> None:
        meshes = [m for m, _ in self.mesh_levels]
        if any(b >= a for a, b in zip(meshes, meshes[1:])):
            raise ValueError("mesh levels must be strictly decreasing")
        if any(v < 0 for _, v in self.mesh_levels):
            raise ValueError("variation sums are nonnegative")


@dataclass(frozen=True)
class HurstEstimate:
    h_hat: float
    method: HurstMethod
    stderr: float
    block_data: tuple

    def __post_init__(self) -> None:
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")
        sizes = [b for b, _ in self.block_data]
        if any(b >= a for a, b in zip(sizes[1:], sizes)):
            raise ValueError("block sizes must be strictly increasing")

    @property
    def accepted(self) -> bool:
        """Estimates outside (0, 1) are reported but flagged out-of-model."""
        return 0.0 < self.h_hat < 1.0


def quadratic_variation(path: SamplePath) -> float:
    """Sum of squared increments over the path's own grid."""
    return float(np.sum(np.diff(path.values) ** 2))


def _dyadic_sums(values: np.ndarray, dt: float, p: float, levels: int):
    n = values.size - 1
    if 2 ** (levels - 1) > n // 2:
        raise ValueError(f"{levels} dyadic levels need at least {2**levels} steps")
    out = []
    for j in range(levels - 1, -1, -1):
        s = 2**j
        v = float(np.sum(np.abs(np.diff(values[::s])) ** p))
        out.append((s * dt, v))
    return out


def _loglog_slope(pairs):
    x = np.log([m for m, v in pairs])
    y = np.log([v for m, v in pairs])
    return _ols_slope(x, y)[0]


def p_variation(path: SamplePath, p: float, levels: int = 5) -> VariationEstimate:
    """Variation sums sum |dX|^p over dyadic coarsenings of the grid.

    The verdict comes from the slope of log v_p against log mesh: a positive
    slope means the sums shrink under refinement, a negative slope that they
    blow up, and a flat profile that they stabilize.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    if levels < 3:
        raise ValueError("need at least 3 mesh levels")
    pairs = _dyadic_sums(path.values, path.dt, p, levels)
    if all(v == 0.0 for _, v in pairs):
        # flat path: zero variation at every mesh
        return VariationEstimate(p, tuple(pairs), VariationVerdict.CONVERGES_TO_ZERO)
    slope = _loglog_slope(pairs)
    if slope > SLOPE_BAND:
        verdict = VariationVerdict.CONVERGES_TO_ZERO
    elif slope < -SLOPE_BAND:
        verdict = VariationVerdict.DIVERGES
    else:
        verdict = VariationVerdict.STABILIZES
    return VariationEstimate(p, tuple(pairs), verdict)


def variation_index(
    path: SamplePath,
    p_lo: float = 0.8,
    p_hi: float = 8.0,
    levels: int = 5,
    h_tol: float = 1e-3,
) -> HurstEstimate:
    """Hurst estimate 1/p* from the order p* where variation sums flip regime.

    Below p* the dyadic sums blow up under refinement, above it they vanish;
    the crossover is located by bisecting the sign of the mesh-scaling slope.
    The final bracket half-width (in 1/p units) is reported as the stderr.
    """
    if path.grid.n_steps < 2**10:
        raise ValueError("variation index needs at least 2^10 steps")

    def slope(p):
        pairs = _dyadic_sums(path.values, path.dt, p, levels)
        if any(v == 0.0 for _, v in pairs):
            raise ValueError("degenerate path: zero variation sum at some mesh")
        return _loglog_slope(pairs)

    lo, hi = float(p_lo), float(p_hi)
    s_lo, s_hi = slope(lo), slope(hi)
    if not (s_lo < 0.0 < s_hi):
        raise ValueError(
            f"no regime change in p bracket [{p_lo}, {p_hi}] "
            f"(slopes {s_lo:.3f}, {s_hi:.3f})"
        )
    trace = {lo: s_lo, hi: s_hi}
    while 1.0 / lo - 1.0 / hi > h_tol:
        mid = 0.5 * (lo + hi)
        s_mid = slope(mid)
        trace[mid] = s_mid
        if s_mid < 0.0:
            lo = mid
        else:
            hi = mid
    p_star = 0.5 * (lo + hi)
    stderr = 0.5 * (1.0 / lo - 1.0 / hi)
    block_data = tuple(sorted(trace.items()))
    return HurstEstimate(1.0 / p_star, HurstMethod.VARIATION_INDEX, stderr, block_data)


def _ols_slope(x: np.ndarray, y: np.ndarray):
    xm, ym = x - x.mean(), y - y.mean()
    sxx = float(np.dot(xm, xm))
    slope = float(np.dot(xm, ym)) / sxx
    resid = ym - slope * xm
    dof = x.size - 2
    se = math.sqrt(float(np.dot(resid, resid)) / dof / sxx) if dof > 0 else 0.0
    return slope, se


def rescaled_range_hurst(series) -> HurstEstimate:
    """Classical rescaled-range Hurst estimate of a stationary series.

    For each dyadic block size n from 16 up to length/8, the series is cut
    into non-overlapping blocks; R is the range of the block's mean-adjusted
    partial sums and S its standard deviation (1/n normalization, as in the
    original statistic).  The estimate is the least-squares slope of
    log mean(R/S) against log n.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or x.size < 256:
        raise ValueError("rescaled range needs a 1-d series of at least 256 samples")
    if not np.isfinite(x).all():
        raise ValueError("series must be finite")
    block_data = []
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
            block_data.append((size, float(np.mean(ratios))))
        size *= 2
    if len(block_data) < 3:
        raise ValueError("too few usable blocks (series constant or too short)")
    logn = np.log([b for b, _ in block_data])
    logrs = np.log([r for _, r in block_data])
    slope, se = _ols_slope(logn, logrs)
    return HurstEstimate(slope, HurstMethod.RESCALED_RANGE, se, tuple(block_data))


def theoretical_acf(H: float, n: int) -> float:
    """Autocorrelation of unit-spaced increments at lag n: ½((n+1)^2H − 2n^2H + (n−1)^2H)."""
    if not 0.0 < H < 1.0:
        raise ValueError(f"Hurst index must lie in (0, 1), got {H}")
    if n < 0:
        raise ValueError("lag must be nonnegative")
    if n == 0:
        return 1.0
    p = 2.0 * H
    return 0.5 * ((n + 1) ** p - 2.0 * n**p + (n - 1) ** p)


def empirical_acf(path: SamplePath, max_lag: int) -> np.ndarray:
    """Sample autocorrelations of unit-spaced increments, lags 0..max_lag.

    Paths not sampled at unit spacing are linearly resampled onto integer
    times first.
    """
    if max_lag < 1:
        raise ValueError("max_lag must be positive")
    if abs(path.dt - 1.0) <= 1e-12:
        vals = path.values
    else:
        m = int(math.floor(path.grid.t_max + 1e-9))
        if m < 8:
            raise ValueError("path too short to resample at unit spacing")
        vals = np.interp(np.arange(m + 1, dtype=float), path.times, path.values)
    x = np.diff(vals)
    if max_lag >= x.size / 4:
        raise ValueError("max_lag must be below a quarter of the increment count")
    xc = x - x.mean()
    denom = float(np.dot(xc, xc))
    if denom == 0.0:
        raise ValueError("degenerate series: zero variance")
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    for k in range(1, max_lag + 1):
        out[k] = float(np.dot(xc[:-k], xc[k:])) / denom
    return out


def lrd_diagnostic(H: float, N: int):
    """Absolute-summability and asymptote diagnostics for the increment ACF.

    Returns (partial_sums, asymptote_ratio): cumulative sums of |r_H(n)| for
    n = 1..N, and r_H(n) / (H(2H−1) n^(2H−2)).  The second difference of
    n^2H is evaluated through expm1/log1p so the heavy cancellation at large
    n costs no accuracy.
    """
    if not 0.0 < H < 1.0:
        raise ValueError(f"Hurst index must lie in (0, 1), got {H}")
    if H == 0.5:
        raise ValueError("H = 1/2 is degenerate: every correlation is zero")
    if N < 1:
        raise ValueError("N must be positive")
    p = 2.0 * H
    n = np.arange(1, N + 1, dtype=float)
    x = 1.0 / n
    with np.errstate(divide="ignore"):
        r = np.expm1(p * np.log1p(x)) + np.expm1(p * np.log1p(-x))
    r *= n**p
    r *= 0.5
    ratio = r / (H * (p - 1.0) * n ** (p - 2.0))
    partial = np.cumsum(np.abs(r))
    return partial, ratio


def holder_exponent(path: SamplePath) -> HurstEstimate:
    """Regularity exponent from the growth of the largest increment with the lag.

    Regresses log max_i |X(t_{i+L}) − X(t_i)| on log(L·dt) over a dyadic lag
    ladder.  Lipschitz paths report an exponent near 1, outside the (0,1)
    model range, and are flagged through `accepted`.
    """
    n = path.grid.n_steps
    if n < 2**10:
        raise ValueError("regularity estimate needs at least 2^10 steps")
    vals = path.values
    block_data = []
    lag = 1
    while lag <= n // 16:
        m = float(np.max(np.abs(vals[lag:] - vals[:-lag])))
        if m == 0.0:
            raise ValueError("degenerate path: no increment at some lag")
        block_data.append((lag, m))
        lag *= 2
    logd = np.log([lag * path.dt for lag, _ in block_data])
    logm = np.log([m for _, m in block_data])
    slope, se = _ols_slope(logd, logm)
    return HurstEstimate(slope, HurstMethod.HOLDER_SUP, se, tuple(block_data))


def hurst_record(estimate: HurstEstimate, series) -> dict:
    """JSON-ready record of an estimate, keyed by a digest of its input data."""
    x = np.ascontiguousarray(np.asarray(series, dtype=float))
    return {
        "estimator": estimate.method.value,
        "inputs_sha256": hashlib.sha256(x.tobytes()).hexdigest(),
        "h_hat": estimate.h_hat,
        "stderr": estimate.stderr,
        "block_data": [[b, s] for b, s in estimate.block_data],
    }
