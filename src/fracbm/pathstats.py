"""Path statistics: variation sums, Hurst estimation, autocorrelation, regularity.

Variation sums are taken over dyadic sub-partitions of the path's own grid;
they are lower bounds for the supremum over all partitions, and verdicts are
driven by how the sums scale with the mesh, not by their absolute size.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._nodecalc import binary_units, from_binary_units
from ._validate import dyadic_strides, finite, hurst, instance, integer, real
from .gaussianpaths import SamplePath, _fgn_autocovariance

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

#: the least order p the variation index brackets, and the width in 1/p its bisection ends at
_P_LO = 0.8
_H_TOL = 1e-3


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
    steps, e = binary_units(np.diff(instance(path, SamplePath, "path").values))
    return from_binary_units(float(np.sum(steps**2)), 2 * e, "the quadratic variation")


def _dyadic_increments(values: np.ndarray, dt: float):
    """(mesh, |increments| in binary_units) on each dyadic coarsening, coarsest first, and e."""
    strides = dyadic_strides(values.size - 1)
    *increments, e = binary_units(*(np.abs(np.diff(values[::s])) for s in strides))
    return [(s * dt, a) for s, a in zip(strides, increments)], e


def _power_sums(increments, p: float):
    return [(mesh, float(np.sum(a**p))) for mesh, a in increments]


def _loglog_fit(pairs):
    """Least-squares slope of log y on log x over (x, y) pairs, and its standard error."""
    x = np.log([a for a, _ in pairs])
    y = np.log([b for _, b in pairs])
    xm, ym = x - x.mean(), y - y.mean()
    sxx = float(np.dot(xm, xm))
    slope = float(np.dot(xm, ym)) / sxx
    resid = ym - slope * xm
    dof = x.size - 2
    se = math.sqrt(float(np.dot(resid, resid)) / dof / sxx) if dof > 0 else 0.0
    return slope, se


def p_variation(path: SamplePath, p: float) -> VariationEstimate:
    """Variation sums sum |dX|^p over dyadic coarsenings of the grid.

    The verdict comes from the slope of log v_p against log mesh: a positive
    slope means the sums shrink under refinement, a negative slope that they
    blow up, and a flat profile that they stabilize.  The slope is taken on
    the sums in units of a power of two, so it does not depend on the path's
    scale; mesh_levels holds them in the path's units, which may overflow to
    inf or underflow to 0.
    """
    p = real(p, "p", 0.0)
    path = instance(path, SamplePath, "path")
    increments, e = _dyadic_increments(path.values, path.dt)
    pairs = _power_sums(increments, p)
    with np.errstate(over="ignore", under="ignore"):
        sums = tuple((mesh, float(v * np.exp2(e * p))) for mesh, v in pairs)
    if all(v == 0.0 for _, v in pairs):
        # flat path: zero variation at every mesh
        return VariationEstimate(p, sums, VariationVerdict.CONVERGES_TO_ZERO)
    slope = _loglog_fit(pairs)[0]
    if slope > SLOPE_BAND:
        verdict = VariationVerdict.CONVERGES_TO_ZERO
    elif slope < -SLOPE_BAND:
        verdict = VariationVerdict.DIVERGES
    else:
        verdict = VariationVerdict.STABILIZES
    return VariationEstimate(p, sums, verdict)


def variation_index(path: SamplePath, p_hi: float = 8.0) -> HurstEstimate:
    """Hurst estimate 1/p* from the order p* where variation sums flip regime.

    Below p* the dyadic sums blow up under refinement, above it they vanish;
    the crossover is located by bisecting the sign of the mesh-scaling slope
    on [0.8, p_hi] until the bracket is 1e-3 wide in 1/p units.  Its final
    half-width is reported as the stderr.
    """
    integer(instance(path, SamplePath, "path").grid.n_steps, "path n_steps", 2**10)
    lo = _P_LO
    hi = real(p_hi, "p_hi", lo)
    increments = _dyadic_increments(path.values, path.dt)[0]  # formed once, for every p

    def slope(p):
        pairs = _power_sums(increments, p)
        if any(v == 0.0 for _, v in pairs):
            raise ValueError("degenerate path: zero variation sum at some mesh")
        return _loglog_fit(pairs)[0]

    s_lo, s_hi = slope(lo), slope(hi)
    if not (s_lo < 0.0 < s_hi):
        raise ValueError(
            f"no regime change in p bracket [{lo}, {p_hi}] "
            f"(slopes {s_lo:.3f}, {s_hi:.3f})"
        )
    trace = {lo: s_lo, hi: s_hi}
    p_star = 0.5 * (lo + hi)
    while 1.0 / lo - 1.0 / hi > _H_TOL:
        trace[p_star] = slope(p_star)
        if trace[p_star] < 0.0:
            lo = p_star
        else:
            hi = p_star
        p_star = 0.5 * (lo + hi)
    stderr = 0.5 * (1.0 / lo - 1.0 / hi)
    block_data = tuple(sorted(trace.items()))
    return HurstEstimate(1.0 / p_star, HurstMethod.VARIATION_INDEX, stderr, block_data)


def rescaled_range_hurst(series) -> HurstEstimate:
    """Classical rescaled-range Hurst estimate of a stationary series.

    For each dyadic block size n from 16 up to length/8, the series is cut
    into non-overlapping blocks; R is the range of the block's mean-adjusted
    partial sums and S its standard deviation (1/n normalization, as in the
    original statistic).  The estimate is the least-squares slope of
    log mean(R/S) against log n.  R/S has no units: the series is read in
    units of a power of two, so it is bitwise the same at any scale.
    """
    x = finite(series, "series")
    if x.ndim != 1 or x.size < 256:
        raise ValueError("rescaled range needs a 1-d series of at least 256 samples")
    x, _ = binary_units(x)
    block_data = []
    size = 16
    while size <= x.size // 8:
        blocks = x[: x.size // size * size].reshape(-1, size)
        s = np.std(blocks, axis=1)
        keep = s != 0.0  # a constant block has no rescaled range
        if keep.any():
            kept = blocks[keep]
            y = np.cumsum(kept - kept.mean(axis=1, keepdims=True), axis=1)
            ratios = (np.max(y, axis=1) - np.min(y, axis=1)) / s[keep]
            block_data.append((size, float(np.mean(ratios))))
        size *= 2
    if len(block_data) < 3:
        raise ValueError("too few usable blocks (series constant or too short)")
    slope, se = _loglog_fit(block_data)
    return HurstEstimate(slope, HurstMethod.RESCALED_RANGE, se, tuple(block_data))


def theoretical_acf(H: float, n: int) -> float:
    """Autocorrelation of unit-spaced increments at lag n: ½((n+1)^2H − 2n^2H + (n−1)^2H)."""
    n = integer(n, "n")
    return float(_fgn_autocovariance(hurst(H), n, n)[0])


def empirical_acf(path: SamplePath, max_lag: int) -> np.ndarray:
    """Sample autocorrelations of unit-spaced increments, lags 0..max_lag.

    Paths sampled finer than unit spacing are linearly resampled onto
    integer times first; a coarser path has no unit-spaced increments.
    """
    max_lag = integer(max_lag, "max_lag", 1)
    if instance(path, SamplePath, "path").dt - 1.0 > 1e-12:
        raise ValueError(f"path dt must be at most 1 to resample at unit spacing, got {path.dt!r}")
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
    xc, _ = binary_units(xc)  # no lag sum over- or underflows
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
    n = 1..N, and r_H(n) / (H(2H−1) n^(2H−2)).  r_H is the circulant
    generator's, whose expm1/log1p form loses no accuracy at large n.
    """
    H = hurst(H)
    if H == 0.5:
        raise ValueError("H = 1/2 is degenerate: every correlation is zero")
    N = integer(N, "N", 1)
    p = 2.0 * H
    n = np.arange(1, N + 1, dtype=float)
    r = _fgn_autocovariance(H, N, 1)
    ratio = r / (H * (p - 1.0) * n ** (p - 2.0))
    partial = np.cumsum(np.abs(r))
    return partial, ratio


def holder_exponent(path: SamplePath) -> HurstEstimate:
    """Regularity exponent from the growth of the largest increment with the lag.

    Regresses log max_i |X(t_{i+L}) − X(t_i)| on log(L·dt) over a dyadic lag
    ladder.  Lipschitz paths report an exponent near 1, outside the (0,1)
    model range, and are flagged through `accepted`.
    """
    n = integer(instance(path, SamplePath, "path").grid.n_steps, "path n_steps", 2**10)
    vals = path.values
    block_data = []
    lag = 1
    while lag <= n // 16:
        m = float(np.max(np.abs(vals[lag:] - vals[:-lag])))
        if m == 0.0:
            raise ValueError("degenerate path: no increment at some lag")
        block_data.append((lag, m))
        lag *= 2
    slope, se = _loglog_fit([(lag * path.dt, m) for lag, m in block_data])
    return HurstEstimate(slope, HurstMethod.HOLDER_SUP, se, tuple(block_data))


def hurst_record(estimate: HurstEstimate, series) -> dict:
    """JSON-ready record of an estimate, keyed by a digest of its input data."""
    import hashlib

    x = np.ascontiguousarray(np.asarray(series, dtype=float))
    return {
        "estimator": instance(estimate, HurstEstimate, "estimate").method.value,
        "inputs_sha256": hashlib.sha256(x.tobytes()).hexdigest(),
        "h_hat": estimate.h_hat,
        "stderr": estimate.stderr,
        "block_data": [[b, s] for b, s in estimate.block_data],
    }
