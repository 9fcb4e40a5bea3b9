"""Seeded generation of Brownian and fractional Brownian sample paths.

Randomness contract: every path is drawn from a counter-based Philox bit
generator keyed directly by (root, stream), so a seed pair fully determines
the path, replicate r of an ensemble uses stream r, and distinct streams are
independent by construction.  Gaussian variates come from numpy's ziggurat
transform of that stream, which is stable for a fixed bit generator.

Generators: exact covariance via Cholesky (reference, small grids), exact
circulant embedding of the increment covariance (long grids), and a
truncated moving-average discretization of the kernel representation

    Z(t) = (1/C(H)) int [ (t-s)_+^(H-1/2) - (-s)_+^(H-1/2) ] dB(s).

Every generator, Brownian increments included, is set up once per call and
then maps one seeded stream to one path; single paths and ensembles run the
same draw, so ensemble row r equals the stream-r single draw bitwise by
construction.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Optional

import numpy as np
from scipy.integrate import quad
from scipy.linalg import cholesky as _cholesky
from scipy.linalg import LinAlgError

from ._csvio import read_csv, write_csv

__all__ = [
    "GridSpec",
    "RngSeed",
    "PathGenerator",
    "SamplePath",
    "EnsembleStats",
    "bm_covariance",
    "fbm_covariance",
    "increment_cross_covariance",
    "normalizing_constant",
    "generate_bm",
    "generate_fbm_cholesky",
    "generate_fbm_circulant",
    "generate_fbm_moving_average",
    "moving_average_truncation_bias",
    "bm_ensemble",
    "fbm_cholesky_ensemble",
    "fbm_circulant_ensemble",
    "fbm_moving_average_ensemble",
    "ensemble_manifest",
    "empirical_covariance",
    "scale_path",
    "time_invert_bm",
    "read_path_csv",
    "write_path_csv",
]

#: confidence multiplier used for Monte Carlo half-widths throughout
Z_CONFIDENCE = 5.0

CHOLESKY_MAX_NODES = 4096


def _is_integer(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass(frozen=True)
class GridSpec:
    """Uniform time grid 0 = t_0 < ... < t_n = t_max with n = n_steps."""

    t_max: float
    n_steps: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.t_max) and self.t_max > 0):
            raise ValueError("t_max must be positive and finite")
        if not _is_integer(self.n_steps) or self.n_steps < 1:
            raise ValueError(f"n_steps must be an integer of at least 1, got {self.n_steps!r}")

    @property
    def dt(self) -> float:
        return self.t_max / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_steps + 1)


@dataclass(frozen=True)
class RngSeed:
    """Root seed plus a stream index; the pair fully determines a path."""

    root: int
    stream: int = 0

    def __post_init__(self) -> None:
        for name, v in (("root", self.root), ("stream", self.stream)):
            if not _is_integer(v) or not 0 <= int(v) < 2**64:
                raise ValueError(f"{name} must be an integer in [0, 2**64)")

    def generator(self) -> np.random.Generator:
        key = np.array([self.root, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


class PathGenerator(enum.Enum):
    BM_INCREMENTS = "bm-increments"
    FBM_CHOLESKY = "fbm-cholesky"
    FBM_CIRCULANT = "fbm-circulant"
    FBM_MOVING_AVERAGE = "fbm-moving-average"
    EXTERNAL = "external"


@dataclass(frozen=True)
class SamplePath:
    """A path sampled on a uniform grid, starting at exactly zero.

    hurst is the nominal self-similarity index (0.5 for Brownian motion,
    None for imported series of unknown law); seed records provenance and
    is None for derived or imported paths.
    """

    grid: GridSpec
    values: np.ndarray
    hurst: Optional[float]
    seed: Optional[RngSeed] = None
    generator: PathGenerator = PathGenerator.EXTERNAL

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size != self.grid.n_steps + 1:
            raise ValueError("values must hold one sample per grid node")
        if not np.isfinite(vals).all():
            raise ValueError("path values must be finite")
        if vals[0] != 0.0:
            raise ValueError("paths start at exactly zero")
        if self.hurst is not None and not 0.0 < self.hurst < 1.0:
            raise ValueError(f"hurst must lie in (0, 1), got {self.hurst}")

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    @property
    def dt(self) -> float:
        return self.grid.dt

    def increments(self) -> np.ndarray:
        return np.diff(self.values)


@dataclass(frozen=True)
class EnsembleStats:
    """Mean, variance and a confidence half-width for a scalar functional."""

    mean: float
    variance: float
    replicates: int
    half_width: float

    @classmethod
    def from_samples(cls, samples, z: float = Z_CONFIDENCE) -> "EnsembleStats":
        x = np.asarray(samples, dtype=float)
        if x.size < 2:
            raise ValueError("need at least two replicates")
        var = float(np.var(x, ddof=1))
        return cls(float(np.mean(x)), var, x.size, z * math.sqrt(var / x.size))


# ---------------------------------------------------------------------------
# covariance formulas


def _check_hurst(H: float) -> float:
    if not 0.0 < H < 1.0:
        raise ValueError(f"Hurst index must lie in (0, 1), got {H}")
    return float(H)


def bm_covariance(s: float, t: float) -> float:
    """E[B(s) B(t)] = min(s, t) for standard Brownian motion."""
    if s < 0 or t < 0:
        raise ValueError("times must be nonnegative")
    return float(min(s, t))


def fbm_covariance(H: float, s: float, t: float) -> float:
    """E[B_H(s) B_H(t)] = (s^2H + t^2H - |t-s|^2H) / 2."""
    _check_hurst(H)
    if s < 0 or t < 0:
        raise ValueError("times must be nonnegative")
    return 0.5 * (s ** (2 * H) + t ** (2 * H) - abs(t - s) ** (2 * H))


def increment_cross_covariance(H: float, s: float, t: float, u: float, v: float) -> float:
    """Covariance of the increments B_H(t) - B_H(s) and B_H(v) - B_H(u).

    Both increments are taken right-minus-left over their interval, so
    identical intervals return the increment variance |t-s|^2H.
    """
    _check_hurst(H)
    if min(s, t, u, v) < 0:
        raise ValueError("times must be nonnegative")
    p = 2 * H
    return 0.5 * (
        abs(t - u) ** p + abs(s - v) ** p - abs(s - u) ** p - abs(t - v) ** p
    )


def normalizing_constant(H: float) -> float:
    """Normalizer C(H) making the moving-average kernel representation unit variance.

    C(H)^2 = int_0^inf ((1+s)^(H-1/2) - s^(H-1/2))^2 ds + 1/(2H).  The head
    s in [0, 1] is expanded so its power singularity becomes an explicit
    algebraic quadrature weight, and the tail is folded onto [0, 1] by
    s -> 1/s, leaving a smooth factor against the weight u^(1-2H).
    C(1/2) = 1 exactly.
    """
    _check_hurst(H)
    beta = H - 0.5
    if beta == 0.0:
        return 1.0
    p = 2.0 * H
    opts = dict(epsabs=1e-13, epsrel=1e-12)
    cross = quad(
        lambda s: (1.0 + s) ** beta, 0.0, 1.0, weight="alg", wvar=(beta, 0.0), **opts
    )[0]
    head = (2.0**p - 1.0) / p - 2.0 * cross + 1.0 / p

    def phi(u):  # (((1+u)^beta - 1) / u)^2, smooth down to u = 0
        if u == 0.0:
            return beta * beta
        return (math.expm1(beta * math.log1p(u)) / u) ** 2

    tail = quad(phi, 0.0, 1.0, weight="alg", wvar=(-2.0 * beta, 0.0), **opts)[0]
    return math.sqrt(head + tail + 0.5 / H)


# ---------------------------------------------------------------------------
# generators: each law factory validates and sets up once, then maps one
# seeded stream to node values; _draw is the only loop over streams


def _draw(law, grid: GridSpec, seeds) -> np.ndarray:
    out = np.empty((len(seeds), grid.n_steps + 1))
    for r, seed in enumerate(seeds):
        out[r] = law(seed.generator())
    return out


def _streams(root: int, replicates: int) -> list:
    if replicates < 0:
        raise ValueError(f"replicates must be nonnegative, got {replicates}")
    return [RngSeed(root, r) for r in range(replicates)]


def _bm_law(grid: GridSpec):
    scale = math.sqrt(grid.dt)

    def law(rng: np.random.Generator) -> np.ndarray:
        incr = rng.standard_normal(grid.n_steps) * scale
        return np.concatenate(([0.0], np.cumsum(incr)))

    return law


def generate_bm(grid: GridSpec, seed: RngSeed) -> SamplePath:
    """Standard Brownian motion from scaled i.i.d. Gaussian increments."""
    values = _draw(_bm_law(grid), grid, [seed])[0]
    return SamplePath(grid, values, 0.5, seed, PathGenerator.BM_INCREMENTS)


def bm_ensemble(grid: GridSpec, root: int, replicates: int) -> np.ndarray:
    return _draw(_bm_law(grid), grid, _streams(root, replicates))


@lru_cache(maxsize=3)
def _cholesky_factor(t_max: float, n_steps: int, H: float) -> np.ndarray:
    t = GridSpec(t_max, n_steps).times[1:]
    p = 2 * H
    tp = t**p
    cov = 0.5 * (tp[:, None] + tp[None, :] - np.abs(t[:, None] - t[None, :]) ** p)
    cov = 0.5 * (cov + cov.T)
    try:
        return _cholesky(cov, lower=True, check_finite=False)
    except LinAlgError:
        jitter = 1e-12 * float(np.max(np.diag(cov)))
        try:
            return _cholesky(
                cov + jitter * np.eye(cov.shape[0]), lower=True, check_finite=False
            )
        except LinAlgError as exc:
            raise ValueError(
                f"covariance factorization failed for H={H}, n={n_steps} "
                f"even with diagonal jitter {jitter:.3e}"
            ) from exc


def _cholesky_law(grid: GridSpec, H: float, max_nodes: int):
    H = _check_hurst(H)
    if grid.n_steps > max_nodes:
        raise ValueError(
            f"n_steps={grid.n_steps} exceeds the factorization cap {max_nodes}"
        )
    L = _cholesky_factor(grid.t_max, grid.n_steps, H)
    return lambda rng: np.concatenate(([0.0], L @ rng.standard_normal(grid.n_steps)))


def generate_fbm_cholesky(
    grid: GridSpec, H: float, seed: RngSeed, max_nodes: int = CHOLESKY_MAX_NODES
) -> SamplePath:
    """Fractional Brownian motion with exact covariance via Cholesky.

    The reference generator: factorizes the (n x n) node covariance, so the
    cost is cubic in n_steps and grids are capped at max_nodes.  The factor
    is cached, so replicated draws pay it once.
    """
    values = _draw(_cholesky_law(grid, H, max_nodes), grid, [seed])[0]
    return SamplePath(grid, values, float(H), seed, PathGenerator.FBM_CHOLESKY)


def fbm_cholesky_ensemble(
    grid: GridSpec, H: float, root: int, replicates: int, max_nodes: int = CHOLESKY_MAX_NODES
) -> np.ndarray:
    return _draw(_cholesky_law(grid, H, max_nodes), grid, _streams(root, replicates))


def _fgn_autocovariance(H: float, n: int) -> np.ndarray:
    k = np.arange(n + 1, dtype=float)
    p = 2 * H
    return 0.5 * (np.abs(k + 1) ** p - 2 * k**p + np.abs(k - 1) ** p)


@lru_cache(maxsize=8)
def _circulant_sqrt_eigenvalues(H: float, n: int) -> np.ndarray:
    r = _fgn_autocovariance(H, n)
    row = np.concatenate([r, r[-2:0:-1]])  # circulant of size 2n
    eig = np.fft.fft(row).real
    floor = -1e-8 * float(np.max(eig))
    if np.min(eig) < floor:
        raise ValueError(
            f"circulant embedding not nonnegative definite for H={H}, n={n}"
        )
    return np.sqrt(np.clip(eig, 0.0, None))


def _circulant_law(grid: GridSpec, H: float):
    H = _check_hurst(H)
    n = grid.n_steps
    m = 2 * n
    # spectral synthesis: E|w_k|^2 = eig_k / m makes fft(w).real ~ N(0, circulant)
    amplitude = _circulant_sqrt_eigenvalues(H, n) / math.sqrt(m)
    scale = grid.dt**H

    def law(rng: np.random.Generator) -> np.ndarray:
        z = rng.standard_normal(m)
        w = np.empty(m, dtype=complex)
        w[0] = z[0]
        w[n] = z[1]
        half = (z[2::2] + 1j * z[3::2]) / math.sqrt(2.0)
        w[1:n] = half
        w[n + 1 :] = np.conj(half[::-1])
        fgn = np.fft.fft(amplitude * w).real[:n]
        return np.concatenate(([0.0], np.cumsum(fgn * scale)))

    return law


def generate_fbm_circulant(grid: GridSpec, H: float, seed: RngSeed) -> SamplePath:
    """Fractional Brownian motion via circulant embedding of the increment covariance.

    Exact in distribution whenever the embedding is nonnegative definite
    (it is for fractional Gaussian noise at any Hurst index in practice),
    with O(n log n) cost; the generator of choice for long grids.
    """
    values = _draw(_circulant_law(grid, H), grid, [seed])[0]
    return SamplePath(grid, values, float(H), seed, PathGenerator.FBM_CIRCULANT)


def fbm_circulant_ensemble(grid: GridSpec, H: float, root: int, replicates: int) -> np.ndarray:
    return _draw(_circulant_law(grid, H), grid, _streams(root, replicates))


def _ma_weight_row(t_k: float, edges: np.ndarray, H: float) -> np.ndarray:
    """Cell averages of the kernel (t-s)_+^(H-1/2) - (-s)_+^(H-1/2) between edges."""
    q = H + 0.5
    prim = (np.maximum(-edges, 0.0) ** q - np.maximum(t_k - edges, 0.0) ** q) / q
    return np.diff(prim) / np.diff(edges)


def _moving_average_law(
    grid: GridSpec, H: float, truncation: Optional[float], kernel_mesh: int, streams: int
):
    H = _check_hurst(H)
    if truncation is None:
        truncation = 50.0 * grid.t_max
    if truncation < grid.t_max:
        raise ValueError("truncation must be at least t_max")
    if kernel_mesh < 1:
        raise ValueError("kernel_mesh must be a positive integer")
    aux_h = grid.dt / kernel_mesh
    m = int(round((truncation + grid.t_max) / aux_h))
    edges = -truncation + aux_h * np.arange(m + 1)
    c = normalizing_constant(H)
    node_times = grid.times[1:]
    row = partial(_ma_weight_row, edges=edges, H=H)
    # n rows of m weights: shared when several streams reuse them, otherwise
    # built one at a time, since all of them would not fit for long grids
    shared = list(map(row, node_times)) if streams > 1 else None

    def law(rng: np.random.Generator) -> np.ndarray:
        db = rng.standard_normal(m) * math.sqrt(aux_h)
        rows = shared if shared is not None else map(row, node_times)
        # per-row np.dot: a matmul over the rows is not bitwise stable across batch shapes
        values = np.array([0.0] + [float(np.dot(w, db)) / c for w in rows])
        if not np.isfinite(values).all():
            raise ValueError("moving-average kernel overflowed; refine kernel_mesh")
        return values

    return law


def moving_average_truncation_bias(H: float, truncation: float, t: float) -> float:
    """Analytic bound on the variance lost to truncating the kernel at -truncation.

    By the mean value theorem the kernel below s = -L is at most
    |H-1/2| t (-s)^(H-3/2), so the missing squared mass is bounded by
    (H-1/2)^2 t^2 L^(2H-2) / (2-2H), normalized by C(H)^2.  Zero for
    H = 1/2, where the kernel has compact support.
    """
    _check_hurst(H)
    if H == 0.5:
        return 0.0
    if truncation <= 0:
        raise ValueError("truncation must be positive")
    beta = H - 0.5
    tail = beta**2 * t**2 * truncation ** (2.0 * H - 2.0) / (2.0 - 2.0 * H)
    return tail / normalizing_constant(H) ** 2


def generate_fbm_moving_average(
    grid: GridSpec,
    H: float,
    seed: RngSeed,
    truncation: Optional[float] = None,
    kernel_mesh: int = 16,
) -> SamplePath:
    """Approximate fBm by discretizing the moving-average kernel representation.

    An auxiliary Brownian motion on [-truncation, t_max] is sampled at
    resolution dt/kernel_mesh and summed against exact cell averages of the
    kernel, which keeps the integrable singularity at s = t harmless.
    Truncation defaults to 50 * t_max; the induced variance deficit is
    bounded by moving_average_truncation_bias.
    """
    law = _moving_average_law(grid, H, truncation, kernel_mesh, streams=1)
    values = _draw(law, grid, [seed])[0]
    return SamplePath(grid, values, float(H), seed, PathGenerator.FBM_MOVING_AVERAGE)


def fbm_moving_average_ensemble(
    grid: GridSpec,
    H: float,
    root: int,
    replicates: int,
    truncation: Optional[float] = None,
    kernel_mesh: int = 16,
) -> np.ndarray:
    seeds = _streams(root, replicates)
    law = _moving_average_law(grid, H, truncation, kernel_mesh, streams=len(seeds))
    return _draw(law, grid, seeds)


# ---------------------------------------------------------------------------
# ensemble bookkeeping

def ensemble_manifest(
    grid: GridSpec, hurst: Optional[float], generator: PathGenerator, root: int, replicates: int
) -> dict:
    """JSON-ready record of how an ensemble was drawn."""
    return {
        "t_max": grid.t_max,
        "n_steps": grid.n_steps,
        "hurst": hurst,
        "generator": generator.value,
        "root_seed": int(root),
        "replicates": int(replicates),
    }


def empirical_covariance(values: np.ndarray) -> np.ndarray:
    """Second-moment matrix over nodes for an ensemble of zero-mean paths."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 2 or v.shape[0] < 2:
        raise ValueError("need a (replicates, nodes) array with at least 2 rows")
    return (v.T @ v) / v.shape[0]


# ---------------------------------------------------------------------------
# deterministic transforms


def scale_path(path: SamplePath, a: float) -> SamplePath:
    """Self-similarity transform t -> a^(-H) X(a t) on the rescaled grid."""
    if not (np.isfinite(a) and a > 0):
        raise ValueError("scale factor must be positive and finite")
    if path.hurst is None:
        raise ValueError("scaling needs a path with a known Hurst index")
    grid = GridSpec(path.grid.t_max / a, path.grid.n_steps)
    return SamplePath(
        grid, a ** (-path.hurst) * path.values, path.hurst, path.seed, path.generator
    )


def time_invert_bm(path: SamplePath) -> SamplePath:
    """Brownian time inversion X(t) = t B(1/t), X(0) = 0, on the reciprocal grid.

    The output grid spans [0, 1/dt] with the same step count, so every
    needed sample 1/u lands inside the input domain; off-node values of B
    are linearly interpolated.  Interpolation attenuates the variance by up
    to u * dt / 4 in relative terms, so distributional checks should probe
    output nodes u_k = k / t_max with k dividing n_steps, where 1/u_k hits
    an input node and the Brownian law is exact.
    """
    if path.hurst != 0.5:
        raise ValueError("time inversion applies to Brownian paths (hurst 0.5)")
    n = path.grid.n_steps
    grid = GridSpec(n / path.grid.t_max, n)
    u = grid.times
    values = np.empty(n + 1)
    values[0] = 0.0
    values[1:] = u[1:] * np.interp(1.0 / u[1:], path.times, path.values)
    return SamplePath(grid, values, 0.5, path.seed, path.generator)


# ---------------------------------------------------------------------------
# CSV round-trip


def write_path_csv(path: SamplePath, dest) -> None:
    """Path CSV: provenance header comments then t,value rows at 17 digits."""
    seed = path.seed
    header = {
        "hurst": "" if path.hurst is None else repr(path.hurst),
        "seed": "" if seed is None else f"{seed.root}/{seed.stream}",
        "generator": path.generator.value,
    }
    write_csv(dest, path.times, path.values, header)


def read_path_csv(source) -> SamplePath:
    """Inverse of write_path_csv; unheadered two-column CSVs import as EXTERNAL."""
    header, t, v = read_csv(source, "path", 2)
    hurst = float(header["hurst"]) if header.get("hurst") else None
    root, _, stream = header.get("seed", "").partition("/")
    seed = RngSeed(int(root), int(stream or 0)) if root else None
    generator = PathGenerator(header.get("generator") or PathGenerator.EXTERNAL.value)
    if t[0] != 0.0 or v[0] != 0.0:
        # imported series: re-anchor at the origin without changing increments
        t = t - t[0]
        v = v - v[0]
    return SamplePath(GridSpec(float(t[-1]), t.size - 1), v, hurst, seed, generator)
