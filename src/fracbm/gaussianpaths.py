"""Seeded generation of Brownian and fractional Brownian sample paths.

Randomness contract: every path is drawn from a counter-based Philox bit
generator keyed directly by (root, stream), so a seed pair fixes the normals
a path is built from, replicate r of an ensemble uses stream r, and distinct
streams are independent by construction.  Gaussian variates come from numpy's
ziggurat transform of that stream, which is stable for a fixed bit generator.
A draw builds one Philox and re-keys it to each stream's fresh state, which
costs far less than building a generator per stream.  No law makes a
threaded BLAS call, so no path depends on the BLAS thread count.

Generators: exact covariance via Cholesky (reference, small grids), exact
circulant embedding of the increment covariance (long grids), and the hybrid
scheme on the moving-average (Mandelbrot-Van Ness) kernel representation

    Z(t) = (1/C(H)) int [ (t-s)_+^(H-1/2) - (-s)_+^(H-1/2) ] dB(s).

Circulant embedding (Davies & Harte 1987; Dieker 2004, 2.1.3) places the n
increment covariances in a symmetric circulant of size 2n.  Its eigenvalues
are the real FFT of one row, and only eigenvalues 0..n are kept, since the
rest mirror them.  A stream's 2n normals fill the coefficients 0..n of a
Hermitian spectrum and one inverse real FFT of them gives the 2n-point
Gaussian vector whose first n entries are the increments; the conjugate
half of the spectrum is never formed.

The moving average draws 3n + 15 normals a stream, 39 on 8 steps: 2n step
normals a_i over [-t_max, t_max], n + 1 hybrid normals b_j, 8 far cells
graded by 1.3 back to -T = -8 t_max, and 6 for the history beyond -T.  Node k
weights a_i by the kernel's step average, r(k + n - i) - r(n - i) with
r(u) = (u_+^q - (u - 1)_+^q) dt^H / (q C(H)) and q = H + 1/2: one stationary
sequence.  The hybrid scheme (Bennedsen, Lunde & Pakkanen 2017, kappa = 1)
makes the integral over the step that ends at a node, where the kernel is
singular, exact: it is (a/q + c b) dt^H with c = sqrt(1/(2H) - 1/q^2), and
r(1) = 1/q is already its a-coefficient, so node k adds
c dt^H / C(H) (b_k - b_0).  A far cell holds the kernel's integral over it
divided by the square root of its width.  Beyond -T, with t <= t_max < T,
the kernel is a power series in t, sum_k binom(q-1, k) t^k Z_k, whose moments
E Z_k Z_l = T^(2H-k-l) / (k + l - 2H) are factored once per H (60 terms,
numerical rank 6, so 6 normals): the law is not truncated.  The sup
covariance error of the law against the exact one, at t_max = 1:

    grid       H = 0.05  0.1      0.25     0.75     0.9      0.95
    8 steps    6.7e-3    8.6e-3   4.3e-3   7.3e-4   6.7e-4   4.0e-4
    64 steps   5.4e-3    5.7e-3   1.5e-3   2.0e-4   2.3e-4   1.5e-4

At H = 1/2 it is exact to rounding.  A grid whose n x (3n + 15) table has at
most _GEMV_MAX entries, up to 362 steps, applies it by one gemv per row;
a larger grid convolves the step normals with r by `_nodecalc.convolve`, the
operators' FFT pair, at the least 2^a 3^b 5^c length of at least 3n, reads
the n + 1 nodes, subtracts the value at t_0, reads the hybrid normals by
index and applies the far and history columns as one table.  The crossover
depends only on the grid, so a single path and an ensemble row take the
same route.

Every generator, Brownian increments included, is set up once per call.
Each stream then draws its normals into one row of a block of streams, and
the block is shaped into paths by operations that treat each row on its own:
cumulative sums and real FFTs along the rows, and for Cholesky and the
moving-average tables one np.matmul per row chunk, whose loop over the rows
makes the gemv a single stream makes; there is no gemm across rows, which
would round differently.  A single path is a block of one, so ensemble row r
equals the stream-r single draw bitwise by construction.  The blocks are
drawn one after another on the calling thread.
"""

from __future__ import annotations

import enum
import inspect
import math
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _validate
from ._csvio import read_csv, write_csv
from ._nodecalc import convolve, diffpow, kernel_spectrum

__all__ = [
    "GridSpec",
    "RngSeed",
    "PathGenerator",
    "SamplePath",
    "bm_covariance",
    "fbm_covariance",
    "increment_cross_covariance",
    "normalizing_constant",
    "generate_bm",
    "generate_fbm_cholesky",
    "generate_fbm_circulant",
    "generate_fbm_moving_average",
    "bm_ensemble",
    "fbm_cholesky_ensemble",
    "fbm_circulant_ensemble",
    "fbm_moving_average_ensemble",
    "empirical_covariance",
    "scale_path",
    "time_invert_bm",
    "read_path_csv",
    "write_path_csv",
]

#: confidence multiplier used for Monte Carlo half-widths throughout
Z_CONFIDENCE = 5.0

#: the most steps of a Cholesky grid, whose factor costs time and memory quadratic in them
CHOLESKY_MAX_NODES = 4096

#: normals per block of streams (2^17 float64, 1 MiB); a longer stream fills
#: a block of one row
_BLOCK_NORMALS = 2**17

#: growth ratio of the moving average's far cells, graded geometrically from
#: -t_max back to -_HISTORY_START t_max
_FAR_RATIO = 0.3

#: where the moving average's exact history begins, in units of t_max; the terms
#: of its power series, and the normals a stream draws for it
_HISTORY_START = 8.0
_HISTORY_TERMS = 60
_HISTORY_NORMALS = 6

#: entries (3 MiB) of the largest matrix one gemv applies: a Cholesky factor is
#: applied in row chunks of at most this size, and a larger moving-average table
#: is not formed.  OpenBLAS (0.3.31) threads a gemv from 460,800 entries, which
#: rounds differently, so smaller gemvs keep paths independent of BLAS threads
_GEMV_MAX = 400_000


@dataclass(frozen=True)
class GridSpec:
    """Uniform time grid 0 = t_0 < ... < t_n = t_max with n = n_steps."""

    t_max: float
    n_steps: int

    def __post_init__(self) -> None:
        _validate.real(self.t_max, "t_max", 0.0)
        _validate.integer(self.n_steps, "n_steps", 1)

    @property
    def dt(self) -> float:
        return self.t_max / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_steps + 1)


def _keyed_generator():
    """A Generator over one Philox, and rekey(root, stream) to restart it.

    rekey loads a fresh state (counter and buffer at zero) keyed [root, stream]:
    the stream a new Philox(key=[root, stream]) gives, without building one.
    The state holds plain ints, which load several times faster than arrays.
    """
    bits = np.random.Philox(0)  # a seed, not None: reads no OS entropy
    key = [0, 0]
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }

    def rekey(root: int, stream: int) -> None:
        key[0], key[1] = root, stream
        bits.state = fresh

    return np.random.Generator(bits), rekey


@dataclass(frozen=True)
class RngSeed:
    """Root seed plus a stream index; the pair fully determines a path."""

    root: int
    stream: int = 0

    def __post_init__(self) -> None:
        _validate.integer(self.root, "root", 0, 2**64 - 1)
        _validate.integer(self.stream, "stream", 0, 2**64 - 1)

    def generator(self) -> np.random.Generator:
        rng, rekey = _keyed_generator()
        rekey(self.root, self.stream)
        return rng


class PathGenerator(enum.Enum):
    BM_INCREMENTS = "bm-increments"
    FBM_CHOLESKY = "fbm-cholesky"
    FBM_CIRCULANT = "fbm-circulant"
    FBM_MOVING_AVERAGE = "fbm-moving-average"
    EXTERNAL = "external"


class _OnGrid:
    """The node times and step of a process sampled on the nodes of its `grid`."""

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    @property
    def dt(self) -> float:
        return self.grid.dt


@dataclass(frozen=True)
class SamplePath(_OnGrid):
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
        n_steps = _validate.instance(self.grid, GridSpec, "grid").n_steps
        vals = _validate.node_values(self.values, n_steps, "path values")
        object.__setattr__(self, "values", vals)
        if vals[0] != 0.0:
            raise ValueError("paths start at exactly zero")
        if self.hurst is not None:
            _validate.hurst(self.hurst, "hurst")
        if self.seed is not None:
            _validate.instance(self.seed, RngSeed, "seed")

    def increments(self) -> np.ndarray:
        return np.diff(self.values)


# ---------------------------------------------------------------------------
# covariance formulas


def _check_times(*times: float) -> list:
    return [_validate.real(x, "times", 0.0, closed=True) for x in times]


def _in_float_range(law):
    """law, raising a ValueError that names its inputs where its value overflows a float."""

    @wraps(law)
    def checked(*args, **kwargs):
        try:
            value = law(*args, **kwargs)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            inputs = inspect.signature(law).bind(*args, **kwargs).arguments
            named = ", ".join(f"{name}={v!r}" for name, v in inputs.items())
            raise ValueError(f"{law.__name__} overflows a float at {named}")
        return value

    return checked


def bm_covariance(s: float, t: float) -> float:
    """E[B(s) B(t)] = min(s, t) for standard Brownian motion."""
    return min(_check_times(s, t))


@_in_float_range
def fbm_covariance(H: float, s: float, t: float) -> float:
    """E[B_H(s) B_H(t)] = (s^2H + t^2H - |t-s|^2H) / 2."""
    H = _validate.hurst(H)
    s, t = _check_times(s, t)
    return 0.5 * (s ** (2 * H) + t ** (2 * H) - abs(t - s) ** (2 * H))


@_in_float_range
def increment_cross_covariance(H: float, s: float, t: float, u: float, v: float) -> float:
    """Covariance of the increments B_H(t) - B_H(s) and B_H(v) - B_H(u).

    Both increments are taken right-minus-left over their interval, so
    identical intervals return the increment variance |t-s|^2H.
    """
    H = _validate.hurst(H)
    s, t, u, v = _check_times(s, t, u, v)
    p = 2 * H
    return 0.5 * (
        abs(t - u) ** p + abs(s - v) ** p - abs(s - u) ** p - abs(t - v) ** p
    )


def normalizing_constant(H: float) -> float:
    """Normalizer C(H) making the moving-average kernel representation unit variance.

    C(H)^2 = int_0^inf ((1+s)^(H-1/2) - s^(H-1/2))^2 ds + 1/(2H), which has
    the closed form Gamma(H+1/2)^2 / (Gamma(2H+1) sin(pi H)) (Mandelbrot &
    Van Ness 1968; Mishura 2008, LNM 1929, ch. 1).  C(1/2) = 1 exactly.
    """
    H = _validate.hurst(H)
    # sin(pi H) = sin(pi (1 - H)): the smaller argument keeps sin accurate as H -> 1
    sine = math.sin(math.pi * min(H, 1.0 - H))
    return math.gamma(H + 0.5) / math.sqrt(math.gamma(2.0 * H + 1.0) * sine)


# ---------------------------------------------------------------------------
# generators: each law factory validates and sets up once and returns
# (count, shape): every stream draws `count` normals into one row of a block z,
# and shape(z, dest) writes the node values after the origin into dest,
# treating each row on its own (z may be overwritten); _draw is the only loop
# over streams


def _draw(law, grid: GridSpec, root: int, streams) -> np.ndarray:
    count, shape = law
    out = np.zeros((len(streams), grid.n_steps + 1))
    rows = max(1, _BLOCK_NORMALS // count)
    z = np.empty((min(rows, len(streams)), count))
    rng, rekey = _keyed_generator()
    for lo in range(0, len(streams), rows):
        block = z[: len(streams) - lo]
        for zr, r in zip(block, streams[lo : lo + rows]):
            rekey(root, r)
            rng.standard_normal(out=zr)
        shape(block, out[lo : lo + len(block), 1:])
    return out


def _single(law, grid: GridSpec, seed: RngSeed, hurst: float, generator) -> SamplePath:
    """The path of law drawn from seed's stream."""
    seed = _validate.instance(seed, RngSeed, "seed")
    values = _draw(law, grid, seed.root, [seed.stream])[0]
    return SamplePath(grid, values, float(hurst), seed, generator)


def _streams(root: int, replicates: int) -> range:
    RngSeed(root)  # validates the root once, for every stream
    return range(_validate.integer(replicates, "replicates"))


def _rowwise_gemv(A: np.ndarray):
    """shape(z, dest) writing A @ z[i] into dest[i], one np.matmul per row chunk.

    The chunks, of at most _GEMV_MAX entries, depend on A's shape only.
    np.matmul of a chunk with the stack of columns z[i] loops over the rows
    of z and makes for each the gemv a single stream makes, so a row rounds
    as a single draw does; there is no gemm across rows, as z @ A.T would be.
    """
    step = max(1, _GEMV_MAX // max(1, A.shape[1]))
    chunks = [(A[lo : lo + step], slice(lo, lo + step)) for lo in range(0, A.shape[0], step)]

    def shape(z: np.ndarray, dest: np.ndarray) -> None:
        for rows, at in chunks:
            np.matmul(rows, z[:, :, None], out=dest[:, at, None])

    return shape


def _bm_law(grid: GridSpec):
    scale = math.sqrt(_validate.instance(grid, GridSpec, "grid").dt)

    def shape(z: np.ndarray, dest: np.ndarray) -> None:
        np.cumsum(np.multiply(z, scale, out=z), axis=1, out=dest)

    return grid.n_steps, shape


def generate_bm(grid: GridSpec, seed: RngSeed) -> SamplePath:
    """Standard Brownian motion from scaled i.i.d. Gaussian increments."""
    return _single(_bm_law(grid), grid, seed, 0.5, PathGenerator.BM_INCREMENTS)


def bm_ensemble(grid: GridSpec, root: int, replicates: int) -> np.ndarray:
    return _draw(_bm_law(grid), grid, root, _streams(root, replicates))


@lru_cache(maxsize=3)
def _cholesky_factor(t_max: float, n_steps: int, H: float) -> np.ndarray:
    """Lower Cholesky factor of the covariance of the nodes t_1..t_n, in O(n^2) time.

    The increment covariance is Toeplitz, dt^2H r(|i-j|) with r(0) = 1, and the
    Schur algorithm factors it (Hosking 1984; Dieker 2004, 2.1; Bojanczyk et
    al. 1995 for stability): column 0 is u = dt^H r, v is u with v_0 = 0, and
    column k shifts u down one place and takes (u - rho v, v - rho u) /
    sqrt(1 - rho^2), rho = v_k / u_k.  Summing the columns down is a unit
    lower-triangular map, so it gives the node factor by uniqueness; row by
    row, since numpy's cumsum along axis 0 is some 40 times slower here.
    """
    n = n_steps
    L = np.zeros((n, n))
    L[:, 0] = _fgn_autocovariance(H, n - 1) * (t_max / n) ** H
    v = np.concatenate(([0.0], L[1:, 0]))
    for k in range(1, n):
        u, vk = L[k - 1 : n - 1, k - 1], v[k:]
        rho = vk[0] / u[0]
        if not abs(rho) < 1.0:
            raise ValueError(f"Cholesky factorization broke down for H={H}, n_steps={n_steps}: "
                             f"reflection coefficient {float(rho):.6g} at step {k}")
        scale = math.sqrt((1.0 - rho) * (1.0 + rho))
        np.divide(u - rho * vk, scale, out=L[k:, k])
        vk -= rho * u
        vk /= scale
    for i in range(1, n):
        L[i] += L[i - 1]
    return L


def _cholesky_law(grid: GridSpec, H: float):
    H = _validate.hurst(H)
    _validate.integer(_validate.instance(grid, GridSpec, "grid").n_steps, "n_steps", 1, CHOLESKY_MAX_NODES)
    return grid.n_steps, _rowwise_gemv(_cholesky_factor(grid.t_max, grid.n_steps, H))


def generate_fbm_cholesky(grid: GridSpec, H: float, seed: RngSeed) -> SamplePath:
    """Fractional Brownian motion with exact covariance via Cholesky.

    The reference generator: factorizes the (n x n) node covariance, so time
    and memory are quadratic in n_steps and grids are capped at CHOLESKY_MAX_NODES.
    The factor is cached, so replicated draws pay it once.
    """
    return _single(_cholesky_law(grid, H), grid, seed, H, PathGenerator.FBM_CHOLESKY)


def fbm_cholesky_ensemble(grid: GridSpec, H: float, root: int, replicates: int) -> np.ndarray:
    return _draw(_cholesky_law(grid, H), grid, root, _streams(root, replicates))


def _fgn_autocovariance(H: float, n: int, first: int = 0) -> np.ndarray:
    """r(k) = 0.5 (|k+1|^p - 2 k^p + |k-1|^p), p = 2H, for k = first..n.

    From k = 2 on it is formed as 0.5 k^p (expm1(p log1p(1/k)) + expm1(p log1p(-1/k))),
    which does not cancel the terms of size k^p against each other; at H = 1/2
    the increments are independent and r(k) = 0 exactly.
    """
    p = 2 * H
    k = np.arange(max(first, 2), n + 1, dtype=float)
    if p == 1.0:
        far = np.zeros(k.size)
    else:
        far = 0.5 * k**p * (np.expm1(p * np.log1p(1.0 / k)) + np.expm1(p * np.log1p(-1.0 / k)))
    return np.concatenate(([1.0, 0.5 * (2.0**p - 2.0)][first : n + 1], far))


@lru_cache(maxsize=8)
def _circulant_sqrt_eigenvalues(H: float, n: int) -> np.ndarray:
    """Square roots of eigenvalues 0..n of the size-2n circulant; the rest mirror them."""
    r = _fgn_autocovariance(H, n)
    row = np.concatenate([r, r[-2:0:-1]])  # circulant of size 2n, a symmetric row
    eig = np.fft.rfft(row).real
    if np.min(eig) < 0.0:
        raise ValueError(f"circulant embedding not nonnegative definite for H={H}, n={n}")
    return np.sqrt(eig)


def _circulant_law(grid: GridSpec, H: float):
    H = _validate.hurst(H)
    n = _validate.instance(grid, GridSpec, "grid").n_steps
    m = 2 * n
    # spectral synthesis: a Hermitian w with E|w_k|^2 = eig_k / m has a real
    # transform ~ N(0, circulant).  w_0 and w_n are real; w_k for 0 < k < n takes
    # two normals at half variance each.  w_(m-k) = conj(w_k) is never formed: the
    # unscaled irfft (norm="forward") of conj(w_0..w_n) is that transform.  The
    # increment scale dt^H is folded into the amplitudes
    amplitude = _circulant_sqrt_eigenvalues(H, n) * (grid.dt**H / math.sqrt(m))
    a0, an = amplitude[0], amplitude[n]
    inner = amplitude[1:n] / math.sqrt(2.0)
    minus_inner = -inner

    def shape(z: np.ndarray, dest: np.ndarray) -> None:
        w = np.empty((z.shape[0], n + 1), dtype=complex)
        w[:, 0] = z[:, 0] * a0
        w[:, n] = z[:, 1] * an
        np.multiply(z[:, 2::2], inner, out=w.real[:, 1:n])
        np.multiply(z[:, 3::2], minus_inner, out=w.imag[:, 1:n])
        fgn = np.fft.irfft(w, m, axis=1, norm="forward")
        np.cumsum(fgn[:, :n], axis=1, out=dest)

    return m, shape


def generate_fbm_circulant(grid: GridSpec, H: float, seed: RngSeed) -> SamplePath:
    """Fractional Brownian motion via circulant embedding of the increment covariance.

    Exact in distribution whenever the embedding is nonnegative definite
    (it is for fractional Gaussian noise at any Hurst index in practice),
    with O(n log n) cost; the generator of choice for long grids.
    """
    return _single(_circulant_law(grid, H), grid, seed, H, PathGenerator.FBM_CIRCULANT)


def fbm_circulant_ensemble(grid: GridSpec, H: float, root: int, replicates: int) -> np.ndarray:
    return _draw(_circulant_law(grid, H), grid, root, _streams(root, replicates))


@lru_cache(maxsize=8)
def _history_factor(H: float) -> np.ndarray:
    """Coefficients f_k (K x _HISTORY_NORMALS) of the history: sum_k f_k t^k has its law.

    Beyond T = _HISTORY_START, in units of t_max, the kernel expands as
    (t + r)^(q-1) - r^(q-1) = sum_(k>=1) binom(q-1, k) t^k r^(q-1-k) for t <= 1 < T,
    so the history is sum_k binom(q-1, k) t^k Z_k with Z_k = int_T^inf r^(q-1-k) dW(r)
    and E Z_k Z_l = T^(2H-k-l) / (k + l - 2H).  The series is cut at K = _HISTORY_TERMS
    and the moment matrix M is factored as L L^T by a Cholesky factorization with
    diagonal pivoting, stopped after _HISTORY_NORMALS columns or at a pivot below 1e-17
    of the largest diagonal entry.  M is numerically of rank 6: its seventh eigenvalue
    is below 1.5e-18 of the largest for H in [0.001, 0.999], and there L L^T meets M
    within 6e-16 of its largest entry, where its six leading eigenpairs reach 1.2e-15.
    The loop is numpy, so no LAPACK routine is paged in (an eigh added 1.2 MiB to the
    resident set); the factor depends on H alone and is cached.
    """
    k = np.arange(1.0, _HISTORY_TERMS + 1)
    M = _HISTORY_START ** (2 * H - k[:, None] - k) / (k[:, None] + k - 2 * H)
    L = np.zeros((_HISTORY_TERMS, _HISTORY_NORMALS))
    d = M.diagonal().copy()
    for j in range(_HISTORY_NORMALS):
        p = int(np.argmax(d))
        if d[p] < 1e-17 * M[0, 0]:
            break
        L[:, j] = (M[:, p] - L @ L[p]) / math.sqrt(d[p])
        d -= L[:, j] ** 2
    L *= np.cumprod((H + 0.5 - k) / k)[:, None]  # binom(q - 1, k) = prod_(j<=k) (q - j) / j
    L.flags.writeable = False  # every law of this H shares it
    return L


def _moving_average_law(grid: GridSpec, H: float):
    H = _validate.hurst(H)
    n = _validate.instance(grid, GridSpec, "grid").n_steps
    q = H + 0.5
    C = normalizing_constant(H)
    # step i spans (i - n, i - n + 1) dt, and node k weights its normal a_i by r(k + n - i) -
    # r(n - i), r(u) = (u_+^q - (u - 1)_+^q) dt^H / (q C(H)), the kernel's step average: one
    # stationary sequence R[a] = r(2n - a), and node k weights a_i by R[n - k + i] - R[n + i]
    R = diffpow(np.arange(2 * n, -n, -1.0), q) * (grid.dt**H / (q * C))
    # hybrid: the step ending at t_k holds S = int (t_k - s)^(q-1) dW exactly, as (a/q + c b) dt^H
    # with E S^2 = dt^2H / 2H; r(1) = 1/q is its a-coefficient, and c^2 = 1/(2H) - 1/q^2
    hybrid = abs(H - 0.5) / (q * math.sqrt(2.0 * H)) * grid.dt**H / C
    # far cells [-e_(j+1), -e_j], e_j = 1.3^j below _HISTORY_START, then _HISTORY_START, in
    # units of t_max: node t weights one by (F(e_(j+1)) - F(e_j)) / (q C(H) sqrt(width)),
    # F(e) = (t + e)^q - e^q = e^(q-1) (e expm1(q log1p(t/e))), and t_max^H scales the weights
    t = np.arange(1, n + 1)[:, None] / n
    e = np.append((1.0 + _FAR_RATIO) ** np.arange(8.0), _HISTORY_START)  # 1.3^7 < 8 < 1.3^8
    far = np.diff(np.expm1(q * np.log1p(t / e)) * e * e ** (q - 1.0), axis=1) / (q * np.sqrt(np.diff(e)))
    # einsum sums without BLAS, whose threaded gemm of a long grid could round differently
    history = np.einsum("nk,kj->nj", t ** np.arange(1.0, _HISTORY_TERMS + 1), _history_factor(H))
    rest = np.hstack([far, history]) * (grid.t_max**H / C)
    count = 3 * n + 1 + rest.shape[1]  # the step normals, n + 1 hybrid normals, then the rest
    if n * count <= _GEMV_MAX:
        w = sliding_window_view(R, 2 * n)  # w[a] = R[a : a + 2n]
        near = np.subtract(w[n - 1 :: -1], w[n])
        S = np.eye(n, n + 1, 1) * hybrid  # node k takes hybrid (b_k - b_0)
        S[:, 0] = -hybrid
        shape = _rowwise_gemv(np.hstack([near, S, rest]))
    else:
        # sum_i a_i R[n - k + i] is the causal convolution of a with R reversed, read at
        # 2n - 1 + k; from a cyclic length of 3n on, none of them wraps
        kernel = kernel_spectrum(R[::-1], 3 * n)
        rest_shape = _rowwise_gemv(rest)

        def shape(z: np.ndarray, dest: np.ndarray) -> None:
            at = convolve(z[:, : 2 * n], kernel, 3 * n)[:, 2 * n - 1 : 3 * n]
            b = z[:, 2 * n : 3 * n + 1]
            rest_shape(z[:, 3 * n + 1 :], dest)
            dest += np.subtract(at[:, 1:], at[:, :1])
            dest += np.subtract(b[:, 1:], b[:, :1]) * hybrid

    return count, shape


def generate_fbm_moving_average(grid: GridSpec, H: float, seed: RngSeed) -> SamplePath:
    """Approximate fBm by the hybrid scheme on the moving-average kernel representation.

    A stream draws 3n + 15 normals, 39 for the default 8-step grid: one a
    step over [-t_max, t_max], one for the exact integral over each step that
    ends at a node, 8 far cells back to -8 t_max and 6 for the exact history
    beyond.  The module docstring gives the law's covariance error, at most
    8.6e-3 at H = 0.1 on 8 steps; at H = 1/2 the law is exact to rounding.
    """
    return _single(_moving_average_law(grid, H), grid, seed, H, PathGenerator.FBM_MOVING_AVERAGE)


def fbm_moving_average_ensemble(grid: GridSpec, H: float, root: int, replicates: int) -> np.ndarray:
    return _draw(_moving_average_law(grid, H), grid, root, _streams(root, replicates))


# ---------------------------------------------------------------------------
# ensemble statistics


def empirical_covariance(values: np.ndarray) -> np.ndarray:
    """Second-moment matrix over nodes for an ensemble of zero-mean paths."""
    v = _validate.ensemble(values, "empirical_covariance", 2)
    _validate.finite_rows(v, "empirical_covariance")
    return (v.T @ v) / v.shape[0]


# ---------------------------------------------------------------------------
# deterministic transforms


def scale_path(path: SamplePath, a: float) -> SamplePath:
    """Self-similarity transform t -> a^(-H) X(a t) on the rescaled grid."""
    a = _validate.real(a, "scale factor a", 0.0)
    if _validate.instance(path, SamplePath, "path").hurst is None:
        raise ValueError("scaling needs a path with a known Hurst index")
    if (t_max := path.grid.t_max / a) in (0.0, math.inf):
        flow = "overflows a float" if t_max else "underflows to 0"
        raise ValueError(f"scale factor a={a!r}: the rescaled horizon t_max / a {flow}")
    grid = GridSpec(t_max, path.grid.n_steps)
    return SamplePath(grid, a ** (-path.hurst) * path.values, path.hurst, path.seed, path.generator)


def time_invert_bm(path: SamplePath) -> SamplePath:
    """Brownian time inversion X(t) = t B(1/t), X(0) = 0, on the reciprocal grid.

    The output grid spans [0, 1/dt] with the same step count, so every
    needed sample 1/u lands inside the input domain; off-node values of B
    are linearly interpolated.  Interpolation attenuates the variance by up
    to u * dt / 4 in relative terms, so distributional checks should probe
    output nodes u_k = k / t_max with k dividing n_steps, where 1/u_k hits
    an input node and the Brownian law is exact.
    """
    if _validate.instance(path, SamplePath, "path").hurst != 0.5:
        raise ValueError("time inversion applies to Brownian paths (hurst 0.5)")
    n = path.grid.n_steps
    if n / path.grid.t_max == math.inf:
        raise ValueError(f"horizon t_max={path.grid.t_max!r}: the inverted horizon n / t_max overflows a float")
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
    seed = _validate.instance(path, SamplePath, "path").seed
    header = {
        "hurst": "" if path.hurst is None else repr(path.hurst),
        "seed": "" if seed is None else f"{seed.root}/{seed.stream}",
        "generator": path.generator.value,
    }
    write_csv(dest, 0.0, path.grid.t_max, path.values, header)


def _parse_seed(text: str) -> Optional[RngSeed]:
    root, _, stream = text.partition("/")
    return RngSeed(int(root), int(stream or 0)) if root else None


def _header_value(header: dict, key: str, parse):
    """parse(header[key]), None when the line is absent or empty."""
    if not header.get(key):
        return None
    try:
        return parse(header[key])
    except ValueError as exc:
        raise ValueError(f"malformed path CSV header {key}={header[key]}: {exc}") from exc


def read_path_csv(source) -> SamplePath:
    """Inverse of write_path_csv; unheadered two-column CSVs import as EXTERNAL."""
    header, t, v = read_csv(source, "path", 2)
    hurst = _header_value(header, "hurst", float)
    seed = _header_value(header, "seed", _parse_seed)
    generator = _header_value(header, "generator", PathGenerator) or PathGenerator.EXTERNAL
    if t[0] != 0.0 or v[0] != 0.0:
        # imported series: re-anchor at the origin without changing increments
        t = t - t[0]
        v = v - v[0]
    return SamplePath(GridSpec(float(t[-1]), t.size - 1), v, hurst, seed, generator)
