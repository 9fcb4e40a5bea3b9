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
circulant embedding of the increment covariance (long grids), and a
truncated moving-average discretization of the kernel representation

    Z(t) = (1/C(H)) int [ (t-s)_+^(H-1/2) - (-s)_+^(H-1/2) ] dB(s).

Circulant embedding (Davies & Harte 1987; Dieker 2004, 2.1.3) places the n
increment covariances in a symmetric circulant of size 2n.  Its eigenvalues
are the real FFT of one row, and only eigenvalues 0..n are kept, since the
rest mirror them.  A stream's 2n normals fill the coefficients 0..n of a
Hermitian spectrum and one inverse real FFT of them gives the 2n-point
Gaussian vector whose first n entries are the increments; the conjugate
half of the spectrum is never formed.

The moving average samples dB on near cells over [-t_max, t_max] and on far
cells graded geometrically from -t_max back to -truncation, and weights each
cell by the exact cell average of the kernel.  The kernel is singular only at
lattice nodes, approached from the left, so each step of the near zone is
split into G = kernel_mesh cells graded toward its right end, at fractions
f_g = 1 - (1 - g/G)^3 of the step (a graded mesh for a weakly singular kernel,
Brunner 1985).  The pattern repeats every step, so node k weights cell g of
step i by c_g(k + n - i) - c_g(n - i), with c_g(u) = (u - f_g)_+^q -
(u - f_(g+1))_+^q scaled by dt^H / (q C(H) sqrt(f_(g+1) - f_g)), q = H + 1/2:
G stationary sequences, formed once.  A far cell [-b, -a] holds
(1/C(H)) int (t-s)^(q-1) - (-s)^(q-1) ds over the cell, divided by
sqrt(b - a): a difference of (t + e)^q - e^q over the edges e.  Grids whose
n x m weight table, near and far cells together, has at most _GEMV_MAX
entries apply it by one gemv per row; larger grids convolve each of a
stream's G channels of near cells with its sequence by `_nodecalc.convolve`,
the operators' FFT pair, at the least 2^a 3^b 5^c length of at least a
sequence's, sum the channels at the n + 1 lattice points t_k, subtract the
value at t_0 and add the far cells by gemvs.  The crossover depends only on
the grid, so a single path and an ensemble row take the same route.

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

#: normals per block of streams (2^17 float64, 1 MiB); a longer stream fills
#: a block of one row
_BLOCK_NORMALS = 2**17

#: growth ratio of the moving average's far history cells, which are graded
#: geometrically from -t_max back to -truncation
_FAR_RATIO = 0.3

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
        n_steps = _validate.instance(self.grid, GridSpec, "grid").n_steps
        vals = _validate.node_values(self.values, n_steps, "path values")
        object.__setattr__(self, "values", vals)
        if vals[0] != 0.0:
            raise ValueError("paths start at exactly zero")
        if self.hurst is not None:
            _validate.hurst(self.hurst, "hurst")
        if self.seed is not None:
            _validate.instance(self.seed, RngSeed, "seed")

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    @property
    def dt(self) -> float:
        return self.grid.dt

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


def _cholesky_law(grid: GridSpec, H: float, max_nodes: int):
    H = _validate.hurst(H)
    cap = _validate.integer(max_nodes, "max_nodes", 1)
    _validate.integer(_validate.instance(grid, GridSpec, "grid").n_steps, "n_steps", 1, cap)
    return grid.n_steps, _rowwise_gemv(_cholesky_factor(grid.t_max, grid.n_steps, H))


def generate_fbm_cholesky(
    grid: GridSpec, H: float, seed: RngSeed, max_nodes: int = CHOLESKY_MAX_NODES
) -> SamplePath:
    """Fractional Brownian motion with exact covariance via Cholesky.

    The reference generator: factorizes the (n x n) node covariance, so time
    and memory are quadratic in n_steps and grids are capped at max_nodes.
    The factor is cached, so replicated draws pay it once.
    """
    return _single(_cholesky_law(grid, H, max_nodes), grid, seed, H, PathGenerator.FBM_CHOLESKY)


def fbm_cholesky_ensemble(
    grid: GridSpec, H: float, root: int, replicates: int, max_nodes: int = CHOLESKY_MAX_NODES
) -> np.ndarray:
    return _draw(_cholesky_law(grid, H, max_nodes), grid, root, _streams(root, replicates))


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


def _moving_average_law(
    grid: GridSpec, H: float, truncation: Optional[float], kernel_mesh: int
):
    H = _validate.hurst(H)
    n = _validate.instance(grid, GridSpec, "grid").n_steps
    G = _validate.integer(kernel_mesh, "kernel_mesh", 1)
    if truncation is None:
        truncation = 1e4 * grid.t_max
    rule = "be finite and at least t_max"
    truncation = _validate.real(truncation, "truncation", grid.t_max, closed=True, rule=rule)
    reach = truncation / grid.t_max  # far edges are formed in units of t_max, one grade past it
    if reach * (1.0 + _FAR_RATIO) == math.inf:
        ratio = f"{truncation!r} / {grid.t_max!r}"
        raise ValueError(f"truncation / t_max must stay clear of float overflow, got {ratio}")
    m = 2 * n * G  # near cells on [-t_max, t_max], in time order
    q = H + 0.5
    scale = 1.0 / (q * normalizing_constant(H))
    # cell g of step i spans (i - n + f_g, i - n + f_(g+1)) dt, f_g = 1 - (1 - g/G)^3, and node k
    # weights it by c_g(k + n - i) - c_g(n - i), c_g(u) = ((u - f_g)_+^q - (u - f_(g+1))_+^q) dt^H
    # / (q C(H) sqrt(f_(g+1) - f_g)): channel g is one stationary sequence R[g, a] = c_g(2n - a),
    # and node k weights cell (i, g) by R[g, n - k + i] - R[g, n + i]
    f = 1.0 - (1.0 - np.arange(G + 1) / G) ** 3
    width = np.diff(f)[:, None]
    R = diffpow(np.arange(2 * n, -n, -1.0) - f[:-1, None], q, width)
    R *= grid.dt**H * scale / np.sqrt(width)
    # far cells [-e_(j+1), -e_j], e_j = t_max (1 + _FAR_RATIO)^j below truncation,
    # then truncation; node t weights one by (F(e_(j+1)) - F(e_j)) / (q C(H) sqrt(width)),
    # F(e) = (t + e)^q - e^q.  In units of t_max, F(e) = e^(q-1) (e expm1(q log1p(t/e)))
    # has factors near e^(q-1) and q t, which stay finite, and t_max^H scales the weights
    grades = math.ceil((math.log(truncation) - math.log(grid.t_max)) / math.log1p(_FAR_RATIO))
    e = (1.0 + _FAR_RATIO) ** np.arange(grades + 1.0)
    e = np.append(e[e < reach], reach)
    F = np.expm1(q * np.log1p(np.arange(1, n + 1)[:, None] / n / e)) * e * e ** (q - 1.0)
    far = np.diff(F, axis=1)
    far *= grid.t_max**H * scale / np.sqrt(np.diff(e))
    count = m + far.shape[1]
    if n * count <= _GEMV_MAX:
        w = sliding_window_view(R, 2 * n, axis=1)  # w[g, a] = R[g, a : a + 2n]
        near = np.subtract(w[:, n - 1 :: -1], w[:, n : n + 1])  # near[g, k - 1, i]
        shape = _rowwise_gemv(np.hstack([near.transpose(1, 2, 0).reshape(n, m), far]))
    else:
        # sum_i z[i, g] R[g, n - k + i] is the causal convolution of channel g with R[g]
        # reversed, read at 2n - 1 + k; from a cyclic length of 3n on, none of them wraps
        kernel = kernel_spectrum(R[:, ::-1], 3 * n)
        far_shape = _rowwise_gemv(far)

        def shape(z: np.ndarray, dest: np.ndarray) -> None:
            near = z[:, :m].reshape(len(z), 2 * n, G).transpose(0, 2, 1)
            channels = convolve(near, kernel, 3 * n)[:, :, 2 * n - 1 : 3 * n]
            at = sum(channels[:, g] for g in range(G))  # in channel order, whatever the row count
            far_shape(z[:, m:], dest)
            dest += np.subtract(at[:, 1:], at[:, :1])

    return count, shape


@_in_float_range
def moving_average_truncation_bias(H: float, truncation: float, t: float) -> float:
    """Analytic bound on the variance lost to truncating the kernel at -truncation.

    By the mean value theorem the kernel below s = -L is at most
    |H-1/2| t (-s)^(H-3/2), so the missing squared mass is bounded by
    (H-1/2)^2 t^2 L^(2H-2) / (2-2H), normalized by C(H)^2.  Zero for
    H = 1/2, where the kernel has compact support.  This is the truncation
    term only of the generator's covariance error.  Above H = 1/2 it is most
    of that error: at the default 1e4 t_max the bound is 1.4e-3 at H = 0.75
    and t = 1, against a sup error of 2.0e-3 on 8 steps.  Below H = 1/2 the
    near mesh sets the error, which this bound does not see: 1.7e-8 at
    H = 0.25, against 9.8e-3 with five graded cells a step.  The far cells,
    graded by 1.3, add 0.6-1.8% at H = 0.25 and 18-21% at H = 0.75 against
    far cells graded by 1.01 (8 and 64 steps).
    """
    H = _validate.hurst(H)
    (t,) = _check_times(t)
    truncation = _validate.real(truncation, "truncation", 0.0)
    if H == 0.5:
        return 0.0
    beta = H - 0.5
    tail = beta**2 * t**2 * truncation ** (2.0 * H - 2.0) / (2.0 - 2.0 * H)
    return tail / normalizing_constant(H) ** 2


def generate_fbm_moving_average(
    grid: GridSpec,
    H: float,
    seed: RngSeed,
    truncation: Optional[float] = None,
    kernel_mesh: int = 5,
) -> SamplePath:
    """Approximate fBm by discretizing the moving-average kernel representation.

    An auxiliary Brownian motion on [-truncation, t_max] is sampled on
    kernel_mesh cells a step over [-t_max, t_max], graded toward each step's
    right end at fractions 1 - (1 - g/kernel_mesh)^3, and on cells growing
    by the ratio 1 + _FAR_RATIO from -t_max back to -truncation, and summed
    against exact cell averages of the kernel, which keeps the integrable
    singularities at the nodes harmless.  A stream draws one normal per cell,
    near cells first: 116 for the default 8-step grid.  Truncation defaults to
    1e4 * t_max; the induced variance deficit is bounded by
    moving_average_truncation_bias.  A long truncation costs a number of
    far cells logarithmic in truncation / t_max.  The sup covariance error
    of the law against the exact one, with the defaults:

        grid       H = 0.25   H = 0.75
        8 steps    9.76e-3    1.99e-3
        64 steps   3.51e-3    1.75e-3

    At H = 1/2 the law is exact to rounding: the cells meet at the nodes.
    """
    law = _moving_average_law(grid, H, truncation, kernel_mesh)
    return _single(law, grid, seed, H, PathGenerator.FBM_MOVING_AVERAGE)


def fbm_moving_average_ensemble(
    grid: GridSpec,
    H: float,
    root: int,
    replicates: int,
    truncation: Optional[float] = None,
    kernel_mesh: int = 5,
) -> np.ndarray:
    law = _moving_average_law(grid, H, truncation, kernel_mesh)
    return _draw(law, grid, root, _streams(root, replicates))


# ---------------------------------------------------------------------------
# ensemble bookkeeping

def ensemble_manifest(
    grid: GridSpec, hurst: Optional[float], generator: PathGenerator, root: int, replicates: int
) -> dict:
    """JSON-ready record of how an ensemble was drawn."""
    return {
        "t_max": _validate.instance(grid, GridSpec, "grid").t_max,
        "n_steps": grid.n_steps,
        "hurst": None if hurst is None else _validate.hurst(hurst, "hurst"),
        "generator": PathGenerator(generator).value,
        "root_seed": _validate.integer(root, "root", 0, 2**64 - 1),
        "replicates": _validate.integer(replicates, "replicates"),
    }


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
    if _validate.instance(path, SamplePath, "path").hurst != 0.5:
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
