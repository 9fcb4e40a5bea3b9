"""Node arithmetic shared across layers, which each may import without the others.

The power difference u_+^p - (u-1)_+^p is the cell kernel of the fractional
derivative's product quadrature and of the moving-average path generator.
Both layers, and the fractional integral, apply a kernel by `convolve`: one
real FFT pair at the least 5-smooth length at which no output read wraps around.

Both change-of-variables formulas compare g(t, X) - g(0, X(0)) with running
left-point sums of g_t dt + g_x dX on the path grid; the Ito version adds
1/2 g_xx nu^2 dt, the version for persistent fBm paths drops it.  For a
Brownian driver the forward sum is the Ito sum, so one accumulation builds
the processes of both calculi.
"""

from __future__ import annotations

import functools
from collections.abc import Callable

import numpy as np

from ._validate import finite, instance


def diffpow(u: np.ndarray, p: float) -> np.ndarray:
    """u_+^p - (u-1)_+^p, formed as u_+^p (1 - (1 - 1/u)^p) by expm1 and log1p so that large u
    does not cancel; below u = 1 the second power is taken as zero, which needs p > 0."""
    with np.errstate(divide="ignore"):
        return np.maximum(u, 0.0) ** p * -np.expm1(p * np.log1p(-1.0 / np.maximum(u, 1.0)))


@functools.lru_cache(maxsize=16)  # each operator or generator call asks for one or two lengths
def fft_size(n: int) -> int:
    """The least 2^a 3^b 5^c >= n, a fast FFT length: over odd parts p, the least p 2^a >= n."""
    odd = (3**b * 5**c for b in range(n.bit_length()) for c in range(n.bit_length()))
    return min(p << (-(-n // p) - 1).bit_length() for p in odd)


def kernel_spectrum(kernel: np.ndarray, length: int) -> np.ndarray:
    """Real FFT of kernel at fft_size(length), where length is a cyclic length at
    which no output the caller reads wraps around."""
    return np.fft.rfft(kernel, fft_size(length))


def convolve(x: np.ndarray, spectrum: np.ndarray, length: int) -> np.ndarray:
    """Cyclic convolution of the rows of x with the kernel_spectrum made at this length."""
    out = np.fft.rfft(x, fft_size(length), axis=-1)
    out *= spectrum
    return np.fft.irfft(out, fft_size(length), axis=-1)


def eval2(fn, t: np.ndarray, x: np.ndarray, name: str = "fn") -> np.ndarray:
    """fn over node arrays: one vectorised call, else one call per node.

    A scalar (0-d) result of the vectorised call is the value at every node,
    so a constant such as `lambda t, x: 0.0` costs one call.
    """
    fn = instance(fn, Callable, name)
    try:
        out = np.asarray(fn(t, x), dtype=float)
        if out.ndim == 0:
            return np.full(t.shape, out)
        if out.shape == t.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([float(fn(tk, xk)) for tk, xk in zip(t, x)])


def accumulate(x0: float, a: np.ndarray, dt: float, b: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """x0 plus running sums of a dt + b dx, both coefficients taken at left points."""
    values = np.concatenate(([x0], x0 + np.cumsum(a[:-1] * dt + b[:-1] * dx)))
    return finite(values, "accumulated process")


def change_of_variables(g, g_t, g_x, t, x, dt, second_order=None):
    """(lhs, rhs) node arrays of the change-of-variables formula for g(t, X).

    lhs holds g(t_k, X_k) - g(0, X_0); rhs accumulates g_t dt + g_x dX at
    left points, plus second_order (one value per step) when given.
    """
    gv = eval2(g, t, x, "g")
    lhs = finite(gv - gv[0], "formula terms")
    incr = eval2(g_t, t[:-1], x[:-1], "g_t") * dt + eval2(g_x, t[:-1], x[:-1], "g_x") * np.diff(x)
    if second_order is not None:
        incr = incr + second_order
    return lhs, np.concatenate(([0.0], np.cumsum(finite(incr, "formula terms"))))
