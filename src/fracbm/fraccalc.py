"""Riemann-Liouville fractional integrals and derivatives on uniform grids.

All operators use product quadrature: on each grid cell the singular kernel
is integrated in closed form against the piecewise-linear interpolant of the
samples, so kernel singularities never meet a naive pointwise evaluation.
Right-sided operators are evaluated by reflecting the samples, applying the
left-sided routine, and reflecting back; the reflection identity then holds
bitwise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma

from ._csvio import read_csv, write_csv

__all__ = [
    "Side",
    "OperatorKind",
    "WholeLineSide",
    "DifferintegralSpec",
    "GridFunction",
    "fractional_integral",
    "fractional_derivative",
    "cauchy_repeated_integral",
    "whole_line_fractional_integral",
    "fractal_integral",
    "read_grid_csv",
    "write_grid_csv",
]


class Side(enum.Enum):
    """Orientation of a one-sided fractional operator."""

    LEFT = "left"
    RIGHT = "right"


class OperatorKind(enum.Enum):
    INTEGRAL = "integral"
    DERIVATIVE = "derivative"


class WholeLineSide(enum.Enum):
    """Kernel orientation of the whole-line fractional integral.

    MINUS uses the kernel (t - u)_+^(alpha-1), which draws mass from u < t;
    PLUS uses (t - u)_-^(alpha-1) = (u - t)_+^(alpha-1), drawing mass from
    u > t.  The subscript labels are kept as-is even though parts of the
    literature attach them to the opposite sides.
    """

    MINUS = "minus"
    PLUS = "plus"


@dataclass(frozen=True)
class DifferintegralSpec:
    """Order, side and kind of a fractional operator.

    Integral orders may be any positive real (integer orders reproduce
    repeated classical integration); derivative orders must lie strictly
    between 0 and 1.
    """

    alpha: float
    side: Side = Side.LEFT
    kind: OperatorKind = OperatorKind.INTEGRAL

    def __post_init__(self) -> None:
        if not np.isfinite(self.alpha):
            raise ValueError("order must be finite")
        if self.kind is OperatorKind.INTEGRAL:
            if not self.alpha > 0:
                raise ValueError(f"integral order must be positive, got {self.alpha}")
        elif not 0.0 < self.alpha < 1.0:
            raise ValueError(f"derivative order must lie in (0, 1), got {self.alpha}")


@dataclass(frozen=True)
class GridFunction:
    """Real-valued function sampled on a uniform grid over [a, b].

    values[k] is the sample at t_k = a + k*(b - a)/n for k = 0..n with
    n >= 2.  Samples must be finite except possibly at the two endpoint
    slots, which may carry a divergent one-sided limit (e.g. the output of
    a fractional derivative of a function that does not vanish at the base
    point).  Operations that need off-node values interpolate linearly.
    """

    a: float
    b: float
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if not (np.isfinite(self.a) and np.isfinite(self.b) and self.b > self.a):
            raise ValueError("domain must satisfy a < b with finite endpoints")
        if vals.ndim != 1 or vals.size < 3:
            raise ValueError("need samples at n+1 >= 3 grid nodes")
        if np.isnan(vals).any() or not np.isfinite(vals[1:-1]).all():
            raise ValueError("interior samples must be finite")

    @property
    def n(self) -> int:
        return self.values.size - 1

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.values.size)

    @classmethod
    def from_callable(cls, fn, a: float, b: float, n: int) -> "GridFunction":
        t = np.linspace(a, b, n + 1)
        return cls(a, b, np.asarray(fn(t), dtype=float))

    def reflected(self) -> "GridFunction":
        """Samples of t -> f(a + b - t) on the same grid."""
        return GridFunction(self.a, self.b, self.values[::-1].copy())


def _require_finite(f: GridFunction, op: str) -> np.ndarray:
    if not np.isfinite(f.values).all():
        raise ValueError(f"{op} requires finite samples everywhere")
    return f.values


def _diffpow(d: np.ndarray, p: float) -> np.ndarray:
    """d**p - (d-1)**p for integer-valued d >= 1, computed without cancellation."""
    with np.errstate(divide="ignore"):
        return d**p * (-np.expm1(p * np.log1p(-1.0 / d)))


def _integral_weights(alpha: float, h: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form moments of (t_k - u)**(alpha-1) over one cell, d = k - j = 1..n.

    w0 weights the left cell sample, w1 the right one.
    """
    d = np.arange(1, n + 1, dtype=float)
    m0 = _diffpow(d, alpha) / alpha
    w1 = d * m0 - _diffpow(d, alpha + 1.0) / (alpha + 1.0)
    w0 = m0 - w1
    scale = h**alpha
    return w0 * scale, w1 * scale


def _left_integral(vals: np.ndarray, alpha: float, h: float) -> np.ndarray:
    n = vals.size - 1
    w0, w1 = _integral_weights(alpha, h, n)
    out = np.zeros_like(vals)
    acc = np.convolve(vals[:-1], w0)[: n] + np.convolve(vals[1:], w1)[: n]
    out[1:] = acc / _gamma(alpha)
    return out


def _left_derivative(vals: np.ndarray, alpha: float, h: float) -> np.ndarray:
    """Marchaud/Weyl form: boundary term plus the singular compensated integral."""
    n = vals.size - 1
    k = np.arange(1, n + 1, dtype=float)
    boundary = vals[1:] * (k * h) ** (-alpha)
    # cells at distance d >= 2 from the evaluation node
    core = (vals[1:] - vals[:-1]) * h ** (-alpha) / (1.0 - alpha)
    if n >= 2:
        d = np.arange(2, n + 1, dtype=float)
        q0 = _diffpow(d, -alpha)  # (d-1)^-a - d^-a, sign folded below
        p0 = -q0 / alpha
        p1 = d * p0 - _diffpow(d, 1.0 - alpha) / (1.0 - alpha)
        p0 *= h ** (-alpha)
        p1 *= h ** (1.0 - alpha)
        slope = (vals[1:] - vals[:-1]) / h
        c0 = np.cumsum(p0)  # c0[k-2] = sum of p0 over d=2..k
        far = vals[2:] * c0[: n - 1]
        far -= np.convolve(vals[:-2], p0)[: n - 1]
        far -= np.convolve(slope[:-1], p1)[: n - 1]
        core[1:] += far
    out = np.empty_like(vals)
    out[1:] = (boundary + alpha * core) / _gamma(1.0 - alpha)
    # one-sided limit at the base point: divergent unless the sample vanishes
    if vals[0] == 0.0:
        out[0] = 0.0
    else:
        out[0] = np.inf * np.sign(vals[0])
    if not np.isfinite(out[1:]).all():
        raise ValueError("non-finite derivative values: integrand too rough for the grid")
    return out


def fractional_integral(f: GridFunction, spec: DifferintegralSpec) -> GridFunction:
    """Fractional integral of order spec.alpha over [a, b].

    The left-sided operator averages f(u) for u < t against the kernel
    (t - u)**(alpha - 1) / Gamma(alpha); the right-sided one mirrors it.
    The value at the operator's own base point is exactly zero.  Product
    quadrature is exact for piecewise-linear inputs, so alpha = 1
    reproduces the cumulative trapezoid rule.
    """
    if spec.kind is not OperatorKind.INTEGRAL:
        raise ValueError("spec.kind must be INTEGRAL")
    vals = _require_finite(f, "fractional_integral")
    if spec.side is Side.LEFT:
        out = _left_integral(vals, spec.alpha, f.h)
    else:
        out = _left_integral(vals[::-1], spec.alpha, f.h)[::-1]
    return GridFunction(f.a, f.b, out)


def fractional_derivative(f: GridFunction, spec: DifferintegralSpec) -> GridFunction:
    """Fractional derivative of order spec.alpha in (0, 1) over [a, b].

    Uses the Marchaud/Weyl representation

        D f(t) = [ f(t)/(t-a)**alpha
                   + alpha * int_a^t (f(t) - f(u)) / (t-u)**(alpha+1) du ]
                 / Gamma(1 - alpha)

    with the compensated singular integral evaluated by exact product
    quadrature against the piecewise-linear interpolant.  The node at the
    operator's base point carries the one-sided limit of the formula:
    zero when the sample there vanishes, a signed infinity otherwise
    (constants genuinely diverge like (t-a)**-alpha at the base point).
    Non-finite interior values raise, signalling an integrand too rough
    for the grid.
    """
    if spec.kind is not OperatorKind.DERIVATIVE:
        raise ValueError("spec.kind must be DERIVATIVE")
    vals = _require_finite(f, "fractional_derivative")
    if spec.side is Side.LEFT:
        out = _left_derivative(vals, spec.alpha, f.h)
    else:
        out = _left_derivative(vals[::-1], spec.alpha, f.h)[::-1]
    return GridFunction(f.a, f.b, out)


def cauchy_repeated_integral(f: GridFunction, m: int) -> GridFunction:
    """m-fold repeated integral from the base point, via the single-kernel form.

    The m-fold iterated integral collapses to a single convolution with
    (t - u)**(m-1) / (m-1)!; this delegates to the same quadrature path as
    fractional_integral with alpha = m, so the two agree bitwise at m = 1.
    """
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"repetition count must be a positive integer, got {m!r}")
    return fractional_integral(f, DifferintegralSpec(float(m), Side.LEFT, OperatorKind.INTEGRAL))


def whole_line_fractional_integral(
    f: GridFunction, alpha: float, side: WholeLineSide
) -> GridFunction:
    """Whole-line fractional integral of a compactly supported sample set.

    The input is treated as zero outside [a, b], under which the whole-line
    kernels collapse to the one-sided operators on the grid: MINUS (kernel
    (t-u)_+**(alpha-1)) reduces to the left-sided integral, PLUS (kernel
    (u-t)_+**(alpha-1)) to the right-sided one.  Evaluation on nodes outside
    the support of f (e.g. an indicator sampled mid-grid) is therefore exact
    up to the interpolant's smearing of jumps over one cell.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"whole-line order must lie in (0, 1), got {alpha}")
    one_sided = Side.LEFT if side is WholeLineSide.MINUS else Side.RIGHT
    return fractional_integral(f, DifferintegralSpec(alpha, one_sided, OperatorKind.INTEGRAL))


def _classical_gradient(vals: np.ndarray, h: float) -> np.ndarray:
    return np.gradient(vals, h)


def fractal_integral(f: GridFunction, g: GridFunction, alpha: float) -> float:
    """Stieltjes integral of f against g via compensated fractional derivatives.

    Computes

        - int_a^b (D_{a+}^alpha f_a)(x) (D_{b-}^{1-alpha} g_b)(x) dx
        + f(a+) (g(b-) - g(a+))

    where f_a = f - f(a+), g_b = g - g(b-), the inner integral is a
    trapezoid over interior nodes, and the leading sign compensates the
    plain right-sided derivative so smooth pairs reproduce the classical
    Riemann-Stieltjes value.  For suitable f, g the value does not depend
    on alpha; alpha = 0 and alpha = 1 fall back to the classical
    derivative on one side and the identity on the other.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if f.values.size != g.values.size or abs(f.a - g.a) > 1e-12 or abs(f.b - g.b) > 1e-12:
        raise ValueError("f and g must share one grid")
    fv = _require_finite(f, "fractal_integral")
    gv = _require_finite(g, "fractal_integral")
    h = f.h
    f_low = fv - fv[0]
    g_up = gv - gv[-1]
    if alpha == 0.0:
        df = f_low
        dg = -_classical_gradient(g_up, h)
    elif alpha == 1.0:
        df = _classical_gradient(f_low, h)
        dg = g_up
    else:
        df = _left_derivative(f_low, alpha, h)
        dg = _left_derivative(g_up[::-1], 1.0 - alpha, h)[::-1]
    inner = -float(np.trapezoid(df[1:-1] * dg[1:-1], dx=h))
    return inner + fv[0] * (gv[-1] - gv[0])


def write_grid_csv(f: GridFunction, path) -> None:
    """Two-column CSV (t,value) with 17 significant digits."""
    write_csv(path, f.times, f.values)


def read_grid_csv(path) -> GridFunction:
    """Read a uniformly spaced (t,value) CSV, e.g. from write_grid_csv or write_path_csv."""
    _, t, v = read_csv(path, "grid", 3)
    return GridFunction(t[0], t[-1], v)
