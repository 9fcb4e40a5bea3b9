"""Riemann-Liouville fractional integrals and derivatives on uniform grids.

All operators use product quadrature: on each grid cell the singular kernel
is integrated in closed form against the piecewise-linear interpolant of the
samples, so kernel singularities never meet a naive pointwise evaluation.
On a uniform grid each operator is one causal (Volterra) convolution of the
samples with one kernel sequence, evaluated in O(n log n) by the FFT pair
the moving-average generator also uses (`_nodecalc.convolve`, at the least
5-smooth length without wrap-around): the integral folds its left- and
right-sample weights into one kernel, and the derivative writes each sample
as the base sample plus h times the slopes below it, which folds its two
sums into one.  The kernel spectrum depends only on the order, the step and
the node count; the integral keeps its last one and the derivative its last
two, so a left/right pair, the orders alpha and 1 - alpha of
fractal_integral, and repeated calls on one grid transform only their
samples.  Rounding error is bounded relative to the largest output value
rather than entry by entry.  Right-sided operators are evaluated by
reflecting the samples, applying the left-sided routine, and reflecting
back; the reflection identity then holds bitwise.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ._csvio import read_csv, write_csv
from ._nodecalc import binary_units, convolve, diffpow, from_binary_units, kernel_spectrum
from ._validate import coincide, finite, instance, integer, real, reals

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
        a = real(self.alpha, "order", rule="be a finite real number")
        object.__setattr__(self, "side", Side(self.side))
        object.__setattr__(self, "kind", OperatorKind(self.kind))
        integral = self.kind is OperatorKind.INTEGRAL
        real(a, f"{self.kind.value} order", 0.0, math.inf if integral else 1.0)


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
        vals = reals(self.values, "samples")
        object.__setattr__(self, "values", vals)
        real(self.b, "b", real(self.a, "a"))  # a finite domain with a < b
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
    def from_callable(cls, fn: Callable, a: float, b: float, n: int) -> "GridFunction":
        """Samples of fn at the n + 1 nodes of [a, b], fn taking an array of times."""
        t = np.linspace(real(a, "a"), real(b, "b", a), integer(n, "n", 2) + 1)
        return cls(a, b, instance(fn, Callable, "fn")(t))

    def reflected(self) -> "GridFunction":
        """Samples of t -> f(a + b - t) on the same grid."""
        return GridFunction(self.a, self.b, self.values[::-1].copy())


def _gammaln(x: float) -> float:
    """log Gamma(x) for x > 0; inf where it overflows, where math.lgamma raises.

    On [1, 171), where Gamma(x) is a finite double, log(math.gamma(x)) is
    about twice as accurate as math.lgamma; the integral weights take x = alpha + 1.
    """
    if 1.0 <= x < 171.0:
        return math.log(math.gamma(x))
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def _integral_weights(alpha: float, h: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Moments of (t_k - u)**(alpha-1) / Gamma(alpha) over one cell, d = k - j = 1..n.

    w0 weights the left cell sample, w1 the right one.  Both carry the factor
    (d*h)**alpha / Gamma(alpha+1), formed as (d/n)**alpha times one scale
    computed in log space, so high orders overflow only when the weights do.
    """
    d = np.arange(1, n + 1, dtype=float)
    with np.errstate(divide="ignore"):
        decay = np.log1p(-1.0 / d)  # log((d-1)/d), -inf at d = 1
    base = np.exp(alpha * np.log(n * h) - _gammaln(alpha + 1.0)) * (d / n) ** alpha
    e0 = -np.expm1(alpha * decay)  # 1 - ((d-1)/d)**alpha
    e1 = -np.expm1((alpha + 1.0) * decay)
    m0 = base * e0
    w1 = base * (d * (e0 - alpha / (alpha + 1.0) * e1))
    return m0 - w1, w1


def _kept(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mark arrays read-only: a kernel cache hands the same ones to every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=1)
def _integral_kernel(alpha: float, h: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Spectrum of the single integral kernel c, and the w1 terms the base sample lacks.

    Sample j reaches node k through w0 at distance k - j and through w1 at
    k - j + 1, so c[0] = w1[0], c[d] = w0[d-1] + w1[d] and c[n] = w0[n-1].
    A cyclic length of at least 2n lets only the unused output 0 wrap.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        w0, w1 = _integral_weights(alpha, h, n)
        c = np.concatenate((w1[:1], w0[:-1] + w1[1:], w0[-1:]))
    return _kept(kernel_spectrum(c, 2 * n), w1[1:])


def _left_integral(vals: np.ndarray, alpha: float, h: float) -> np.ndarray:
    n = vals.size - 1
    spectrum, tail = _integral_kernel(float(alpha), float(h), n)
    out = np.empty_like(vals)
    with np.errstate(over="ignore", invalid="ignore"):
        out[1:] = convolve(vals, spectrum, 2 * n)[1 : n + 1]
        out[1:n] -= vals[0] * tail
    out[0] = 0.0
    if not np.isfinite(out).all():
        raise ValueError(f"integral of order {alpha} overflows the float range on this grid")
    return out


# two entries: fractal_integral takes the orders alpha and 1 - alpha in turn
@functools.lru_cache(maxsize=2)
def _derivative_kernel(alpha: float, h: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Spectrum of the single far-cell kernel e, and c0, the running sum of p0.

    p0 and p1 weight the left sample and the slope of a cell at distance
    d = 2..n.  Writing each left sample as the base sample plus h times the
    slopes below it folds the p0 sum into the slope sum:
    e[0] = p1[0] and e[m] = p1[m] + h * c0[m-1].
    """
    d = np.arange(2, n + 1, dtype=float)
    p0 = -diffpow(d, -alpha) / alpha  # ((d-1)**-a - d**-a) / a
    c0 = np.cumsum(p0 * h ** (-alpha))  # c0[k-2] = sum of p0 over d=2..k
    e = (d * p0 - diffpow(d, 1.0 - alpha) / (1.0 - alpha)) * h ** (1.0 - alpha)  # p1
    e[1:] += h * c0[:-1]
    # a cyclic length of at least 2(n - 1) leaves the n - 1 outputs unwrapped
    return _kept(kernel_spectrum(e, 2 * n - 2), c0)


def _left_derivative(vals: np.ndarray, alpha: float, h: float) -> np.ndarray:
    """Marchaud/Weyl form: boundary term plus the singular compensated integral."""
    n = vals.size - 1
    spectrum, c0 = _derivative_kernel(float(alpha), float(h), n)
    # the adjacent cell in closed form, cells at distance d >= 2 through the kernel;
    # formed before the boundary term, which is then not held while the FFT runs
    step = vals[1:] - vals[:-1]
    core = step * h ** (-alpha) / (1.0 - alpha)
    core[1:] += (vals[2:] - vals[0]) * c0 - convolve(step[:-1] / h, spectrum, 2 * n - 2)[: n - 1]
    k = np.arange(1, n + 1, dtype=float)
    boundary = vals[1:] * (k * h) ** (-alpha)
    out = np.empty_like(vals)
    out[1:] = (boundary + alpha * core) / math.gamma(1.0 - alpha)
    # one-sided limit at the base point: divergent unless the sample vanishes
    out[0] = np.inf * np.sign(vals[0]) if vals[0] != 0.0 else 0.0
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
    return _one_sided(f, spec, OperatorKind.INTEGRAL, _left_integral)


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
    return _one_sided(f, spec, OperatorKind.DERIVATIVE, _left_derivative)


def _one_sided(f: GridFunction, spec: DifferintegralSpec, kind: OperatorKind, left):
    """left(samples, alpha, h) on spec's side; the right side reflects the samples and back."""
    if instance(spec, DifferintegralSpec, "spec").kind is not kind:
        raise ValueError(f"spec.kind must be {kind.name}")
    vals = finite(instance(f, GridFunction, "f").values, "samples")
    if spec.side is Side.LEFT:
        return GridFunction(f.a, f.b, left(vals, spec.alpha, f.h))
    return GridFunction(f.a, f.b, left(vals[::-1], spec.alpha, f.h)[::-1])


def cauchy_repeated_integral(f: GridFunction, m: int) -> GridFunction:
    """m-fold repeated integral from the base point, via the single-kernel form.

    The m-fold iterated integral collapses to a single convolution with
    (t - u)**(m-1) / (m-1)!; this delegates to the same quadrature path as
    fractional_integral with alpha = m, so the two agree bitwise at m = 1.
    """
    m = integer(m, "repetition count m", 1)
    return fractional_integral(f, DifferintegralSpec(float(m), Side.LEFT, OperatorKind.INTEGRAL))


def whole_line_fractional_integral(f: GridFunction, alpha: float, side: WholeLineSide) -> GridFunction:
    """Whole-line fractional integral of a compactly supported sample set.

    The input is treated as zero outside [a, b], under which the whole-line
    kernels collapse to the one-sided operators on the grid: MINUS (kernel
    (t-u)_+**(alpha-1)) reduces to the left-sided integral, PLUS (kernel
    (u-t)_+**(alpha-1)) to the right-sided one.  Evaluation on nodes outside
    the support of f (e.g. an indicator sampled mid-grid) is therefore exact
    up to the interpolant's smearing of jumps over one cell.
    """
    alpha = real(alpha, "whole-line order alpha", 0.0, 1.0)
    one_sided = Side.LEFT if WholeLineSide(side) is WholeLineSide.MINUS else Side.RIGHT
    return fractional_integral(f, DifferintegralSpec(alpha, one_sided, OperatorKind.INTEGRAL))


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
    alpha = real(alpha, "alpha", 0.0, 1.0, closed=True)
    fv = finite(instance(f, GridFunction, "f").values, "f samples")
    gv = finite(instance(g, GridFunction, "g").values, "g samples")
    if fv.size != gv.size or not coincide((f.a, f.b), (g.a, g.b)):
        raise ValueError("f and g must share one grid")
    h = f.h
    f_low, ef = binary_units(fv - fv[0])
    g_up, eg = binary_units(gv - gv[-1])
    if alpha == 0.0:
        df = f_low
        dg = -np.gradient(g_up, h)
    elif alpha == 1.0:
        df = np.gradient(f_low, h)
        dg = g_up
    else:
        df = _left_derivative(f_low, alpha, h)
        dg = _left_derivative(g_up[::-1], 1.0 - alpha, h)[::-1]
    inner = -float(np.trapezoid(df[1:-1] * dg[1:-1], dx=h))
    return from_binary_units(inner - math.ldexp(fv[0], -ef) * g_up[0], ef + eg, "the fractal integral")


def write_grid_csv(f: GridFunction, path) -> None:
    """Two-column CSV (t,value) with 17 significant digits."""
    write_csv(path, instance(f, GridFunction, "f").a, f.b, f.values)


def read_grid_csv(path) -> GridFunction:
    """Read a uniformly spaced (t,value) CSV, e.g. from write_grid_csv or write_path_csv."""
    _, t, v = read_csv(path, "grid", 3)
    return GridFunction(t[0], t[-1], v)
