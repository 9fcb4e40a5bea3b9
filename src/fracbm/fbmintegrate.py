"""Pathwise integrals against fractional Brownian paths.

Difference-quotient integrals (symmetric, forward, backward) are evaluated
on a ladder of grid-aligned epsilon values.  Every ladder converges, the
desk-scale stand-in for the limit in probability, by one rule with no `tol`:
its last two levels differ by at most 5% of max|f| osc g (osc x osc y for the
covariation).  f and g are read in units of a power of two, so the verdict
does not depend on their units, and a level past the float range raises a
ValueError.  Path values outside [0, T] are held at the endpoint values
(Russo & Vallois 1993) by one helper, `_clamped_shifts`, an O(epsilon)
boundary effect covered by the telescoping tolerance helper.

Sign conventions follow the defining difference quotients literally; the
backward kernel g(s-eps) - g(s) therefore telescopes to -(g(T) - g(0)) for
f = 1, and the relation check fixes the covariation factor by calibration
on Brownian paths, where forward = symmetric - 1/2 covariation holds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Union

import numpy as np

from ._nodecalc import accumulate, binary_exponent, change_of_variables
from ._validate import coincide, dyadic_levels, finite, grid_steps, hurst, instance, integer, node_values, real
from .gaussianpaths import GridSpec, SamplePath, _OnGrid
from .pathstats import variation_index

__all__ = [
    "EpsilonSchedule",
    "IntegralResult",
    "ForwardProcess",
    "telescoping_tolerance",
    "symmetric_integral",
    "forward_integral",
    "backward_integral",
    "covariation",
    "riemann_stieltjes_integral",
    "symmetric_forward_relation_check",
    "extended_forward_integral",
    "fractional_forward_process",
    "fbm_ito_formula_check",
    "integral_record",
]

#: a ladder converges when its last two levels differ by at most this share of max|f| osc g
_GAP_SHARE = 0.05


@dataclass(frozen=True)
class EpsilonSchedule:
    """Strictly decreasing epsilon ladder; the last entry stays on-grid."""

    values: tuple

    def __post_init__(self) -> None:
        vals = finite(self.values, "epsilon values")
        if vals.ndim != 1 or vals.size < 3:
            raise ValueError("need at least 3 epsilon levels")
        if vals[-1] <= 0 or (np.diff(vals) >= 0).any():
            raise ValueError("epsilon values must be positive and strictly decreasing")
        object.__setattr__(self, "values", tuple(vals.tolist()))

    @classmethod
    def default_for(cls, grid: GridSpec) -> "EpsilonSchedule":
        h = instance(grid, GridSpec, "grid").dt
        return cls(tuple(k * h for k in (32, 16, 8, 4, 2)))

    def strides(self, grid: GridSpec) -> list:
        """Epsilon values as whole numbers of grid steps."""
        return grid_steps(self.values, instance(grid, GridSpec, "grid").dt, "epsilon", 1).tolist()


@dataclass(frozen=True)
class IntegralResult:
    """Final-level estimate plus the ladder it came from."""

    value: float
    levels: tuple
    converged: bool
    diagnostic: str


@dataclass(frozen=True)
class ForwardProcess(_OnGrid):
    """Grid samples of a process built by forward accumulation.

    Unlike SamplePath this carries an arbitrary starting value, so drifted
    processes X(0) = x0 != 0 have a home; hurst is inherited from the
    driving path for downstream regularity checks.
    """

    grid: GridSpec
    values: np.ndarray
    hurst: Optional[float]

    def __post_init__(self) -> None:
        n_steps = instance(self.grid, GridSpec, "grid").n_steps
        vals = node_values(self.values, n_steps, "process values")
        object.__setattr__(self, "values", vals)
        if self.hurst is not None:
            hurst(self.hurst, "hurst")


#: an integrand or a second process on a path's grid: a constant, node values or a process
Samples = Union[float, np.ndarray, SamplePath, ForwardProcess]


def _grid_values(f: Samples, grid: GridSpec, name: str) -> np.ndarray:
    if isinstance(f, (SamplePath, ForwardProcess)):
        if f.grid.n_steps != grid.n_steps or not coincide(f.grid.t_max, grid.t_max):
            raise ValueError(f"{name} lives on a different grid")
        return f.values
    if np.isscalar(f):
        return np.full(grid.n_steps + 1, real(f, name))
    return node_values(f, grid.n_steps, name)


def _clamped_shifts(values: np.ndarray, lo: int, hi: int):
    """k -> values at node i + k for lo <= k <= hi, held at the end values off the grid.

    values is padded once, on the sides the shifts reach and by at most its
    own length; each shift is a view of the padded copy.
    """
    back, ahead = min(-lo, values.size), min(hi, values.size)
    padded = np.concatenate([np.full(back, values[0]), values, np.full(ahead, values[-1])])
    return lambda k: padded[back + min(max(k, -back), ahead) :][: values.size]


def _rungs(eps: Optional[EpsilonSchedule], grid: GridSpec) -> list:
    """(epsilon, stride) pairs of eps, EpsilonSchedule.default_for(grid) when eps is None."""
    eps = EpsilonSchedule.default_for(grid) if eps is None else instance(eps, EpsilonSchedule, "eps")
    return list(zip(eps.values, eps.strides(grid)))


def _binary_units(f: Samples, g: Union[SamplePath, ForwardProcess], name: str):
    """f on g's grid and g's values in units of 2^ef and 2^eg (binary_exponent), and ef + eg."""
    fv = _grid_values(f, g.grid, name)
    ef, eg = binary_exponent(fv), binary_exponent(g.values)
    return np.ldexp(fv, -ef), np.ldexp(g.values, -eg), ef + eg


def _ladder_result(levels: list, scale: float, e: int, label: str, notes=()) -> IntegralResult:
    """The levels times 2^e, and converged by the one rule; scale is max|f| osc g in their units."""
    gap = abs(levels[-1][1] - levels[-2][1])
    for i, (eps, v) in enumerate(levels):
        try:
            levels[i] = (eps, math.ldexp(v, e))
        except OverflowError:
            raise ValueError(f"the {label} level at {eps:.3g} overflows a float") from None
    diag = [f"{label}: last-level gap {gap / (scale or 1.0):.3e} of max|f| osc g, at most {_GAP_SHARE}", *notes]
    return IntegralResult(levels[-1][1], tuple(levels), bool(gap <= _GAP_SHARE * scale), "; ".join(diag))


def telescoping_tolerance(g: SamplePath, eps: EpsilonSchedule) -> float:
    """Boundary-error allowance for f = 1: 3 eps_last max|dg|/h.

    The clamped endpoint zones span one epsilon at each end, so the
    telescoping identity holds up to an average of |g - g(endpoint)| there;
    the steepest grid slope times 3 eps_last dominates it comfortably.
    """
    steepest = float(np.max(np.abs(np.diff(instance(g, SamplePath, "g").values))))
    return 3.0 * instance(eps, EpsilonSchedule, "eps").values[-1] * steepest / g.dt


def _quotient_ladder(f: Samples, g: SamplePath, eps, lead, lag, span, label) -> IntegralResult:
    """int f(s) [g(s + lead eps) - g(s + lag eps)] / (span eps) ds over the ladder."""
    fv, gv, unit = _binary_units(f, instance(g, SamplePath, "g"), "f")
    h = g.dt
    rungs = _rungs(eps, g.grid)
    reach = max(k for _, k in rungs)
    g_at = _clamped_shifts(gv, reach * min(lead, lag), reach * max(lead, lag))
    levels = []
    for e, k in rungs:
        kernel = (g_at(lead * k) - g_at(lag * k)) / (span * (k * h))
        levels.append((e, float(np.trapezoid(fv * kernel, dx=h))))
    return _ladder_result(levels, np.max(np.abs(fv)) * np.ptp(gv), unit, label)


def symmetric_integral(f: Samples, g: SamplePath, eps: Optional[EpsilonSchedule] = None) -> IntegralResult:
    """(1/2 eps) int f(s) [g(s+eps) - g(s-eps)] ds over the epsilon ladder."""
    return _quotient_ladder(f, g, eps, 1, -1, 2.0, "symmetric")


def forward_integral(f: Samples, g: SamplePath, eps: Optional[EpsilonSchedule] = None) -> IntegralResult:
    """(1/eps) int f(s) [g(s+eps) - g(s)] ds over the epsilon ladder.

    A single difference quotient; diverging ladders (small Hurst index)
    surface as converged=False rather than an error.
    """
    return _quotient_ladder(f, g, eps, 1, 0, 1.0, "forward")


def backward_integral(f: Samples, g: SamplePath, eps: Optional[EpsilonSchedule] = None) -> IntegralResult:
    """(1/eps) int f(s) [g(s-eps) - g(s)] ds, kernel sign taken literally.

    With this orientation f = 1 telescopes to -(g(T) - g(0)); negate the
    result for the right-endpoint-sum reading.
    """
    return _quotient_ladder(f, g, eps, -1, 0, 1.0, "backward")


def covariation(
    x: Union[SamplePath, ForwardProcess], y: Samples, eps: Optional[EpsilonSchedule] = None
) -> IntegralResult:
    """(1/eps) int [x(u+eps) - x(u)][y(u+eps) - y(u)] du over the ladder."""
    yv, xv, unit = _binary_units(y, instance(x, (SamplePath, ForwardProcess), "x"), "y")
    h = x.dt
    rungs = _rungs(eps, x.grid)
    x_at, y_at = (_clamped_shifts(v, 0, max(k for _, k in rungs)) for v in (xv, yv))
    levels = []
    for e, k in rungs:
        dx = x_at(k) - xv
        dy = y_at(k) - yv
        levels.append((e, float(np.trapezoid(dx * dy, dx=h)) / e))
    return _ladder_result(levels, np.ptp(xv) * np.ptp(yv), unit, "covariation")


def riemann_stieltjes_integral(u: Samples, g: SamplePath, levels: int = 5) -> IntegralResult:
    """Left-point Stieltjes sums of u against g at dyadic mesh coarsenings.

    The variation condition (index of u below 1/(1-H)) is probed with the
    variation-index estimator; a failed or impossible check is reported in
    the diagnostic and the sums are computed anyway, the condition being
    sufficient rather than necessary.  A constant u has bounded variation
    (p = 1 < 1/(1-H)) and is not probed.
    """
    uv, gv, unit = _binary_units(u, instance(g, SamplePath, "g"), "u")
    levels = dyadic_levels(levels, g.grid.n_steps)
    notes = []
    if g.hurst is None:
        notes.append("variation condition unchecked: unknown Hurst index")
    elif np.ptp(uv) > 0.0:
        u_path = u if isinstance(u, SamplePath) else SamplePath(g.grid, uv - uv[0], None)
        try:
            p_u = 1.0 / variation_index(u_path).h_hat
            bound = 1.0 / (1.0 - g.hurst)
            if p_u >= bound:
                notes.append(f"variation heuristic failed: p ~ {p_u:.2f} >= 1/(1-H) = {bound:.2f}")
        except ValueError as exc:
            notes.append(f"variation heuristic unavailable: {exc}")
    steps = [2**j for j in range(levels - 1, -1, -1)]
    lev = [(s * g.dt, float(np.dot(uv[::s][:-1], np.diff(gv[::s])))) for s in steps]
    return _ladder_result(lev, np.max(np.abs(uv)) * np.ptp(gv), unit, "riemann-stieltjes", notes)


def symmetric_forward_relation_check(f: Samples, g: SamplePath, eps: Optional[EpsilonSchedule] = None):
    """Returns (symmetric, forward, cov, residual) on shared inputs.

    residual = symmetric - forward - 1/2 cov: the half factor is fixed by
    Brownian calibration, where symmetric sums give the midpoint value
    1/2 B(T)^2 and forward sums fall short of it by exactly half the
    quadratic variation.  The unhalved residual is what the literal
    statement of the identity would leave; it misses by -1/2 [X,Y] on
    Brownian input and is deliberately not used.
    """
    fv = _grid_values(f, instance(g, SamplePath, "g").grid, "f")
    sym = symmetric_integral(fv, g, eps)
    fwd = forward_integral(fv, g, eps)
    x_path = f if isinstance(f, (SamplePath, ForwardProcess)) else SamplePath(g.grid, fv - fv[0], None)
    cov = covariation(x_path, g, eps)
    for name, res in (("symmetric", sym), ("forward", fwd), ("covariation", cov)):
        if not res.converged:
            raise ValueError(f"{name} ladder did not converge: {res.diagnostic}")
    residual = sym.value - fwd.value - 0.5 * cov.value
    return sym.value, fwd.value, cov.value, residual


def extended_forward_integral(
    f: Samples, g: SamplePath, eps_levels: int = 4, u_points: int = 48
) -> IntegralResult:
    """Gamma-weighted average of difference quotients over all shift scales.

    Evaluates (1/Gamma(eps)) int_0^T (u/T)^(eps-1) I(u) du/T for a ladder
    eps = 10^-1 .. 10^-eps_levels, where I(u) = int f(s)[g(s+u) - g(s)]/u ds;
    u is measured in units of T, so the levels do not depend on the unit of time.
    I is sampled on a geometric u-grid with exact cell weights
    d(u^eps)/Gamma(1+eps); below the grid spacing the linear interpolant
    makes I constant, so that mass is added in closed form.  As eps shrinks
    the weight concentrates at u = 0 and the value approaches the grid-scale
    forward quotient.
    """
    # an epsilon ladder below 1e-12 underflows the weight differences
    eps_levels = integer(eps_levels, "eps_levels", 3, 12)
    u_points = integer(u_points, "u_points", 1)
    fv, gv, unit = _binary_units(f, instance(g, SamplePath, "g"), "f")
    h, T = g.dt, g.grid.t_max
    # trapezoid weights times f, and u, in units of a power of two c <= h: the scaling is
    # exact, and keeps a and the u midpoints clear of under- and overflow in any time unit
    c = math.ldexp(1.0, binary_exponent(h) - 1)
    a = h / c * fv
    a[[0, -1]] *= 0.5
    g_at = _clamped_shifts(gv, 0, gv.size)

    def inner(u: float) -> float:
        # g(s + u) on the grid is (1 - theta) g_(i+k) + theta g_(i+k+1), u = (k + theta) h;
        # g is subtracted before summing, so small shifts keep their digits
        k = int(u / h)
        theta = u / h - k
        lo, hi = (np.add.reduce(a * (g_at(j) - gv)) for j in (k, k + 1))
        return float((1.0 - theta) * lo + theta * hi) / (u / c)

    edges = h * (T / h) ** (np.arange(u_points + 1) / u_points)
    mids = c * np.sqrt(edges[:-1] / c * (edges[1:] / c))
    i_mid = np.array([inner(u) for u in mids])
    i_floor = inner(h)
    log_ratio = math.log(T / h) / u_points
    levels = []
    for j in range(1, eps_levels + 1):
        e = 10.0**-j
        cell = (edges[:-1] / T) ** e * math.expm1(e * log_ratio) / math.gamma(1.0 + e)
        levels.append((e, float(np.dot(cell, i_mid)) + i_floor * (h / T) ** e / math.gamma(1.0 + e)))
    return _ladder_result(levels, np.max(np.abs(fv)) * np.ptp(gv), unit, "extended-forward")


def fractional_forward_process(x0: float, alpha: Samples, f: Samples, g: SamplePath) -> ForwardProcess:
    """X = x0 + int alpha dt + forward sums of f against g on the grid."""
    av = _grid_values(alpha, instance(g, SamplePath, "g").grid, "alpha")
    fv = _grid_values(f, g.grid, "f")
    values = accumulate(real(x0, "x0"), av, g.dt, fv, np.diff(g.values))
    return ForwardProcess(g.grid, values, g.hurst)


def fbm_ito_formula_check(g_fn, g_t, g_x, X: Union[SamplePath, ForwardProcess]):
    """Change of variables without a second-order term, valid for H > 1/2.

    lhs holds g(t, X(t)) - g(0, X(0)); rhs accumulates g_t dt + g_x dX with
    forward sums.  Zero quadratic variation above H = 1/2 is what removes
    the 1/2 g_xx correction; lower Hurst indices are rejected.
    Returns (lhs_path, rhs_path, max_gap).
    """
    if instance(X, (SamplePath, ForwardProcess), "X").hurst is None or X.hurst <= 0.5:
        raise ValueError("the formula needs a known Hurst index above 1/2")
    lhs, rhs = change_of_variables(g_fn, g_t, g_x, X.times, X.values, X.dt)
    return lhs, rhs, float(np.max(np.abs(lhs - rhs)))


def integral_record(result: IntegralResult) -> dict:
    """JSON-ready form of a ladder result."""
    return asdict(instance(result, IntegralResult, "result"))
