"""Pathwise integrals against fractional Brownian paths.

Difference-quotient integrals (symmetric, forward, backward) are evaluated
on a ladder of grid-aligned epsilon values; convergence means the last two
levels agree within a Cauchy tolerance, the desk-scale stand-in for the
limit in probability.  Path values outside [0, T] are clamped to the
endpoint values, an O(epsilon) boundary effect covered by the telescoping
tolerance helper.

Sign conventions follow the defining difference quotients literally; the
backward kernel g(s-eps) - g(s) therefore telescopes to -(g(T) - g(0)) for
f = 1, and the relation check fixes the covariation factor by calibration
on Brownian paths, where forward = symmetric - 1/2 covariation holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.special import gamma as _gamma

from .gaussianpaths import GridSpec, SamplePath
from .itocalc import _eval2
from .pathstats import quadratic_variation, variation_index

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

CAUCHY_TOL = 0.05


@dataclass(frozen=True)
class EpsilonSchedule:
    """Strictly decreasing epsilon ladder; the last entry stays on-grid."""

    values: tuple

    def __post_init__(self) -> None:
        vals = tuple(float(e) for e in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 3:
            raise ValueError("need at least 3 epsilon levels")
        if any(e <= 0 for e in vals) or any(b >= a for a, b in zip(vals, vals[1:])):
            raise ValueError("epsilon values must be positive and strictly decreasing")

    @classmethod
    def default_for(cls, grid: GridSpec) -> "EpsilonSchedule":
        h = grid.dt
        return cls(tuple(k * h for k in (32, 16, 8, 4, 2)))

    def strides(self, grid: GridSpec) -> list:
        """Epsilon values as whole numbers of grid steps."""
        h = grid.dt
        out = []
        for e in self.values:
            k = int(round(e / h))
            if k < 1:
                raise ValueError(f"epsilon {e} lies below the grid spacing {h}")
            if abs(e - k * h) > 1e-9 * max(e, h):
                raise ValueError(f"epsilon {e} is not a whole multiple of the grid spacing")
            out.append(k)
        return out


@dataclass(frozen=True)
class IntegralResult:
    """Final-level estimate plus the ladder it came from."""

    value: float
    levels: tuple
    converged: bool
    diagnostic: str


@dataclass(frozen=True)
class ForwardProcess:
    """Grid samples of a process built by forward accumulation.

    Unlike SamplePath this carries an arbitrary starting value, so drifted
    processes X(0) = x0 != 0 have a home; hurst is inherited from the
    driving path for downstream regularity checks.
    """

    grid: GridSpec
    values: np.ndarray
    hurst: Optional[float]

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size != self.grid.n_steps + 1:
            raise ValueError("values must hold one sample per grid node")
        if not np.isfinite(vals).all():
            raise ValueError("process values must be finite")

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    @property
    def dt(self) -> float:
        return self.grid.dt


def _grid_values(f, grid: GridSpec, name: str) -> np.ndarray:
    if isinstance(f, (SamplePath, ForwardProcess)):
        if abs(f.grid.t_max - grid.t_max) > 1e-12 * max(grid.t_max, 1.0) or (
            f.grid.n_steps != grid.n_steps
        ):
            raise ValueError(f"{name} lives on a different grid")
        return f.values
    if np.isscalar(f):
        return np.full(grid.n_steps + 1, float(f))
    vals = np.asarray(f, dtype=float)
    if vals.shape != (grid.n_steps + 1,):
        raise ValueError(f"{name} must provide one value per grid node")
    if not np.isfinite(vals).all():
        raise ValueError(f"{name} must be finite")
    return vals


def _shifted(values: np.ndarray, k: int) -> np.ndarray:
    # sample at s + k*h with endpoint clamping
    idx = np.clip(np.arange(values.size) + k, 0, values.size - 1)
    return values[idx]


def _ladder_result(levels, tol: float, label: str) -> IntegralResult:
    gap = abs(levels[-1][1] - levels[-2][1])
    converged = bool(gap <= tol)
    diag = f"{label}: last-level gap {gap:.3e} vs tolerance {tol:.3e}"
    return IntegralResult(levels[-1][1], tuple(levels), converged, diag)


def telescoping_tolerance(g: SamplePath, eps: EpsilonSchedule) -> float:
    """Boundary-error allowance for f = 1: 3 eps_last max|dg|/h.

    The clamped endpoint zones span one epsilon at each end, so the
    telescoping identity holds up to an average of |g - g(endpoint)| there;
    the steepest grid slope times 3 eps_last dominates it comfortably.
    """
    h = g.dt
    return 3.0 * eps.values[-1] * float(np.max(np.abs(np.diff(g.values)))) / h


def _quotient_ladder(f, g: SamplePath, eps, tol, kernel, label) -> IntegralResult:
    eps = eps if eps is not None else EpsilonSchedule.default_for(g.grid)
    fv = _grid_values(f, g.grid, "f")
    h = g.dt
    levels = []
    for e, k in zip(eps.values, eps.strides(g.grid)):
        est = float(np.trapezoid(fv * kernel(g.values, k, k * h), dx=h))
        levels.append((e, est))
    return _ladder_result(levels, tol, label)


def symmetric_integral(
    f, g: SamplePath, eps: Optional[EpsilonSchedule] = None, tol: float = CAUCHY_TOL
) -> IntegralResult:
    """(1/2 eps) int f(s) [g(s+eps) - g(s-eps)] ds over the epsilon ladder."""

    def kernel(gv, k, e):
        return (_shifted(gv, k) - _shifted(gv, -k)) / (2.0 * e)

    return _quotient_ladder(f, g, eps, tol, kernel, "symmetric")


def forward_integral(
    f, g: SamplePath, eps: Optional[EpsilonSchedule] = None, tol: float = CAUCHY_TOL
) -> IntegralResult:
    """(1/eps) int f(s) [g(s+eps) - g(s)] ds over the epsilon ladder.

    A single difference quotient; diverging ladders (small Hurst index)
    surface as converged=False rather than an error.
    """

    def kernel(gv, k, e):
        return (_shifted(gv, k) - gv) / e

    return _quotient_ladder(f, g, eps, tol, kernel, "forward")


def backward_integral(
    f, g: SamplePath, eps: Optional[EpsilonSchedule] = None, tol: float = CAUCHY_TOL
) -> IntegralResult:
    """(1/eps) int f(s) [g(s-eps) - g(s)] ds, kernel sign taken literally.

    With this orientation f = 1 telescopes to -(g(T) - g(0)); negate the
    result for the right-endpoint-sum reading.
    """

    def kernel(gv, k, e):
        return (_shifted(gv, -k) - gv) / e

    return _quotient_ladder(f, g, eps, tol, kernel, "backward")


def covariation(
    x: SamplePath, y: SamplePath, eps: Optional[EpsilonSchedule] = None, tol: float = CAUCHY_TOL
) -> IntegralResult:
    """(1/eps) int [x(u+eps) - x(u)][y(u+eps) - y(u)] du over the ladder."""
    yv = _grid_values(y, x.grid, "y")
    eps = eps if eps is not None else EpsilonSchedule.default_for(x.grid)
    h = x.dt
    levels = []
    for e, k in zip(eps.values, eps.strides(x.grid)):
        dx = _shifted(x.values, k) - x.values
        dy = _shifted(yv, k) - yv
        levels.append((e, float(np.trapezoid(dx * dy, dx=h)) / e))
    return _ladder_result(levels, tol, "covariation")


def riemann_stieltjes_integral(
    u: SamplePath, g: SamplePath, levels: int = 5, tol: float = 0.01
) -> IntegralResult:
    """Left-point Stieltjes sums of u against g at dyadic mesh coarsenings.

    The variation condition (index of u below 1/(1-H)) is probed with the
    variation-index estimator; a failed or impossible check is reported in
    the diagnostic and the sums are computed anyway, the condition being
    sufficient rather than necessary.  A constant u has bounded variation
    (p = 1 < 1/(1-H)) and is not probed.
    """
    uv = _grid_values(u, g.grid, "u")
    n = g.grid.n_steps
    if levels < 3:
        raise ValueError("need at least 3 mesh levels")
    if 2 ** (levels - 1) > n // 2:
        raise ValueError(f"{levels} dyadic levels need at least {2**levels} steps")
    notes = []
    if g.hurst is None:
        notes.append("variation condition unchecked: unknown Hurst index")
    elif np.ptp(uv) > 0.0:
        u_path = u if isinstance(u, SamplePath) else SamplePath(g.grid, uv - uv[0], None)
        try:
            p_u = 1.0 / variation_index(u_path).h_hat
            bound = 1.0 / (1.0 - g.hurst)
            if p_u >= bound:
                notes.append(
                    f"variation heuristic failed: p ~ {p_u:.2f} >= 1/(1-H) = {bound:.2f}"
                )
        except ValueError as exc:
            notes.append(f"variation heuristic unavailable: {exc}")
    lev = []
    for j in range(levels - 1, -1, -1):
        s = 2**j
        gv = g.values[::s]
        lev.append((s * g.dt, float(np.dot(uv[::s][:-1], np.diff(gv)))))
    res = _ladder_result(lev, tol, "riemann-stieltjes")
    if notes:
        res = IntegralResult(
            res.value, res.levels, res.converged, res.diagnostic + "; " + "; ".join(notes)
        )
    return res


def symmetric_forward_relation_check(
    f, g: SamplePath, eps: Optional[EpsilonSchedule] = None, tol: float = CAUCHY_TOL
):
    """Returns (symmetric, forward, cov, residual) on shared inputs.

    residual = symmetric - forward - 1/2 cov: the half factor is fixed by
    Brownian calibration, where symmetric sums give the midpoint value
    1/2 B(T)^2 and forward sums fall short of it by exactly half the
    quadratic variation.  The unhalved residual is what the literal
    statement of the identity would leave; it misses by -1/2 [X,Y] on
    Brownian input and is deliberately not used.
    """
    fv = _grid_values(f, g.grid, "f")
    sym = symmetric_integral(fv, g, eps, tol)
    fwd = forward_integral(fv, g, eps, tol)
    x_path = f if isinstance(f, (SamplePath, ForwardProcess)) else SamplePath(
        g.grid, fv - fv[0], None
    )
    cov = covariation(x_path, g, eps, tol)
    for name, res in (("symmetric", sym), ("forward", fwd), ("covariation", cov)):
        if not res.converged:
            raise ValueError(f"{name} ladder did not converge: {res.diagnostic}")
    residual = sym.value - fwd.value - 0.5 * cov.value
    return sym.value, fwd.value, cov.value, residual


def extended_forward_integral(
    f, g: SamplePath, eps_levels: int = 4, u_points: int = 48, tol: float = 0.02
) -> IntegralResult:
    """Gamma-weighted average of difference quotients over all shift scales.

    Evaluates (1/Gamma(eps)) int_0^T u^(eps-1) I(u) du for a ladder
    eps = 10^-1 .. 10^-eps_levels, where I(u) = int f(s)[g(s+u) - g(s)]/u ds.
    I is sampled on a geometric u-grid with exact cell weights
    d(u^eps)/Gamma(1+eps); below the grid spacing the linear interpolant
    makes I constant, so that mass is added in closed form.  As eps shrinks
    the weight concentrates at u = 0 and the value approaches the grid-scale
    forward quotient.
    """
    if eps_levels < 3:
        raise ValueError("need at least 3 epsilon levels")
    if eps_levels > 12:
        raise ValueError("epsilon ladder below 1e-12 underflows the weight differences")
    if u_points < 1:
        raise ValueError(f"u_points must be at least 1, got {u_points}")
    fv = _grid_values(f, g.grid, "f")
    h, T = g.dt, g.grid.t_max
    times, gv = g.times, g.values

    def inner(u: float) -> float:
        shifted = np.interp(times + u, times, gv)
        return float(np.trapezoid(fv * (shifted - gv), dx=h)) / u

    edges = h * (T / h) ** (np.arange(u_points + 1) / u_points)
    mids = np.sqrt(edges[:-1] * edges[1:])
    i_mid = np.array([inner(u) for u in mids])
    i_floor = inner(h)
    log_ratio = math.log(T / h) / u_points
    levels = []
    for j in range(1, eps_levels + 1):
        e = 10.0**-j
        cell = edges[:-1] ** e * math.expm1(e * log_ratio) / _gamma(1.0 + e)
        est = float(np.dot(cell, i_mid)) + i_floor * h**e / _gamma(1.0 + e)
        levels.append((e, est))
    return _ladder_result(levels, tol, "extended-forward")


def fractional_forward_process(x0: float, alpha, f, g: SamplePath) -> ForwardProcess:
    """X = x0 + int alpha dt + forward sums of f against g on the grid."""
    av = _grid_values(alpha, g.grid, "alpha")
    fv = _grid_values(f, g.grid, "f")
    incr = av[:-1] * g.dt + fv[:-1] * np.diff(g.values)
    values = np.concatenate(([x0], x0 + np.cumsum(incr)))
    if not np.isfinite(values).all():
        raise ValueError("accumulated process is not finite")
    return ForwardProcess(g.grid, values, g.hurst)


def fbm_ito_formula_check(g_fn, g_t, g_x, X: Union[SamplePath, ForwardProcess]):
    """Change of variables without a second-order term, valid for H > 1/2.

    lhs holds g(t, X(t)) - g(0, X(0)); rhs accumulates g_t dt + g_x dX with
    forward sums.  Zero quadratic variation above H = 1/2 is what removes
    the 1/2 g_xx correction; lower Hurst indices are rejected.
    Returns (lhs_path, rhs_path, max_gap).
    """
    if X.hurst is None or X.hurst <= 0.5:
        raise ValueError("the formula needs a known Hurst index above 1/2")
    t, xv = X.times, X.values
    gv = _eval2(g_fn, t, xv)
    lhs = gv - gv[0]
    incr = _eval2(g_t, t[:-1], xv[:-1]) * X.dt + _eval2(g_x, t[:-1], xv[:-1]) * np.diff(xv)
    if not (np.isfinite(lhs).all() and np.isfinite(incr).all()):
        raise ValueError("formula terms are not finite")
    rhs = np.concatenate(([0.0], np.cumsum(incr)))
    return lhs, rhs, float(np.max(np.abs(lhs - rhs)))


def integral_record(result: IntegralResult) -> dict:
    """JSON-ready form of a ladder result."""
    return {
        "value": result.value,
        "levels": [[e, v] for e, v in result.levels],
        "converged": result.converged,
        "diagnostic": result.diagnostic,
    }
