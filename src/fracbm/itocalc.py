"""Ito integration against Brownian paths by left-endpoint sums.

Adaptedness is enforced physically: integrand rules receive a PathPrefix
holding only the samples up to the evaluation time, and any request beyond
it raises AdaptednessError.  Integrands may also supply a vectorized
whole-grid evaluation for ensemble work; it must be causal (node k computed
from samples 0..k), which the stock constructors guarantee.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .gaussianpaths import GridSpec, SamplePath, Z_CONFIDENCE

__all__ = [
    "AdaptednessError",
    "PathPrefix",
    "AdaptedIntegrand",
    "SimpleProcess",
    "ItoProcess",
    "ito_integral",
    "endpoint_comparison",
    "isometry_check",
    "ito_integral_qv",
    "ito_formula_apply",
]

#: below this many replicates, ensemble confidence intervals are flagged as wide
REPLICATE_FLOOR = 1000


class AdaptednessError(RuntimeError):
    """An integrand asked for path information beyond its evaluation time."""


@dataclass(frozen=True)
class PathPrefix:
    """The path samples available at evaluation time: nodes t_0..t_k only."""

    times: np.ndarray
    values: np.ndarray

    @property
    def t(self) -> float:
        return float(self.times[-1])

    @property
    def latest(self) -> float:
        return float(self.values[-1])

    def value_at(self, t: float) -> float:
        if t > self.t + 1e-12 * max(self.t, 1.0):
            raise AdaptednessError(
                f"integrand requested the path at t={t}, beyond its prefix end {self.t}"
            )
        return float(np.interp(t, self.times, self.values))

    def up_to(self, t: float) -> "PathPrefix":
        if t > self.t + 1e-12 * max(self.t, 1.0):
            raise AdaptednessError(
                f"cannot extend a prefix ending at {self.t} forward to {t}"
            )
        k = int(np.searchsorted(self.times, t + 1e-12 * max(t, 1.0), side="right"))
        return PathPrefix(self.times[:k], self.values[:k])


@dataclass(frozen=True)
class AdaptedIntegrand:
    """Integrand rule (t, prefix) -> value, deterministic given its arguments.

    Square-integrability over the ensemble is the caller's obligation; it is
    not checkable from the rule.  grid_eval, when present, maps full node
    arrays (times, values) to per-node integrand values and must agree with
    rule node by node.
    """

    rule: Callable[[float, PathPrefix], float]
    grid_eval: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    @classmethod
    def constant(cls, c: float) -> "AdaptedIntegrand":
        return cls(lambda t, prefix: c, lambda times, values: np.full(times.shape, float(c)))

    @classmethod
    def deterministic(cls, fn: Callable[[float], float]) -> "AdaptedIntegrand":
        return cls(
            lambda t, prefix: float(fn(t)),
            lambda times, values: _eval2(lambda t, x: fn(t), times, values),
        )

    @classmethod
    def path_value(cls) -> "AdaptedIntegrand":
        """The integrand f(t, omega) = value of the path at t."""
        return cls(lambda t, prefix: prefix.latest, lambda times, values: values)

    def on_nodes(self, times: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Per-node integrand values, causally evaluated."""
        if self.grid_eval is not None:
            out = np.asarray(self.grid_eval(times, values), dtype=float)
        else:
            out = np.array(
                [
                    self.rule(float(times[k]), PathPrefix(times[: k + 1], values[: k + 1]))
                    for k in range(times.size)
                ]
            )
        if not np.isfinite(out).all():
            raise ValueError("integrand produced non-finite values")
        return out


@dataclass(frozen=True)
class SimpleProcess:
    """Step process sum e_i 1_[t_i, t_{i+1})(t) with e_i known at time t_i.

    rule(i, t_i, prefix) receives the path prefix truncated to t_i, so the
    e_i are adapted by construction.  Repeated partition times are allowed
    and contribute zero-length steps.
    """

    partition: np.ndarray
    rule: Callable[[int, float, PathPrefix], float]

    def __post_init__(self) -> None:
        part = np.asarray(self.partition, dtype=float)
        object.__setattr__(self, "partition", part)
        if part.size < 2 or np.any(np.diff(part) < 0):
            raise ValueError("partition must be nondecreasing with at least 2 times")

    def as_integrand(self) -> AdaptedIntegrand:
        part = self.partition

        def step_rule(t: float, prefix: PathPrefix) -> float:
            i = int(np.searchsorted(part, t + 1e-12 * max(abs(t), 1.0), side="right")) - 1
            i = max(min(i, part.size - 2), 0)
            return float(self.rule(i, float(part[i]), prefix.up_to(float(part[i]))))

        return AdaptedIntegrand(step_rule)


def _node_index(t: float, grid: GridSpec, what: str) -> int:
    k = int(round(t / grid.dt))
    if not 0 <= k <= grid.n_steps or abs(t - k * grid.dt) > 1e-9 * max(grid.t_max, 1.0):
        raise ValueError(f"{what} {t} does not lie on the path grid")
    return k


def _require_bm(path: SamplePath) -> None:
    if path.hurst != 0.5:
        raise ValueError("Ito sums integrate against Brownian paths (hurst 0.5)")


def ito_integral(
    f: AdaptedIntegrand, path: SamplePath, sub_partition=None
) -> float:
    """Left-endpoint sum of f against the path's increments.

    Evaluates sum f(t_i, prefix_i) [B(t_{i+1}) - B(t_i)] over the
    sub-partition, whose times must lie on grid nodes (the path's own grid
    by default).  The left endpoint is what makes the sum a martingale
    transform.
    """
    _require_bm(path)
    times, values = path.times, path.values
    if sub_partition is None:
        idx = np.arange(times.size)
    else:
        part = np.asarray(sub_partition, dtype=float)
        if part.size < 2 or np.any(np.diff(part) < 0):
            raise ValueError("sub-partition must be nondecreasing with at least 2 times")
        idx = np.array([_node_index(t, path.grid, "partition time") for t in part])
    left = idx[:-1]
    steps = values[idx[1:]] - values[left]
    if f.grid_eval is not None:
        e = f.on_nodes(times, values)[left]
    else:
        e = np.empty(left.size)
        for j, k in enumerate(left):
            e[j] = f.rule(float(times[k]), PathPrefix(times[: k + 1], values[: k + 1]))
        if not np.isfinite(e).all():
            raise ValueError("integrand produced non-finite values")
    return float(np.dot(e, steps))


def _check_ensemble(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim != 2 or v.shape[1] != grid.n_steps + 1:
        raise ValueError("ensemble must be a (replicates, nodes) array matching the grid")
    if v.shape[0] < REPLICATE_FLOOR:
        warnings.warn(
            f"{v.shape[0]} replicates give wide confidence intervals "
            f"(floor {REPLICATE_FLOOR})",
            stacklevel=3,
        )
    return v


def endpoint_comparison(values: np.ndarray, grid: GridSpec, T: float):
    """Ensemble means of left- and right-endpoint sums of B dB up to T.

    The endpoint choice is the whole difference: left sums average to 0,
    right sums to T.
    """
    v = _check_ensemble(values, grid)
    k = _node_index(T, grid, "T")
    if k < 1:
        raise ValueError("T must cover at least one step")
    steps = np.diff(v[:, : k + 1], axis=1)
    mean_left = float(np.mean(np.sum(v[:, :k] * steps, axis=1)))
    mean_right = float(np.mean(np.sum(v[:, 1 : k + 1] * steps, axis=1)))
    return mean_left, mean_right


def isometry_check(f: AdaptedIntegrand, values: np.ndarray, grid: GridSpec):
    """Ensemble test of E[(int f dB)^2] = E[int f^2 dt].

    Returns (lhs, rhs, ci) with ci a combined confidence half-width; the
    right side uses trapezoid quadrature, so its O(dt) discretization bias
    is separate from the Monte Carlo spread that ci measures.
    """
    v = _check_ensemble(values, grid)
    times = np.linspace(0.0, grid.t_max, grid.n_steps + 1)
    lhs_samples = np.empty(v.shape[0])
    rhs_samples = np.empty(v.shape[0])
    for r in range(v.shape[0]):
        e = f.on_nodes(times, v[r])
        lhs_samples[r] = np.dot(e[:-1], np.diff(v[r])) ** 2
        rhs_samples[r] = np.trapezoid(e**2, dx=grid.dt)
    lhs = float(np.mean(lhs_samples))
    rhs = float(np.mean(rhs_samples))
    n = v.shape[0]
    ci = Z_CONFIDENCE * math.sqrt(
        (np.var(lhs_samples, ddof=1) + np.var(rhs_samples, ddof=1)) / n
    )
    return lhs, rhs, ci


def ito_integral_qv(f: AdaptedIntegrand, path: SamplePath):
    """Quadratic variation of the running integral vs its compensator.

    Returns (qv, target): qv = sum (f_i dB_i)^2 and target = int f^2 dt on
    the same grid.
    """
    _require_bm(path)
    e = f.on_nodes(path.times, path.values)
    steps = np.diff(path.values)
    qv = float(np.sum((e[:-1] * steps) ** 2))
    target = float(np.trapezoid(e**2, dx=path.dt))
    return qv, target


@dataclass(frozen=True)
class ItoProcess:
    """Process X = x0 + int mu dt + int nu dB, accumulated on the driving grid."""

    x0: float
    drift: AdaptedIntegrand
    diffusion: AdaptedIntegrand
    driving_path: SamplePath

    def __post_init__(self) -> None:
        _require_bm(self.driving_path)

    def realize(self):
        """Node values of X and of the diffusion coefficient along the path."""
        path = self.driving_path
        mu = self.drift.on_nodes(path.times, path.values)
        nu = self.diffusion.on_nodes(path.times, path.values)
        db = np.diff(path.values)
        x = np.empty(path.values.size)
        x[0] = self.x0
        x[1:] = self.x0 + np.cumsum(mu[:-1] * path.dt + nu[:-1] * db)
        if not np.isfinite(x).all():
            raise ValueError("realized process is not finite")
        return x, nu


def _eval2(fn, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    try:
        out = np.asarray(fn(t, x), dtype=float)
        if out.shape == t.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([float(fn(tk, xk)) for tk, xk in zip(t, x)])


def ito_formula_apply(g, g_t, g_x, g_xx, process: ItoProcess):
    """Both sides of the change-of-variables formula for g(t, X(t)).

    lhs_path holds g(t_k, X_k) - g(0, X_0); rhs_path accumulates
    g_t dt + g_x dX + 1/2 g_xx nu^2 dt, which is what the second-order
    expansion leaves after dt*dt and dt*dB vanish and dB*dB turns into dt.
    """
    x, nu = process.realize()
    t = process.driving_path.times
    dt = process.driving_path.dt
    gv = _eval2(g, t, x)
    lhs = gv - gv[0]
    dx = np.diff(x)
    incr = (
        _eval2(g_t, t[:-1], x[:-1]) * dt
        + _eval2(g_x, t[:-1], x[:-1]) * dx
        + 0.5 * _eval2(g_xx, t[:-1], x[:-1]) * nu[:-1] ** 2 * dt
    )
    if not (np.isfinite(lhs).all() and np.isfinite(incr).all()):
        raise ValueError("formula terms are not finite")
    rhs = np.concatenate(([0.0], np.cumsum(incr)))
    return lhs, rhs
