"""Ito integration against Brownian paths by left-endpoint sums.

Adaptedness is enforced physically: integrand rules receive a PathPrefix
holding only the samples up to the evaluation time, and any request beyond
it raises AdaptednessError.  Integrands may also supply a vectorized
whole-grid evaluation for ensemble work; it must be causal (node k computed
from samples 0..k), which the stock constructors guarantee.

Where a time lies on a grid is one rule (`_validate.nodes_through`, `coincide`): at a node
within 1e-9 of the larger time or of the grid step, never a unit of time, so prefixes, step
lookups and grid checks answer alike at every scale.  The one dimensioned comparison is
pathstats.empirical_acf's unit-spacing check, as the ACF is defined on unit-spaced increments.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._nodecalc import accumulate, binary_units, change_of_variables, eval2, from_binary_units
from ._validate import ensemble, finite, finite_rows, grid_steps, instance, nodes_through, partition, real
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

#: ensemble rows per block of endpoint_comparison and isometry_check: array
#: work per block, not per row, with no temporary the size of the whole ensemble
_ENSEMBLE_ROWS = 128


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
        return float(np.interp(self._reachable(t), self.times, self.values))

    def up_to(self, t: float) -> "PathPrefix":
        k = nodes_through(self.times, self._reachable(t))
        return PathPrefix(self.times[:k], self.values[:k])

    def _reachable(self, t: float) -> float:
        """t, if it lies at or before the prefix end; a later time raises AdaptednessError."""
        if not nodes_through((t,), self.t):
            raise AdaptednessError(f"integrand requested the path at t={t}, beyond its prefix end {self.t}")
        return t


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
    #: set by the stock constructors only: grid_eval takes a block of paths, one
    #: per row, and returns values that broadcast to the block
    _takes_rows: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        instance(self.rule, Callable, "rule")
        instance(self.grid_eval, (Callable, type(None)), "grid_eval")

    @classmethod
    def _stock(cls, rule, grid_eval) -> "AdaptedIntegrand":
        f = cls(rule, grid_eval)
        object.__setattr__(f, "_takes_rows", True)
        return f

    @classmethod
    def constant(cls, c: float) -> "AdaptedIntegrand":
        c = real(c, "c")
        return cls._stock(lambda t, prefix: c, lambda times, values: np.full(times.shape, c))

    @classmethod
    def deterministic(cls, fn: Callable[[float], float]) -> "AdaptedIntegrand":
        fn = instance(fn, Callable, "fn")
        # values are not read, so the times stand in for them
        return cls._stock(
            lambda t, prefix: float(fn(t)),
            lambda times, values: eval2(lambda t, x: fn(t), times, times),
        )

    @classmethod
    def path_value(cls) -> "AdaptedIntegrand":
        """The integrand f(t, omega) = value of the path at t."""
        return cls._stock(lambda t, prefix: prefix.latest, lambda times, values: values)

    def on_nodes(self, times: np.ndarray, values: np.ndarray, nodes=slice(None)) -> np.ndarray:
        """Integrand values at the node indices `nodes` (all by default), causally evaluated.

        grid_eval sees the whole grid and is then indexed; the rule is called
        once per selected node.
        """
        if self.grid_eval is not None:
            out = np.asarray(self.grid_eval(times, values), dtype=float)[nodes]
        else:
            out = np.array(
                [
                    self.rule(float(times[k]), PathPrefix(times[: k + 1], values[: k + 1]))
                    for k in np.arange(times.size)[nodes]
                ]
            )
        return finite(out, "integrand values")

    def _on_rows(self, times: np.ndarray, rows: np.ndarray) -> tuple:
        """on_nodes of each row of a block of paths, as one C-contiguous array in binary units, and e.

        A stock integrand evaluates the whole block in one call; any other is
        called one row at a time.  The array is C-contiguous either way, since
        a dot product over a broadcast layout rounds differently.
        """
        if self._takes_rows:
            out = np.array(np.broadcast_to(self.grid_eval(times, rows), rows.shape), float, order="C")
        else:
            out = np.array([self.on_nodes(times, x) for x in rows])
        return _finite_units(out, lambda v: finite(v, "integrand values"), out)


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
        object.__setattr__(self, "partition", partition(self.partition, "partition"))
        instance(self.rule, Callable, "rule")

    def as_integrand(self) -> AdaptedIntegrand:
        part = self.partition

        def step_rule(t: float, prefix: PathPrefix) -> float:
            i = min(nodes_through(part, t), part.size - 1) - 1
            if i < 0:
                return 0.0  # the step process is zero before its first time
            return float(self.rule(i, float(part[i]), prefix.up_to(float(part[i]))))

        return AdaptedIntegrand(step_rule)


def _require_bm(path: SamplePath, name: str = "path") -> None:
    if instance(path, SamplePath, name).hurst != 0.5:
        raise ValueError("Ito sums integrate against Brownian paths (hurst 0.5)")


def ito_integral(f: AdaptedIntegrand, path: SamplePath, sub_partition=None) -> float:
    """Left-endpoint sum of f against the path's increments.

    Evaluates sum f(t_i, prefix_i) [B(t_{i+1}) - B(t_i)] over the
    sub-partition, whose times must lie on grid nodes (the path's own grid
    by default).  The left endpoint is what makes the sum a martingale
    transform.
    """
    _require_bm(path)
    part = path.times if sub_partition is None else partition(sub_partition, "sub_partition")
    idx = grid_steps(part, path.dt, "partition time", 0, path.grid.n_steps)
    left = idx[:-1]
    steps = path.values[idx[1:]] - path.values[left]
    e, ee = binary_units(instance(f, AdaptedIntegrand, "f").on_nodes(path.times, path.values, left))
    steps, es = binary_units(steps)
    return from_binary_units(float(np.dot(e, steps)), ee + es, "the Ito integral")


def _finite_units(a: np.ndarray, refuse, out: np.ndarray) -> tuple:
    """a times 2^-e, written to out, and e, the binary exponent of max|a| but at least -1022, so 2^-e is a float.
    max|a| is finite only where every entry is, so where it is not, refuse(a) raises naming the fault."""
    top = max(float(np.max(a)), -float(np.min(a)))
    if not math.isfinite(top):
        refuse(a)
    e = max(math.frexp(top)[1], -1022)
    return np.multiply(a, math.ldexp(1.0, -e), out=out), e


def _check_ensemble(values: np.ndarray, grid: GridSpec, what: str, least: int):
    """The replicate count and an iterator over (rows, block, block in units of 2^e, e).

    A shape that does not match the grid, or fewer than `least` rows, raises
    at once.  Each block is checked to be finite as it is reached, and the
    replicate-floor warning comes only once every block has been, so a call
    that fails warns of nothing.  The scaled blocks share one buffer, which
    the next block overwrites.
    """
    v = ensemble(values, what, least, instance(grid, GridSpec, "grid").n_steps + 1)
    n = v.shape[0]

    def blocks():
        buffer = np.empty((min(n, _ENSEMBLE_ROWS), v.shape[1]))
        for lo in range(0, n, _ENSEMBLE_ROWS):
            block = v[lo : lo + _ENSEMBLE_ROWS]
            x, e = _finite_units(block, lambda b: finite_rows(b, what, lo), buffer[: len(block)])
            yield slice(lo, lo + len(block)), block, x, e
        if n < REPLICATE_FLOOR:
            warnings.warn(
                f"{n} replicates give wide confidence intervals (floor {REPLICATE_FLOOR})",
                stacklevel=3,
            )

    return n, blocks()


def endpoint_comparison(values: np.ndarray, grid: GridSpec, T: float):
    """Ensemble means of left- and right-endpoint sums of B dB up to T.

    The endpoint choice is the whole difference: left sums average to 0,
    right sums to T.  Each block's sums are formed in units of a power of two
    at its largest value, so a mean past the float range raises naming it.
    """
    n, blocks = _check_ensemble(values, grid, "endpoint_comparison", 1)
    k = int(grid_steps(real(T, "T", 0.0, closed=True), grid.dt, "T", 0, grid.n_steps))
    if k < 1:
        raise ValueError("T must cover at least one step")
    sums = np.empty((2, n))  # left and right
    units = np.empty(n, int)
    for rows, _, x, e in blocks:
        steps = np.diff(x[:, : k + 1], axis=1)
        sums[:, rows] = np.sum(x[:, :k] * steps, axis=1), np.sum(x[:, 1 : k + 1] * steps, axis=1)
        units[rows] = 2 * e
    top = int(units.max())  # every sum in units of 2^top, the largest of the rows' units
    left, right = (float(np.mean(s)) for s in np.ldexp(sums, units - top))
    left = from_binary_units(left, top, "the mean left-endpoint sum")
    return left, from_binary_units(right, top, "the mean right-endpoint sum")


def isometry_check(f: AdaptedIntegrand, values: np.ndarray, grid: GridSpec):
    """Ensemble test of E[(int f dB)^2] = E[int f^2 dt].

    Returns (lhs, rhs, ci) with ci a combined confidence half-width; the
    right side uses trapezoid quadrature, so its O(dt) discretization bias
    is separate from the Monte Carlo spread that ci measures.  Each block's
    samples are formed in units of powers of two at the largest integrand and
    path values, so a result past the float range raises naming it.
    """
    n, blocks = _check_ensemble(values, grid, "isometry_check", 2)
    on_rows = instance(f, AdaptedIntegrand, "f")._on_rows
    times = grid.times
    dx, edt = math.frexp(grid.dt)  # the step in units of 2^edt
    samples = np.empty((2, n))  # lhs and rhs
    units = np.empty((2, n), int)
    for rows, block, x, ex in blocks:
        e, ef = on_rows(times, block)
        # one dot product per row, the ddot that np.dot makes for a single row
        dots = np.matmul(e[:, None, :-1], np.diff(x, axis=1)[:, :, None])[:, 0, 0]
        samples[:, rows] = dots**2, np.trapezoid(e**2, dx=dx, axis=1)
        units[0, rows], units[1, rows] = 2 * (ef + ex), 2 * ef + edt
    # each side in units of 2^top, the largest of its own rows' units, so a side far
    # below the other keeps its digits
    tops = units.max(axis=1)
    lhs, rhs = np.ldexp(samples, units - tops[:, None])
    # the variances sum in units of 2^T, T even and at the larger one, so a variance
    # of 0 (f not depending on the path) does not take the other out of the float range
    var = [(float(np.var(s, ddof=1)), 2 * top) for s, top in zip((lhs, rhs), tops.tolist())]
    T = max((u + math.frexp(v)[1] for v, u in var if v > 0), default=0)
    T += T % 2
    ci = Z_CONFIDENCE * math.sqrt(sum(math.ldexp(v, u - T) for v, u in var) / n)
    values = (float(np.mean(lhs)), float(np.mean(rhs)), ci)
    names = ("the mean squared integral", "the mean integral of f squared", "the confidence half-width")
    return tuple(from_binary_units(v, e, name) for v, e, name in zip(values, (*tops.tolist(), T // 2), names))


def ito_integral_qv(f: AdaptedIntegrand, path: SamplePath):
    """Quadratic variation of the running integral vs its compensator.

    Returns (qv, target): qv = sum (f_i dB_i)^2 and target = int f^2 dt on
    the same grid.
    """
    _require_bm(path)
    e, ee = binary_units(instance(f, AdaptedIntegrand, "f").on_nodes(path.times, path.values))
    steps, es = binary_units(np.diff(path.values))
    qv = from_binary_units(float(np.sum((e[:-1] * steps) ** 2)), 2 * (ee + es), "the quadratic variation")
    target = from_binary_units(float(np.trapezoid(e**2, dx=path.dt)), 2 * ee, "the integral of f squared")
    return qv, target


@dataclass(frozen=True)
class ItoProcess:
    """Process X = x0 + int mu dt + int nu dB, accumulated on the driving grid."""

    x0: float
    drift: AdaptedIntegrand
    diffusion: AdaptedIntegrand
    driving_path: SamplePath

    def __post_init__(self) -> None:
        real(self.x0, "x0")
        for name in ("drift", "diffusion"):
            instance(getattr(self, name), AdaptedIntegrand, name)
        _require_bm(self.driving_path, "driving_path")

    def realize(self):
        """Node values of X and of the diffusion coefficient along the path."""
        path = self.driving_path
        mu = self.drift.on_nodes(path.times, path.values)
        nu = self.diffusion.on_nodes(path.times, path.values)
        return accumulate(self.x0, mu, path.dt, nu, np.diff(path.values)), nu


def ito_formula_apply(g, g_t, g_x, g_xx, process: ItoProcess):
    """Both sides of the change-of-variables formula for g(t, X(t)).

    lhs_path holds g(t_k, X_k) - g(0, X_0); rhs_path accumulates
    g_t dt + g_x dX + 1/2 g_xx nu^2 dt, which is what the second-order
    expansion leaves after dt*dt and dt*dB vanish and dB*dB turns into dt.
    """
    x, nu = instance(process, ItoProcess, "process").realize()
    t = process.driving_path.times
    dt = process.driving_path.dt
    second_order = 0.5 * eval2(g_xx, t[:-1], x[:-1], "g_xx") * nu[:-1] ** 2 * dt
    return change_of_variables(g, g_t, g_x, t, x, dt, second_order)
