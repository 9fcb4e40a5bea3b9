"""Argument checks shared by the public entry points of every module.

Each check returns the value it accepts, as the type the caller computes
with, or raises ValueError("<name> must <rule>, got <value>").  A bool is
never a number here, although Python counts it as an int.  An object
parameter (a grid, a seed, a path, an integrand, a callable) is checked by
`instance` where it is first used, inside the expression that uses it, so a
wrong class is named before any attribute of it is read.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


def integer(v, name: str, least: int = 0, most: int | None = None) -> int:
    """v as an int if it is an integer in [least, most]."""
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        if least <= v and (most is None or v <= most):
            return int(v)
    rule = "a positive integer" if least == 1 else f"an integer of at least {least}"
    if most is not None:
        rule = f"an integer in [{least}, {most}]"
    raise ValueError(f"{name} must be {rule}, got {v!r}")


def real(x, name: str, lo=-math.inf, hi=math.inf, closed: bool = False, rule: str = "") -> float:
    """x as a float if it is a finite real number between lo and hi.

    The bounds themselves are accepted only when closed is set.  rule
    replaces the wording the bounds give.
    """
    if isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x):
        if (lo <= x <= hi) if closed else (lo < x < hi):
            return float(x)
    raise ValueError(f"{name} must {rule or _wording(lo, hi, closed)}, got {x!r}")


def _wording(lo, hi, closed: bool) -> str:
    if hi < math.inf:
        return f"lie in {'(['[closed]}{lo:g}, {hi:g}{')]'[closed]}"
    if lo == 0.0:
        return "be finite and nonnegative" if closed else "be positive and finite"
    if lo > -math.inf:
        return f"be finite and {'at least' if closed else 'above'} {lo!r}"
    return "be finite and real"


def instance(obj, cls, name: str):
    """obj if it is an instance of cls, a class or a tuple of classes."""
    if isinstance(obj, cls):
        return obj
    names = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
    article = "an" if names[0] in "AEIOU" else "a"
    raise ValueError(f"{name} must be {article} {names}, got {obj!r:.60}")


def hurst(H, name: str = "H") -> float:
    """H as a float if it is a Hurst index, a real number in (0, 1)."""
    return real(H, name, 0.0, 1.0, rule="be a Hurst index in (0, 1)")


def reals(values, name: str) -> np.ndarray:
    """values as a float array, finite or not, if no entry is a bool.

    Float conversion reads a bool as 0 or 1, so input other than an integer
    or float array is scanned for bools entry by entry.
    """
    numeric = isinstance(values, np.ndarray) and values.dtype.kind in "iuf"
    try:
        v = np.asarray(values, dtype=float)
        if not numeric and any(isinstance(x, (bool, np.bool_)) for x in np.asarray(values, object).flat):
            raise TypeError
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be real numbers, got {values!r:.60}") from None
    return v


def finite(values, name: str) -> np.ndarray:
    """values as a float array whose entries are all finite."""
    v = reals(values, name)
    ok = np.isfinite(v)
    if not ok.all():
        raise ValueError(f"{name} must be finite, got {v[~ok][0]}")
    return v


def ensemble(values, what: str, least: int, nodes: int | None = None) -> np.ndarray:
    """values as a float array of at least `least` rows, each of `nodes` entries if given."""
    v = reals(values, "values")
    if v.ndim != 2 or nodes is not None and v.shape[1] != nodes:
        raise ValueError(f"values must be a (replicates, nodes) array, got shape {v.shape}")
    if v.shape[0] < least:
        plural = "s" * (least > 1)
        raise ValueError(f"{what} needs at least {least} replicate{plural}, got {v.shape[0]}")
    return v


def finite_rows(rows: np.ndarray, what: str, first: int = 0) -> None:
    """Raise naming the first row with a non-finite entry, rows counted from first."""
    ok = np.isfinite(rows).all(axis=1)
    if not ok.all():
        row = first + int(np.argmin(ok))
        raise ValueError(f"{what}: ensemble values must be finite, row {row} is not")


def node_values(values, n_steps: int, name: str) -> np.ndarray:
    """values as a float array of one finite sample per node of an n_steps grid."""
    v = finite(values, name)
    if v.shape != (n_steps + 1,):
        raise ValueError(f"{name} must hold one sample per grid node, got shape {v.shape}")
    return v


def partition(times, name: str) -> np.ndarray:
    """times as a float array of at least 2 finite, nondecreasing entries."""
    part = finite(times, f"{name} times")
    if part.ndim != 1 or part.size < 2 or (np.diff(part) < 0).any():
        raise ValueError(f"{name} must be nondecreasing with at least 2 times, got {part!r:.60}")
    return part


#: a time lies at a node within this share of the larger time or of the grid step: rounding, never a unit
_ROUNDING = 1e-9


def nodes_through(times, t) -> int:
    """How many of the sorted times lie at or before t, up to rounding; a product keeps -inf at -inf."""
    return int(np.searchsorted(times, t * (1.0 + math.copysign(_ROUNDING, t)), side="right"))


def coincide(t, s) -> bool:
    """Whether the times t and s, two scalars or two arrays, agree up to rounding."""
    return bool((np.abs(np.subtract(t, s)) <= _ROUNDING * np.max(np.abs([t, s]))).all())


def grid_steps(t, h: float, name: str, least: int = 0, most=math.inf) -> np.ndarray:
    """t / h as integers in [least, most] if every t lies at a grid node up to rounding."""
    t = np.asarray(t, dtype=float)
    k = np.rint(t / h)
    off = (k < least) | (k > most) | (np.abs(t - k * h) > _ROUNDING * np.maximum(np.abs(t), h))
    if off.any():
        raise ValueError(f"{name} must be {least} to {most} grid steps of {h!r}, got {t[off][0]}")
    return k.astype(int)


#: the dyadic meshes of variation sums and Stieltjes ladders in grid steps, coarsest first
DYADIC_STRIDES = (16, 8, 4, 2, 1)


def dyadic_strides(n_steps: int) -> tuple:
    """DYADIC_STRIDES if the coarsest of the 5 meshes fits n_steps twice."""
    if n_steps < 32:
        raise ValueError(f"5 dyadic levels need a path of at least 32 steps, got {n_steps} steps")
    return DYADIC_STRIDES
