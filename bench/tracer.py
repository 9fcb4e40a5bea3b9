"""Spans around fracbm's public functions, installed from outside the package.

`Tracer.install()` replaces every public function of each layer module, in
every fracbm module namespace that holds it, with a wrapper that records a
span: name, layer, start, end and parent span.  Calls between layers
(`experiments` calling `gaussianpaths`, `fbmintegrate` calling `pathstats`)
and calls from the benchmark itself (through module attributes) therefore
nest.  Spans stay in memory until the run ends; nothing inside `src/` is
changed.  A layer's self time is the time of its spans minus the time of
their child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "experiments", "gaussianpaths", "fraccalc", "pathstats", "itocalc", "fbmintegrate")

#: paths drawn (an ensemble row counts as one path) and grid nodes transformed
_WORK = {
    "gaussianpaths.generate_bm": ("paths", lambda args, out: 1),
    "gaussianpaths.generate_fbm_cholesky": ("paths", lambda args, out: 1),
    "gaussianpaths.generate_fbm_circulant": ("paths", lambda args, out: 1),
    "gaussianpaths.generate_fbm_moving_average": ("paths", lambda args, out: 1),
    "gaussianpaths.bm_ensemble": ("paths", lambda args, out: out.shape[0]),
    "gaussianpaths.fbm_cholesky_ensemble": ("paths", lambda args, out: out.shape[0]),
    "gaussianpaths.fbm_circulant_ensemble": ("paths", lambda args, out: out.shape[0]),
    "gaussianpaths.fbm_moving_average_ensemble": ("paths", lambda args, out: out.shape[0]),
    "fraccalc.fractional_integral": ("nodes", lambda args, out: args[0].values.size),
    "fraccalc.fractional_derivative": ("nodes", lambda args, out: args[0].values.size),
    "fraccalc.fractal_integral": ("nodes", lambda args, out: args[0].values.size),
}

#: operators whose self time is also kept per grid size, for the scaling with n
_SCALED = ("fraccalc.fractional_integral", "fraccalc.fractional_derivative")

#: functions timed as one group, keyed by the group's metric prefix
GROUPS = {
    "gaussianpaths.csv": ("gaussianpaths.write_path_csv", "gaussianpaths.read_path_csv"),
    "fraccalc.csv": ("fraccalc.write_grid_csv", "fraccalc.read_grid_csv"),
}


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "child_s", "tag", "work")

    def __init__(self, name: str, layer: str, parent):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.child_s = 0.0
        self.tag = None
        self.work = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def record(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end, "parent": self.parent}


class Tracer:
    """Records nested spans; `install` wraps fracbm's public functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[dict, str, object]] = []

    def wrap(self, name: str, fn):
        """`fn` with a span named `name` (layer = the part before the first dot)."""
        layer = name.split(".", 1)[0]
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = _WORK.get(name)
        tagged = name == "experiments.run_experiment" or name in _SCALED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, layer, parent)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    spans[parent].child_s += span.end - span.start
            if work is not None:
                span.work = work[1](args, out)
            if tagged:
                span.tag = args[0] if layer == "experiments" else args[0].values.size - 1
            return out

        return traced

    def install(self) -> None:
        """Wrap each layer's public functions wherever a fracbm module holds them."""
        modules = [m for n, m in sys.modules.items() if n == "fracbm" or n.startswith("fracbm.")]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"fracbm.{layer}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for mod in modules:
            ns = vars(mod)
            for attr, obj in list(ns.items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((ns, attr, obj))
                    ns[attr] = hit[1]

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patched):
            ns[attr] = obj
        self._patched.clear()

    def totals(self, passes: int) -> tuple[dict, dict]:
        """(metrics, per-function rows) per pass, from every span recorded so far.

        Metrics: `<layer>.self_s`, `<layer>.calls`, `gaussianpaths.paths`,
        `fraccalc.nodes`, `experiments.E<k>_s` (inclusive), per-function
        `<layer>.<fn>.self_s`, the CSV groups, and `fraccalc.<op>.n<steps>_s`,
        the mean self time of one call on a grid of that many steps.
        """
        metrics = defaultdict(float)
        funcs = defaultdict(lambda: [0, 0.0])
        sized = defaultdict(lambda: [0, 0.0])
        for span in self.spans:
            own = span.duration - span.child_s
            metrics[f"{span.layer}.self_s"] += own
            metrics[f"{span.layer}.calls"] += 1
            row = funcs[span.name]
            row[0] += 1
            row[1] += own
            if span.work:
                metrics[f"{span.layer}.{_WORK[span.name][0]}"] += span.work
            if span.name == "experiments.run_experiment":
                metrics[f"experiments.{span.tag}_s"] += span.duration
            elif span.tag is not None:
                cell = sized[f"{span.name}.n{span.tag}_s"]
                cell[0] += 1
                cell[1] += own
        for name, (_, own) in funcs.items():
            metrics[f"{name}.self_s"] = own
        for group, members in GROUPS.items():
            metrics[f"{group}.self_s"] = sum(funcs[m][1] for m in members if m in funcs)
        per_pass = {k: v / passes for k, v in metrics.items()}
        per_pass.update({k: total / count for k, (count, total) in sized.items()})
        return per_pass, {name: (calls / passes, own / passes) for name, (calls, own) in funcs.items()}
