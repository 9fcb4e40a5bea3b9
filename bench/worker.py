"""Run one workload in this process and print its result as one JSON line.

    python3 bench/worker.py --workload NAME --seed N --seconds S [--trace] [--setup-only]

`bench/run.py` starts this once per measurement in a fresh process.  The
first thing timed is the import of `fracbm.cli`, which loads every layer
and numpy, scipy and click: the set-up a CLI user pays on every run.
Passes over the work list then repeat while another pass fits in
`--seconds` (at least one pass); each pass's outputs are checked after its
timed region ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def import_fracbm() -> float:
    """Seconds taken to import the CLI module from this checkout's `src/`."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import fracbm.cli  # noqa: F401  (every layer, numpy, scipy, click)

    elapsed = time.perf_counter() - start
    origin = Path(sys.modules["fracbm"].__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"fracbm was imported from {origin}, not from {SRC}")
    return elapsed


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracer
    from workloads import WORKLOADS, Pass

    workdir = WORK / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tr = tracer.Tracer() if trace else None
    wl = WORKLOADS[workload](seed, str(workdir), tr.wrap if tr else (lambda name, fn: fn))
    walls, errors, bad_checks = [], [], []
    attempted = 0
    started = time.perf_counter()
    try:
        while True:
            p = Pass()
            if tr:
                tr.install()
            t0 = time.perf_counter()
            wl.run(p)
            walls.append(time.perf_counter() - t0)
            if tr:
                tr.uninstall()
            attempted += p.attempted
            errors += p.errors
            bad_checks += [f"{c.name}: {c.detail}" for c in wl.check(p) if not c.ok]
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / len(walls) > seconds:
                break
    finally:
        if tr:
            tr.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    out = {
        "wall_s": statistics.median(walls),
        "passes": walls,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
        "correct": not bad_checks,
        "bad_checks": bad_checks,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tr:
        # per-pass figures: every pass repeats the same work list
        out["layers"], funcs = tr.totals(len(walls))
        out["functions"] = dict(sorted(funcs.items()))
        spans_file = WORK / f"{workload}.spans.json"
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump([s.record() for s in tr.spans], fh)
        out["spans_file"] = str(spans_file.relative_to(ROOT))
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    setup_s = import_fracbm()
    out = {"setup_s": setup_s}
    if not args.setup_only:
        out.update(run(args.workload, args.seed, args.seconds, args.trace))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
