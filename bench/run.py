"""fracbm benchmark: run workloads in fresh processes, check outputs, print metrics.

    python3 bench/run.py [--workload verify-suite|long-path|ensemble-mc|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Untraced (`--trace 0`) a run reports the end-to-end metrics `wall_s`,
`setup_s` and `peak_rss_mib`.  Traced (`--trace 1`) it runs the workload
once untraced and once with spans around every public fracbm function, and
reports per-layer metrics plus the tracing overhead.  Each workload prints
its metrics by name with units, then one JSON line:
{"correct", "attempted", "failed", "metrics"}.  The last line of output is
the JSON line of the last workload run.  Run from the repository root; the
program is imported from `src/`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-suite", "long-path", "ensemble-mc")
DEFAULT_SEED = 1
#: set-up is timed in this many fresh processes per run (the workload's own included)
SETUP_SAMPLES = 5
#: one BLAS/OpenMP thread: steadier timings on a small shared machine
THREADS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
#: workers still running this long after a workload's run started are killed,
#: so a run ends (with an error) inside 180 s
RUN_LIMIT_S = 175

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))
PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(f"{layer}.calls", "count") for layer in LAYERS]
    + [("gaussianpaths.paths", "count"), ("fraccalc.nodes", "count")]
    # E4-E12 and ito_formula_apply run only in verify-suite, which BENCHMARK.json
    # does not gate; a traced verify-suite run prints them among the other figures
    + [(f"experiments.E{k}_s", "s") for k in range(1, 4)]
    + [(f"{name}.self_s", "s") for name in (
        "pathstats.rescaled_range_hurst", "pathstats.variation_index",
        "itocalc.ito_integral", "itocalc.isometry_check",
        "gaussianpaths.bm_ensemble", "gaussianpaths.fbm_cholesky_ensemble",
        "gaussianpaths.fbm_circulant_ensemble", "gaussianpaths.fbm_moving_average_ensemble",
        "gaussianpaths.generate_fbm_circulant", "gaussianpaths.generate_bm",
        "fraccalc.fractional_integral", "fraccalc.fractional_derivative", "fraccalc.fractal_integral",
        "gaussianpaths.csv", "fraccalc.csv", "fbmintegrate.extended_forward_integral",
    )]
    # mean self time of one call at each long-path grid size
    + [(f"fraccalc.{op}.n{n}_s", "s") for op in ("fractional_integral", "fractional_derivative")
       for n in (4096, 16384, 65536)]
    + [("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
       ("trace.unattributed_s", "s")]
)


class WorkerError(RuntimeError):
    pass


def worker(workload: str, seed: int, seconds: float, deadline: float, *flags: str) -> dict:
    """Run worker.py in a fresh process and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), *flags]
    env = {**os.environ, **THREADS}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload} ran past {RUN_LIMIT_S} s; worker stopped") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_untraced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    setups = [worker(workload, seed, seconds, deadline, "--setup-only")["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    res = worker(workload, seed, seconds, deadline)
    setups.append(res["setup_s"])
    values = {"wall_s": res["wall_s"], "setup_s": statistics.median(setups), "peak_rss_mib": res["peak_rss_mib"]}
    return {"runs": [res], "metrics": {name: (values[name], unit) for name, unit in END_TO_END}}


def run_traced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    plain = worker(workload, seed, seconds, deadline)
    traced = worker(workload, seed, seconds, deadline, "--trace")
    layers = traced["layers"]
    traced_wall = traced["wall_s"]
    own = sum(layers.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
    values = {
        **layers,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": plain["wall_s"],
        "trace.overhead_s": traced_wall - plain["wall_s"],
        # benchmark code inside the timed pass: input set-up and result bookkeeping
        "trace.unattributed_s": statistics.fmean(traced["passes"]) - own,
    }
    for name, (calls, self_s) in traced["functions"].items():
        print(f"#   {name:<50} {calls:>10.0f} calls {self_s:>12.6f} s self")
    gated = {name for name, _ in PER_LAYER}
    for name in (f"experiments.E{k}_s" for k in range(1, 13)):
        if name in layers and name not in gated:
            print(f"#   {name:<50} {layers[name]:>12.6f} s")
    print(f"#   spans written to {traced['spans_file']}")
    return {"runs": [plain, traced],
            "metrics": {name: (values.get(name, 0.0), unit) for name, unit in PER_LAYER}}


def report(workload: str, result: dict) -> dict:
    runs = result["runs"]
    for res in runs:
        for line in res["errors"] + res["bad_checks"]:
            print(f"{workload}: {line}", file=sys.stderr)
    for name, (value, unit) in result["metrics"].items():
        print(f"# {workload} {name} = {value:.6g} {unit}")
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="fracbm benchmark")
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (ROOT / "src" / "fracbm" / "__init__.py").is_file():
        print(f"no fracbm sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    measure = run_traced if args.trace else run_untraced
    for name in names:
        try:
            line = report(name, measure(name, args.seed, args.seconds, time.monotonic() + RUN_LIMIT_S))
        except WorkerError as exc:
            print(exc, file=sys.stderr)
            return 1
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
