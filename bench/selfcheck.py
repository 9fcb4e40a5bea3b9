"""Show that every correctness check of the benchmark can fail.

    python3 bench/selfcheck.py

Each workload's checks first run on real outputs (a two-experiment verify, the
2^12 rung of long-path, a 1500-replicate ensemble-mc pass) and must all
pass.  Then, for every check, one output is replaced by a deliberately
wrong one (a path of the wrong Hurst index, an operator of the wrong
order, a tampered file, a row from the wrong stream, ...) and that check
must report failure.  Exits 0 only if every check was exercised and
caught its wrong input.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from fracbm import fbmintegrate as fi  # noqa: E402
from fracbm import fraccalc as fc  # noqa: E402
from fracbm import gaussianpaths as gp  # noqa: E402
from fracbm import itocalc as ic  # noqa: E402
from fracbm import pathstats as ps  # noqa: E402

from workloads import CliVerify, EnsembleMC, LongPath, Pass  # noqa: E402


class Report:
    def __init__(self):
        self.problems = []

    def baseline(self, workload: str, results) -> set:
        for c in results:
            if not c.ok:
                self.problems.append(f"{workload}: {c.name} fails on correct outputs: {c.detail}")
        return {c.name for c in results}

    def expect(self, name: str, results) -> None:
        hit = [c for c in results if c.name == name]
        if not hit:
            self.problems.append(f"{name}: not produced by the corrupted outputs")
        elif hit[0].ok:
            self.problems.append(f"{name}: missed a wrong input ({hit[0].detail})")
        else:
            print(f"caught  {name:<44} {hit[0].detail}")

    def covered(self, workload: str, names: set, exercised: set) -> None:
        for name in sorted(names - exercised):
            self.problems.append(f"{workload}: {name} was never given a wrong input")


def with_output(p: Pass, key: str, value) -> Pass:
    q = Pass()
    q.out = {**p.out, key: value}
    return q


def cli_verify(rep: Report, tmp: Path) -> None:
    # the checks of `fracbm verify` output (verify-suite, and E1-E3 in long-path),
    # on a two-experiment suite: same files, same checks
    wl = CliVerify("E2,E3", str(tmp), lambda name, fn: fn)
    p = Pass()
    wl.run(p)
    good = Path(wl.out_dir)

    def run_checks(d: Path, code: int):
        wl.out_dir = str(d)
        return wl.check(with_output(p, "exit_code", code))

    names = rep.baseline("cli-verify", run_checks(good, p.out["exit_code"]))

    def tampered(edit):
        d = tmp / f"verify-{edit.__name__}"
        shutil.copytree(good, d)
        edit(d)
        return d

    def fail_verdict(d):
        rec = json.loads((d / "E2.json").read_text())
        rec["verdict"] = "fail"
        (d / "E2.json").write_text(json.dumps(rec))

    def touch_record(d):
        with open(d / "E3.json", "a", encoding="utf-8") as fh:
            fh.write("\n")

    def drop_row(d):
        lines = (d / "summary.csv").read_text().splitlines(keepends=True)
        (d / "summary.csv").write_text("".join(lines[:-1]))

    rep.expect("cli-exit-code", run_checks(good, 1))
    rep.expect("records-pass", run_checks(tampered(fail_verdict), 0))
    rep.expect("manifest-hashes", run_checks(tampered(touch_record), 0))
    rep.expect("summary-rows", run_checks(tampered(drop_row), 0))
    rep.covered("cli-verify", names, {"cli-exit-code", "records-pass", "manifest-hashes", "summary-rows"})


def long_path(rep: Report, tmp: Path) -> None:
    n = 2**12
    wl = LongPath(1, str(tmp), lambda name, fn: fn)
    p = Pass()
    wl._rung(p, n)
    names = rep.baseline("long-path", wl._check_rung(p, n))
    k = f"{n}/"
    o = {key[len(k):]: v for key, v in p.out.items() if key.startswith(k)}
    g, b = o["fbm"], o["bm"]
    f = fc.GridFunction(0.0, 1.0, g.values)
    t = g.times
    rough = gp.generate_fbm_circulant(g.grid, 0.25, gp.RngSeed(1, 0))
    drifted = gp.SamplePath(g.grid, g.values + t, None)
    spec = lambda a, kind=fc.OperatorKind.INTEGRAL: fc.DifferintegralSpec(a, fc.Side.LEFT, kind)  # noqa: E731
    power = fc.GridFunction(0.0, 1.0, t**wl.beta)
    lossy_path, lossy_grid, bare_path = tmp / "lossy-path.csv", tmp / "lossy-grid.csv", tmp / "bare.csv"
    lossy_path.write_text("t,value\n" + "".join(f"{a:.10g},{v:.10g}\n" for a, v in zip(t, g.values)))
    lossy_grid.write_text("t,value\n" + "".join(f"{a:.10g},{v:.10g}\n" for a, v in zip(t, o["int-left"].values)))
    bare_path.write_text("".join(f"{a:.17g},{v:.17g}\n" for a, v in zip(t, g.values)))
    right_sum = float(np.dot(b.values[::4][1:], np.diff(b.values[::4])))
    wrong = {
        # the left-sided operator where the reflected right-sided one belongs
        "integral-reflection": ("int-right", o["int-left"]),
        "derivative-reflection": ("der-right", o["der-left"]),
        # integral against the time-reversed path
        "fractal-by-parts": ("fractal", fc.fractal_integral(fc.GridFunction(0.0, 1.0, t), f.reflected(), 0.5)),
        # wrong operator orders
        "unit-order-trapezoid": ("int-unit", fc.fractional_integral(f, spec(0.9))),
        "integral-closed-form": ("int-power", fc.fractional_integral(power, spec(0.6))),
        "derivative-closed-form": ("der-power", fc.fractional_derivative(power, spec(0.3, fc.OperatorKind.DERIVATIVE))),
        # estimates from a path of the wrong Hurst index
        "rescaled-range-band": ("rescaled-range", ps.rescaled_range_hurst(np.diff(rough.values))),
        "variation-index-band": ("variation-index", ps.variation_index(rough)),
        "holder-band": ("holder", ps.holder_exponent(rough)),
        # integrals against a path with a unit drift added
        "telescope-symmetric": ("symmetric", fi.symmetric_integral(1.0, drifted)),
        "telescope-forward": ("forward", fi.forward_integral(1.0, drifted)),
        "telescope-backward": ("backward", fi.backward_integral(1.0, drifted)),
        "telescope-stieltjes": ("stieltjes", fi.riemann_stieltjes_integral(1.0, drifted)),
        "telescope-extended": ("extended", fi.extended_forward_integral(1.0, drifted)),
        # right-endpoint sum in place of the Ito (left-endpoint) sum
        "ito-square-identity": ("ito", right_sum),
        # files written at 10 digits, or without the provenance header
        "path-csv-roundtrip": ("read-path", gp.read_path_csv(lossy_path)),
        "path-csv-metadata": ("read-path", gp.read_path_csv(bare_path)),
        "grid-csv-roundtrip": ("read-grid", fc.read_grid_csv(lossy_grid)),
        "grid-csv-domain": ("read-grid", fc.GridFunction(0.0, 2.0, o["int-left"].values)),
    }
    for name, (key, value) in wrong.items():
        rep.expect(k + name, wl._check_rung(with_output(p, k + key, value), n))
    rep.covered("long-path", names, {k + name for name in wrong})


class SmallEnsemble(EnsembleMC):
    reps = 1500


def ensemble_mc(rep: Report, tmp: Path) -> None:
    wl = SmallEnsemble(1, str(tmp), lambda name, fn: fn)
    p = Pass()
    wl.run(p)
    names = rep.baseline("ensemble-mc", wl.check(p))
    exercised = set()

    def expect(name, key, value):
        exercised.add(name)
        rep.expect(name, wl.check(with_output(p, key, value)))

    grid = wl.bm_grid
    for i, (key, kind, g, H) in enumerate(wl.plan):
        # the covariance of the ensemble drawn with the other Hurst index
        other = {"bm": "cholesky-H0.75"}.get(key) or key.replace(f"H{H}", f"H{1.0 - H}")
        expect(f"covariance/{key}", f"cov/{key}", p.out[f"cov/{other}"])
        draw = getattr(gp, f"generate_{kind}")
        for r in wl.rows:
            seed = gp.RngSeed(wl._root(i), r + 1)  # the neighbouring stream
            wrong = draw(g, seed) if kind == "bm" else draw(g, H, seed)
            expect(f"row-parity/{key}/{r}", f"single/{key}/{r}", wrong)
    ens = p.out["bm"]
    doubled = ic.isometry_check(ic.AdaptedIntegrand.constant(2.0), ens, grid)
    expect("isometry/constant-rhs", "isometry/constant", doubled)
    expect("isometry/constant-lhs", "isometry/constant", doubled)
    steeper = ic.isometry_check(ic.AdaptedIntegrand.deterministic(lambda s: 2.0 * s), ens, grid)
    expect("isometry/deterministic-rhs", "isometry/deterministic", steeper)
    expect("isometry/deterministic-lhs", "isometry/deterministic", steeper)
    expect("isometry/path-value-rhs", "isometry/path-value",
           ic.isometry_check(ic.AdaptedIntegrand.path_value(), 2.0 * ens, grid))
    drifted = ens + grid.times  # Brownian motion plus a unit drift
    for T in wl.endpoint_times:
        bad = ic.endpoint_comparison(drifted, grid, T)
        expect(f"endpoint/left-mean-T{T:g}", f"endpoint/{T:g}", bad)
        expect(f"endpoint/right-mean-T{T:g}", f"endpoint/{T:g}", bad)
    rep.covered("ensemble-mc", names, exercised)


def main() -> int:
    rep = Report()
    work = HERE.parent / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selfcheck-", dir=work) as tmp:
        cli_verify(rep, Path(tmp))
        long_path(rep, Path(tmp))
        ensemble_mc(rep, Path(tmp))
    for line in rep.problems:
        print(f"PROBLEM {line}")
    print("every check caught its wrong input" if not rep.problems else f"{len(rep.problems)} problems")
    return 1 if rep.problems else 0


if __name__ == "__main__":
    sys.exit(main())
