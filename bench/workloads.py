"""The benchmark's three workloads: a fixed work list per pass, and its checks.

All three are closed loops in one process: each operation starts when the
previous one has returned.  Inputs come from the workload seed alone
(runs of `fracbm verify` keep the experiments' frozen seeds), so a seed
fixes every output, and every pass repeats the same operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import shutil

import numpy as np
import scipy.integrate

from fracbm import cli, experiments
from fracbm import fbmintegrate as fi
from fracbm import fraccalc as fc
from fracbm import gaussianpaths as gp
from fracbm import itocalc as ic
from fracbm import pathstats as ps

import checks as ck


class Pass:
    """One pass over a work list: outputs by key, operations attempted, failures."""

    def __init__(self):
        self.out = {}
        self.attempted = 0
        self.errors = []

    def op(self, key: str, fn):
        """Run one operation; a failure is recorded and the pass goes on."""
        self.attempted += 1
        try:
            self.out[key] = fn()
        except Exception as exc:  # counted as a failed operation, reported by the caller
            self.errors.append(f"{key}: {type(exc).__name__}: {exc}")
        return self.out.get(key)

    def has(self, *keys) -> bool:
        return all(k in self.out for k in keys)


# -- verify-suite --------------------------------------------------------------


class CliVerify:
    """`fracbm verify --suite <suite>` in-process through the CLI entry point.

    The experiments' seeds, sizes and replicate counts are frozen, so no
    workload seed reaches them.  One operation is one experiment.
    """

    def __init__(self, suite: str, workdir: str, wrap):
        self.suite = suite
        self.ids = tuple(experiments.EXPERIMENTS) if suite == "all" else tuple(suite.split(","))
        self.out_dir = os.path.join(workdir, "verify-out")
        self.entry = wrap("cli.main", cli.main.main)

    def run(self, p: Pass) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        args = ["verify", "--suite", self.suite, "--out", self.out_dir]
        p.attempted += len(self.ids)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rv = self.entry(args=args, prog_name="fracbm", standalone_mode=False)
        except Exception as exc:  # the whole suite failed to run
            p.errors += [f"{eid}: cli raised {type(exc).__name__}: {exc}" for eid in self.ids]
            return
        p.out["exit_code"] = 0 if rv is None else rv
        for eid in self.ids:
            try:
                with open(os.path.join(self.out_dir, f"{eid}.json"), encoding="utf-8") as fh:
                    verdict = json.load(fh)["verdict"]
            except (OSError, ValueError, KeyError):
                verdict = "missing"
            if verdict in ("error", "missing"):
                p.errors.append(f"{eid}: {verdict}")

    def check(self, p: Pass) -> list:
        if not p.has("exit_code"):
            return []
        d = self.out_dir
        res = [ck.verify_exit(p.out["exit_code"])]
        for name, fn in (("records-pass", lambda: ck.verify_records(d, self.ids)),
                         ("manifest-hashes", lambda: ck.verify_manifest(d)),
                         ("summary-rows", lambda: ck.verify_summary(d, self.ids))):
            try:
                res.append(fn())
            except (OSError, ValueError, KeyError) as exc:  # unreadable or malformed output files
                res.append(ck.Check(name, False, f"{type(exc).__name__}: {exc}"))
        return res


class VerifySuite(CliVerify):
    """The whole suite, `fracbm verify --suite all`: the end-to-end check users run."""

    name = "verify-suite"

    def __init__(self, seed: int, workdir: str, wrap):
        super().__init__("all", workdir, wrap)


# -- long-path -----------------------------------------------------------------


class LongPath:
    """One path per size through every single-path operation.

    At 2^16 steps the O(n^2) convolutions in `fraccalc` dominate; the
    closed-form and unit-order checks run on the two smaller rungs only,
    which keeps a pass near 15 s on a 2-CPU machine.  Each pass also runs
    the fractional-operator experiments E1-E3 through the CLI, so the `cli`
    and `experiments` layers are measured on this workload too.
    """

    name = "long-path"
    sizes = (2**12, 2**14, 2**16)
    closed_form_sizes = (2**12, 2**14)
    hurst = 0.75
    int_order = 0.5
    der_order = 0.4
    ito_stride = 4
    suite = "E1,E2,E3"

    def __init__(self, seed: int, workdir: str, wrap):
        self.seed = seed
        self.workdir = workdir
        # power of the closed-form input t**beta; kept where its second derivative is mild
        self.beta = random.Random(seed).uniform(1.25, 1.75)
        self.verify = CliVerify(self.suite, workdir, wrap)

    def run(self, p: Pass) -> None:
        self.verify.run(p)
        for n in self.sizes:
            self._rung(p, n)

    def _rung(self, p: Pass, n: int) -> None:
        grid = gp.GridSpec(1.0, n)
        t = grid.times
        left_i = fc.DifferintegralSpec(self.int_order, fc.Side.LEFT, fc.OperatorKind.INTEGRAL)
        right_i = fc.DifferintegralSpec(self.int_order, fc.Side.RIGHT, fc.OperatorKind.INTEGRAL)
        left_d = fc.DifferintegralSpec(self.der_order, fc.Side.LEFT, fc.OperatorKind.DERIVATIVE)
        right_d = fc.DifferintegralSpec(self.der_order, fc.Side.RIGHT, fc.OperatorKind.DERIVATIVE)
        k = f"{n}/"
        g = p.op(k + "fbm", lambda: gp.generate_fbm_circulant(grid, self.hurst, gp.RngSeed(self.seed, 2 * n)))
        b = p.op(k + "bm", lambda: gp.generate_bm(grid, gp.RngSeed(self.seed, 2 * n + 1)))

        def path_fn():
            return fc.GridFunction(0.0, 1.0, g.values)

        p.op(k + "int-left", lambda: fc.fractional_integral(path_fn(), left_i))
        p.op(k + "int-right", lambda: fc.fractional_integral(path_fn().reflected(), right_i))
        p.op(k + "der-left", lambda: fc.fractional_derivative(path_fn(), left_d))
        p.op(k + "der-right", lambda: fc.fractional_derivative(path_fn().reflected(), right_d))
        p.op(k + "fractal", lambda: fc.fractal_integral(fc.GridFunction(0.0, 1.0, t), path_fn(), 0.5))
        if n in self.closed_form_sizes:
            power = fc.GridFunction(0.0, 1.0, t**self.beta)
            unit = fc.DifferintegralSpec(1.0, fc.Side.LEFT, fc.OperatorKind.INTEGRAL)
            p.op(k + "int-unit", lambda: fc.fractional_integral(path_fn(), unit))
            p.op(k + "int-power", lambda: fc.fractional_integral(power, left_i))
            p.op(k + "der-power", lambda: fc.fractional_derivative(power, left_d))
        p.op(k + "rescaled-range", lambda: ps.rescaled_range_hurst(np.diff(g.values)))
        p.op(k + "variation-index", lambda: ps.variation_index(g))
        p.op(k + "holder", lambda: ps.holder_exponent(g))
        p.op(k + "symmetric", lambda: fi.symmetric_integral(1.0, g))
        p.op(k + "forward", lambda: fi.forward_integral(1.0, g))
        p.op(k + "backward", lambda: fi.backward_integral(1.0, g))
        p.op(k + "stieltjes", lambda: fi.riemann_stieltjes_integral(1.0, g))
        p.op(k + "extended", lambda: fi.extended_forward_integral(1.0, g))
        p.op(k + "ito", lambda: ic.ito_integral(
            ic.AdaptedIntegrand.path_value(), b, sub_partition=b.times[:: self.ito_stride]))
        path_csv = os.path.join(self.workdir, f"path-{n}.csv")
        grid_csv = os.path.join(self.workdir, f"grid-{n}.csv")
        p.op(k + "write-path", lambda: gp.write_path_csv(g, path_csv))
        p.op(k + "read-path", lambda: gp.read_path_csv(path_csv))
        p.op(k + "write-grid", lambda: fc.write_grid_csv(p.out[k + "int-left"], grid_csv))
        p.op(k + "read-grid", lambda: fc.read_grid_csv(grid_csv))

    def check(self, p: Pass) -> list:
        out = self.verify.check(p)
        for n in self.sizes:
            out += self._check_rung(p, n)
        return out

    def _check_rung(self, p: Pass, n: int) -> list:
        k = f"{n}/"
        o = {key[len(k):]: v for key, v in p.out.items() if key.startswith(k)}
        have = lambda *keys: all(key in o for key in keys)  # noqa: E731
        res = []
        t = np.linspace(0.0, 1.0, n + 1)
        H = self.hurst
        if have("int-left", "int-right"):
            res.append(ck.bitwise(k + "integral-reflection", o["int-right"].values, o["int-left"].values[::-1]))
        if have("der-left", "der-right"):
            res.append(ck.bitwise(k + "derivative-reflection", o["der-right"].values, o["der-left"].values[::-1]))
        if have("fbm", "fractal"):
            g = o["fbm"].values
            by_parts = g[-1] - float(np.trapezoid(g, dx=1.0 / n))  # int_0^1 t dg = g(1) - int_0^1 g dt
            res.append(ck.close(k + "fractal-by-parts", o["fractal"], by_parts, 1e-3))
        if have("fbm", "int-unit"):
            ref = scipy.integrate.cumulative_trapezoid(o["fbm"].values, dx=1.0 / n, initial=0.0)
            tol = 1e-11 * max(1.0, float(np.max(np.abs(ref))))
            res.append(ck.sup_close(k + "unit-order-trapezoid", o["int-unit"].values, ref, tol))
        if have("int-power"):
            ref = ck.power_integral(t, self.beta, self.int_order)
            res.append(ck.sup_close(k + "integral-closed-form", o["int-power"].values, ref, 1e-6))
        if have("der-power"):
            window = t >= 0.1
            ref = ck.power_derivative(t[window], self.beta, self.der_order)
            res.append(ck.sup_close(k + "derivative-closed-form", o["der-power"].values[window], ref, 1e-5))
        if have("rescaled-range"):
            res.append(ck.in_band(k + "rescaled-range-band", o["rescaled-range"].h_hat, H - 0.2, H + 0.2))
        if have("variation-index"):
            res.append(ck.in_band(k + "variation-index-band", o["variation-index"].h_hat, H - 0.15, H + 0.15))
        if have("holder"):
            # the largest increment carries a log factor, which biases this estimate low
            res.append(ck.in_band(k + "holder-band", o["holder"].h_hat, H - 0.3, H + 0.15))
        if have("fbm"):
            g = o["fbm"].values
            span = float(g[-1] - g[0])
            allow = ck.telescoping_allowance(g)
            # Stieltjes sums telescope exactly; the extended integral keeps the verify suite's 0.02
            for key, sign, tol in (("symmetric", 1, allow), ("forward", 1, allow), ("backward", -1, allow),
                                   ("stieltjes", 1, 1e-9), ("extended", 1, 0.02)):
                if have(key):
                    res.append(ck.close(f"{k}telescope-{key}", o[key].value, sign * span, tol))
        if have("bm", "ito"):
            rhs = ck.square_identity(o["bm"].values[:: self.ito_stride])
            res.append(ck.close(k + "ito-square-identity", o["ito"], rhs, 1e-10))
        if have("fbm", "read-path"):
            a, r = o["fbm"], o["read-path"]
            same_meta = (a.grid, a.hurst, a.seed, a.generator) == (r.grid, r.hurst, r.seed, r.generator)
            res.append(ck.bitwise(k + "path-csv-roundtrip", r.values, a.values))
            res.append(ck.Check(k + "path-csv-metadata", same_meta, "grid, hurst, seed and generator"))
        if have("int-left", "read-grid"):
            a, r = o["int-left"], o["read-grid"]
            res.append(ck.bitwise(k + "grid-csv-roundtrip", r.values, a.values))
            res.append(ck.Check(k + "grid-csv-domain", (r.a, r.b) == (a.a, a.b), f"[{r.a}, {r.b}]"))
        return res


# -- ensemble-mc ---------------------------------------------------------------


class EnsembleMC:
    """Thousands of short paths from every ensemble generator, then the ensemble checks.

    Brownian ensemble: 3000 replicates on 256 steps over [0, 2]; it also feeds
    `isometry_check` (three stock integrands) and `endpoint_comparison`.
    Cholesky and circulant: 3000 replicates on 16 steps over [0, 1];
    moving average: 3000 on 8 steps; each at H = 0.25 and 0.75.
    """

    name = "ensemble-mc"
    reps = 3000
    hursts = (0.25, 0.75)
    bm_grid = gp.GridSpec(2.0, 256)
    fbm_grid = gp.GridSpec(1.0, 16)
    ma_grid = gp.GridSpec(1.0, 8)
    cov_stride = 16  # Brownian covariance on every 16th node: 17 nodes, like the others
    endpoint_times = (1.0, 2.0)
    #: standard errors allowed per Monte Carlo comparison
    z = 6.0
    #: covariance deficit of the truncated, discretised moving-average kernel
    ma_bias = 0.03
    parity_rows = 3

    def __init__(self, seed: int, workdir: str, wrap):
        self.seed = seed
        rng = random.Random(seed)
        self.rows = sorted(rng.sample(range(self.reps), self.parity_rows))
        # (key, generator name, grid, H) per ensemble; the root is seed * 8 + position
        self.plan = [("bm", "bm", self.bm_grid, 0.5)]
        for H in self.hursts:
            self.plan += [(f"cholesky-H{H}", "fbm_cholesky", self.fbm_grid, H),
                          (f"circulant-H{H}", "fbm_circulant", self.fbm_grid, H),
                          (f"moving-average-H{H}", "fbm_moving_average", self.ma_grid, H)]

    def _root(self, i: int) -> int:
        return self.seed * 8 + i

    def run(self, p: Pass) -> None:
        for i, (key, kind, grid, H) in enumerate(self.plan):
            make = getattr(gp, f"{kind}_ensemble")
            args = (grid, self._root(i), self.reps) if kind == "bm" else (grid, H, self._root(i), self.reps)
            p.op(key, lambda: make(*args))
        for key, kind, grid, H in self.plan:
            stride = self.cov_stride if kind == "bm" else 1
            p.op(f"cov/{key}", lambda: gp.empirical_covariance(p.out[key][:, ::stride]))
        ens = p.out.get("bm")
        integrands = {
            "constant": ic.AdaptedIntegrand.constant(1.0),
            "deterministic": ic.AdaptedIntegrand.deterministic(lambda t: t),
            "path-value": ic.AdaptedIntegrand.path_value(),
        }
        for name, f in integrands.items():
            p.op(f"isometry/{name}", lambda: ic.isometry_check(f, ens, self.bm_grid))
        for T in self.endpoint_times:
            p.op(f"endpoint/{T:g}", lambda: ic.endpoint_comparison(ens, self.bm_grid, T))
        for i, (key, kind, grid, H) in enumerate(self.plan):
            draw = getattr(gp, f"generate_{kind}")
            for r in self.rows:
                seed = gp.RngSeed(self._root(i), r)
                args = (grid, seed) if kind == "bm" else (grid, H, seed)
                p.op(f"single/{key}/{r}", lambda: draw(*args))

    def check(self, p: Pass) -> list:
        o, R, z = p.out, self.reps, self.z
        res = []
        for key, kind, grid, H in self.plan:
            if f"cov/{key}" in o:
                stride = self.cov_stride if kind == "bm" else 1
                bias = self.ma_bias if kind == "fbm_moving_average" else 0.0
                res.append(ck.covariance_band(f"covariance/{key}", o[f"cov/{key}"], grid.times[::stride],
                                              H, R, z, bias))
            for r in self.rows:
                if p.has(key, f"single/{key}/{r}"):
                    res.append(ck.bitwise(f"row-parity/{key}/{r}", o[key][r], o[f"single/{key}/{r}"].values))
        T, n = self.bm_grid.t_max, self.bm_grid.n_steps
        dt = T / n
        left = dt * np.arange(n)
        if "isometry/constant" in o:
            lhs, rhs, _ = o["isometry/constant"]
            res.append(ck.close("isometry/constant-rhs", rhs, T, 1e-12 * T))
            res.append(ck.close("isometry/constant-lhs", lhs, T, z * math.sqrt(2.0 * T**2 / R)))
        if "isometry/deterministic" in o:
            lhs, rhs, _ = o["isometry/deterministic"]
            var = float(np.sum(left**2) * dt)  # E (sum t_i dB_i)^2 for the left sum
            res.append(ck.close("isometry/deterministic-rhs", rhs, T**3 / 3.0, T * dt**2 / 6.0 + 1e-12))
            res.append(ck.close("isometry/deterministic-lhs", lhs, var, z * math.sqrt(2.0 * var**2 / R)))
        if "isometry/path-value" in o:
            _, rhs, _ = o["isometry/path-value"]
            # trapezoid of E B_t^2 = t is exact; Var int_0^T B^2 dt = T^4 / 3
            res.append(ck.close("isometry/path-value-rhs", rhs, T**2 / 2.0, z * math.sqrt(T**4 / 3.0 / R)))
        for Te in self.endpoint_times:
            if f"endpoint/{Te:g}" in o:
                lo, hi = o[f"endpoint/{Te:g}"]
                k = int(round(Te / dt))
                var_left = float(np.sum(left[:k]) * dt)
                var_right = var_left + 2.0 * k * dt**2
                res.append(ck.close(f"endpoint/left-mean-T{Te:g}", lo, 0.0, z * math.sqrt(var_left / R)))
                res.append(ck.close(f"endpoint/right-mean-T{Te:g}", hi, Te, z * math.sqrt(var_right / R)))
        return res


WORKLOADS = {w.name: w for w in (VerifySuite, LongPath, EnsembleMC)}
