"""Command-line front end: path generation, operators, estimators, verification.

Every subcommand is deterministic given its flags: reruns reproduce output
files byte for byte, and run directories carry a manifest hashing the
artifacts that run wrote.  A flat key=value config file can preseed any
flag; explicit flags win.

Each subcommand runs in a process of its own, so this module imports only
numpy, click and `_csvio`; a subcommand imports the layer it runs in its
body, and `verify` alone loads every layer, through `experiments`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys

import click
import numpy as np

from . import __version__
from ._csvio import rewrite


def _write_json(dest, payload: dict) -> None:
    with rewrite(dest) as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


@contextlib.contextmanager
def _writing(out):
    """Reports a failure to write an output file under out as a usage error naming it."""
    try:
        yield
    except OSError as exc:
        raise click.UsageError(f"{exc.filename or out}: {exc.strerror or exc}")


def _sha256(path) -> str:
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


@functools.cache
def _environment() -> dict:
    """Python, numpy and click versions and the usable CPU count, looked up once a process."""
    from importlib.metadata import version

    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "click": version("click"),
        "cpu_count": len(affinity(0)) if affinity else os.cpu_count(),
    }


def _write_manifest(out, command, parameters, names, root_seed=None, **records) -> None:
    """Write out/manifest.json: the run's flags, environment, records and each file's sha256."""
    _write_json(os.path.join(out, "manifest.json"), {
        "config": {"command": command, "parameters": parameters, "out_dir": out},
        "tool_version": __version__,
        "environment": _environment(),
        "root_seed": root_seed,
        "results": {},
        "verdicts": {},
        **records,
        "artifacts": {name: _sha256(os.path.join(out, name)) for name in sorted(names)},
    })


def _coerce(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _read_config(path, names) -> dict:
    """key = value per line; # starts a comment; keys are among the parameter names `names`."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or not key:
                raise click.UsageError(f"malformed config at line {lineno}: {raw.rstrip()!r}")
            if key not in names:
                raise click.UsageError(f"config key {key!r} at line {lineno} is no option of any subcommand")
            out[key] = _coerce(value)
    return out


class _Command(click.Command):
    """A subcommand that reports a library ValueError as a usage error under its own usage line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.UsageError(str(exc), ctx)


@click.group()
@click.version_option(__version__)
@click.option(
    "--config",
    "config_path",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="Flat key=value file preseeding flags for every subcommand.",
)
@click.pass_context
def main(ctx, config_path):
    """Fractional calculus, fBm path synthesis, and pathwise integration."""
    if config_path is not None:
        commands = ctx.command.commands
        kv = _read_config(config_path, {p.name for c in commands.values() for p in c.params})
        ctx.default_map = {name: dict(kv) for name in commands}


main.command_class = _Command


def _load_path(source):
    from .gaussianpaths import read_path_csv

    try:
        return read_path_csv(source)
    except (ValueError, OSError) as exc:
        raise click.UsageError(f"{source}: {exc}")


@main.command()
@click.option("--hurst", type=float, default=0.5, show_default=True)
@click.option("--steps", type=int, default=1024, show_default=True)
@click.option("--tmax", type=float, default=1.0, show_default=True)
@click.option("--seed", type=int, default=42, show_default=True, help="Root seed.")
@click.option("--stream", type=int, default=0, show_default=True, help="Substream index.")
@click.option(
    "--generator",
    type=click.Choice(["bm", "cholesky", "circulant", "moving-average"]),
    default="circulant",
    show_default=True,
)
@click.option("--out", type=click.Path(file_okay=False), default="out", show_default=True)
@click.pass_context
def generate(ctx, hurst, steps, tmax, seed, stream, generator, out):
    """Draw one path and write CSV plus manifest; reruns are byte-identical."""
    from .gaussianpaths import (
        GridSpec,
        RngSeed,
        generate_bm,
        generate_fbm_cholesky,
        generate_fbm_circulant,
        generate_fbm_moving_average,
        write_path_csv,
    )

    if generator == "bm" and hurst != 0.5:
        raise click.BadParameter("--generator bm fixes hurst at 0.5", param_hint="--hurst")
    grid = GridSpec(tmax, steps)
    rng_seed = RngSeed(seed, stream)
    if generator == "bm":
        path = generate_bm(grid, rng_seed)
    elif generator == "cholesky":
        path = generate_fbm_cholesky(grid, hurst, rng_seed)
    elif generator == "circulant":
        path = generate_fbm_circulant(grid, hurst, rng_seed)
    else:
        path = generate_fbm_moving_average(grid, hurst, rng_seed)
    csv_path = os.path.join(out, "path.csv")
    flags = {name: value for name, value in ctx.params.items() if name != "out"}
    with _writing(out):
        os.makedirs(out, exist_ok=True)
        write_path_csv(path, csv_path)
        _write_manifest(out, "generate", flags, ["path.csv"], seed)
    click.echo(f"wrote {csv_path} and {os.path.join(out, 'manifest.json')}")


@main.command()
@click.option("--input", "source", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--alpha", type=float, required=True)
@click.option("--side", type=click.Choice(["left", "right"]), default="left", show_default=True)
@click.option(
    "--kind", type=click.Choice(["integral", "derivative"]), default="integral", show_default=True
)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def fracint(source, alpha, side, kind, out):
    """Apply a fractional integral or derivative to a (t,value) CSV."""
    from .fraccalc import (
        DifferintegralSpec,
        fractional_derivative,
        fractional_integral,
        read_grid_csv,
        write_grid_csv,
    )

    try:
        f = read_grid_csv(source)
    except OSError as exc:
        raise click.UsageError(str(exc))
    op = fractional_integral if kind == "integral" else fractional_derivative
    result = op(f, DifferintegralSpec(alpha, side, kind))
    with _writing(out):
        write_grid_csv(result, out)
    click.echo(f"wrote {out}")


@main.command()
@click.option("--input", "source", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--integrand",
    type=click.Choice(["path", "time", "one"]),
    default="path",
    show_default=True,
    help="path: the path's own value; time: f(t)=t; one: f=1.",
)
@click.option("--stride", type=int, default=1, show_default=True, help="Sub-partition stride.")
def ito(source, integrand, stride):
    """Left-endpoint integral of an adapted integrand against an imported path."""
    from .itocalc import AdaptedIntegrand, AdaptednessError, ito_integral

    path = _load_path(source)
    if stride < 1:
        raise click.BadParameter("stride must be >= 1", param_hint="--stride")
    f = {
        "path": AdaptedIntegrand.path_value,
        "time": lambda: AdaptedIntegrand.deterministic(lambda t: t),
        "one": lambda: AdaptedIntegrand.constant(1.0),
    }[integrand]()
    try:
        sub = None if stride == 1 else path.times[::stride]
        value = ito_integral(f, path, sub_partition=sub)
    except AdaptednessError as exc:
        raise click.UsageError(str(exc))
    click.echo(json.dumps({
        "integrand": integrand,
        "n_steps": path.grid.n_steps,
        "stride": stride,
        "t_max": path.grid.t_max,
        "value": value,
    }, sort_keys=True))


@main.command("fbm-integrate")
@click.option("--input", "source", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--type",
    "int_type",
    type=click.Choice(["symmetric", "forward", "backward", "stieltjes", "extended"]),
    default="forward",
    show_default=True,
)
@click.option(
    "--f",
    "f_choice",
    type=click.Choice(["self", "one", "time"]),
    default="self",
    show_default=True,
    help="Integrand: the path itself, the constant 1, or f(t)=t.",
)
def fbm_integrate(source, int_type, f_choice):
    """Regularized pathwise integral of f against an imported path."""
    from .fbmintegrate import (
        backward_integral,
        extended_forward_integral,
        forward_integral,
        integral_record,
        riemann_stieltjes_integral,
        symmetric_integral,
    )

    g = _load_path(source)
    f = {"self": g, "one": 1.0, "time": g.times}[f_choice]
    ops = {
        "symmetric": symmetric_integral,
        "forward": forward_integral,
        "backward": backward_integral,
        "stieltjes": riemann_stieltjes_integral,
        "extended": extended_forward_integral,
    }
    result = ops[int_type](f, g)
    click.echo(json.dumps({"type": int_type, **integral_record(result)}, sort_keys=True))


@main.command()
@click.option("--input", "source", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--estimator",
    type=click.Choice(["rescaled-range", "variation-index", "holder", "quadratic-variation"]),
    default="rescaled-range",
    show_default=True,
)
def stats(source, estimator):
    """Run an estimator on an imported path and print its JSON record."""
    from .pathstats import (
        holder_exponent,
        hurst_record,
        quadratic_variation,
        rescaled_range_hurst,
        variation_index,
    )

    path = _load_path(source)
    if estimator == "quadratic-variation":
        rec = {
            "estimator": estimator,
            "n_steps": path.grid.n_steps,
            "t_max": path.grid.t_max,
            "value": quadratic_variation(path),
        }
    elif estimator == "rescaled-range":
        series = np.diff(path.values)
        rec = hurst_record(rescaled_range_hurst(series), series)
    elif estimator == "variation-index":
        rec = hurst_record(variation_index(path), path.values)
    else:
        rec = hurst_record(holder_exponent(path), path.values)
    click.echo(json.dumps(rec, sort_keys=True))


def _parse_suite(text: str) -> list:
    from .experiments import EXPERIMENTS

    if text.strip().lower() == "all":
        return list(EXPERIMENTS)
    ids = []
    for token in text.split(","):
        eid = token.strip().upper()
        if not eid:
            continue
        if eid not in EXPERIMENTS:
            raise click.UsageError(
                f"unknown experiment {token.strip()!r}; ids are {', '.join(EXPERIMENTS)} or 'all'"
            )
        ids.append(eid)
    if not ids:
        raise click.UsageError("empty suite")
    return list(dict.fromkeys(ids))  # each experiment once, in first-seen order


@main.command()
@click.option("--suite", default="all", show_default=True, help="Comma-separated ids, or 'all'.")
@click.option("--replicates", type=int, default=None, help="Cap ensemble and sweep sizes.")
@click.option("--out", type=click.Path(file_okay=False), default="verify-out", show_default=True)
@click.pass_context
def verify(ctx, suite, replicates, out):
    """Run verification experiments; nonzero exit unless every verdict is pass."""
    from . import experiments

    ids = _parse_suite(suite)
    if replicates is not None and replicates < 2:
        raise click.BadParameter("need at least 2 replicates", param_hint="--replicates")
    cfg = experiments.VerifyConfig(replicates=replicates)
    with _writing(out):
        os.makedirs(out, exist_ok=True)
        rows = []
        results = {}
        for eid in ids:
            try:
                res = experiments.run_experiment(eid, cfg)
                rec = res.record()
            except Exception as exc:
                rec = {
                    "experiment": eid,
                    "title": experiments.EXPERIMENTS[eid][0],
                    "verdict": "error",
                    "error": f"{type(exc).__name__}: {exc}",
                    "checks": [],
                }
            _write_json(os.path.join(out, f"{eid}.json"), rec)
            results[eid] = {
                "verdict": rec["verdict"],
                "checks_passed": sum(1 for c in rec["checks"] if c["verdict"] == "pass"),
                "checks_total": len(rec["checks"]),
                "elapsed_seconds": rec.get("elapsed_seconds"),
            }
            for c in rec["checks"]:
                rows.append(
                    (eid, c["name"], c["target"], c["estimate"], c["tolerance"], c["verdict"])
                )
            if rec["verdict"] == "error":
                rows.append((eid, "", "", "", "", "error"))
            click.echo(f"{eid} {rec['verdict']}")
        with rewrite(os.path.join(out, "summary.csv")) as fh:
            fh.write("experiment,check,target,estimate,tolerance,verdict\n")
            for row in rows:
                fh.write(",".join(
                    f"{v:.17g}" if isinstance(v, float) else str(v) for v in row
                ) + "\n")
        verdicts = {eid: r["verdict"] for eid, r in results.items()}
        _write_manifest(
            out, "verify", {"suite": ",".join(ids), "replicates": replicates},
            [f"{eid}.json" for eid in ids] + ["summary.csv"], results=results, verdicts=verdicts,
        )
    click.echo(f"wrote {os.path.join(out, 'summary.csv')}")
    if any(v != "pass" for v in verdicts.values()):
        ctx.exit(1)


if __name__ == "__main__":
    main()
