import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import fracbm
from fracbm import __version__
from fracbm.cli import main
from fracbm.experiments import CheckResult, ExperimentResult
from fracbm.fraccalc import DifferintegralSpec, GridFunction, fractional_integral, read_grid_csv, write_grid_csv
from fracbm.fbmintegrate import symmetric_integral
from fracbm.gaussianpaths import GridSpec, RngSeed, generate_fbm_circulant, read_path_csv, write_path_csv
from fracbm.itocalc import AdaptedIntegrand, ito_integral


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


class TestGenerate:
    def test_writes_path_and_manifest(self, runner, tmp_path):
        out = tmp_path / "run"
        run_ok(runner, ["generate", "--hurst", "0.7", "--steps", "128", "--seed", "5", "--out", str(out)])
        path = read_path_csv(out / "path.csv")
        assert path.grid.n_steps == 128
        assert path.hurst == 0.7
        manifest = json.loads((out / "manifest.json").read_text())
        assert "path.csv" in manifest["artifacts"]
        # every flag but --out, which is recorded as out_dir
        assert manifest["config"] == {
            "command": "generate",
            "parameters": {
                "hurst": 0.7, "steps": 128, "tmax": 1.0, "seed": 5,
                "stream": 0, "generator": "circulant",
            },
            "out_dir": str(out),
        }
        assert manifest["tool_version"] == __version__
        assert manifest["root_seed"] == 5

    def test_manifest_records_the_environment_once_a_process(self, runner, tmp_path):
        from importlib.metadata import version

        from fracbm import cli

        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_ok(runner, ["generate", "--steps", "64", "--out", str(out)])
        environment = json.loads((a / "manifest.json").read_text())["environment"]
        affinity = getattr(os, "sched_getaffinity", None)
        assert environment == {
            "python": "%d.%d.%d" % sys.version_info[:3],
            "numpy": np.__version__,
            "click": version("click"),
            "cpu_count": len(affinity(0)) if affinity else os.cpu_count(),
        }
        assert cli._environment() is cli._environment()
        # a key only: reruns still write the same path and, up to the directory, the same manifest
        assert (a / "path.csv").read_bytes() == (b / "path.csv").read_bytes()
        assert (a / "manifest.json").read_text().replace(str(a), str(b)) == (b / "manifest.json").read_text()

    def test_reruns_are_byte_identical(self, runner, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["generate", "--hurst", "0.3", "--steps", "64", "--seed", "9", "--stream", "2"]
        run_ok(runner, args + ["--out", str(a)])
        run_ok(runner, args + ["--out", str(b)])
        assert (a / "path.csv").read_bytes() == (b / "path.csv").read_bytes()

    def test_a_shorter_rerun_into_one_directory_leaves_no_old_rows(self, runner, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_ok(runner, ["generate", "--steps", "256", "--out", str(a)])
        run_ok(runner, ["generate", "--steps", "64", "--out", str(a)])
        run_ok(runner, ["generate", "--steps", "64", "--out", str(b)])
        assert (a / "path.csv").read_bytes() == (b / "path.csv").read_bytes()
        assert (a / "manifest.json").read_text().replace(str(a), str(b)) == (b / "manifest.json").read_text()

    def test_manifest_lists_only_the_files_this_run_wrote(self, runner, tmp_path):
        out = tmp_path / "run"
        src = tmp_path / "in.csv"
        write_grid_csv(GridFunction.from_callable(np.sin, 0.0, 1.0, 64), src)
        out.mkdir()
        run_ok(runner, ["fracint", "--input", str(src), "--alpha", "0.5", "--out", str(out / "halfint.csv")])
        run_ok(runner, ["generate", "--steps", "64", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["artifacts"]) == {"path.csv"}

    def test_an_unwritable_output_is_a_usage_error(self, runner, tmp_path):
        out = tmp_path / "run"
        (out / "path.csv").mkdir(parents=True)
        result = runner.invoke(main, ["generate", "--steps", "64", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert str(out / "path.csv") in result.output

    def test_brownian_generator_matches_module(self, runner, tmp_path):
        out = tmp_path / "bm"
        run_ok(runner, ["generate", "--generator", "bm", "--steps", "64", "--seed", "3", "--out", str(out)])
        path = read_path_csv(out / "path.csv")
        from fracbm.gaussianpaths import generate_bm

        direct = generate_bm(GridSpec(1.0, 64), RngSeed(3, 0))
        assert np.array_equal(path.values, direct.values)

    def test_hurst_out_of_range_is_a_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["generate", "--hurst", "1.5", "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert "hurst" in result.output.lower()

    def test_brownian_generator_rejects_other_indices(self, runner, tmp_path):
        result = runner.invoke(
            main, ["generate", "--generator", "bm", "--hurst", "0.7", "--out", str(tmp_path / "x")]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "flags", [["--tmax", "1e-300"], ["--tmax", "1e300"], ["--hurst", "0.05"], ["--hurst", "0.95"]]
    )
    def test_moving_average_at_the_extremes_is_silent(self, tmp_path, flags):
        # a fresh interpreter, so that a RuntimeWarning would reach stderr as it does from the
        # console; the far and history weights are formed in units of t_max
        flags = ["--hurst", "0.7", *flags] if flags[0] == "--tmax" else flags
        src = str(Path(fracbm.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        script = "import sys; from fracbm.cli import main; main(sys.argv[1:])"
        args = ["generate", "--generator", "moving-average", *flags, "--out", "m"]
        proc = subprocess.run(
            [sys.executable, "-c", script, *args], cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        values = read_path_csv(tmp_path / "m" / "path.csv").values
        assert np.isfinite(values).all() and values[1:].any()

    def test_the_moving_average_has_no_truncation_flag(self, runner, tmp_path):
        # the law keeps an exact history beyond 8 t_max, so there is nothing to truncate
        out = tmp_path / "m"
        args = ["generate", "--generator", "moving-average", "--truncation", "1e4", "--out", str(out)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "--truncation" in result.output
        assert not out.exists()

    def test_config_preseeds_and_flags_win(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("hurst = 0.25\nsteps = 256  # grid size\n")
        out1 = tmp_path / "seeded"
        run_ok(runner, ["--config", str(cfg), "generate", "--seed", "4", "--out", str(out1)])
        m1 = json.loads((out1 / "manifest.json").read_text())
        assert m1["config"]["parameters"]["hurst"] == 0.25
        assert m1["config"]["parameters"]["steps"] == 256
        out2 = tmp_path / "overridden"
        run_ok(
            runner,
            ["--config", str(cfg), "generate", "--seed", "4", "--hurst", "0.75", "--out", str(out2)],
        )
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m2["config"]["parameters"]["hurst"] == 0.75

    def test_malformed_config_reports_the_line(self, runner, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("hurst = 0.25\nnot a pair\n")
        result = runner.invoke(main, ["--config", str(cfg), "generate", "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert "line 2" in result.output

    def test_a_config_key_that_names_no_option_is_rejected(self, runner, tmp_path):
        # a misspelt key was once ignored: `hurts = 0.7` drew at hurst 0.5 and exited 0
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("steps = 16\nhurts = 0.7\n")
        out = tmp_path / "g"
        result = runner.invoke(main, ["--config", str(cfg), "generate", "--out", str(out)])
        assert result.exit_code == 2
        assert "'hurts' at line 2" in result.output
        assert not out.exists()

    def test_a_config_that_is_not_utf8_is_a_usage_error_naming_it(self, runner, tmp_path):
        # a UnicodeDecodeError once escaped as a traceback, exit 1
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"steps = 8\n\xff\xfe = 1\n")
        out = tmp_path / "g"
        result = runner.invoke(main, ["--config", str(cfg), "generate", "--steps", "8", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert f"config {cfg} is not UTF-8 text" in result.output and not out.exists()


class TestFracint:
    def test_round_trips_through_the_module(self, runner, tmp_path):
        f = GridFunction.from_callable(np.sin, 0.0, 1.0, 256)
        src = tmp_path / "in.csv"
        write_grid_csv(f, src)
        out = tmp_path / "out.csv"
        run_ok(
            runner,
            ["fracint", "--input", str(src), "--alpha", "0.5", "--kind", "integral", "--out", str(out)],
        )
        produced = read_grid_csv(out)
        direct = fractional_integral(f, DifferintegralSpec(0.5))
        assert np.array_equal(produced.values, direct.values)

    def test_integral_orders_above_one_are_allowed(self, runner, tmp_path):
        f = GridFunction.from_callable(np.sin, 0.0, 1.0, 64)
        src = tmp_path / "in.csv"
        write_grid_csv(f, src)
        run_ok(
            runner,
            ["fracint", "--input", str(src), "--alpha", "1.5", "--kind", "integral", "--out", str(tmp_path / "o")],
        )

    def test_derivative_orders_above_one_are_rejected(self, runner, tmp_path):
        f = GridFunction.from_callable(np.sin, 0.0, 1.0, 64)
        src = tmp_path / "in.csv"
        write_grid_csv(f, src)
        result = runner.invoke(
            main,
            ["fracint", "--input", str(src), "--alpha", "1.5", "--kind", "derivative", "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 2


    def test_an_output_in_a_missing_directory_is_a_usage_error(self, runner, tmp_path):
        src = tmp_path / "in.csv"
        write_grid_csv(GridFunction.from_callable(np.sin, 0.0, 1.0, 64), src)
        out = tmp_path / "missing" / "dir" / "x.csv"
        result = runner.invoke(main, ["fracint", "--input", str(src), "--alpha", "0.5", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert str(out) in result.output and "Traceback" not in result.output


class TestIto:
    def test_value_matches_module(self, runner, tmp_path):
        out = tmp_path / "bm"
        run_ok(runner, ["generate", "--generator", "bm", "--steps", "512", "--seed", "8", "--out", str(out)])
        result = run_ok(runner, ["ito", "--input", str(out / "path.csv"), "--integrand", "path"])
        rec = json.loads(result.output)
        path = read_path_csv(out / "path.csv")
        assert rec["value"] == pytest.approx(ito_integral(AdaptedIntegrand.path_value(), path), abs=1e-14)
        assert rec["integrand"] == "path"

    def test_rejects_non_brownian_input(self, runner, tmp_path):
        out = tmp_path / "fbm"
        run_ok(runner, ["generate", "--hurst", "0.75", "--steps", "128", "--seed", "8", "--out", str(out)])
        result = runner.invoke(main, ["ito", "--input", str(out / "path.csv")])
        assert result.exit_code == 2
        assert "hurst" in result.output.lower()


class TestFbmIntegrate:
    def test_symmetric_of_one_matches_module(self, runner, tmp_path):
        out = tmp_path / "fbm"
        run_ok(runner, ["generate", "--hurst", "0.75", "--steps", "4096", "--seed", "20", "--out", str(out)])
        result = run_ok(
            runner,
            ["fbm-integrate", "--input", str(out / "path.csv"), "--type", "symmetric", "--f", "one"],
        )
        rec = json.loads(result.output)
        path = read_path_csv(out / "path.csv")
        direct = symmetric_integral(1.0, path)
        assert rec["value"] == pytest.approx(direct.value, abs=1e-14)
        assert rec["converged"] is True
        assert rec["type"] == "symmetric"

    @pytest.mark.parametrize("n", [16, 31, 32])
    def test_a_stieltjes_integral_needs_32_steps(self, runner, tmp_path, n):
        # the five dyadic meshes, 16 down to 1 step; a shorter path names its own step count
        src = tmp_path / "path.csv"
        write_path_csv(generate_fbm_circulant(GridSpec(1.0, n), 0.75, RngSeed(1, 0)), src)
        result = runner.invoke(main, ["fbm-integrate", "--input", str(src), "--type", "stieltjes"], prog_name="fracbm")
        if n < 32:
            assert result.exit_code == 2, result.output
            assert f"5 dyadic levels need a path of at least 32 steps, got {n} steps" in result.output
        else:
            assert result.exit_code == 0, result.output
            assert json.loads(result.output)["type"] == "stieltjes"

    TYPES = ["symmetric", "forward", "backward", "stieltjes", "extended"]

    @pytest.fixture(scope="class")
    def extreme(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("extreme")
        for name, tmax in (("tiny", "1e-300"), ("huge", "1e300")):
            args = ["generate", "--generator", "moving-average", "--hurst", "0.7", "--tmax", tmax]
            run_ok(CliRunner(), [*args, "--out", str(root / name)])
        return root

    @pytest.mark.parametrize("int_type", TYPES)
    def test_a_self_integral_past_the_float_range_is_a_usage_error(self, runner, extreme, int_type):
        # x dx on [0, 1e300] is about 1e420: once numpy overflow warnings and a nan value
        args = ["fbm-integrate", "--input", str(extreme / "huge" / "path.csv"), "--type", int_type]
        result = runner.invoke(main, args, prog_name="fracbm")
        assert result.exit_code == 2, result.output
        assert "Usage: fracbm fbm-integrate [OPTIONS]" in result.output
        assert "overflows a float" in result.output and "Traceback" not in result.output

    def test_a_quadratic_variation_past_the_float_range_is_a_usage_error(self, runner, extreme):
        # once a RuntimeWarning and "value": Infinity, which strict JSON parsers reject
        args = ["stats", "--input", str(extreme / "huge" / "path.csv"), "--estimator", "quadratic-variation"]
        result = runner.invoke(main, args, prog_name="fracbm")
        assert result.exit_code == 2, result.output
        assert "the quadratic variation overflows a float" in result.output and "Infinity" not in result.output

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("f", ["self", "one"])
    @pytest.mark.parametrize("int_type", TYPES)
    def test_a_tiny_path_gives_a_finite_value_silently(self, runner, extreme, int_type, f):
        args = ["fbm-integrate", "--input", str(extreme / "tiny" / "path.csv"), "--type", int_type]
        result = run_ok(runner, [*args, "--f", f])
        assert np.isfinite(json.loads(result.output)["value"])


class TestStats:
    def test_rescaled_range_record(self, runner, tmp_path):
        out = tmp_path / "fbm"
        run_ok(runner, ["generate", "--hurst", "0.7", "--steps", "4096", "--seed", "11", "--out", str(out)])
        result = run_ok(runner, ["stats", "--input", str(out / "path.csv"), "--estimator", "rescaled-range"])
        rec = json.loads(result.output)
        assert rec["estimator"] == "rescaled-range"
        assert abs(rec["h_hat"] - 0.7) <= 0.15

    def test_quadratic_variation_record(self, runner, tmp_path):
        out = tmp_path / "bm"
        run_ok(runner, ["generate", "--generator", "bm", "--steps", "1024", "--seed", "12", "--out", str(out)])
        result = run_ok(runner, ["stats", "--input", str(out / "path.csv"), "--estimator", "quadratic-variation"])
        rec = json.loads(result.output)
        assert abs(rec["value"] - 1.0) <= 0.2

    def test_short_series_is_a_usage_error(self, runner, tmp_path):
        out = tmp_path / "short"
        run_ok(runner, ["generate", "--generator", "bm", "--steps", "128", "--seed", "1", "--out", str(out)])
        result = runner.invoke(main, ["stats", "--input", str(out / "path.csv"), "--estimator", "rescaled-range"])
        assert result.exit_code == 2
        assert "256" in result.output


class TestVerify:
    def test_single_experiment_produces_artifacts(self, runner, tmp_path):
        out = tmp_path / "verify"
        result = run_ok(runner, ["verify", "--suite", "E1", "--out", str(out)])
        assert "E1 pass" in result.output
        rec = json.loads((out / "E1.json").read_text())
        assert rec["verdict"] == "pass"
        assert all(c["verdict"] == "pass" for c in rec["checks"])
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == "experiment,check,target,estimate,tolerance,verdict"
        assert all(line.startswith("E1,") for line in lines[1:])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["verdicts"] == {"E1": "pass"}
        assert set(manifest["artifacts"]) == {"E1.json", "summary.csv"}

    def test_a_smaller_rerun_lists_only_its_own_artifacts(self, runner, tmp_path):
        out = tmp_path / "verify"
        run_ok(runner, ["verify", "--suite", "E1,E2", "--out", str(out)])
        run_ok(runner, ["verify", "--suite", "E1", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["verdicts"] == {"E1": "pass"}
        assert set(manifest["artifacts"]) == {"E1.json", "summary.csv"}
        assert (out / "E2.json").exists()

    def test_a_repeated_id_runs_once(self, runner, tmp_path):
        out = tmp_path / "v"
        result = run_ok(runner, ["verify", "--suite", "E2,e2,E1, E2", "--out", str(out)])
        assert [line for line in result.output.splitlines() if " pass" in line] == ["E2 pass", "E1 pass"]
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows].count("E2") == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["parameters"]["suite"] == "E2,E1"
        assert list(manifest["results"]) == ["E1", "E2"] and manifest["verdicts"] == {"E1": "pass", "E2": "pass"}

    def test_records_keep_the_warnings_of_their_run(self, runner, tmp_path):
        # the replicate floor warns during E8 at 50 replicates; the warning goes into E8.json
        # and no column of summary.csv, whose rows rerun byte-identical
        out = tmp_path / "v"
        run_ok(runner, ["verify", "--suite", "E8", "--replicates", "50", "--out", str(out)])
        warned = json.loads((out / "E8.json").read_text())["warnings"]
        assert warned == ["50 replicates give wide confidence intervals (floor 1000)"]
        summary = (out / "summary.csv").read_bytes()
        assert summary.startswith(b"experiment,check,target,estimate,tolerance,verdict\n")
        run_ok(runner, ["verify", "--suite", "E8", "--replicates", "50", "--out", str(out)])
        assert (out / "summary.csv").read_bytes() == summary
        run_ok(runner, ["verify", "--suite", "E1", "--out", str(out)])
        assert json.loads((out / "E1.json").read_text())["warnings"] == []

    def test_unknown_experiment_is_a_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["verify", "--suite", "E99", "--out", str(tmp_path / "v")])
        assert result.exit_code == 2
        assert "E99" in result.output and "E1" in result.output

    def test_replicate_floor(self, runner, tmp_path):
        # the library's refusal, reported under verify's usage line before any experiment runs
        out = tmp_path / "v"
        argv = ["verify", "--suite", "E1", "--replicates", "1", "--out", str(out)]
        result = runner.invoke(main, argv, prog_name="fracbm")
        assert result.exit_code == 2
        assert "Usage: fracbm verify [OPTIONS]" in result.output
        assert "replicates must be an integer of at least 2, got 1" in result.output
        assert not out.exists()

    def test_failing_experiment_exits_nonzero(self, runner, tmp_path, monkeypatch):
        bad = ExperimentResult(
            "E1",
            "stub",
            [CheckResult("stub-check", 0.0, 1.0, 0.5, False, "synthetic miss")],
            0.01,
        )
        monkeypatch.setattr("fracbm.experiments.run_experiment", lambda eid, cfg=None: bad)
        out = tmp_path / "v"
        result = runner.invoke(main, ["verify", "--suite", "E1", "--out", str(out)])
        assert result.exit_code == 1
        assert "E1 fail" in result.output
        assert json.loads((out / "E1.json").read_text())["verdict"] == "fail"

    def test_crashing_experiment_is_reported_not_raised(self, runner, tmp_path, monkeypatch):
        def explode(eid, cfg=None):
            raise RuntimeError("synthetic crash")

        monkeypatch.setattr("fracbm.experiments.run_experiment", explode)
        out = tmp_path / "v"
        result = runner.invoke(main, ["verify", "--suite", "E1", "--out", str(out)])
        assert result.exit_code == 1
        rec = json.loads((out / "E1.json").read_text())
        assert rec["verdict"] == "error"
        assert "synthetic crash" in rec["error"]
        assert "E1,,,,,error" in (out / "summary.csv").read_text()


    def test_an_unwritable_summary_is_a_usage_error(self, runner, tmp_path):
        out = tmp_path / "v"
        (out / "summary.csv").mkdir(parents=True)
        result = runner.invoke(main, ["verify", "--suite", "E1", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert str(out / "summary.csv") in result.output


@pytest.mark.parametrize(
    "command, args, message",
    [
        ("generate", ["--hurst", "1.5", "--out", "{out}"], "H must be a Hurst index"),
        (
            "fracint",
            ["--input", "{fbm}", "--alpha", "1.5", "--kind", "derivative", "--out", "{out}"],
            "derivative order",
        ),
        ("ito", ["--input", "{fbm}"], "hurst"),
        ("fbm-integrate", ["--input", "{short}", "--type", "stieltjes"], "at least 32 steps, got 8 steps"),
        ("stats", ["--input", "{short}"], "256"),
    ],
)
def test_a_library_value_error_is_a_usage_error_of_its_subcommand(runner, tmp_path, command, args, message):
    paths = {"fbm": tmp_path / "fbm.csv", "short": tmp_path / "short.csv", "out": tmp_path / "out"}
    write_path_csv(generate_fbm_circulant(GridSpec(1.0, 64), 0.75, RngSeed(1, 0)), paths["fbm"])
    write_path_csv(generate_fbm_circulant(GridSpec(1.0, 8), 0.75, RngSeed(1, 0)), paths["short"])
    result = runner.invoke(main, [command, *(a.format(**paths) for a in args)], prog_name="fracbm")
    assert result.exit_code == 2, result.output
    assert f"Usage: fracbm {command} [OPTIONS]" in result.output
    assert message in result.output and "Traceback" not in result.output


@pytest.mark.parametrize(
    "command, args",
    [
        ("fracint", ["--alpha", "0.5", "--out", "{out}"]),
        ("ito", []),
        ("fbm-integrate", []),
        ("stats", []),
    ],
)
def test_a_malformed_csv_is_named_with_its_line_by_every_reader(runner, tmp_path, command, args):
    # fracint once reported "malformed CSV at line 3" without the file's name
    bad = tmp_path / "bad.csv"
    bad.write_text("t,value\n0.0,0.0\nbroken line\n")
    argv = [command, "--input", str(bad), *(a.format(out=tmp_path / "out.csv") for a in args)]
    result = runner.invoke(main, argv, prog_name="fracbm")
    assert result.exit_code == 2, result.output
    assert f"Usage: fracbm {command} [OPTIONS]" in result.output
    assert f"{bad}: malformed CSV at line 3" in result.output and "Traceback" not in result.output


@pytest.mark.parametrize("command, args", [("fracint", ["--alpha", "0.5", "--out", "{out}"]), ("ito", []), ("stats", [])])
def test_an_input_that_is_not_utf8_is_named_by_every_reader(runner, tmp_path, command, args):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"t,value\n0.0,0.0\n\xff\xfe,1\n")
    argv = [command, "--input", str(bad), *(a.format(out=tmp_path / "out.csv") for a in args)]
    result = runner.invoke(main, argv, prog_name="fracbm")
    assert result.exit_code == 2, result.output
    assert f"Usage: fracbm {command} [OPTIONS]" in result.output
    assert f"{bad}: 'utf-8' codec can't decode" in result.output and "Traceback" not in result.output


@pytest.mark.parametrize("command", ["generate", "fracint"])
def test_an_output_blocked_by_a_file_is_named(runner, tmp_path, command):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    src = tmp_path / "path.csv"
    write_path_csv(generate_fbm_circulant(GridSpec(1.0, 8), 0.75, RngSeed(1, 0)), src)
    out = blocker / ("run" if command == "generate" else "x.csv")
    args = ["--out", str(out)] + (["--input", str(src), "--alpha", "0.5"] if command == "fracint" else [])
    result = runner.invoke(main, [command, *args], prog_name="fracbm")
    assert result.exit_code == 2, result.output
    assert f"Usage: fracbm {command} [OPTIONS]" in result.output
    assert f"{out}: Not a directory" in result.output and "Traceback" not in result.output


def test_a_broken_stdout_pipe_exits_1_silently(tmp_path):
    # verify echoes each verdict while it writes its run directory; a closed stdout
    # was once reported as "Error: v: Broken pipe", exit 2
    env = {**os.environ, "PYTHONPATH": str(Path(fracbm.__file__).parents[1])}
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fracbm.cli", "verify", "--suite", "E1", "--out", "v"],
            cwd=tmp_path, env=env, stdout=w, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_config_preseeds_every_subcommand(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("estimator = holder\nreplicates = 2\n")
    src = tmp_path / "path.csv"
    write_path_csv(generate_fbm_circulant(GridSpec(1.0, 1024), 0.7, RngSeed(2, 0)), src)
    seeded = run_ok(runner, ["--config", str(cfg), "stats", "--input", str(src)])
    explicit = run_ok(runner, ["stats", "--input", str(src), "--estimator", "holder"])
    assert seeded.output == explicit.output
    out = tmp_path / "v"
    run_ok(runner, ["--config", str(cfg), "verify", "--suite", "E1", "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["parameters"] == {"suite": "E1", "replicates": 2}


def test_version_flag(runner):
    result = run_ok(runner, ["--version"])
    assert __version__ in result.output


def test_no_command_loads_scipy(tmp_path):
    # a fresh interpreter: this test process has scipy loaded already
    script = textwrap.dedent(
        """
        import json, sys
        import fracbm.cli

        def scipy_modules():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        def run(*args):
            fracbm.cli.main(list(args), standalone_mode=False)
            return scipy_modules()

        seen = {"import": scipy_modules()}
        run("generate", "--generator", "circulant", "--steps", "1024", "--out", "c")
        run("fracint", "--input", "c/path.csv", "--alpha", "0.5", "--out", "i.csv")
        seen["chain"] = run("stats", "--input", "c/path.csv")
        seen["moving-average"] = run(
            "generate", "--generator", "moving-average", "--hurst", "0.7", "--steps", "64", "--out", "m"
        )
        seen["cholesky"] = run("generate", "--generator", "cholesky", "--steps", "700", "--out", "k")
        seen["E3"] = run("verify", "--suite", "E3", "--out", "v")
        print(json.dumps(seen))
        """
    )
    src = str(Path(fracbm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen == {"import": [], "chain": [], "moving-average": [], "cholesky": [], "E3": []}


def test_each_command_loads_only_its_own_layers(tmp_path):
    # one fresh interpreter per command: a module once imported stays loaded
    script = textwrap.dedent(
        """
        import json, sys
        import fracbm.cli

        LAYERS = ("experiments", "gaussianpaths", "fraccalc", "pathstats", "itocalc", "fbmintegrate")

        def loaded():
            return sorted(name for name in LAYERS if f"fracbm.{name}" in sys.modules)

        seen = {"import": loaded(), "deps": sorted(m for m in ("numpy", "click") if m in sys.modules)}
        # the CSV formatter's tables are built on the first write, not on import
        seen["lazy"] = [fracbm._csvio._tables.cache_info().currsize, "fractions" in sys.modules]
        fracbm.cli.main(sys.argv[1:], standalone_mode=False)
        seen["command"] = loaded()
        seen["tables"] = fracbm._csvio._tables.cache_info().currsize
        from fracbm import GridSpec
        seen["names"] = [GridSpec.__name__, fracbm.gaussianpaths.__name__]
        seen["dir"] = [n in dir(fracbm) for n in ("GridSpec", "fractional_integral", "gaussianpaths")]
        try:
            fracbm.no_such_name
        except AttributeError as exc:
            seen["unknown"] = str(exc)
        print(json.dumps(seen))
        """
    )
    src = str(Path(fracbm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*args):
        proc = subprocess.run(
            [sys.executable, "-c", script, *args], cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.strip().splitlines()[-1])
        assert seen["import"] == []
        assert seen["deps"] == ["click", "numpy"]
        assert seen["lazy"] == [0, False]
        assert seen["names"] == ["GridSpec", "fracbm.gaussianpaths"]
        assert seen["dir"] == [True, True, True]
        assert "no_such_name" in seen["unknown"]
        return seen["command"], seen["tables"]

    generate, tables = run("generate", "--steps", "64", "--out", "g")
    assert "gaussianpaths" in generate and tables == 1
    assert "fraccalc" not in generate and "experiments" not in generate
    assert run("fracint", "--input", "g/path.csv", "--alpha", "0.5", "--out", "i.csv") == (["fraccalc"], 1)
    assert "experiments" in run("verify", "--suite", "E2", "--out", "v")[0]
