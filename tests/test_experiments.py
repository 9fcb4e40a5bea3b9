import pytest

from fracbm.experiments import (
    EXPERIMENTS,
    CheckResult,
    ExperimentResult,
    VerifyConfig,
    run_experiment,
)


def test_registry_covers_twelve_experiments():
    assert list(EXPERIMENTS) == [f"E{k}" for k in range(1, 13)]


@pytest.mark.parametrize("exp_id", ["E99", "e1", None, True, 2.5])
def test_unknown_id_raises(exp_id):
    # once a KeyError, unlike every other bad argument
    with pytest.raises(ValueError, match=r"^exp_id must be one of E1, E2, .*, E12, got "):
        run_experiment(exp_id)


def test_check_record_shape():
    c = CheckResult("name", 1.0, 1.01, 0.05, True, "why")
    rec = c.record()
    assert rec["verdict"] == "pass"
    assert rec["target"] == 1.0
    bad = CheckResult("name", 1.0, 2.0, 0.05, False)
    assert bad.record()["verdict"] == "fail"


def test_experiment_record_shape():
    res = ExperimentResult("E0", "stub", [CheckResult("a", 0, 0, 1, True)], 0.1234567)
    rec = res.record()
    assert rec["experiment"] == "E0"
    assert rec["verdict"] == "pass"
    assert rec["elapsed_seconds"] == 0.123
    assert len(rec["checks"]) == 1
    assert rec["warnings"] == []
    assert res.passed


def test_failed_check_fails_the_experiment():
    res = ExperimentResult(
        "E0", "stub", [CheckResult("a", 0, 0, 1, True), CheckResult("b", 0, 9, 1, False)], 0.0
    )
    assert not res.passed
    assert res.record()["verdict"] == "fail"


def test_replicate_cap_scales_down_only():
    cfg = VerifyConfig(replicates=100)
    assert cfg.scaled(10_000) == 100
    assert cfg.scaled(50) == 50
    assert VerifyConfig().scaled(10_000) == 10_000
    assert VerifyConfig(replicates=2).scaled(10_000) == 2


@pytest.mark.parametrize("replicates", [1, 0, -5, 2.5, "abc", True])
def test_a_replicate_count_below_two_or_not_an_integer_is_refused(replicates):
    # two replicates keep variance estimates defined; once -5 and 2.5 ran clamped to 2
    # and "abc" raised int()'s message, which does not name the parameter
    with pytest.raises(ValueError, match=rf"^replicates must be an integer of at least 2, got {replicates!r}$"):
        VerifyConfig(replicates=replicates)


def test_reduced_replicates_still_run():
    # capped ensembles keep the machinery exercised; verdicts may flip on
    # tolerance so only completion is asserted
    res = run_experiment("E4", VerifyConfig(replicates=200))
    assert res.checks
    assert res.record()["experiment"] == "E4"
