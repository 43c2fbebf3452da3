"""Tests for the robustness experiment (F1 under telemetry faults)."""

import pytest

from repro.experiments.robustness import RobustnessResult, run_robustness
from repro.experiments.runner import ExperimentConfig


@pytest.fixture(scope="module")
def result():
    config = ExperimentConfig(window_size=0.25, sample_interval=0.125,
                              warmup=0.5, seed=0)
    return run_robustness(
        config,
        target_scale=0.2,
        noise_scale=0.15,
        max_level=1,
        drop_rates=(0.0, 0.5),
        blank_rates=(0.0, 0.5),
        gap_policies=("zero", "mean"),
        slow_factors=(8.0,),
        epochs=10,
    )


def test_grid_is_fully_populated(result):
    # 2 policies x (2 drop rates + 2 blank rates) = 8 cells.
    assert len(result.rows) == 8
    for row in result.rows:
        assert row["fault"] in ("drop", "blank")
        assert row["policy"] in ("zero", "mean")
        assert 0.0 <= row["macro_f1"] <= 1.0
        assert 0.0 <= row["gap_fraction"] <= 1.0
        assert row["n_windows"] > 0
    assert result.n_eval_windows > 0


def test_eval_windows_hold_every_class(result):
    """Both classes occur among the labelled eval windows, so macro F1
    scores the predictor on slowed windows too, not only healthy ones."""
    assert len(result.class_counts) == 2
    assert all(count > 0 for count in result.class_counts), \
        result.class_counts


def test_rate_zero_is_policy_invariant(result):
    """With no faults there are no gaps, so every policy scores the same."""
    reference = [row for row in result.rows
                 if row["rate"] == 0.0 and row["policy"] == "zero"]
    for row in result.rows:
        if row["rate"] == 0.0:
            match = next(r for r in reference if r["fault"] == row["fault"])
            assert row["macro_f1"] == match["macro_f1"]
            assert row["gap_fraction"] == 0.0


def test_dropping_samples_creates_gaps(result):
    for policy in ("zero", "mean"):
        curve = result.curve("drop", policy)
        assert curve[0][0] == 0.0 and curve[-1][0] == 0.5
        gappy = [row for row in result.rows
                 if row["fault"] == "drop" and row["rate"] == 0.5
                 and row["policy"] == policy]
        assert gappy[0]["gap_fraction"] > 0.0


def test_render_and_report(result):
    text = result.render()
    assert "robustness" in text
    assert "macroF1" in text
    report = result.to_report()
    assert report["experiment"] == "robustness"
    assert len(report["rows"]) == len(result.rows)
    import json

    json.dumps(report)  # the CI artifact must be JSON-serialisable


def test_curve_helper_sorts_by_rate():
    result = RobustnessResult(rows=[
        {"fault": "drop", "rate": 0.4, "policy": "zero", "macro_f1": 0.5},
        {"fault": "drop", "rate": 0.0, "policy": "zero", "macro_f1": 0.9},
        {"fault": "blank", "rate": 0.2, "policy": "zero", "macro_f1": 0.7},
    ])
    assert result.curve("drop", "zero") == [(0.0, 0.9), (0.4, 0.5)]


def test_unknown_gap_policy_rejected():
    with pytest.raises(ValueError, match="gap policy"):
        run_robustness(gap_policies=("interpolate",))
