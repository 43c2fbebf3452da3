"""Tests for explicit missing-data handling in vector assembly.

Gap policies, gap masks and the never-NaN guarantee: telemetry gaps are
masked and imputed, and anything non-finite is rejected loudly before it
can reach training or inference.
"""

import numpy as np
import pytest

from repro.common.records import ServerId, ServerKind
from repro.common.windows import window_index, window_indices
from repro.core.dataset import Dataset
from repro.monitor.aggregator import (
    GAP_POLICIES,
    MonitoredRun,
    assemble_vectors,
    assert_finite,
)
from repro.monitor.schema import CLIENT_FEATURES, SERVER_METRICS

OST0 = ServerId(ServerKind.OST, 0)
OST1 = ServerId(ServerKind.OST, 1)
BASE = len(CLIENT_FEATURES)


def metrics_row(value: float) -> dict[str, float]:
    return {name: value for name in SERVER_METRICS}


def gappy_run() -> MonitoredRun:
    """Three 1s windows; OST1 has samples only in windows 0 and 2.

    Sample at time ``t`` belongs to the window containing ``t - 0.125``
    (half the 0.25 sample interval), so ``t=0.25`` → window 0, etc.
    """
    samples = []
    for tick in range(1, 13):  # t = 0.25 .. 3.0
        t = tick * 0.25
        samples.append((t, OST0, metrics_row(1.0)))
        window = window_index(t - 0.125, 1.0)
        if window != 1:
            samples.append((t, OST1, metrics_row(float(window + 1))))
    return MonitoredRun(job="job", records=[], server_samples=samples,
                        servers=[OST0, OST1], duration=3.0, metadata={})


class TestGapPolicies:
    def test_mask_marks_sampled_cells(self):
        X, windows, mask = assemble_vectors(gappy_run(), 1.0, 0.25,
                                            return_mask=True)
        assert windows == [0, 1, 2]
        assert mask.shape == (3, 2)
        assert mask[:, 0].all()                      # OST0 fully observed
        assert list(mask[:, 1]) == [True, False, True]

    def test_zero_policy_leaves_gap_cells_zero(self):
        X, _, mask = assemble_vectors(gappy_run(), 1.0, 0.25,
                                      gap_policy="zero", return_mask=True)
        assert np.all(X[1, 1, BASE:] == 0.0)

    def test_mean_policy_imputes_server_mean(self):
        X, _ = assemble_vectors(gappy_run(), 1.0, 0.25, gap_policy="mean")
        # OST1's observed windows are 0 (metric value 1) and 2 (value 3);
        # the imputed gap must be their element-wise mean.
        expected = (X[0, 1, BASE:] + X[2, 1, BASE:]) / 2
        assert np.allclose(X[1, 1, BASE:], expected)
        assert X[1, 1, BASE:].any()  # actually filled, not zero

    def test_carry_policy_repeats_last_observed_window(self):
        X, _ = assemble_vectors(gappy_run(), 1.0, 0.25, gap_policy="carry")
        assert np.array_equal(X[1, 1, BASE:], X[0, 1, BASE:])

    def test_policies_agree_on_observed_cells(self):
        run = gappy_run()
        results = [assemble_vectors(run, 1.0, 0.25, gap_policy=p)[0]
                   for p in GAP_POLICIES]
        for X in results[1:]:
            assert np.array_equal(X[:, 0, :], results[0][:, 0, :])
            assert np.array_equal(X[0, 1, :], results[0][0, 1, :])
            assert np.array_equal(X[2, 1, :], results[0][2, 1, :])

    def test_fully_unobserved_server_stays_zero(self):
        run = gappy_run()
        run.server_samples = [row for row in run.server_samples
                              if row[1] != OST1]
        for policy in GAP_POLICIES:
            X, _, mask = assemble_vectors(run, 1.0, 0.25, gap_policy=policy,
                                          return_mask=True)
            assert not mask[:, 1].any()
            assert np.all(X[:, 1, BASE:] == 0.0)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="gap_policy"):
            assemble_vectors(gappy_run(), 1.0, 0.25, gap_policy="magic")

    def test_gap_metrics_published(self):
        from repro.obs.metrics import REGISTRY

        before = REGISTRY.counter("monitor.gap_cells").value
        assemble_vectors(gappy_run(), 1.0, 0.25)
        assert REGISTRY.counter("monitor.gap_cells").value == before + 1
        assert REGISTRY.gauge("monitor.gap_fraction").value == \
            pytest.approx(1 / 6)


class TestFiniteGuards:
    def test_assert_finite_passes_clean_arrays(self):
        X = np.ones((2, 3))
        assert assert_finite(X) is X

    def test_assert_finite_rejects_nan_and_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            assert_finite(np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="non-finite"):
            assert_finite(np.array([np.inf]), context="here")

    def test_assemble_rejects_nan_in_samples(self):
        run = gappy_run()
        run.server_samples[0][2]["ios_completed"] = float("nan")
        with pytest.raises(ValueError, match="non-finite"):
            assemble_vectors(run, 1.0, 0.25)

    def test_dataset_rejects_non_finite_features(self):
        X = np.zeros((4, 2, BASE + len(SERVER_METRICS) * 3))
        y = np.zeros(4, dtype=int)
        X[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(X, y)

    def test_window_helpers_reject_non_finite_times(self):
        with pytest.raises(ValueError):
            window_index(float("nan"), 1.0)
        with pytest.raises(ValueError):
            window_index(float("inf"), 1.0)
        with pytest.raises(ValueError):
            window_indices(np.array([0.5, np.nan]), 1.0)
