"""Tests for the server-side monitor and vector assembly."""

import numpy as np
import pytest

from repro.common.records import ServerId, ServerKind
from repro.common.units import MIB
from repro.monitor.aggregator import MonitoredRun, assemble_vectors
from repro.monitor.schema import (
    CLIENT_FEATURES,
    SERVER_FEATURES,
    SERVER_METRICS,
    VECTOR_FEATURES,
    vector_dim,
)
from repro.monitor.server_monitor import ServerMonitor, window_feature_arrays
from repro.sim.cluster import Cluster
from repro.workloads.base import launch
from repro.workloads.ior import IorConfig, IorWorkload


def run_monitored(workload, sample_interval=0.25):
    cluster = Cluster()
    monitor = ServerMonitor(cluster, sample_interval=sample_interval)
    monitor.start()
    handle = launch(cluster, workload, [0, 1], 1)
    cluster.env.run(until=handle.done)
    cluster.env.run(until=cluster.env.now + 1.0)  # one trailing sample period
    return cluster, monitor


def test_schema_consistency():
    assert vector_dim() == len(CLIENT_FEATURES) + len(SERVER_FEATURES)
    assert len(SERVER_FEATURES) == len(SERVER_METRICS) * 3
    assert VECTOR_FEATURES[: len(CLIENT_FEATURES)] == CLIENT_FEATURES


def test_monitor_collects_samples_for_all_servers():
    w = IorWorkload(IorConfig(mode="easy", access="write", ranks=2,
                              bytes_per_rank=4 * MIB))
    cluster, monitor = run_monitored(w)
    sampled_servers = {s for _, s, _ in monitor.samples}
    assert sampled_servers == set(cluster.servers)


def test_write_workload_moves_sector_counters():
    w = IorWorkload(IorConfig(mode="easy", access="write", ranks=2,
                              bytes_per_rank=8 * MIB))
    cluster, monitor = run_monitored(w)
    total_written = sum(
        m["sectors_written"] for _, s, m in monitor.samples
        if s.kind is ServerKind.OST
    )
    assert total_written >= 16 * MIB / 512 * 0.9  # most data flushed


def test_deltas_not_cumulative():
    """Per-sample metrics are interval deltas, so their sum matches the
    final cumulative counter (not a sum of cumulative values)."""
    w = IorWorkload(IorConfig(mode="easy", access="write", ranks=1,
                              bytes_per_rank=4 * MIB))
    cluster, monitor = run_monitored(w)
    per_server_sum = {}
    for _, s, m in monitor.samples:
        per_server_sum[s] = per_server_sum.get(s, 0.0) + m["ios_completed"]
    for s in cluster.servers:
        counters = cluster.server_counters(s)
        final = counters["reads_completed"] + counters["writes_completed"]
        assert per_server_sum.get(s, 0.0) == pytest.approx(final, abs=1.0)


def test_window_features_have_sum_mean_std():
    w = IorWorkload(IorConfig(mode="easy", access="write", ranks=1,
                              bytes_per_rank=2 * MIB))
    _, monitor = run_monitored(w)
    keys, features = window_feature_arrays(monitor.samples, 1.0,
                                           monitor.sample_interval)
    assert keys
    assert features.shape == (len(keys), len(SERVER_FEATURES))
    # Each (window, server) row holds sum, mean and std of its samples.
    (window, server), row = keys[0], dict(zip(SERVER_FEATURES, features[0]))
    half = monitor.sample_interval / 2
    mine = [m for t, s, m in monitor.samples
            if s == server and int((t - half) // 1.0) == window]
    for metric in SERVER_METRICS:
        values = np.array([m[metric] for m in mine])
        assert row[f"{metric}_sum"] == pytest.approx(values.sum())
        assert row[f"{metric}_mean"] == pytest.approx(values.mean())
        assert row[f"{metric}_std"] == pytest.approx(values.std())


def test_monitor_cannot_start_twice():
    cluster = Cluster()
    monitor = ServerMonitor(cluster)
    monitor.start()
    with pytest.raises(RuntimeError):
        monitor.start()


def test_invalid_sample_interval():
    with pytest.raises(ValueError):
        ServerMonitor(Cluster(), sample_interval=0.0)


class TestAssembleVectors:
    def make_run(self):
        w = IorWorkload(IorConfig(mode="easy", access="write", ranks=2,
                                  bytes_per_rank=8 * MIB))
        cluster, monitor = run_monitored(w)
        return MonitoredRun(
            job=w.name,
            records=cluster.collector.records,
            server_samples=monitor.samples,
            servers=cluster.servers,
            duration=cluster.env.now,
        )

    def test_shape_and_layout(self):
        run = self.make_run()
        X, windows = assemble_vectors(run, window_size=1.0)
        assert X.shape[1] == len(run.servers)
        assert X.shape[2] == vector_dim()
        assert len(windows) == X.shape[0]

    def test_client_features_present_for_active_windows(self):
        run = self.make_run()
        X, _ = assemble_vectors(run, window_size=1.0)
        n_write_idx = CLIENT_FEATURES.index("n_write")
        assert X[:, :, n_write_idx].sum() > 0

    def test_server_features_present(self):
        run = self.make_run()
        X, _ = assemble_vectors(run, window_size=1.0)
        base = len(CLIENT_FEATURES)
        sw_idx = base + SERVER_FEATURES.index("sectors_written_sum")
        assert X[:, :, sw_idx].sum() > 0

    def test_values_are_finite(self):
        run = self.make_run()
        X, _ = assemble_vectors(run, window_size=0.5)
        assert np.isfinite(X).all()
