"""Tests for monitored-run persistence."""

import numpy as np
import pytest

from repro.common.units import MIB
from repro.monitor.aggregator import MonitoredRun, assemble_vectors
from repro.monitor.persist import load_run, save_run
from repro.monitor.server_monitor import ServerMonitor
from repro.sim.cluster import Cluster
from repro.workloads.base import launch
from repro.workloads.ior import IorConfig, IorWorkload


@pytest.fixture(scope="module")
def sample_run():
    cluster = Cluster()
    monitor = ServerMonitor(cluster, sample_interval=0.25)
    monitor.start()
    w = IorWorkload(IorConfig(mode="easy", access="write", ranks=2,
                              bytes_per_rank=4 * MIB))
    handle = launch(cluster, w, [0, 1], seed=2)
    cluster.env.run(until=handle.done)
    cluster.env.run(until=cluster.env.now + 0.5)
    return MonitoredRun(
        job=w.name,
        records=cluster.collector.records,
        server_samples=monitor.samples,
        servers=cluster.servers,
        duration=cluster.env.now,
        metadata={"note": "unit-test run", "instances": 0},
    )


def test_round_trip_preserves_everything(tmp_path, sample_run):
    save_run(sample_run, tmp_path / "run")
    back = load_run(tmp_path / "run")
    assert back.job == sample_run.job
    assert back.duration == pytest.approx(sample_run.duration)
    assert back.servers == sample_run.servers
    assert back.records == sample_run.records
    assert back.metadata["note"] == "unit-test run"
    assert len(back.server_samples) == len(sample_run.server_samples)
    t0, s0, m0 = sample_run.server_samples[0]
    t1, s1, m1 = back.server_samples[0]
    assert (t0, s0) == (t1, s1)
    assert m0 == pytest.approx(m1)


def test_vectors_identical_after_round_trip(tmp_path, sample_run):
    """Feature assembly from a reloaded run is bit-identical."""
    save_run(sample_run, tmp_path / "run2")
    back = load_run(tmp_path / "run2")
    X1, w1 = assemble_vectors(sample_run, 0.5, 0.25)
    X2, w2 = assemble_vectors(back, 0.5, 0.25)
    assert w1 == w2
    assert np.array_equal(X1, X2)


def test_files_written(tmp_path, sample_run):
    out = save_run(sample_run, tmp_path / "run3")
    assert (out / "records.dxt").exists()
    assert (out / "samples.npz").exists()
    assert (out / "meta.json").exists()


def test_round_trip_with_multiple_servers_and_empty_windows(tmp_path):
    """A run whose monitor sampled every server but whose trace never
    touched some of them (idle windows everywhere) must survive the
    round trip: all seven servers, samples full of zero-delta rows, and
    windows with no client records at all."""
    cluster = Cluster()
    monitor = ServerMonitor(cluster, sample_interval=0.25)
    monitor.start()
    # Let the monitor tick with zero I/O: every window is empty.
    cluster.env.run(until=1.0)
    run = MonitoredRun(
        job="idle-job",
        records=[],
        server_samples=monitor.samples,
        servers=cluster.servers,
        duration=cluster.env.now,
        metadata={},
    )
    assert len(run.servers) == 7  # 6 OSTs + the MDT
    save_run(run, tmp_path / "idle")
    back = load_run(tmp_path / "idle")
    assert back.records == []
    assert back.servers == run.servers
    assert len(back.server_samples) == len(run.server_samples)
    sampled_servers = {s for _, s, _ in back.server_samples}
    assert sampled_servers == set(run.servers)
    for (t0, s0, m0), (t1, s1, m1) in zip(run.server_samples,
                                          back.server_samples):
        assert (t0, s0) == (t1, s1)
        assert m0 == pytest.approx(m1)


def test_round_trip_of_fully_empty_run(tmp_path):
    """No records *and* no samples: the degenerate but legal corner."""
    cluster = Cluster()
    run = MonitoredRun(job="nothing", records=[], server_samples=[],
                       servers=cluster.servers, duration=0.0, metadata={})
    save_run(run, tmp_path / "empty")
    back = load_run(tmp_path / "empty")
    assert back.job == "nothing"
    assert back.records == []
    assert back.server_samples == []
    assert back.servers == run.servers
    assert back.duration == 0.0


def test_schema_mismatch_detected(tmp_path, sample_run):
    save_run(sample_run, tmp_path / "run4")
    data = dict(np.load(tmp_path / "run4" / "samples.npz"))
    data["metric_names"] = np.array(["bogus"])
    np.savez_compressed(tmp_path / "run4" / "samples.npz", **data)
    with pytest.raises(ValueError, match="schema"):
        load_run(tmp_path / "run4")
