"""Tests for post-hoc telemetry fault injection."""

import hashlib

import pytest

from repro.common.units import MIB
from repro.faults import (
    FaultPlan,
    apply_faults,
    blank_client_windows,
    inject_sample_faults,
)
from repro.monitor.aggregator import MonitoredRun
from repro.monitor.server_monitor import ServerMonitor
from repro.obs.metrics import REGISTRY
from repro.sim.cluster import Cluster
from repro.workloads.base import launch
from repro.workloads.ior import IorConfig, IorWorkload


def monitored_ior_write(bytes_per_rank):
    cluster = Cluster()
    monitor = ServerMonitor(cluster, sample_interval=0.05)
    monitor.start()
    workload = IorWorkload(IorConfig(mode="easy", access="write", ranks=4,
                                     bytes_per_rank=bytes_per_rank))
    handle = launch(cluster, workload, [0, 1], 1)
    cluster.env.run(until=handle.done)
    cluster.env.run(until=cluster.env.now + 0.05)
    return MonitoredRun(
        job=workload.name,
        records=cluster.collector.records,
        server_samples=monitor.samples,
        servers=cluster.servers,
        duration=cluster.env.now,
        metadata={},
    )


@pytest.fixture(scope="module")
def clean_run():
    return monitored_ior_write(256 * MIB)


def run_digest(run) -> str:
    """Exact digest of a run's records and server samples, taken as
    tests/sim/test_golden_digests.py takes it."""
    h = hashlib.blake2b(digest_size=12)
    for r in run.records:
        h.update(repr((r.job, r.rank, r.op_id, r.op.value, r.path, r.offset,
                       r.size, tuple(str(s) for s in r.servers),
                       r.start, r.end)).encode())
    for t, server, metrics in run.server_samples:
        h.update(repr((t, str(server), sorted(metrics.items()))).encode())
    return h.hexdigest()


class TestSampleFaults:
    def test_zero_rates_are_identity(self, clean_run):
        samples, stats = inject_sample_faults(
            clean_run.server_samples, FaultPlan(), clean_run.job)
        assert samples == clean_run.server_samples
        assert stats.samples_dropped == 0
        assert stats.samples_in == len(clean_run.server_samples)

    def test_drop_rate_one_loses_everything(self, clean_run):
        samples, stats = inject_sample_faults(
            clean_run.server_samples, FaultPlan(sample_drop_rate=1.0),
            clean_run.job)
        assert samples == []
        assert stats.samples_dropped == len(clean_run.server_samples)

    def test_injection_replays_bit_identically(self, clean_run):
        plan = FaultPlan(seed=11, sample_drop_rate=0.3)
        first, s1 = inject_sample_faults(
            clean_run.server_samples, plan, clean_run.job)
        second, s2 = inject_sample_faults(
            clean_run.server_samples, plan, clean_run.job)
        assert first == second
        assert s1.to_dict() == s2.to_dict()
        assert s1.samples_dropped > 0
        # Survivors keep their sample order.
        kept = iter(clean_run.server_samples)
        assert all(any(row is orig for orig in kept) for row in first)


class TestWindowBlanking:
    def test_zero_rate_is_identity(self, clean_run):
        records, stats = blank_client_windows(
            clean_run.records, FaultPlan(), clean_run.job, clean_run.job,
            0.5, clean_run.duration)
        assert records == clean_run.records
        assert stats.windows_blanked == 0

    def test_blanking_removes_target_windows_only(self, clean_run):
        plan = FaultPlan(seed=0, window_blank_rate=0.5)
        records, stats = blank_client_windows(
            clean_run.records, plan, clean_run.job, clean_run.job,
            0.25, clean_run.duration)
        assert stats.windows_blanked > 0
        assert stats.records_blanked > 0
        assert len(records) == len(clean_run.records) - stats.records_blanked
        # Replay determinism.
        again, _ = blank_client_windows(
            clean_run.records, plan, clean_run.job, clean_run.job,
            0.25, clean_run.duration)
        assert records == again


class TestApplyFaults:
    def test_apply_faults_is_pure_and_annotated(self, clean_run):
        plan = FaultPlan(seed=6, sample_drop_rate=0.4,
                         window_blank_rate=0.3)
        n_samples = len(clean_run.server_samples)
        n_records = len(clean_run.records)
        before = REGISTRY.counter("faults.samples_dropped").value
        faulted = apply_faults(clean_run, plan, window_size=0.25)
        # Original untouched.
        assert len(clean_run.server_samples) == n_samples
        assert len(clean_run.records) == n_records
        # Faulted copy is degraded and self-describing.
        assert len(faulted.server_samples) < n_samples
        assert faulted.metadata["faults"]["plan"] == plan.digest()
        assert faulted.metadata["faults"]["samples_dropped"] > 0
        assert REGISTRY.counter("faults.samples_dropped").value > before
        assert faulted.duration == clean_run.duration
        assert faulted.servers == clean_run.servers

    def test_faulted_run_is_pinned(self):
        """The samples dropped and the windows blanked for a fixed plan
        on a fixed run are pinned: a change to the draws or to the
        decisions made from them shows up as a digest mismatch."""
        run = monitored_ior_write(1024 * MIB)
        assert run_digest(run) == "a3d4fd94bbee63d484e75db8"
        plan = FaultPlan(seed=1, sample_drop_rate=0.3, window_blank_rate=0.3)
        faulted = apply_faults(run, plan, window_size=0.25)
        stats = faulted.metadata["faults"]
        assert (stats["samples_in"], stats["samples_dropped"],
                stats["windows_blanked"], stats["records_blanked"]) == \
            (581, 184, 4, 899)
        assert run_digest(faulted) == "a9886e46bebf7ff5205cd02b"
