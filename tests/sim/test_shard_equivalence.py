"""Bit-identity of the sharded executor across shard counts.

The contract of ``--shards N`` (:mod:`repro.sim.shard`) is that the
conservative sync protocol's decisions are functions of simulation state
only — never of how domains map onto processes — so traces, server
samples, window vectors and labels from ``--shards 4`` are byte-
identical to ``--shards 1``, for data and metadata workloads alike,
and the run-cache key is shard-count-invariant (a warm cache keeps hitting whatever
parallelism the machine offers).  These tests pin all of that.
"""

import dataclasses

import numpy as np
import pytest

from repro.experiments.datagen import Scenario, collect_windows
from repro.experiments.runner import (
    ExperimentConfig,
    InterferenceSpec,
    execute_run,
    experiment_cluster,
)
from repro.parallel import RunCache, RunJob, SweepExecutor
from repro.workloads.io500 import make_io500_task


def config_for() -> ExperimentConfig:
    return ExperimentConfig(cluster=experiment_cluster(), window_size=0.25,
                            sample_interval=0.125, warmup=0.5, seed=0)


#: (target, noise) IO500 tasks exercising each of the simulator's two
#: request paths: data ops walk the columnar callback chain of
#: repro.sim.batch; metadata ops are generator steps on engine events
#: (ClientSession._meta_op) into the MDS.
PATH_TASKS = {
    "batch": ("ior-easy-write", "ior-hard-write"),
    "event": ("mdt-easy-write", "mdt-hard-write"),
}


def target(path: str = "batch"):
    return make_io500_task(PATH_TASKS[path][0], ranks=2, scale=0.1)


def noise(path: str = "batch"):
    return [InterferenceSpec(PATH_TASKS[path][1], instances=2, ranks=2,
                             scale=0.1)]


def assert_runs_identical(ref, other):
    """Byte-identity: exact float equality, not approx."""
    assert other.records == ref.records
    assert other.server_samples == ref.server_samples
    assert other.duration == ref.duration
    assert other.servers == ref.servers
    assert other.metadata == ref.metadata


@pytest.mark.parametrize("path", ["batch", "event"])
def test_byte_identical_across_shard_counts(path):
    """shards=2 and shards=4 reproduce shards=1 exactly, on data-op and
    metadata-op workloads."""
    cfg = config_for()
    runs = [execute_run(target(path), noise(path), cfg, shards=n)
            for n in (1, 2, 4)]
    for other in runs[1:]:
        assert_runs_identical(runs[0], other)
    assert runs[0].metadata["sharded"] is True


def test_quiet_run_identical_across_shard_counts():
    """No-noise runs (no warmup phase) also agree across shard counts."""
    cfg = config_for()
    one = execute_run(target(), [], cfg, shards=1)
    many = execute_run(target(), [], cfg, shards=3)
    assert_runs_identical(one, many)


def test_aborted_run_identical_across_shard_counts():
    """The fault-injection abort path truncates identically at any N."""
    cfg = config_for()
    one = execute_run(target(), noise(), cfg, shards=1, abort_at=0.7)
    many = execute_run(target(), noise(), cfg, shards=3, abort_at=0.7)
    assert one.metadata["aborted"] is True
    assert one.metadata["abort_at"] == 0.7
    assert_runs_identical(one, many)


def test_window_banks_identical_across_shard_counts():
    """Assembled vectors and labels agree: the full datagen pipeline."""
    targets = [target()]
    scenarios = [
        Scenario("quiet"),
        Scenario("noise", (InterferenceSpec("ior-easy-write", instances=2,
                                            ranks=2, scale=0.1),)),
    ]
    banks = {
        n: collect_windows(targets, scenarios, config_for(),
                           executor=SweepExecutor(shards=n))
        for n in (1, 3)
    }
    assert np.array_equal(banks[1].X, banks[3].X)
    assert np.array_equal(banks[1].levels, banks[3].levels)


def test_cache_key_shard_count_invariant():
    """One key for every shard count; a different key than legacy."""
    job = RunJob(target(), tuple(noise()), config_for())
    keys = {SweepExecutor(shards=n).key_for(job) for n in (1, 2, 8)}
    assert len(keys) == 1
    assert SweepExecutor().key_for(job) not in keys


def test_run_cache_shared_across_shard_counts(tmp_path):
    """A cache warmed at shards=1 satisfies shards=4 without simulating."""
    job = RunJob(target(), tuple(noise()), config_for())
    cold = SweepExecutor(shards=1, cache=RunCache(tmp_path))
    first = cold.run_one(job)
    assert cold.runs_executed == 1
    warm = SweepExecutor(shards=4, cache=RunCache(tmp_path))
    second = warm.run_one(job)
    assert warm.runs_executed == 0
    assert second.records == first.records


def test_invalid_shard_parameters_rejected():
    with pytest.raises(ValueError, match="shards"):
        execute_run(target(), [], config_for(), shards=0)
    with pytest.raises(ValueError, match="shards"):
        SweepExecutor(shards=0)
    # The protocol's lookahead is the per-RPC latency; a zero-latency
    # cluster has no lookahead and a window could never make progress.
    cfg = config_for()
    client = dataclasses.replace(cfg.cluster.client, rpc_latency=0.0)
    broken = dataclasses.replace(
        cfg, cluster=dataclasses.replace(cfg.cluster, client=client))
    with pytest.raises(ValueError, match="rpc_latency"):
        execute_run(target(), [], broken, shards=2)


def test_trace_spans_identical_across_shard_counts():
    """Traced runs emit one span stream whatever the shard count.

    Domains record into per-domain tracers merged in domain-index order
    with ``domain{d}`` labels, so the stream never depends on which
    process hosted a domain — ids, parents, names, sim timestamps and
    attrs all agree between ``--shards 1`` and ``--shards 3``.
    """
    from repro.obs import trace as _trace

    def spans_for(n):
        saved = _trace.TRACER
        _trace.TRACER = tracer = _trace.Tracer(trace_id="t-shard")
        try:
            execute_run(target(), noise(), config_for(), shards=n)
        finally:
            _trace.TRACER = saved
        return [s.to_dict() for s in tracer.spans]

    one, many = spans_for(1), spans_for(3)
    assert len(one) > 0
    assert one == many
    assert any(s["attrs"].get("worker", "").startswith("domain")
               for s in one)


def test_sharded_metadata_marks_run():
    """Sharded runs are distinguishable in manifests but not by count."""
    cfg = config_for()
    one = execute_run(target(), [], cfg, shards=1)
    many = execute_run(target(), [], cfg, shards=2)
    assert one.metadata["sharded"] is True
    assert one.metadata == many.metadata  # no shard count leaks out


def test_cache_key_window_policy_invariant():
    """The window policy, like the shard count, is an executor knob:
    one cache key whatever the policy, so a cache warmed under one
    policy keeps hitting under the other."""
    job = RunJob(target(), tuple(noise()), config_for())
    keys = {
        SweepExecutor(shards=2, window_policy=policy).key_for(job)
        for policy in (None, "fixed", "adaptive", "adaptive:cap=0.01")
    }
    assert len(keys) == 1


def test_run_cache_shared_across_window_policies(tmp_path):
    """A cache warmed under fixed windows satisfies adaptive runs
    without simulating."""
    job = RunJob(target(), tuple(noise()), config_for())
    cold = SweepExecutor(shards=1, window_policy="fixed",
                         cache=RunCache(tmp_path))
    first = cold.run_one(job)
    assert cold.runs_executed == 1
    warm = SweepExecutor(shards=1, window_policy="adaptive",
                         cache=RunCache(tmp_path))
    second = warm.run_one(job)
    assert warm.runs_executed == 0
    assert second.records == first.records
