"""Tests for workload launching and interference loops."""

import pytest

from repro.common import rng as rng_module
from repro.common.rng import derive_rng
from repro.common.units import MIB
from repro.sim.cluster import Cluster
from repro.workloads import base
from repro.workloads.base import launch, launch_interference
from repro.workloads.dlio import DLIOConfig, DLIOWorkload
from repro.workloads.ior import IorConfig, IorWorkload


def small_write(name="w", ranks=2):
    return IorWorkload(
        IorConfig(mode="easy", access="write", ranks=ranks, bytes_per_rank=MIB),
        name=name,
    )


def test_launch_requires_nodes():
    cluster = Cluster()
    with pytest.raises(ValueError):
        launch(cluster, small_write(), [], 1)
    with pytest.raises(ValueError):
        launch_interference(cluster, small_write(), [], 1)


def test_launch_round_robins_ranks_over_nodes():
    cluster = Cluster()
    handle = launch(cluster, small_write(ranks=4), [2, 5], 1)
    cluster.env.run(until=handle.done)
    # Ranks 0,2 -> node 2; ranks 1,3 -> node 5. All records exist.
    assert len({r.rank for r in cluster.collector.records}) == 4


def test_done_event_fires_when_all_ranks_finish():
    cluster = Cluster()
    handle = launch(cluster, small_write(ranks=3), [0, 1, 2], 1)
    cluster.env.run(until=handle.done)
    assert all(not p.is_alive for p in handle.processes)


def test_interference_loops_until_abandoned():
    cluster = Cluster()
    handle = launch_interference(cluster, small_write(name="noise", ranks=1),
                                 [0], 1)
    assert handle.done is None
    cluster.env.run(until=1.0)
    instances = {r.path.split("/")[2] for r in cluster.collector.records
                 if r.op.value == "write"}
    # Several iterations should have completed within a second.
    assert len(instances) >= 2
    assert all(p.is_alive for p in handle.processes)


def test_target_and_interference_coexist():
    cluster = Cluster()
    launch_interference(cluster, small_write(name="noise", ranks=2), [1, 2], 7)
    target = launch(cluster, small_write(name="target", ranks=1), [0], 7)
    cluster.env.run(until=target.done)
    jobs = {r.job for r in cluster.collector.records}
    assert jobs == {"noise", "target"}


def test_looping_ior_builds_no_generator(monkeypatch):
    """IOR draws no random numbers, so its noise iterations never build
    the Generator they are handed."""
    built = []
    monkeypatch.setattr(rng_module, "derive_rng",
                        lambda *key: built.append(key))
    cluster = Cluster()
    launch_interference(cluster, small_write(name="noise", ranks=2), [1, 2],
                        7)
    cluster.env.run(until=1.0)
    assert len({r.path.split("/")[2] for r in cluster.collector.records}) >= 2
    assert built == []


def test_looping_dlio_draws_the_eager_streams(monkeypatch):
    """A noise workload that draws sees the streams an eagerly built
    Generator per iteration gives."""

    def records(lazy: bool):
        if not lazy:
            monkeypatch.setattr(base, "LazyRng", derive_rng)
        cluster = Cluster()
        dlio = DLIOWorkload(DLIOConfig(
            model="bert", ranks=2, epochs=1, steps_per_epoch=2,
            sample_bytes=MIB, batch_read_bytes=256 * 1024,
            checkpoint_bytes=MIB, compute_time=0.01))
        launch_interference(cluster, dlio, [1, 2], 3)
        cluster.env.run(until=0.5)
        return [(r.rank, r.op_id, r.op, r.path, r.offset, r.size, r.start,
                 r.end) for r in cluster.collector.records]

    lazy = records(True)
    assert lazy and lazy == records(False)
