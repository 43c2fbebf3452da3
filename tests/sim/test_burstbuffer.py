"""Tests for the node-local burst buffer tier."""

import numpy as np
import pytest

from repro.common.units import GIB, MIB
from repro.sim.burstbuffer import (
    BurstBuffer,
    BurstBufferedSession,
    BurstBufferParams,
)
from repro.sim.cluster import Cluster
from repro.sim.engine import AllOf
from repro.workloads.base import launch_interference
from repro.workloads.io500 import make_io500_task


def make_bb_session(cluster, job="app", rank=0, node=0, **params):
    inner = cluster.session(job, rank, node)
    return BurstBufferedSession.attach(
        inner, BurstBufferParams(**params) if params else None
    )


def test_params_validation():
    with pytest.raises(ValueError):
        BurstBufferParams(capacity_bytes=0)
    with pytest.raises(ValueError):
        BurstBufferParams(write_bandwidth=0)


def test_writes_absorbed_at_local_speed():
    cluster = Cluster()
    sess = make_bb_session(cluster)
    env = cluster.env

    def body():
        yield from sess.create("/f")
        for i in range(8):
            yield from sess.write("/f", i * MIB, MIB)

    env.run(until=env.process(body()))
    writes = [r for r in cluster.collector.for_job("app")
              if r.op.value == "write"]
    assert len(writes) == 8
    # NVMe-speed absorb: ~0.5 ms per MiB, far below PFS latency.
    assert max(r.duration for r in writes) < 2e-3
    assert writes[0].servers == tuple()


def test_buffered_data_drains_to_pfs():
    cluster = Cluster()
    sess = make_bb_session(cluster)
    env = cluster.env

    def body():
        yield from sess.create("/f")
        for i in range(4):
            yield from sess.write("/f", i * MIB, MIB)

    env.run(until=env.process(body()))
    env.run()  # let the drainer finish
    assert sess.buffer.level == 0
    assert sess.buffer.drained_bytes == 4 * MIB
    # The PFS devices really received the data.
    flushed = sum(cluster.server_counters(s)["sectors_written"]
                  for s in cluster.servers)
    assert flushed * 512 >= 4 * MIB


def test_reads_of_resident_data_served_locally():
    cluster = Cluster()
    sess = make_bb_session(cluster, capacity_bytes=GIB)
    env = cluster.env
    served = {}

    def body():
        yield from sess.create("/f")
        yield from sess.write("/f", 0, MIB)
        # Still resident (drainer may not have finished): local read.
        t0 = env.now
        yield from sess.read("/f", 0, MIB)
        served["latency"] = env.now - t0

    env.run(until=env.process(body()))
    assert served["latency"] < 1e-3


def test_capacity_backpressure():
    cluster = Cluster()
    sess = make_bb_session(cluster, capacity_bytes=4 * MIB)
    env = cluster.env

    def body():
        yield from sess.create("/f")
        for i in range(16):
            yield from sess.write("/f", i * MIB, MIB)

    env.run(until=env.process(body()))
    # 16 MiB through a 4 MiB buffer: must have waited on the drain path,
    # i.e. total time >= PFS time for the overflow portion.
    assert env.now > 12 * MIB / cluster.config.net_bandwidth
    env.run()
    assert sess.buffer.level == 0


def test_oversized_write_rejected():
    cluster = Cluster()
    sess = make_bb_session(cluster, capacity_bytes=MIB)

    def body():
        yield from sess.create("/f")
        yield from sess.write("/f", 0, 2 * MIB)

    with pytest.raises(ValueError, match="larger than"):
        cluster.env.run(until=cluster.env.process(body()))


def test_metadata_ops_pass_through():
    cluster = Cluster()
    sess = make_bb_session(cluster)
    env = cluster.env

    def body():
        yield from sess.mkdir("/d")
        yield from sess.create("/d/f")
        yield from sess.stat("/d/f")
        yield from sess.close("/d/f")

    env.run(until=env.process(body()))
    ops = [r.op.value for r in cluster.collector.for_job("app")]
    assert ops == ["mkdir", "create", "stat", "close"]


def test_burst_buffer_shields_writes_from_interference():
    """The related-work claim: under heavy write noise, a burst-buffered
    writer's op latency stays near its quiet latency."""

    def run(buffered: bool, with_noise: bool):
        cluster = Cluster()
        env = cluster.env
        if with_noise:
            noise = make_io500_task("ior-easy-write", name="noise", ranks=3,
                                    scale=0.25)
            launch_interference(cluster, noise, [4, 5, 6], seed=1,
                                record=False)
            env.run(until=1.0)
        inner = cluster.session("app", 0, 0)
        sess = (BurstBufferedSession.attach(inner) if buffered else inner)

        def body():
            yield from sess.create("/f")
            for i in range(16):
                yield from sess.write("/f", i * MIB, MIB)

        env.run(until=env.process(body()))
        writes = [r for r in cluster.collector.for_job("app")
                  if r.op.value == "write"]
        return float(np.mean([r.duration for r in writes]))

    direct_noisy = run(buffered=False, with_noise=True)
    bb_noisy = run(buffered=True, with_noise=True)
    bb_quiet = run(buffered=True, with_noise=False)
    assert bb_noisy < direct_noisy / 3  # shielded
    assert bb_noisy < 5 * bb_quiet  # and close to its quiet self
