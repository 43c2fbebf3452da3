"""Property-based invariant tests across the simulator stack.

These go after conservation laws rather than specific values: nothing the
workloads submit may be lost, duplicated or served out of thin air,
regardless of arrival pattern, whether a run is forked from a shared
warm-up or cut short by a fault plan, and whether writes are absorbed by a
burst buffer first.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.units import KIB, MIB
from repro.experiments.runner import ExperimentConfig, InterferenceSpec
from repro.faults.plan import FaultPlan
from repro.parallel import RunJob
from repro.parallel.warmstart import WarmState
from repro.sim.burstbuffer import (
    BurstBuffer,
    BurstBufferedSession,
    BurstBufferParams,
)
from repro.sim.cache import CacheParams, PageCache
from repro.sim.client import NullCollector
from repro.sim.cluster import Cluster
from repro.sim.disk import DiskModel, DiskParams
from repro.sim.engine import AllOf, Environment
from repro.sim.ost import ExtentAllocator
from repro.sim.scheduler import BlockDevice
from repro.workloads.io500 import make_io500_task
from repro.workloads.ior import IOR_HARD_XFER


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10**7),   # lba
        st.integers(min_value=1, max_value=2048),    # sectors
        st.booleans(),                               # is_write
        st.floats(min_value=0.0, max_value=0.05),    # submit delay
    ),
    min_size=1, max_size=40,
))
def test_block_scheduler_conserves_requests(requests):
    """Every submitted request completes exactly once; sector counters
    account for every sector exactly once (merging included)."""
    env = Environment()
    dev = BlockDevice(env, DiskModel(DiskParams()))
    completions = []

    def submit(i, lba, sectors, is_write, delay):
        yield env.timeout(delay)
        yield dev.submit(lba, sectors, is_write)
        completions.append(i)

    procs = [env.process(submit(i, *req)) for i, req in enumerate(requests)]
    env.run(until=AllOf(env, procs))
    assert sorted(completions) == list(range(len(requests)))
    stats = dev.stats
    n_reads = sum(1 for r in requests if not r[2])
    n_writes = len(requests) - n_reads
    assert stats.reads_completed == n_reads
    assert stats.writes_completed == n_writes
    # Merged dispatches may cover gap-free unions, so sectors moved are
    # at least the sectors requested per direction.
    read_sectors = sum(s for _, s, w, _ in requests if not w)
    write_sectors = sum(s for _, s, w, _ in requests if w)
    assert stats.sectors_read >= read_sectors
    assert stats.sectors_written >= write_sectors
    assert dev.queue_depth == 0


@settings(max_examples=15, deadline=None)
@given(st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=3),       # object id
        st.integers(min_value=0, max_value=32),      # MiB offset
        st.integers(min_value=1, max_value=1024),    # KiB size
    ),
    min_size=1, max_size=25,
))
def test_cache_write_conservation(writes):
    """All dirty bytes eventually reach the device; dirty gauge drains to
    zero; no throttled writer is left stranded."""
    env = Environment()
    dev = BlockDevice(env, DiskModel(DiskParams()))
    alloc = ExtentAllocator()
    cache = PageCache(env, dev, CacheParams(capacity_bytes=8 * MIB), alloc.resolve)

    done = []
    for obj, off_mib, size_kib in writes:
        ev = env.event()
        cache.write(obj, off_mib * MIB, size_kib * KIB, ev.succeed)
        done.append(ev)
    env.run(until=AllOf(env, done))
    env.run()  # drain the flusher completely
    assert cache.dirty_bytes == 0
    assert not cache._throttled
    total_kib = sum(s for _, _, s in writes)
    # Sector rounding makes the device move at least the written bytes.
    assert dev.stats.sectors_written * 512 >= total_kib * KIB


@settings(max_examples=10, deadline=None)
@given(
    n_jobs=st.integers(min_value=1, max_value=3),
    files_per_job=st.integers(min_value=1, max_value=3),
    mib_per_file=st.integers(min_value=1, max_value=4),
)
def test_cluster_end_to_end_conservation(n_jobs, files_per_job, mib_per_file):
    """Client-visible writes equal trace-recorded bytes; every op in the
    trace has positive duration and valid servers."""
    cluster = Cluster()
    env = cluster.env

    def writer(sess, path):
        yield from sess.create(path)
        for i in range(mib_per_file):
            yield from sess.write(path, i * MIB, MIB)

    procs = []
    for j in range(n_jobs):
        for f in range(files_per_job):
            sess = cluster.session(f"job{j}", f, (j + f) % 7)
            procs.append(env.process(writer(sess, f"/j{j}/f{f}")))
    env.run(until=AllOf(env, procs))
    recs = cluster.collector.records
    written = sum(r.size for r in recs if r.op.value == "write")
    assert written == n_jobs * files_per_job * mib_per_file * MIB
    for r in recs:
        assert r.end >= r.start
        assert r.servers, f"op {r.key} touched no servers"


def test_network_conservation_under_cluster_load():
    """Bytes delivered by the flow network match payload bytes moved."""
    cluster = Cluster()
    env = cluster.env
    sess = cluster.session("job", 0, 0)

    def body():
        yield from sess.create("/f")
        for i in range(8):
            yield from sess.write("/f", i * MIB, MIB)
        for i in range(8):
            yield from sess.read("/f", i * MIB, MIB)

    env.run(until=env.process(body()))
    assert cluster.net.bytes_delivered == pytest.approx(16 * MIB, rel=1e-9)


#: Every IO500 noise family, and every IOR target shape.
NOISE_TASKS = ("ior-easy-write", "ior-hard-write", "mdt-easy-write",
               "mdt-hard-write")
IOR_TARGETS = ("ior-easy-write", "ior-easy-read", "ior-hard-write",
               "ior-hard-read")


@settings(max_examples=8, deadline=None)
@given(noise=st.sampled_from(NOISE_TASKS), task=st.sampled_from(IOR_TARGETS),
       abort_after=st.one_of(st.none(),
                             st.floats(min_value=0.05, max_value=0.5)))
def test_forked_and_aborted_runs_conserve(noise, task, abort_after):
    """A run forked from a shared warm-up, whole or cut short by a fault
    plan's abort, loses, duplicates and invents nothing: the target moves
    exactly its volume (no more when aborted), every op ends after it
    starts, on the servers it names, within the run, and the monitor
    samples every server once per tick, up to the run's end."""
    config = ExperimentConfig(window_size=0.25, sample_interval=0.125,
                              warmup=0.25, seed=0)
    specs = (InterferenceSpec(noise, instances=1, ranks=2, scale=0.05),)
    target = make_io500_task(task, ranks=2, scale=0.05)
    state = WarmState(RunJob(target, specs, config, seed_salt=noise), None)
    abort_at = None
    if abort_after is not None:
        plan = FaultPlan(run_abort_rate=1.0,
                         run_abort_after=config.warmup + abort_after)
        abort_at = plan.run_abort_time(target.name, noise)
    run, _ = state.run(target, abort_at)

    cfg = target.config
    per_rank = (cfg.bytes_per_rank if cfg.mode == "easy"
                else target._hard_ops_per_rank * IOR_HARD_XFER)
    records = [r for r in run.records if r.job == target.name]
    moved = sum(r.size for r in records if r.op.value == cfg.access)
    if run.metadata.get("aborted"):
        assert moved <= cfg.ranks * per_rank
    else:
        assert moved == cfg.ranks * per_rank
    for r in records:
        assert config.warmup <= r.start <= r.end <= run.duration
        assert r.servers, f"op {r.key} touched no servers"

    interval = config.sample_interval
    ticks = sorted({t for t, _, _ in run.server_samples})
    assert ticks == [interval * k for k in range(1, len(ticks) + 1)]
    assert len(ticks) == int(run.duration // interval)
    assert len(run.server_samples) == len(ticks) * len(run.servers)
    assert len({(t, s) for t, s, _ in run.server_samples}) \
        == len(run.server_samples)
    for _, _, metrics in run.server_samples:
        assert min(metrics.values()) >= 0


class WatchedBuffer(BurstBuffer):
    """A burst buffer that records every level it takes."""

    def __init__(self, *args, **kwargs) -> None:
        self.levels: list[int] = []
        super().__init__(*args, **kwargs)

    def __setattr__(self, name, value) -> None:
        if name == "level":
            self.levels.append(value)
        super().__setattr__(name, value)


@settings(max_examples=15, deadline=None)
@given(
    capacity_mib=st.integers(min_value=1, max_value=4),
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),       # writer
            st.integers(min_value=1, max_value=4096),    # KiB size
            st.floats(min_value=0.0, max_value=0.01),    # delay before
        ),
        min_size=1, max_size=30,
    ),
)
def test_burst_buffer_conserves_bytes(capacity_mib, writes):
    """Up to three writers share one small burst buffer: its level stays
    within [0, capacity] throughout, every write is absorbed and recorded
    once, and once drained every absorbed byte has reached the PFS and
    the buffer is empty, with no writer left waiting."""
    cluster = Cluster()
    env = cluster.env
    capacity = capacity_mib * MIB
    inner = cluster.session("app", 0, 0)
    drain = cluster.session("app-bbdrain", 0, 0)
    drain.collector = NullCollector()
    buffer = WatchedBuffer(env, drain,
                           BurstBufferParams(capacity_bytes=capacity))
    sess = BurstBufferedSession(inner, buffer)
    sizes = [min(size_kib * KIB, capacity) for _, size_kib, _ in writes]

    def writer(w):
        path = f"/w{w}"
        yield from sess.create(path)
        offset = 0
        for (who, _, delay), size in zip(writes, sizes):
            if who != w:
                continue
            yield env.timeout(delay)
            yield from sess.write(path, offset, size)
            offset += size

    env.run(until=AllOf(env, [env.process(writer(w)) for w in range(3)]))
    env.run()  # let the drainer finish
    assert buffer.levels[0] == 0
    assert all(0 <= level <= capacity for level in buffer.levels)
    assert buffer.absorbed_bytes == buffer.drained_bytes == sum(sizes)
    assert buffer.level == 0
    assert not buffer._waiters and not buffer._pending
    recorded = [r.size for r in cluster.collector.records
                if r.op.value == "write"]
    assert sorted(recorded) == sorted(sizes)
