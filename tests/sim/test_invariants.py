"""Property-based invariant tests across the simulator stack.

These go after conservation laws rather than specific values: nothing the
workloads submit may be lost, duplicated or served out of thin air,
regardless of arrival pattern.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.units import KIB, MIB
from repro.sim.cache import CacheParams, PageCache
from repro.sim.cluster import Cluster
from repro.sim.disk import DiskModel, DiskParams
from repro.sim.engine import AllOf, Environment
from repro.sim.ost import ExtentAllocator
from repro.sim.scheduler import BlockDevice


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
