"""Tests for the extent allocator and OST."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.units import MIB
from repro.sim.cluster import Cluster
from repro.sim.ost import ExtentAllocator


class TestExtentAllocator:
    def test_sequential_access_allocates_contiguously(self):
        alloc = ExtentAllocator(chunk_bytes=MIB)
        segs = alloc.resolve(1, 0, 4 * MIB)
        assert segs == [(0, 4 * MIB)]

    def test_interleaved_objects_are_interleaved_on_disk(self):
        alloc = ExtentAllocator(chunk_bytes=MIB)
        a0 = alloc.resolve(1, 0, MIB)[0][0]
        b0 = alloc.resolve(2, 0, MIB)[0][0]
        a1 = alloc.resolve(1, MIB, MIB)[0][0]
        assert a0 == 0
        assert b0 == MIB
        assert a1 == 2 * MIB  # object 1's second chunk lands after object 2's

    def test_repeated_access_resolves_to_same_extent(self):
        alloc = ExtentAllocator(chunk_bytes=MIB)
        first = alloc.resolve(7, 0, 2 * MIB)
        second = alloc.resolve(7, 0, 2 * MIB)
        assert first == second

    def test_sub_chunk_offsets(self):
        alloc = ExtentAllocator(chunk_bytes=MIB)
        alloc.resolve(1, 0, MIB)
        segs = alloc.resolve(1, 1000, 500)
        assert segs == [(1000, 500)]

    def test_capacity_enforced(self):
        alloc = ExtentAllocator(chunk_bytes=MIB, capacity_bytes=2 * MIB)
        alloc.resolve(1, 0, 2 * MIB)
        with pytest.raises(RuntimeError, match="full"):
            alloc.resolve(2, 0, MIB)

    def test_bad_extent_rejected(self):
        alloc = ExtentAllocator()
        with pytest.raises(ValueError):
            alloc.resolve(1, -1, 10)
        with pytest.raises(ValueError):
            alloc.resolve(1, 0, 0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(min_value=1, max_value=3),
                  st.integers(min_value=0, max_value=8 * MIB),
                  st.integers(min_value=1, max_value=2 * MIB)),
        min_size=1, max_size=30))
    def test_resolution_covers_extent_without_gaps(self, accesses):
        alloc = ExtentAllocator(chunk_bytes=MIB)
        for obj, offset, size in accesses:
            segs = alloc.resolve(obj, offset, size)
            assert sum(n for _, n in segs) == size
            for dev_off, nbytes in segs:
                assert dev_off >= 0
                assert nbytes > 0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(min_value=1, max_value=3),
                  st.integers(min_value=0, max_value=63)),
        min_size=2, max_size=40, unique=True))
    def test_distinct_chunks_never_share_device_space(self, chunks):
        """Two different (object, chunk) pairs map to disjoint extents."""
        alloc = ExtentAllocator(chunk_bytes=MIB)
        starts = {}
        for obj, chunk in chunks:
            seg = alloc.resolve(obj, chunk * MIB, MIB)
            assert len(seg) == 1
            starts[(obj, chunk)] = seg[0][0]
        offsets = sorted(starts.values())
        for a, b in zip(offsets, offsets[1:]):
            assert b - a >= MIB


def serve(ost, object_id, offset, size, is_write):
    """Event firing when the OST's callback service of one RPC completes."""
    done = ost.env.event()
    ost.serve(object_id, offset, size, None, is_write, done.succeed)
    return done


class TestOST:
    def test_write_then_read_round_trip(self):
        cluster = Cluster()
        env = cluster.env
        ost = cluster.osts[0]

        def proc():
            yield serve(ost, 1, 0, MIB, is_write=True)
            t0 = env.now
            yield serve(ost, 1, 0, MIB, is_write=False)
            return env.now - t0

        dt = env.run(until=env.process(proc()))
        assert ost.cache.read_hits == 1
        assert dt < 1e-3  # cache hit, memory speed

    def test_cold_read_takes_disk_time(self):
        cluster = Cluster()
        env = cluster.env
        ost = cluster.osts[0]

        def proc():
            t0 = env.now
            yield serve(ost, 1, 0, MIB, is_write=False)
            return env.now - t0

        dt = env.run(until=env.process(proc()))
        assert dt > 5e-3  # at least seek + transfer
        assert ost.device.stats.reads_completed >= 1
