"""Tests for the write-back page cache."""

import pytest

from repro.common.units import KIB, MIB
from repro.sim.cache import CacheParams, PageCache
from repro.sim.disk import DiskModel, DiskParams
from repro.sim.engine import AllOf, Environment
from repro.sim.ost import ExtentAllocator
from repro.sim.scheduler import BlockDevice


def make_cache(env=None, **params):
    env = env or Environment()
    device = BlockDevice(env, DiskModel(DiskParams()))
    alloc = ExtentAllocator()
    cache = PageCache(env, device, CacheParams(**params), alloc.resolve)
    return env, cache, device


def write(cache, object_id, offset, size):
    """Event firing when the cache's callback write completes."""
    done = cache.env.event()
    cache.write(object_id, offset, size, done.succeed)
    return done


def read(cache, object_id, offset, size):
    """Event firing when the cache's callback read completes."""
    done = cache.env.event()
    cache.read(object_id, offset, size, done.succeed)
    return done


def test_write_completes_at_memory_speed_when_cache_empty():
    env, cache, _ = make_cache()

    def proc():
        yield write(cache, 1, 0, MIB)
        return env.now

    t = env.run(until=env.process(proc()))
    assert t == pytest.approx(MIB / CacheParams().memcpy_bandwidth)


def test_dirty_data_is_flushed_to_disk():
    env, cache, device = make_cache()

    def proc():
        yield write(cache, 1, 0, MIB)

    env.run(until=env.process(proc()))
    env.run()  # let the flusher drain
    assert cache.dirty_bytes == 0
    assert device.stats.sectors_written == MIB // 512


def test_writers_throttled_when_over_dirty_limit():
    env, cache, _ = make_cache(capacity_bytes=8 * MIB, dirty_limit_fraction=0.25)
    # dirty limit = 2 MiB; write 8 x 1 MiB: writers must block on the disk.
    finish = {}

    def writer(i):
        yield write(cache, 1, i * MIB, MIB)
        finish[i] = env.now

    procs = [env.process(writer(i)) for i in range(8)]
    env.run(until=AllOf(env, procs))
    assert cache.throttle_events > 0
    # Throttled writes take at least the disk time for the overflow bytes.
    disk_time_per_mib = MIB / DiskParams().sequential_bandwidth
    assert max(finish.values()) >= 5 * disk_time_per_mib


def test_read_after_write_hits_cache():
    env, cache, device = make_cache()

    def proc():
        yield write(cache, 1, 0, MIB)
        yield read(cache, 1, 0, MIB)

    env.run(until=env.process(proc()))
    assert cache.read_hits == 1
    assert cache.read_misses == 0
    assert device.stats.reads_completed == 0


def test_cold_read_misses_and_reads_disk():
    env, cache, device = make_cache()

    def proc():
        yield read(cache, 1, 0, MIB)

    env.run(until=env.process(proc()))
    assert cache.read_misses == 1
    assert device.stats.sectors_read >= MIB // 512


def test_readahead_turns_sequential_reads_into_hits():
    env, cache, _ = make_cache(readahead_bytes=2 * MIB)

    def proc():
        for i in range(8):
            yield read(cache, 1, i * 256 * KIB, 256 * KIB)

    env.run(until=env.process(proc()))
    # First read establishes the stream (no readahead yet); the second
    # miss arms readahead and covers the remaining six reads.
    assert cache.read_misses == 2
    assert cache.read_hits == 6


def test_random_reads_get_no_readahead():
    env, cache, device = make_cache(readahead_bytes=2 * MIB)

    def proc():
        # Single-shot reads of distinct objects (mdtest-hard style).
        for obj in range(1, 5):
            yield read(cache, obj, 0, 4 * KIB)

    env.run(until=env.process(proc()))
    assert cache.read_misses == 4
    # No readahead: the device moved only ~4 KiB per read.
    assert device.stats.sectors_read <= 4 * (4 * KIB // 512) + 8


def test_lru_eviction_bounds_cached_chunks():
    env, cache, _ = make_cache(capacity_bytes=1 * MIB, chunk_bytes=256 * KIB,
                               readahead_bytes=0)

    def proc():
        for i in range(16):
            yield read(cache, 1, i * 256 * KIB, 256 * KIB)
        # Re-reading the first chunk must miss: it was evicted.
        yield read(cache, 1, 0, 256 * KIB)

    env.run(until=env.process(proc()))
    assert cache.read_misses == 17
    assert cache.cached_chunk_count <= 4


def test_oversized_single_write_rejected():
    env, cache, _ = make_cache(capacity_bytes=4 * MIB, dirty_limit_fraction=0.25)

    def proc():
        yield write(cache, 1, 0, 2 * MIB)

    with pytest.raises(ValueError, match="dirty limit"):
        env.run(until=env.process(proc()))


def test_zero_size_operations_rejected():
    env, cache, _ = make_cache()
    with pytest.raises(ValueError):
        cache.write(1, 0, 0, lambda: None)
    with pytest.raises(ValueError):
        cache.read(1, 0, 0, lambda: None)


def test_flush_marks_chunks_clean_but_cached():
    env, cache, device = make_cache()

    def proc():
        yield write(cache, 1, 0, MIB)

    env.run(until=env.process(proc()))
    env.run()
    assert cache.dirty_bytes == 0
    assert cache.dirty_chunk_count == 0
    assert cache.cached_chunk_count > 0

    def reader():
        yield read(cache, 1, 0, MIB)

    env.run(until=env.process(reader()))
    assert cache.read_hits == 1
