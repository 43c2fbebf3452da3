"""Tests for the rotational disk model and diskstats counters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.units import MIB, SECTOR_SIZE
from repro.sim.disk import DiskModel, DiskParams, DiskStats


def test_sequential_access_has_no_positioning_cost():
    model = DiskModel(DiskParams())
    first = model.service_time(0, 2048)  # includes initial "seek" from LBA 0? no: head at 0
    # Head starts at 0 and request starts at 0 -> pure transfer.
    expected = 2048 * SECTOR_SIZE / DiskParams().sequential_bandwidth
    assert first == pytest.approx(expected)
    # Contiguous follow-up: again pure transfer.
    second = model.service_time(2048, 2048)
    assert second == pytest.approx(expected)


def test_random_access_pays_seek_and_rotation():
    params = DiskParams()
    model = DiskModel(params)
    model.service_time(0, 8)
    far = model.service_time(params.total_sectors // 2, 8)
    near = 8 * SECTOR_SIZE / params.sequential_bandwidth
    assert far > near + params.seek_min + params.rotational_latency_avg * 0.9
    # Full-stroke seek bounded by ~2x average seek + rotation + transfer.
    assert far < 2 * params.seek_avg + params.rotational_latency_avg + near + 1e-9


def test_seek_cost_grows_with_distance():
    params = DiskParams()
    m1 = DiskModel(params)
    m1.service_time(0, 8)
    short = m1.service_time(10_000, 8)
    m2 = DiskModel(params)
    m2.service_time(0, 8)
    long = m2.service_time(params.total_sectors - 8, 8)
    assert long > short


def test_interleaved_streams_slower_than_single_stream():
    """Two interleaved sequential streams must cost more than one stream of
    the same total size — the core read/read interference mechanism."""
    params = DiskParams()
    single = DiskModel(params)
    t_single = sum(single.service_time(i * 64, 64) for i in range(64))

    inter = DiskModel(params)
    base_a, base_b = 0, params.total_sectors // 2
    t_inter = 0.0
    for i in range(32):
        t_inter += inter.service_time(base_a + i * 64, 64)
        t_inter += inter.service_time(base_b + i * 64, 64)
    assert t_inter > 3 * t_single


def test_rotational_latency_matches_rpm():
    assert DiskParams(rpm=7200).rotational_latency_avg == pytest.approx(60 / 7200 / 2)


def test_service_time_rejects_bad_args():
    model = DiskModel(DiskParams())
    with pytest.raises(ValueError):
        model.service_time(0, 0)
    with pytest.raises(ValueError):
        model.service_time(-1, 8)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=10**9),
                          st.integers(min_value=1, max_value=2560)),
                min_size=1, max_size=50))
def test_service_time_always_positive(requests):
    model = DiskModel(DiskParams())
    for lba, sectors in requests:
        assert model.service_time(lba, sectors) > 0


class TestDiskStats:
    def test_complete_accounting(self):
        stats = DiskStats()
        stats.on_enqueue(0.0)
        stats.on_complete(0.01, is_write=False, sectors=8, service=0.01)
        assert stats.reads_completed == 1
        assert stats.sectors_read == 8
        assert stats.in_flight == 0
        assert stats.io_ticks == pytest.approx(0.01)
        assert stats.weighted_time == pytest.approx(0.01)

    def test_weighted_time_counts_queue_depth(self):
        stats = DiskStats()
        stats.on_enqueue(0.0)
        stats.on_enqueue(0.0)
        stats.observe(1.0)
        assert stats.io_ticks == pytest.approx(1.0)
        assert stats.weighted_time == pytest.approx(2.0)

    def test_merge_counters(self):
        stats = DiskStats()
        stats.on_merge(is_write=True)
        stats.on_merge(is_write=False)
        assert stats.writes_merged == 1
        assert stats.reads_merged == 1

    def test_time_backwards_rejected(self):
        stats = DiskStats()
        stats.observe(1.0)
        with pytest.raises(ValueError):
            stats.observe(0.5)

    def test_overcompletion_rejected(self):
        stats = DiskStats()
        stats.on_enqueue(0.0)
        with pytest.raises(RuntimeError):
            stats.on_complete(0.1, is_write=False, sectors=8, service=0.1, nrequests=2)

    def test_snapshot_contains_all_fields(self):
        stats = DiskStats()
        snap = stats.snapshot(0.0)
        expected = {
            "reads_completed", "reads_merged", "sectors_read", "time_reading",
            "writes_completed", "writes_merged", "sectors_written",
            "time_writing", "queue_insertions", "in_flight", "io_ticks",
            "weighted_time",
        }
        assert set(snap) == expected

