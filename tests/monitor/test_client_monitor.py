"""Tests for the client-side window aggregator."""

import pytest

from repro.common.records import IORecord, OpType, ServerId, ServerKind
from repro.monitor.client_monitor import ClientWindowAggregator
from repro.monitor.schema import CLIENT_FEATURES

OST0 = ServerId(ServerKind.OST, 0)
OST1 = ServerId(ServerKind.OST, 1)
MDT = ServerId(ServerKind.MDT, 0)


def rec(op, start, end, size=0, servers=(OST0,), job="app", rank=0, op_id=1):
    return IORecord(job=job, rank=rank, op_id=op_id, op=op, path="/f",
                    offset=0, size=size, start=start, end=end,
                    servers=tuple(servers))


def test_counts_and_bytes_by_family():
    agg = ClientWindowAggregator(window_size=1.0)
    records = [
        rec(OpType.READ, 0.1, 0.2, size=1000),
        rec(OpType.WRITE, 0.2, 0.3, size=2000),
        rec(OpType.STAT, 0.3, 0.4, servers=(MDT,)),
    ]
    out = agg.aggregate(records, "app")
    ost = out[(0, OST0)]
    assert ost["n_read"] == 1
    assert ost["n_write"] == 1
    assert ost["n_meta"] == 0
    assert ost["bytes_read"] == 1000
    assert ost["bytes_written"] == 2000
    assert ost["bytes_total"] == 3000
    mdt = out[(0, MDT)]
    assert mdt["n_meta"] == 1
    assert mdt["bytes_total"] == 0


def test_ops_assigned_to_completion_window():
    agg = ClientWindowAggregator(window_size=1.0)
    records = [rec(OpType.READ, 0.9, 1.1, size=100)]
    out = agg.aggregate(records, "app")
    assert (1, OST0) in out
    assert (0, OST0) not in out


def test_bytes_split_across_stripe_targets():
    agg = ClientWindowAggregator(window_size=1.0)
    records = [rec(OpType.WRITE, 0.0, 0.5, size=4000, servers=(OST0, OST1))]
    out = agg.aggregate(records, "app")
    assert out[(0, OST0)]["bytes_written"] == pytest.approx(2000)
    assert out[(0, OST1)]["bytes_written"] == pytest.approx(2000)
    assert out[(0, OST0)]["n_write"] == pytest.approx(0.5)


def test_io_time_split_like_bytes():
    agg = ClientWindowAggregator(window_size=1.0)
    records = [rec(OpType.READ, 0.0, 0.8, size=100, servers=(OST0, OST1))]
    out = agg.aggregate(records, "app")
    assert out[(0, OST0)]["io_time"] == pytest.approx(0.4)


def test_other_jobs_filtered_out():
    agg = ClientWindowAggregator(window_size=1.0)
    records = [
        rec(OpType.READ, 0.0, 0.1, size=100, job="app"),
        rec(OpType.READ, 0.0, 0.1, size=999, job="noise"),
    ]
    out = agg.aggregate(records, "app")
    assert out[(0, OST0)]["bytes_read"] == 100


def test_throughput_and_iops_derived():
    agg = ClientWindowAggregator(window_size=2.0)
    records = [rec(OpType.WRITE, 0.0, 0.1, size=4000)]
    out = agg.aggregate(records, "app")
    assert out[(0, OST0)]["throughput"] == pytest.approx(2000)
    assert out[(0, OST0)]["iops"] == pytest.approx(0.5)


def test_feature_keys_match_schema():
    agg = ClientWindowAggregator(window_size=1.0)
    out = agg.aggregate([rec(OpType.READ, 0.0, 0.1, size=1)], "app")
    assert set(out[(0, OST0)]) == set(CLIENT_FEATURES)


def test_invalid_window_size():
    with pytest.raises(ValueError):
        ClientWindowAggregator(window_size=0.0)
