"""Metrics registry tests, including the NumPy histogram cross-check."""

import numpy as np
import pytest

from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


def test_counter_monotonic():
    c = Counter("x")
    c.inc()
    c.inc(2.5)
    assert c.value == pytest.approx(3.5)
    with pytest.raises(ValueError, match="cannot decrease"):
        c.inc(-1)


def test_gauge_moves_both_ways():
    g = Gauge("x")
    g.set(10)
    g.dec(4)
    g.inc(1)
    assert g.value == pytest.approx(7.0)


def test_histogram_rejects_bad_boundaries():
    with pytest.raises(ValueError, match="increasing"):
        Histogram("x", boundaries=[1.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="at least one"):
        Histogram("x", boundaries=[])


def test_histogram_bucketing_matches_numpy_reference():
    """Bucket counts must equal a searchsorted(left) NumPy reference."""
    rng = np.random.default_rng(42)
    values = np.concatenate([
        rng.lognormal(mean=-6, sigma=2.0, size=2000),
        np.array(DEFAULT_TIME_BUCKETS),  # exact boundary hits (le semantics)
        [0.0, 1e9],                      # underflow / overflow
    ])
    hist = Histogram("t", boundaries=DEFAULT_TIME_BUCKETS)
    for v in values:
        hist.observe(v)

    ref = np.bincount(
        np.searchsorted(np.array(DEFAULT_TIME_BUCKETS), values, side="left"),
        minlength=len(DEFAULT_TIME_BUCKETS) + 1,
    )
    assert hist.counts == ref.tolist()
    assert hist.count == len(values)
    assert hist.total == pytest.approx(float(values.sum()))
    assert hist.min == pytest.approx(float(values.min()))
    assert hist.max == pytest.approx(float(values.max()))
    assert hist.mean == pytest.approx(float(values.mean()))


def test_histogram_quantile_estimates():
    hist = Histogram("t", boundaries=[1.0, 2.0, 4.0])
    for v in [0.5, 1.5, 1.6, 3.0, 100.0]:
        hist.observe(v)
    assert hist.quantile(0.0) == 0.0 or hist.quantile(0.0) <= 1.0
    # median falls in the (1, 2] bucket -> upper edge 2.0
    assert hist.quantile(0.5) == pytest.approx(2.0)
    # the top observation lives in the overflow bucket -> observed max
    assert hist.quantile(1.0) == pytest.approx(100.0)
    with pytest.raises(ValueError):
        hist.quantile(1.5)


def test_registry_creates_once_and_type_checks():
    reg = MetricsRegistry()
    c1 = reg.counter("a")
    assert reg.counter("a") is c1
    with pytest.raises(TypeError, match="already registered"):
        reg.gauge("a")
    with pytest.raises(ValueError, match="different boundaries"):
        reg.histogram("h", boundaries=[1.0, 2.0])
        reg.histogram("h", boundaries=[1.0, 3.0])


def test_registry_snapshot_sorted_and_json_ready():
    import json

    reg = MetricsRegistry()
    reg.counter("z.count").inc(3)
    reg.gauge("a.gauge").set(1.5)
    reg.histogram("m.hist", boundaries=[0.1, 1.0]).observe(0.05)
    snap = reg.snapshot()
    assert list(snap) == sorted(snap)
    json.dumps(snap)  # must be serialisable as-is
    assert snap["z.count"] == {"kind": "counter", "value": 3.0}
    assert snap["m.hist"]["counts"] == [1, 0, 0]


def test_registry_reset():
    reg = MetricsRegistry()
    reg.counter("x").inc()
    reg.reset()
    assert len(reg) == 0
    assert "x" not in reg


def test_empty_histogram_snapshot():
    snap = Histogram("t", boundaries=[1.0]).to_dict()
    assert snap["count"] == 0
    assert snap["min"] is None and snap["max"] is None
    assert snap["mean"] == 0.0


def test_merge_snapshot_counters_sum_and_histograms_merge_bucketwise():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("runs").inc(2)
    b.counter("runs").inc(3)
    a.histogram("wall", boundaries=[1.0]).observe(0.5)
    b.histogram("wall", boundaries=[1.0]).observe(2.0)
    a.merge_snapshot(b.snapshot())
    snap = a.snapshot()
    assert snap["runs"]["value"] == 5.0
    assert snap["wall"]["counts"] == [1, 1]
    assert snap["wall"]["sum"] == pytest.approx(2.5)
    assert snap["wall"]["min"] == 0.5 and snap["wall"]["max"] == 2.0


def test_merge_snapshot_rejects_histogram_boundary_mismatch():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.histogram("h", boundaries=[1.0, 2.0]).observe(0.5)
    b.histogram("h", boundaries=[1.0]).observe(0.5)
    with pytest.raises(ValueError):
        a.merge_snapshot(b.snapshot())


def test_merge_snapshot_unlabeled_gauge_is_last_write_wins():
    parent, w1, w2 = (MetricsRegistry() for _ in range(3))
    w1.gauge("depth").set(3.0)
    w2.gauge("depth").set(7.0)
    parent.merge_snapshot(w1.snapshot())
    parent.merge_snapshot(w2.snapshot())
    assert parent.snapshot()["depth"]["value"] == 7.0
