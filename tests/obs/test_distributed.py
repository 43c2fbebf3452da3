"""Unit tests for cross-process trace propagation primitives.

Covers the trace context handed to workers (the trace id), worker
attach/detach semantics, shipment packing, and the deterministic merge: id remapping
in recorded order, re-parenting of worker roots, dangling-parent
fallback, worker labelling, and kernel-counter accumulation.
"""

from __future__ import annotations

import pytest

from repro.obs import trace
from repro.obs.distributed import (
    WALL_CLOCK,
    attach,
    current_context,
    merge_shipment,
    monotonic_to_wall,
    ship,
    wall_now,
)
from repro.obs.trace import Span, Tracer


class TestTraceContext:
    def test_current_context_none_when_tracing_off(self):
        assert trace.get() is None
        assert current_context() is None

    def test_current_context_carries_trace_id(self):
        with trace.tracing(Tracer(trace_id="deadbeef")):
            assert current_context() == "deadbeef"
        with trace.tracing(Tracer()):
            assert current_context() == ""


class TestAttach:
    def test_attach_installs_fresh_tracer_with_trace_id(self):
        tracer = attach("t1")
        try:
            assert trace.get() is tracer
            assert tracer.trace_id == "t1"
            assert tracer.spans == []
        finally:
            trace.uninstall()

    def test_attach_empty_trace_id(self):
        """A parent tracer without a trace id still traces its workers."""
        tracer = attach("")
        try:
            assert trace.get() is tracer
            assert tracer.trace_id is None
        finally:
            trace.uninstall()

    def test_attach_none_detaches_inherited_tracer(self):
        trace.install()
        assert attach(None) is None
        assert trace.get() is None


class TestShipAndMerge:
    def _worker_tracer(self) -> Tracer:
        worker = Tracer(trace_id="t")
        root = worker.start("client.write", 0.0)
        child = worker.start("net.transfer", 0.1, parent=root)
        worker.finish(child, 0.2)
        worker.finish(root, 0.3)
        worker.events_fired = 5
        worker.processes_spawned = 2
        return worker

    def test_ship_none_tracer_is_none(self):
        assert ship(None) is None
        assert merge_shipment(Tracer(), None) == []

    def test_merge_remaps_ids_onto_parent_sequence(self):
        parent = Tracer(trace_id="t")
        existing = parent.start("job.run", 0.0)
        merged = merge_shipment(parent, ship(self._worker_tracer()),
                                parent_span=existing, worker="w0")
        assert [s.span_id for s in merged] == [2, 3]
        root, child = merged
        assert root.parent_id == existing.span_id
        assert child.parent_id == root.span_id

    def test_merge_sets_worker_and_trace_id(self):
        parent = Tracer(trace_id="parent-id")
        merged = merge_shipment(parent, ship(self._worker_tracer()),
                                worker="w7")
        assert all(s.attrs["worker"] == "w7" for s in merged)
        assert all(s.trace_id == "parent-id" for s in merged)

    def test_merge_accumulates_kernel_counters(self):
        parent = Tracer()
        merge_shipment(parent, ship(self._worker_tracer()))
        merge_shipment(parent, ship(self._worker_tracer()))
        assert parent.events_fired == 10
        assert parent.processes_spawned == 4

    def test_dangling_parent_falls_back_to_merge_root(self):
        parent = Tracer()
        anchor = parent.start("job.execute", 0.0)
        orphan = Span(42, 99, "sim.step", 0.0, {})
        shipment = {"trace_id": "", "spans": [orphan.to_dict()],
                    "events_fired": 0, "processes_spawned": 0}
        merged = merge_shipment(parent, shipment, parent_span=anchor)
        assert merged[0].parent_id == anchor.span_id

    def test_two_merges_in_same_order_give_same_ids(self):
        def merged_ids():
            parent = Tracer(trace_id="t")
            a = merge_shipment(parent, ship(self._worker_tracer()),
                               worker="a")
            b = merge_shipment(parent, ship(self._worker_tracer()),
                               worker="b")
            return [s.span_id for s in a + b]

        assert merged_ids() == merged_ids()


class TestWallClock:
    def test_wall_now_is_monotone_and_shares_epoch(self):
        tracer = Tracer()
        t1 = wall_now(tracer)
        t2 = wall_now(tracer)
        assert 0.0 <= t1 <= t2

    def test_monotonic_to_wall_uses_same_epoch(self):
        import time

        tracer = Tracer()
        wall_now(tracer)  # establishes the epoch
        stamp = time.monotonic()
        converted = monotonic_to_wall(tracer, stamp)
        assert converted == pytest.approx(wall_now(tracer), abs=0.05)

    def test_wall_clock_marker_value(self):
        assert WALL_CLOCK == "wall"
