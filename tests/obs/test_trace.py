"""Tracer unit tests: span mechanics, global install, determinism."""

import time

import pytest

from repro.common.units import MIB
from repro.obs import trace
from repro.sim.cluster import Cluster
from repro.sim.engine import Environment
from repro.workloads.base import launch
from repro.workloads.ior import IorConfig, IorWorkload


def run_small_workload():
    """One tiny deterministic IOR run; returns (cluster, workload)."""
    cluster = Cluster()
    w = IorWorkload(IorConfig(mode="easy", access="write", ranks=2,
                              bytes_per_rank=2 * MIB))
    handle = launch(cluster, w, [0, 1], seed=7)
    cluster.env.run(until=handle.done)
    return cluster, w


# -- span mechanics ----------------------------------------------------------


def test_start_finish_and_duration():
    tr = trace.Tracer()
    span = tr.start("phase", 1.0, foo="bar")
    assert span.end is None
    tr.finish(span, 3.5, result="ok")
    assert span.duration == pytest.approx(2.5)
    assert span.attrs == {"foo": "bar", "result": "ok"}


def test_span_ids_sequential_and_parenting():
    tr = trace.Tracer()
    parent = tr.start("outer", 0.0)
    child = tr.start("inner", 0.5, parent=parent)
    by_int = tr.start("inner2", 0.6, parent=parent.span_id)
    assert (parent.span_id, child.span_id, by_int.span_id) == (1, 2, 3)
    assert child.parent_id == parent.span_id
    assert by_int.parent_id == parent.span_id


def test_double_finish_and_backwards_end_rejected():
    tr = trace.Tracer()
    span = tr.start("x", 2.0)
    with pytest.raises(ValueError, match="before it starts"):
        tr.finish(span, 1.0)
    tr.finish(span, 2.0)
    with pytest.raises(ValueError, match="already finished"):
        tr.finish(span, 3.0)


def test_open_span_duration_raises():
    tr = trace.Tracer()
    span = tr.start("x", 0.0)
    with pytest.raises(ValueError, match="still open"):
        _ = span.duration


def test_context_manager_uses_env_clock():
    tr = trace.Tracer()
    env = Environment()

    def proc():
        with tr.span(env, "work", kind="test"):
            yield env.timeout(1.25)

    env.process(proc())
    env.run()
    (span,) = tr.spans
    assert span.name == "work"
    assert span.duration == pytest.approx(1.25)


def test_to_dict_round_trip():
    tr = trace.Tracer()
    span = tr.start("x", 0.5, parent=None, a=1)
    tr.finish(span, 1.5)
    back = trace.Span.from_dict(span.to_dict())
    assert back.to_dict() == span.to_dict()


def test_summary_aggregates_only_finished_spans():
    tr = trace.Tracer()
    a = tr.start("op", 0.0)
    tr.finish(a, 2.0)
    b = tr.start("op", 1.0)
    tr.finish(b, 2.0)
    tr.start("op", 5.0)  # left open: excluded
    agg = tr.summary()["op"]
    assert agg["count"] == 2
    assert agg["total"] == pytest.approx(3.0)
    assert agg["mean"] == pytest.approx(1.5)
    assert agg["max"] == pytest.approx(2.0)


# -- global install / disabled behaviour -------------------------------------


def test_install_uninstall_cycle():
    assert trace.get() is None
    tr = trace.install()
    assert trace.get() is tr
    assert trace.uninstall() is tr
    assert trace.get() is None


def test_tracing_context_restores_previous():
    outer = trace.install()
    with trace.tracing() as inner:
        assert trace.get() is inner
        assert inner is not outer
    assert trace.get() is outer
    trace.uninstall()


def test_disabled_tracer_records_no_spans():
    """With no tracer installed, a full simulated run records nothing."""
    assert trace.get() is None
    cluster, _ = run_small_workload()
    tr = trace.install()
    assert len(tr.spans) == 0
    assert tr.events_fired == 0
    assert tr.processes_spawned == 0
    assert len(cluster.collector.records) > 0  # the run itself happened


def test_disabled_overhead_is_loose_bounded():
    """The disabled fast path (one global load + None check per kernel
    event) must not add observable cost; a very loose absolute bound
    keeps this robust on slow CI while still catching accidental
    always-on recording."""
    env = Environment()

    def proc():
        for _ in range(50_000):
            yield env.timeout(0.001)

    env.process(proc())
    t0 = time.perf_counter()
    env.run()
    assert time.perf_counter() - t0 < 5.0
    assert trace.get() is None


# -- determinism over the simulator ------------------------------------------


def test_sim_run_produces_expected_span_kinds():
    with trace.tracing() as tr:
        run_small_workload()
    names = {s.name for s in tr.spans}
    assert {"client.write", "mds.op", "disk.io"} <= names
    # Every metadata op span has its MDS service span as a child.
    mds_parents = {s.parent_id for s in tr.spans if s.name == "mds.op"}
    meta = [s for s in tr.spans if s.name in
            ("client.create", "client.open", "client.close", "client.stat",
             "client.mkdir", "client.unlink")]
    assert meta
    assert all(s.span_id in mds_parents for s in meta)
    assert tr.events_fired > 0
    assert tr.processes_spawned > 0


def test_same_seed_runs_emit_identical_span_streams():
    with trace.tracing() as tr1:
        run_small_workload()
    with trace.tracing() as tr2:
        run_small_workload()
    stream1 = [s.to_dict() for s in tr1.spans]
    stream2 = [s.to_dict() for s in tr2.spans]
    assert stream1 == stream2
    assert (tr1.events_fired, tr1.processes_spawned) == \
        (tr2.events_fired, tr2.processes_spawned)


def test_span_nesting_is_consistent():
    """Every child starts within its parent's interval."""
    with trace.tracing() as tr:
        run_small_workload()
    by_id = {s.span_id: s for s in tr.spans}
    checked = 0
    for span in tr.spans:
        if span.parent_id is None or span.end is None:
            continue
        parent = by_id[span.parent_id]
        assert parent.start <= span.start
        if parent.end is not None:
            assert span.end <= parent.end + 1e-12
        checked += 1
    assert checked > 0
