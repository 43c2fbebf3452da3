"""End-to-end observability: traced paired runs, coverage, determinism.

A traced ``run_pair`` produces a JSONL span stream with one op-level
``client.<op>`` span per I/O operation of the target workload (metadata
ops carry an ``mds.op`` child, the storage tier shows as ``disk.io``),
and two same-seed runs produce identical span streams.
"""

import pytest

from repro.common.records import OpType
from repro.experiments.runner import (
    ExperimentConfig,
    InterferenceSpec,
    run_pair,
)
from repro.obs import trace
from repro.obs.export import load_trace, save_trace
from repro.workloads.io500 import make_io500_task


def small_config(**kwargs):
    defaults = dict(window_size=0.25, sample_interval=0.125, warmup=0.25,
                    seed=3)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def small_target():
    return make_io500_task("ior-easy-write", ranks=2, scale=0.05)


def small_noise():
    return [InterferenceSpec("ior-easy-read", instances=1, ranks=2,
                             scale=0.05)]


@pytest.fixture(scope="module")
def traced_pair():
    with trace.tracing() as tracer:
        pair = run_pair(small_target(), small_noise(), small_config())
    return pair, tracer


def test_trace_covers_every_io_request_end_to_end(traced_pair, tmp_path):
    """Every target data record has its ``client.<op>`` span, bracketing
    it exactly in simulated time, and the trace survives a JSONL round
    trip."""
    pair, tracer = traced_pair
    spans = load_trace(save_trace(tracer, tmp_path / "pair.trace.jsonl"))
    by_id = {s.span_id: s for s in spans}
    client_ops = {}
    for s in spans:
        if s.name.startswith("client."):
            key = (s.attrs["job"], s.attrs["rank"], s.attrs.get("op_id"))
            client_ops[key] = s

    target_data_records = [
        r for r in pair.interfered.records
        if r.job == pair.interfered.job and r.op in (OpType.READ, OpType.WRITE)
    ]
    assert target_data_records
    for rec in target_data_records:
        op_span = client_ops[(rec.job, rec.rank, rec.op_id)]
        assert op_span.name == f"client.{rec.op.value}"
        assert op_span.start == rec.start
        assert op_span.end == rec.end

    # The storage tier was exercised below the caches too.
    assert any(s.name == "disk.io" for s in spans)
    # Parent links all resolve.
    assert all(s.parent_id in by_id for s in spans if s.parent_id is not None)


def test_metadata_requests_reach_the_mds(traced_pair):
    _, tracer = traced_pair
    meta_spans = [s for s in tracer.spans if s.name in
                  ("client.create", "client.open", "client.close",
                   "client.stat", "client.mkdir", "client.unlink")]
    assert meta_spans
    children = {}
    for s in tracer.spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append(s)
    for span in meta_spans:
        assert any(c.name == "mds.op" for c in children.get(span.span_id, []))


def test_same_seed_pairs_emit_identical_span_streams():
    with trace.tracing() as tr1:
        run_pair(small_target(), small_noise(), small_config())
    with trace.tracing() as tr2:
        run_pair(small_target(), small_noise(), small_config())
    assert [s.to_dict() for s in tr1.spans] == [s.to_dict() for s in tr2.spans]


def test_run_metadata_carries_seed_and_window_config(traced_pair):
    pair, _ = traced_pair
    for run in (pair.baseline, pair.interfered):
        assert run.metadata["seed"] == 3
        assert run.metadata["window_size"] == 0.25
        assert run.metadata["sample_interval"] == 0.125
