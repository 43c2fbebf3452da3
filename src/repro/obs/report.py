"""The ``repro obs report`` surface: merged-run reports and Chrome traces.

Takes the artefacts one observed run leaves behind — a run manifest, a
(possibly multi-process) span trace, a metrics snapshot — and renders
them two ways:

* a **terminal report**: provenance, wall-clock phase breakdown with the
  critical path, per-worker span breakdowns (split into simulated-time
  and wall-clock domains), executor/cache health derived from the
  merged metrics (hit/miss rates, dedup savings, retries, quarantines,
  straggler skew), and the full metric table;
* a **Chrome trace-event JSON** (``--chrome-trace out.json``) loadable
  in Perfetto / ``about:tracing``.  The two clock domains become two
  trace "processes" (simulated time vs wall clock); within each, spans
  group into one track per worker label (one per run), so a sweep
  renders as one lane of queue-wait/execute/retry activity per run
  above the per-request simulated-time flame graphs they produced —
  the same lanes whether the runs executed in-process or on the pool.

Only file contents are consulted, never live process state — the same
offline discipline as :mod:`repro.obs.summary`.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Iterable

from repro.obs.distributed import WALL_CLOCK
from repro.obs.manifest import RunManifest
from repro.obs.profile import render_summary
from repro.obs.summary import render_metrics_table, render_span_summary
from repro.obs.trace import Span

__all__ = [
    "split_spans", "worker_breakdown", "executor_health", "service_health",
    "chrome_trace_doc", "save_chrome_trace", "render_report",
]

#: Synthetic pids for the two clock domains in Chrome trace output.
_PID_SIM = 1
_PID_WALL = 2


def split_spans(spans: Iterable[Span]) -> tuple[list[Span], list[Span]]:
    """Partition spans into (simulated-time, wall-clock) domains."""
    sim: list[Span] = []
    wall: list[Span] = []
    for span in spans:
        (wall if span.attrs.get("clock") == WALL_CLOCK else sim).append(span)
    return sim, wall


def worker_breakdown(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """Per-worker span counts and busy time, keyed by the worker label.

    Spans without a ``worker`` attribute (recorded directly by the
    parent process) land under ``"main"``.
    """
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        worker = str(span.attrs.get("worker", "main"))
        row = out.setdefault(worker, {"spans": 0.0, "sim_busy": 0.0,
                                      "wall_busy": 0.0})
        row["spans"] += 1
        if span.end is None:
            continue
        if span.attrs.get("clock") == WALL_CLOCK:
            row["wall_busy"] += span.duration
        else:
            row["sim_busy"] += span.duration
    return {worker: out[worker] for worker in sorted(out)}


def _metric_value(snapshot: dict[str, dict], name: str) -> float | None:
    doc = snapshot.get(name)
    return None if doc is None else float(doc.get("value", 0.0))


def executor_health(snapshot: dict[str, dict]) -> list[str]:
    """Health lines derived from the executor/cache metric namespaces.

    Reads the merged registry snapshot only; every line degrades to
    absence when the underlying metrics were never recorded.  Straggler
    skew is the ``parallel.run_seconds`` histogram's max over its mean,
    so it covers every run the snapshot covers.  The workers line pairs
    ``parallel.workers_used`` with the per-slot
    ``parallel.worker_busy_seconds{worker=wN}`` counters, both summed
    over the process, so it names one busy value per used slot.
    """
    lines: list[str] = []
    for prefix, label in (("parallel.cache", "run cache"),
                          ("parallel.windowcache", "window cache"),
                          ("parallel.modelcache", "model cache")):
        hits = _metric_value(snapshot, f"{prefix}.hits")
        misses = _metric_value(snapshot, f"{prefix}.misses")
        if hits is None and misses is None:
            continue
        hits, misses = hits or 0.0, misses or 0.0
        total = hits + misses
        rate = hits / total if total else 0.0
        lines.append(f"{label}: {int(hits)} hit(s) / {int(misses)} miss(es)"
                     f" ({rate:.0%} hit rate)")
    requested = _metric_value(snapshot, "parallel.runs_requested")
    deduped = _metric_value(snapshot, "parallel.runs_deduplicated")
    if requested:
        saved = (deduped or 0.0) / requested
        lines.append(f"dedup: {int(deduped or 0)} of {int(requested)} "
                     f"requested runs shared an execution ({saved:.0%} saved)")
    for name, label in (("parallel.retries", "run retries"),
                        ("parallel.timeouts", "run timeouts"),
                        ("parallel.quarantined", "runs quarantined")):
        value = _metric_value(snapshot, name)
        if value:
            lines.append(f"{label}: {int(value)}")
    runs = snapshot.get("parallel.run_seconds")
    if runs and runs.get("count") and runs.get("mean"):
        lines.append(f"straggler skew (slowest run / mean): "
                     f"{runs['max'] / runs['mean']:.2f}x over "
                     f"{int(runs['count'])} run(s)")
    workers = _metric_value(snapshot, "parallel.workers_used")
    if workers:
        busy = sorted(
            (float(doc.get("value", 0.0))
             for name, doc in snapshot.items()
             if name.startswith("parallel.worker_busy_seconds{")),
            reverse=True,
        )
        util = ""
        if busy:
            util = (", busy seconds per worker: "
                    + "/".join(f"{b:.2f}" for b in busy))
        lines.append(f"workers used: {int(workers)}{util}")
    return lines


def service_health(snapshot: dict[str, dict]) -> list[str]:
    """Health lines for the prediction service's ``serve.*`` namespace.

    Renders the degradation ladder (fresh/stale/masked/shed resolution
    counts, each with its share of the resolved windows), the
    pressure-relief counters (backpressure, load shed,
    breaker trips, deadline misses, injected model stalls) and
    the batching economics (batches, mean batch size, latency
    percentiles).  Empty when the snapshot has no service metrics.
    """
    submitted = _metric_value(snapshot, "serve.submitted")
    if not submitted:
        return []
    lines = [f"windows submitted: {int(submitted)}"]
    # Shares of the resolved windows: a submission refused with
    # backpressure counts as submitted but never resolves.
    counts = {status: _metric_value(snapshot, f"serve.{status}") or 0.0
              for status in ("fresh", "stale", "masked", "shed")}
    resolved = sum(counts.values())
    ladder = []
    for status, value in counts.items():
        share = value / resolved if resolved else 0.0
        ladder.append(f"{status} {int(value)} ({share:.0%})")
    lines.append("ladder: " + ", ".join(ladder))
    admitted = _metric_value(snapshot, "serve.tenants_admitted")
    rejected = _metric_value(snapshot, "serve.tenants_rejected")
    if admitted or rejected:
        lines.append(f"tenants: {int(admitted or 0)} admitted, "
                     f"{int(rejected or 0)} rejected")
    for name, label in (("serve.backpressure", "backpressure signals"),
                        ("serve.load_shed", "load-shed submissions"),
                        ("serve.breaker_trips", "circuit-breaker trips"),
                        ("serve.deadline_misses", "deadline misses"),
                        ("serve.injected_stalls", "injected model stalls")):
        value = _metric_value(snapshot, name)
        if value:
            lines.append(f"{label}: {int(value)}")
    batches = snapshot.get("serve.batches")
    sizes = snapshot.get("serve.batch_size")
    if batches and sizes and sizes.get("count"):
        mean = sizes["sum"] / sizes["count"]
        lines.append(f"batches: {int(batches['value'])}, mean size "
                     f"{mean:.1f}, max {int(sizes['max'])}")
    latency = snapshot.get("serve.latency_seconds")
    if latency and latency.get("count"):
        lines.append(f"latency: mean {latency['mean'] * 1e3:.2f}ms, "
                     f"max {latency['max'] * 1e3:.2f}ms")
    return lines


# -- Chrome trace-event export ------------------------------------------------


def _chrome_events(spans: Iterable[Span]) -> list[dict[str, Any]]:
    events: list[dict[str, Any]] = []
    tids: dict[tuple[int, str], int] = {}
    for span in spans:
        wall = span.attrs.get("clock") == WALL_CLOCK
        pid = _PID_WALL if wall else _PID_SIM
        worker = str(span.attrs.get("worker", "main"))
        tid = tids.setdefault((pid, worker), len(tids) + 1)
        args = {k: v for k, v in span.attrs.items() if k != "clock"}
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        event: dict[str, Any] = {
            "name": span.name,
            "cat": "wall" if wall else "sim",
            "pid": pid,
            "tid": tid,
            "ts": span.start * 1e6,  # trace-event timestamps are in µs
            "args": args,
        }
        if span.end is None:
            event["ph"] = "i"  # open span: an instant marker at its start
            event["s"] = "t"
        else:
            event["ph"] = "X"
            event["dur"] = (span.end - span.start) * 1e6
        events.append(event)
    # Name the synthetic processes/threads so Perfetto shows labels
    # instead of bare numbers.
    meta: list[dict[str, Any]] = []
    for pid, name in ((_PID_SIM, "simulated time"), (_PID_WALL, "wall clock")):
        if any(e["pid"] == pid for e in events):
            meta.append({"ph": "M", "name": "process_name", "pid": pid,
                         "tid": 0, "args": {"name": name}})
    for (pid, worker), tid in sorted(tids.items(), key=lambda kv: kv[1]):
        meta.append({"ph": "M", "name": "thread_name", "pid": pid,
                     "tid": tid, "args": {"name": worker}})
    return meta + events


def chrome_trace_doc(spans: Iterable[Span],
                     trace_id: str | None = None) -> dict[str, Any]:
    """A Chrome trace-event document (JSON object format) for ``spans``."""
    doc: dict[str, Any] = {
        "traceEvents": _chrome_events(spans),
        "displayTimeUnit": "ms",
    }
    if trace_id:
        doc["otherData"] = {"trace_id": trace_id}
    return doc


def save_chrome_trace(spans: Iterable[Span], path: str | pathlib.Path,
                      trace_id: str | None = None) -> pathlib.Path:
    """Write spans as Chrome trace-event JSON; returns the path."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace_doc(spans, trace_id=trace_id),
                               sort_keys=True) + "\n")
    return path


# -- terminal report ----------------------------------------------------------


def render_report(manifest: RunManifest | None = None,
                  spans: list[Span] | None = None,
                  metrics: dict[str, dict] | None = None) -> str:
    """The full terminal report for whichever artefacts were supplied."""
    sections: list[str] = []
    if manifest is not None:
        lines = [f"run:        {manifest.name}",
                 f"seed:       {manifest.seed}",
                 f"created:    {manifest.created_at}",
                 f"git:        {manifest.git_sha or '(not a git checkout)'}"]
        if manifest.trace_id:
            lines.append(f"trace id:   {manifest.trace_id}")
        if manifest.timings:
            timing = ", ".join(f"{k}={v:.2f}s"
                               for k, v in sorted(manifest.timings.items()))
            lines.append(f"timings:    {timing}")
        sections.append("\n".join(lines))
        profile = manifest.extra.get("profile")
        if profile:
            sections.append("-- wall-clock phases --\n"
                            + render_summary(profile))
        if metrics is None and manifest.metrics:
            metrics = manifest.metrics
    if spans is not None:
        sim, wall = split_spans(spans)
        if wall:
            sections.append("-- wall-clock spans (jobs, phases) --\n"
                            + render_span_summary(wall))
        if sim:
            sections.append("-- simulated-time spans --\n"
                            + render_span_summary(sim))
        workers = worker_breakdown(spans)
        if len(workers) > 1 or (workers and "main" not in workers):
            rows = [
                f"  {worker:<16} {int(row['spans']):>7} spans"
                f"  sim {row['sim_busy']:>10.4f}s"
                f"  wall {row['wall_busy']:>8.3f}s"
                for worker, row in workers.items()
            ]
            sections.append("-- per-worker breakdown --\n" + "\n".join(rows))
    if metrics:
        health = executor_health(metrics)
        if health:
            sections.append("-- executor / cache health --\n"
                            + "\n".join(f"  {line}" for line in health))
        serving = service_health(metrics)
        if serving:
            sections.append("-- prediction service --\n"
                            + "\n".join(f"  {line}" for line in serving))
        sections.append("-- metrics --\n" + render_metrics_table(metrics))
    if not sections:
        return "(nothing to report: no manifest, trace or metrics supplied)"
    return "\n\n".join(sections)
