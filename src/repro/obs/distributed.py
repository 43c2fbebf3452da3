"""Cross-process trace propagation and deterministic span merging.

The span tracer (:mod:`repro.obs.trace`) records one process's view.
Parallel sweeps execute their runs in *worker* processes where that
view used to be simply discarded — the worker detached the tracer
and only a flat metrics snapshot crossed the process boundary.  This
module makes traces first-class across that boundary:

* a :class:`TraceContext` is the serializable seed the parent hands a
  worker: the ``trace_id`` of the distributed trace plus the parent span
  the worker's spans logically nest under;
* :func:`attach` installs a fresh worker tracer from a context,
  :func:`ship` packs the finished spans (plus the tracer's kernel
  counters) into a plain picklable document;
* :func:`merge_shipment` folds a shipment back into the parent tracer —
  remapping worker-local span ids onto the parent's id sequence,
  re-parenting worker root spans under the designated parent span, and
  tagging every merged span with its worker label.

Determinism contract: span **ids** come from stable counters — the
parent allocates merged ids in *submission* order, never completion
order, so two runs of the same sweep produce the same span tree shape.
Simulated-time spans keep byte-identical timestamps; wall-clock spans
(``attrs["clock"] == "wall"``: queue-wait, execute, retry, cache probe)
necessarily carry real timings and are excluded from byte-identity
claims.  Wall timestamps are expressed relative to the parent tracer's
``wall_epoch`` so one invocation shares a single wall timeline; the raw
clock is ``time.monotonic()``, which on Linux is system-wide and thus
comparable across the parent and its worker processes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from repro.obs.trace import Span, Tracer

__all__ = [
    "TraceContext", "current_context", "attach", "ship", "merge_shipment",
    "wall_now", "monotonic_to_wall",
]

#: attrs key marking a span as wall-clocked rather than simulated-time.
WALL_CLOCK = "wall"


@dataclass(frozen=True)
class TraceContext:
    """The serializable seed a worker tracer is attached from.

    ``parent_span_id`` is a span id *in the parent's tracer*; the worker
    never sees that tracer, it just carries the id back so the merge can
    re-parent its root spans.  ``worker`` is a stable label (the run key
    prefix) — never a pid, which would vary run to run.
    """

    trace_id: str
    parent_span_id: int | None = None
    worker: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {"trace_id": self.trace_id,
                "parent_span_id": self.parent_span_id,
                "worker": self.worker}

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "TraceContext":
        return cls(trace_id=str(doc["trace_id"]),
                   parent_span_id=(None if doc.get("parent_span_id") is None
                                   else int(doc["parent_span_id"])),
                   worker=str(doc.get("worker", "")))


def current_context(worker: str = "") -> TraceContext | None:
    """A context for the installed tracer, or ``None`` when tracing is off."""
    from repro.obs import trace

    tracer = trace.get()
    if tracer is None:
        return None
    return TraceContext(trace_id=tracer.trace_id or "", worker=worker)


def attach(context: TraceContext | dict[str, Any] | None) -> Tracer | None:
    """Install (and return) a fresh worker tracer seeded with ``context``.

    ``None`` (tracing disabled in the parent) detaches any inherited
    tracer instead — fork-started workers must not keep recording into
    the parent's span list.
    """
    from repro.obs import trace

    if context is None:
        trace.TRACER = None
        return None
    if isinstance(context, dict):
        context = TraceContext.from_dict(context)
    tracer = Tracer(trace_id=context.trace_id or None)
    trace.TRACER = tracer
    return tracer


def ship(tracer: Tracer | None) -> dict[str, Any] | None:
    """Pack a worker tracer's output into a picklable shipment document."""
    if tracer is None:
        return None
    return {
        "trace_id": tracer.trace_id or "",
        "spans": [span.to_dict() for span in tracer.spans],
        "events_fired": tracer.events_fired,
        "processes_spawned": tracer.processes_spawned,
    }


def merge_shipment(parent: Tracer, shipment: dict[str, Any] | None,
                   parent_span: Span | int | None = None,
                   worker: str = "") -> list[Span]:
    """Fold a worker's shipment into ``parent``; returns the merged spans.

    Worker-local span ids are remapped onto the parent's id sequence in
    the order the worker recorded them (deterministic: the worker's
    recording order is seed-derived, and the caller merges shipments in
    submission order).  Worker root spans are re-parented under
    ``parent_span``; every merged span gets a ``worker`` attribute so
    per-worker breakdowns survive the merge.
    """
    if shipment is None:
        return []
    parent_id = (parent_span.span_id if isinstance(parent_span, Span)
                 else parent_span)
    id_map: dict[int, int] = {}
    merged: list[Span] = []
    for doc in shipment["spans"]:
        span = Span.from_dict(doc)
        new_id = parent._next_id
        parent._next_id += 1
        id_map[span.span_id] = new_id
        span.span_id = new_id
        if span.parent_id is None:
            span.parent_id = parent_id
        else:
            # A dangling parent reference (span recorded before its
            # parent crossed a shipment boundary) falls back to the
            # merge root instead of pointing at an unrelated parent span.
            span.parent_id = id_map.get(span.parent_id, parent_id)
        span.trace_id = parent.trace_id
        if worker:
            span.attrs.setdefault("worker", worker)
        parent.spans.append(span)
        merged.append(span)
    parent.events_fired += int(shipment.get("events_fired", 0))
    parent.processes_spawned += int(shipment.get("processes_spawned", 0))
    return merged


def wall_now(tracer: Tracer) -> float:
    """Wall seconds since the tracer's wall epoch (created on first use).

    All wall-clock spans of one invocation share this epoch, so the
    parent's phase spans and timings derived from worker monotonic
    timestamps land on one coherent timeline.
    """
    epoch = getattr(tracer, "wall_epoch", None)
    if epoch is None:
        epoch = time.monotonic()
        tracer.wall_epoch = epoch
    return time.monotonic() - epoch


def monotonic_to_wall(tracer: Tracer, t: float) -> float:
    """Convert a raw ``time.monotonic()`` stamp to tracer wall time."""
    epoch = getattr(tracer, "wall_epoch", None)
    if epoch is None:
        epoch = time.monotonic()
        tracer.wall_epoch = epoch
    return t - epoch
