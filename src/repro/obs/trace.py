"""Span-based tracer over *simulated* time.

The simulator's request lifecycle crosses several tiers (client RPC
windows, the fluid network, OST caches, the block-layer elevator), and a
single slow operation can only be explained by seeing where its time
went.  This module records that as **spans**: named intervals of
simulated time with attributes and an optional parent, the same shape as
an OpenTelemetry/Chrome-trace span but clocked on ``env.now`` instead of
the wall clock — which makes a trace a deterministic artefact: two runs
with the same seed produce byte-identical span streams.

Design constraints:

* **Near-zero overhead when disabled.**  Nothing is installed by
  default; instrumentation sites read the module-global :data:`TRACER`
  and skip everything on ``None``.  That is one global load plus an
  ``is None`` test per site — unmeasurable next to the event loop's own
  heap operations.
* **No imports from the rest of the package.**  The discrete-event
  kernel (:mod:`repro.sim.engine`) imports this module, so it must stay
  a stdlib-only leaf.
* **Determinism.**  Span ids are sequence numbers handed out in start
  order; attributes never include wall-clock values.

Usage::

    from repro.obs import trace

    tracer = trace.install()          # fresh Tracer, recording
    run_pair(...)                     # instrumented code records spans
    trace.uninstall()
    for span in tracer.spans:
        print(span.name, span.duration)
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

__all__ = ["Span", "Tracer", "TRACER", "install", "uninstall", "get", "tracing"]


class Span:
    """One named interval of simulated time.

    ``end`` is ``None`` while the span is open; :meth:`Tracer.finish`
    closes it.  ``parent_id`` links child spans (an RPC inside a client
    operation, a network transfer inside an RPC) into a tree that a
    flame-graph renderer can reconstruct from ids alone.  ``trace_id``
    names the distributed trace this span belongs to — every span of one
    (possibly multi-process) execution shares it, so merged timelines
    stay attributable after worker spans are folded into the parent's
    tracer (:mod:`repro.obs.distributed`).
    """

    __slots__ = ("span_id", "parent_id", "name", "start", "end", "attrs",
                 "trace_id")

    def __init__(self, span_id: int, parent_id: int | None, name: str,
                 start: float, attrs: dict[str, Any],
                 trace_id: str | None = None) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: float | None = None
        self.attrs = attrs
        self.trace_id = trace_id

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} (#{self.span_id}) is still open")
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation with a stable key order.

        ``trace_id`` is only emitted when set, so traces recorded by
        pre-distributed tracers stay byte-identical to what they wrote.
        """
        doc = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }
        if self.trace_id is not None:
            doc["trace_id"] = self.trace_id
        return doc

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        span = cls(int(data["span_id"]),
                   None if data.get("parent_id") is None else int(data["parent_id"]),
                   str(data["name"]), float(data["start"]), dict(data.get("attrs", {})),
                   trace_id=data.get("trace_id"))
        if data.get("end") is not None:
            span.end = float(data["end"])
        return span

    def __repr__(self) -> str:
        dur = "open" if self.end is None else f"{self.end - self.start:.6g}s"
        return f"Span(#{self.span_id} {self.name} @{self.start:.6g} {dur})"


class Tracer:
    """Collects spans plus a few kernel-level counters for one run.

    ``trace_id`` (optional) names the distributed trace this tracer
    records into; every span it starts is stamped with it.  Ids stay
    plain sequence numbers — deterministic, never wall-clock derived —
    and :mod:`repro.obs.distributed` remaps worker-local ids when spans
    from several processes merge into one timeline.
    """

    def __init__(self, trace_id: str | None = None) -> None:
        self.spans: list[Span] = []
        self.trace_id = trace_id
        self._next_id = 1
        #: Events delivered by the discrete-event kernel while recording.
        self.events_fired = 0
        #: Processes spawned by the kernel while recording.
        self.processes_spawned = 0

    def start(self, name: str, now: float, parent: "Span | int | None" = None,
              **attrs: Any) -> Span:
        """Open a span at simulated time ``now``; returns the handle."""
        parent_id = parent.span_id if isinstance(parent, Span) else parent
        span = Span(self._next_id, parent_id, name, now, attrs,
                    trace_id=self.trace_id)
        self._next_id += 1
        self.spans.append(span)
        return span

    def finish(self, span: Span, now: float, **attrs: Any) -> Span:
        """Close a span at simulated time ``now``; extra attrs are merged."""
        if span.end is not None:
            raise ValueError(f"span {span.name!r} (#{span.span_id}) already finished")
        if now < span.start:
            raise ValueError(f"span would end before it starts: {now} < {span.start}")
        span.end = now
        if attrs:
            span.attrs.update(attrs)
        return span

    @contextmanager
    def span(self, env: Any, name: str, parent: "Span | int | None" = None,
             **attrs: Any) -> Iterator[Span]:
        """Context manager over an ``env.now``-clocked code block."""
        handle = self.start(name, env.now, parent=parent, **attrs)
        try:
            yield handle
        finally:
            self.finish(handle, env.now)

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-name aggregates: count and total/mean/max simulated time."""
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            if span.end is None:
                continue
            row = out.setdefault(span.name,
                                 {"count": 0.0, "total": 0.0, "max": 0.0})
            dur = span.end - span.start
            row["count"] += 1
            row["total"] += dur
            row["max"] = max(row["max"], dur)
        for row in out.values():
            row["mean"] = row["total"] / row["count"] if row["count"] else 0.0
        return out


#: The process-wide tracer; ``None`` (the default) disables all tracing.
TRACER: Tracer | None = None


def install(tracer: Tracer | None = None) -> Tracer:
    """Install (and return) a tracer as the process-wide recorder."""
    global TRACER
    TRACER = tracer if tracer is not None else Tracer()
    return TRACER


def uninstall() -> Tracer | None:
    """Remove the process-wide tracer; returns the one removed."""
    global TRACER
    tracer, TRACER = TRACER, None
    return tracer


def get() -> Tracer | None:
    """The currently installed tracer, or ``None`` when tracing is off."""
    return TRACER


@contextmanager
def tracing(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """``with tracing() as tr:`` — install for the block, restore after."""
    global TRACER
    previous = TRACER
    installed = install(tracer)
    try:
        yield installed
    finally:
        TRACER = previous
