"""Lightweight wall-clock phase profiler with hierarchical attribution.

The span tracer answers "where did *simulated* time go inside a run";
this module answers the operator's other question — "where did my
*wall-clock* minutes go across a whole invocation": dataset sweeps,
cache probes, training batches, report writing.  A
:class:`PhaseProfiler` is a stack of nested named timers.  Each
``with profiler.phase("sweep"):`` block records one :class:`PhaseRecord`
whose *path* ("dataset/sweep/execute") encodes its position in the
nesting, so the summary can attribute both total and self time per
phase and extract the critical path (the chain of heaviest children
from the root).

Like the tracer, nothing is installed by default: instrumentation sites
call :func:`phase`, which is a no-op context manager while no profiler
is installed — one module-global load and a ``None`` test.  When a
tracer *is* recording, a profiler created with ``tracer=`` mirrors every
finished phase into it as a wall-clock span (``attrs["clock"]="wall"``),
so phases appear on the merged timeline and in Chrome trace exports.

Timestamps come from ``time.monotonic()`` relative to the profiler's
epoch; phase *paths* and record order are deterministic (code order),
durations obviously are not — see the determinism note in DESIGN.md §11.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from repro.obs.trace import Span, Tracer

__all__ = [
    "PhaseRecord", "PhaseProfiler", "PROFILER", "critical_path",
    "render_summary", "install", "uninstall", "get", "profiling", "phase",
]

_SEP = "/"


@dataclass
class PhaseRecord:
    """One completed timer: its nesting path and wall interval."""

    path: str
    start: float
    end: float
    attrs: dict[str, Any]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def depth(self) -> int:
        return self.path.count(_SEP) + 1

    def to_dict(self) -> dict[str, Any]:
        return {"path": self.path, "start": self.start, "end": self.end,
                "attrs": self.attrs}


class PhaseProfiler:
    """Nested wall-clock timers; records land in chronological end order.

    Pass ``tracer`` to mirror every finished phase into it as a
    wall-clock span on the shared ``wall_epoch`` timeline.
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.records: list[PhaseRecord] = []
        self.tracer = tracer
        self._epoch = time.monotonic()
        #: (name, start, attrs, parent_span) of currently-open phases.
        self._stack: list[tuple[str, float, dict[str, Any], Span | None]] = []

    def _now(self) -> float:
        return time.monotonic() - self._epoch

    @contextmanager
    def phase(self, name: str, **attrs: Any) -> Iterator[None]:
        """Time a block; nesting under any phase already open."""
        if _SEP in name:
            raise ValueError(f"phase name may not contain {_SEP!r}: {name!r}")
        start = self._now()
        parent_span = self._stack[-1][3] if self._stack else None
        span = None
        if self.tracer is not None:
            from repro.obs.distributed import WALL_CLOCK, wall_now

            span = self.tracer.start(f"phase.{name}", wall_now(self.tracer),
                                     parent=parent_span, clock=WALL_CLOCK,
                                     **attrs)
        self._stack.append((name, start, dict(attrs), span))
        try:
            yield
        finally:
            name, start, attrs, span = self._stack.pop()
            path = _SEP.join([*(n for n, _, _, _ in self._stack), name])
            self.records.append(PhaseRecord(path, start, self._now(), attrs))
            if span is not None:
                from repro.obs.distributed import wall_now

                self.tracer.finish(span, wall_now(self.tracer))

    # -- reporting --------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-path aggregates: count, total and self wall seconds.

        ``self`` is the phase's total minus the total of its *direct*
        children — the time the phase spent outside any named sub-phase.
        """
        out: dict[str, dict[str, float]] = {}
        for rec in self.records:
            row = out.setdefault(rec.path, {"count": 0.0, "total": 0.0})
            row["count"] += 1
            row["total"] += rec.duration
        for path, row in out.items():
            children = sum(
                other["total"] for other_path, other in out.items()
                if other_path.rpartition(_SEP)[0] == path
            )
            row["self"] = max(0.0, row["total"] - children)
        return {path: out[path] for path in sorted(out)}

    def critical_path(self) -> list[tuple[str, float]]:
        """:func:`critical_path` of this profiler's :meth:`summary`."""
        return critical_path(self.summary())

    def render(self) -> str:
        """:func:`render_summary` of this profiler's :meth:`summary`."""
        return render_summary(self.summary())


def critical_path(summary: dict[str, dict[str, float]]
                  ) -> list[tuple[str, float]]:
    """The chain of heaviest phases of a :meth:`PhaseProfiler.summary`.

    From the root down, at each level the child with the largest total
    wall time wins; the result is the sequence an optimiser should look
    at first.
    """
    path: list[tuple[str, float]] = []
    prefix = ""
    while True:
        candidates = {
            p: row for p, row in summary.items()
            if p.rpartition(_SEP)[0] == prefix
        }
        if not candidates:
            break
        # Deterministic tie-break: alphabetical on equal totals.
        best = min(candidates.items(),
                   key=lambda kv: (-kv[1].get("total", 0.0), kv[0]))
        path.append((best[0], best[1].get("total", 0.0)))
        prefix = best[0]
    return path


def render_summary(summary: dict[str, dict[str, float]]) -> str:
    """Indented per-phase table of a :meth:`PhaseProfiler.summary`.

    Nesting shows by path depth, and the critical path closes the table.
    Also renders the copy a run manifest stores, so missing fields read
    as zero.
    """
    if not summary:
        return "(no phases recorded)"
    lines = [f"{'phase':<44}{'count':>6}{'total_s':>10}{'self_s':>10}"]
    lines.append("-" * len(lines[0]))
    for path in sorted(summary):
        row = summary[path]
        label = "  " * path.count(_SEP) + path.rpartition(_SEP)[2]
        lines.append(f"{label:<44}{int(row.get('count', 0)):>6}"
                     f"{row.get('total', 0.0):>10.3f}"
                     f"{row.get('self', 0.0):>10.3f}")
    crit = critical_path(summary)
    if crit:
        chain = " > ".join(f"{p.rpartition(_SEP)[2]} {t:.3f}s"
                           for p, t in crit)
        lines.append(f"critical path: {chain}")
    return "\n".join(lines)


#: The process-wide profiler; ``None`` (the default) disables profiling.
PROFILER: PhaseProfiler | None = None


def install(profiler: PhaseProfiler | None = None,
            tracer: Tracer | None = None) -> PhaseProfiler:
    """Install (and return) a profiler as the process-wide recorder."""
    global PROFILER
    PROFILER = profiler if profiler is not None else PhaseProfiler(tracer)
    return PROFILER


def uninstall() -> PhaseProfiler | None:
    """Remove the process-wide profiler; returns the one removed."""
    global PROFILER
    profiler, PROFILER = PROFILER, None
    return profiler


def get() -> PhaseProfiler | None:
    """The installed profiler, or ``None`` when profiling is off."""
    return PROFILER


@contextmanager
def profiling(profiler: PhaseProfiler | None = None,
              tracer: Tracer | None = None) -> Iterator[PhaseProfiler]:
    """``with profiling() as p:`` — install for the block, restore after."""
    global PROFILER
    previous = PROFILER
    installed = install(profiler, tracer)
    try:
        yield installed
    finally:
        PROFILER = previous


@contextmanager
def phase(name: str, **attrs: Any) -> Iterator[None]:
    """Time a block under the installed profiler; no-op when none is."""
    profiler = PROFILER
    if profiler is None:
        yield
        return
    with profiler.phase(name, **attrs):
        yield
