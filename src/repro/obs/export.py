"""JSONL exporters for traces and metric snapshots.

Mirrors :mod:`repro.monitor.persist`'s philosophy — observability
artefacts get a durable on-disk form so they can be archived next to
results and analysed offline by ``python -m repro obs`` without the
producing process.  Formats:

* ``*.trace.jsonl`` — line 1 is a header object
  (``{"kind": "repro-trace", ...}``), every following line one span;
* ``*.metrics.json`` — a single object wrapping a
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`.

Both are pure ``json`` text: greppable and diffable.  Traces whose spans
are clocked on simulated time are byte-identical across same-seed runs;
wall-clock spans (``attrs["clock"] == "wall"``, emitted around parallel
jobs and profiled phases) carry real timings and naturally vary.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Iterable

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer

__all__ = [
    "TRACE_KIND", "METRICS_KIND",
    "save_trace", "load_trace", "save_metrics", "load_metrics",
    "read_json_object", "is_number", "check_metric_entries",
]

TRACE_KIND = "repro-trace"
METRICS_KIND = "repro-metrics"
_FORMAT_VERSION = 1


def save_trace(source: Tracer | Iterable[Span],
               path: str | pathlib.Path) -> pathlib.Path:
    """Write spans as JSONL (header line + one span per line)."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    spans = list(source.spans if isinstance(source, Tracer) else source)
    header: dict[str, Any] = {
        "kind": TRACE_KIND,
        "version": _FORMAT_VERSION,
        "spans": len(spans),
    }
    if isinstance(source, Tracer):
        header["events_fired"] = source.events_fired
        header["processes_spawned"] = source.processes_spawned
        if source.trace_id:
            header["trace_id"] = source.trace_id
    with open(path, "w") as fp:
        fp.write(json.dumps(header, sort_keys=True) + "\n")
        for span in spans:
            fp.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
    return path


def _parse_object(text: str, where: str) -> dict:
    """``text`` as a JSON object, or :class:`ValueError` naming ``where``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: not JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: not a JSON object")
    return doc


def read_json_object(path: str | pathlib.Path) -> dict:
    """The JSON object a whole-file artefact holds.

    Raises :class:`ValueError` naming ``path`` when the file is empty,
    is not JSON or holds something other than an object.
    """
    path = pathlib.Path(path)
    text = path.read_text()
    if not text.strip():
        raise ValueError(f"{path}: empty file")
    return _parse_object(text, str(path))


def load_trace(path: str | pathlib.Path) -> list[Span]:
    """Read spans written by :func:`save_trace`.

    A malformed file raises :class:`ValueError` naming ``path`` (and the
    line at fault).
    """
    path = pathlib.Path(path)
    with open(path) as fp:
        header_line = fp.readline()
        if not header_line.strip():
            raise ValueError(f"{path}: empty trace file")
        header = _parse_object(header_line, f"{path}: line 1")
        if header.get("kind") != TRACE_KIND:
            raise ValueError(f"{path}: not a repro trace file")
        spans = []
        for n, line in enumerate(fp, start=2):
            if not line.strip():
                continue
            where = f"{path}: line {n}"
            doc = _parse_object(line, where)
            try:
                spans.append(Span.from_dict(doc))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{where}: not a span ({exc!r})") from None
    declared = header.get("spans")
    if declared is not None and declared != len(spans):
        raise ValueError(
            f"{path}: header declares {declared} spans, found {len(spans)}"
        )
    return spans


def save_metrics(source: MetricsRegistry | dict,
                 path: str | pathlib.Path) -> pathlib.Path:
    """Write a metrics snapshot (or a registry's current state) as JSON."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    snapshot = (source.snapshot() if isinstance(source, MetricsRegistry)
                else dict(source))
    doc = {"kind": METRICS_KIND, "version": _FORMAT_VERSION,
           "metrics": snapshot}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def is_number(value: Any) -> bool:
    """Whether a loaded JSON value is a number (``true`` is not)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_metric_entries(metrics: dict) -> None:
    """Check the numeric fields of a loaded snapshot's entries.

    Every entry must be an object.  A histogram's ``count``, ``sum``
    and ``mean`` must be numbers, and its ``min`` and ``max`` too once
    it holds an observation; any other entry's ``value`` must be a
    number.  These are the fields ``repro obs`` formats; a violation
    raises :class:`ValueError` naming the metric.
    """
    for name, entry in metrics.items():
        if not isinstance(entry, dict):
            raise ValueError(f"metric {name!r} is not an object")
        if entry.get("kind") == "histogram":
            fields = ("count", "sum", "mean")
            if entry.get("count"):
                fields += ("min", "max")
        else:
            fields = ("value",)
        for field in fields:
            if not is_number(entry.get(field)):
                raise ValueError(f"metric {name!r}: {field} is not a "
                                 f"number: {entry.get(field)!r}")


def load_metrics(path: str | pathlib.Path) -> dict[str, dict]:
    """Read a snapshot written by :func:`save_metrics`.

    A malformed file raises :class:`ValueError` naming ``path``.
    """
    doc = read_json_object(path)
    if doc.get("kind") != METRICS_KIND:
        raise ValueError(f"{path}: not a repro metrics file")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError(f"{path}: no 'metrics' object of metric entries")
    try:
        check_metric_entries(metrics)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return metrics
