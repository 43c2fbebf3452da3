"""Human-readable rendering of exported observability artefacts.

Backs the ``python -m repro obs`` subcommand: given a trace JSONL, a
metrics JSON or a run manifest, produce the plain-text tables an operator
wants first — where simulated time went per span kind, what every
counter/histogram ended at, and which code/config/seed produced a result
directory.  Only file contents are consulted, never live process state.
"""

from __future__ import annotations

import json
import pathlib
from typing import Iterable

from repro.obs.export import (
    METRICS_KIND, TRACE_KIND, load_metrics, load_trace, read_json_object,
)
from repro.obs.manifest import MANIFEST_KIND, RunManifest, load_manifest
from repro.obs.trace import Span, Tracer

__all__ = [
    "render_span_summary", "render_metrics_table", "render_manifest",
    "sniff_kind", "summarise_file",
]


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: list[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def render_span_summary(spans: Iterable[Span]) -> str:
    """Per-name span aggregates, busiest first (by total span time).

    The headline names the clock: "simulated span-seconds" for pure
    sim-clock traces, "wall span-seconds" when every span is wall-clock
    (``attrs["clock"] == "wall"``), and plain "span-seconds" for mixed
    traces (pre-split them with :func:`repro.obs.report.split_spans` for
    per-domain tables).
    """
    tracer = Tracer()
    tracer.spans = list(spans)
    summary = tracer.summary()
    if not summary:
        return "(no finished spans)"
    rows = [
        [name, f"{int(agg['count'])}", f"{agg['total']:.6f}",
         f"{agg['mean']:.6f}", f"{agg['max']:.6f}"]
        for name, agg in sorted(summary.items(),
                                key=lambda kv: -kv[1]["total"])
    ]
    total = sum(agg["total"] for agg in summary.values())
    clocks = {s.attrs.get("clock") for s in tracer.spans}
    unit = ("wall span-seconds" if clocks == {"wall"}
            else "simulated span-seconds" if "wall" not in clocks
            else "span-seconds")
    table = _table(["span", "count", "total_s", "mean_s", "max_s"], rows)
    return f"{len(tracer.spans)} spans, {total:.6f} {unit}\n" + table


def _metric_row(name: str, data: dict) -> list[str]:
    kind = data.get("kind", "?")
    if kind == "histogram":
        detail = (f"count={data['count']} sum={data['sum']:.6g} "
                  f"mean={data['mean']:.6g}")
        if data.get("count"):
            detail += f" min={data['min']:.6g} max={data['max']:.6g}"
        return [name, kind, detail]
    return [name, kind, f"{data.get('value', 0.0):.6g}"]


def render_metrics_table(snapshot: dict[str, dict]) -> str:
    """All metrics of one snapshot as a name/kind/value table."""
    if not snapshot:
        return "(no metrics recorded)"
    rows = [_metric_row(name, snapshot[name]) for name in sorted(snapshot)]
    return _table(["metric", "kind", "value"], rows)


def render_manifest(manifest: RunManifest) -> str:
    """Provenance summary plus the embedded metric table."""
    lines = [
        f"run:        {manifest.name}",
        f"seed:       {manifest.seed}",
        f"created:    {manifest.created_at}",
        f"git:        {manifest.git_sha or '(not a git checkout)'}",
        f"version:    repro {manifest.version} / python {manifest.python}",
        f"platform:   {manifest.platform}",
    ]
    if manifest.trace_id:
        lines.insert(4, f"trace id:   {manifest.trace_id}")
    if manifest.timings:
        timing = ", ".join(f"{k}={v:.2f}s"
                           for k, v in sorted(manifest.timings.items()))
        lines.append(f"timings:    {timing}")
    if manifest.config:
        lines.append("config:")
        for key in sorted(manifest.config):
            lines.append(f"  {key} = {manifest.config[key]!r}")
    if manifest.extra:
        lines.append(f"extra:      {json.dumps(manifest.extra, sort_keys=True)}")
    if manifest.metrics:
        lines.append("")
        lines.append(render_metrics_table(manifest.metrics))
    return "\n".join(lines)


def sniff_kind(path: str | pathlib.Path) -> str:
    """Identify an exported file: ``trace``, ``metrics`` or ``manifest``.

    Anything else raises :class:`ValueError` naming ``path``.
    """
    path = pathlib.Path(path)
    with open(path) as fp:
        first = fp.readline().strip()
    if first.startswith("{") and first.endswith("}"):
        # JSONL traces carry their kind on line one; whole-file JSON
        # documents may not fit on one line, so fall through to a full load.
        try:
            kind = json.loads(first).get("kind")
        except json.JSONDecodeError:
            kind = None
        if kind == TRACE_KIND:
            return "trace"
    kind = read_json_object(path).get("kind")
    if kind == METRICS_KIND:
        return "metrics"
    if kind == MANIFEST_KIND:
        return "manifest"
    raise ValueError(f"{path}: not a recognised repro observability file")


def summarise_file(path: str | pathlib.Path) -> str:
    """Render whichever artefact ``path`` holds."""
    kind = sniff_kind(path)
    if kind == "trace":
        return render_span_summary(load_trace(path))
    if kind == "metrics":
        return render_metrics_table(load_metrics(path))
    return render_manifest(load_manifest(path))
