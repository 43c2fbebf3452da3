"""Run manifests: one JSON document that makes a result reproducible.

The paper's pipeline is offline — traces are collected on the cluster
and labelled later on the training server — which only works because
every artefact carries enough context to re-derive it.  A
:class:`RunManifest` gives our experiments the same property: every
entry point stamps its output with the seed, the full configuration, the
git revision and package version that produced it, per-tier wall-clock
timings, and a metrics snapshot, so ``python -m repro obs manifest.json``
can answer "what exactly produced this file?" from the file alone.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import pathlib
import platform
import subprocess
import sys
from typing import Any, Mapping

from repro.obs.metrics import REGISTRY, MetricsRegistry

__all__ = [
    "MANIFEST_KIND", "RunManifest", "git_revision", "jsonable",
    "config_to_dict", "build_manifest", "write_manifest", "load_manifest",
]

MANIFEST_KIND = "repro-manifest"
_FORMAT_VERSION = 1


def git_revision() -> str | None:
    """The repository HEAD SHA, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=pathlib.Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def jsonable(value: Any) -> Any:
    """Best-effort conversion of config values to JSON-safe types."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


#: Backwards-compatible alias (pre-1.1 internal name).
_jsonable = jsonable


def config_to_dict(config: Any) -> dict[str, Any]:
    """Flatten any config (dataclass, mapping, object) to a JSON dict."""
    out = jsonable(config)
    if not isinstance(out, dict):
        out = {"value": out}
    return out


@dataclasses.dataclass
class RunManifest:
    """Provenance record of one experiment execution."""

    name: str
    seed: int
    config: dict[str, Any]
    created_at: str
    git_sha: str | None
    version: str
    python: str
    platform: str
    #: Wall-clock seconds per tier/phase (e.g. {"run": 12.3}).
    timings: dict[str, float] = dataclasses.field(default_factory=dict)
    #: Metrics-registry snapshot taken when the manifest was built.  It
    #: is process-cumulative: under ``repro all`` it includes every
    #: earlier experiment, while ``extra``'s sweep, training and dataset
    #: counters are the experiment's own.
    metrics: dict[str, dict] = dataclasses.field(default_factory=dict)
    extra: dict[str, Any] = dataclasses.field(default_factory=dict)
    #: Distributed trace id of the execution (when tracing was on).
    #: Optional with a default so manifests written before trace
    #: propagation existed still load.
    trace_id: str | None = None

    def to_dict(self) -> dict[str, Any]:
        doc = dataclasses.asdict(self)
        doc["kind"] = MANIFEST_KIND
        doc["format_version"] = _FORMAT_VERSION
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "RunManifest":
        if doc.get("kind") not in (None, MANIFEST_KIND):
            raise ValueError(f"not a repro manifest: kind={doc.get('kind')!r}")
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in doc.items() if k in fields})


def build_manifest(
    name: str,
    seed: int,
    config: Any,
    timings: Mapping[str, float] | None = None,
    extra: Mapping[str, Any] | None = None,
    registry: MetricsRegistry | None = None,
    trace_id: str | None = None,
) -> RunManifest:
    """Assemble a manifest for ``name`` from the current process state.

    ``trace_id`` defaults to the installed tracer's id (when a tracer is
    recording), tying the manifest to the trace file it was written
    alongside.
    """
    from repro import __version__
    from repro.obs import trace as _trace

    if trace_id is None and _trace.TRACER is not None:
        trace_id = _trace.TRACER.trace_id
    reg = REGISTRY if registry is None else registry
    return RunManifest(
        name=name,
        seed=int(seed),
        config=config_to_dict(config),
        created_at=datetime.datetime.now(datetime.timezone.utc).isoformat(),
        git_sha=git_revision(),
        version=__version__,
        python=sys.version.split()[0],
        platform=platform.platform(),
        timings={k: float(v) for k, v in (timings or {}).items()},
        metrics=reg.snapshot(),
        extra=dict(extra or {}),
        trace_id=trace_id,
    )


def write_manifest(manifest: RunManifest,
                   path: str | pathlib.Path) -> pathlib.Path:
    """Write a manifest as indented JSON; returns the path."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest.to_dict(), indent=2, sort_keys=True)
                    + "\n")
    return path


def load_manifest(path: str | pathlib.Path) -> RunManifest:
    """Read a manifest written by :func:`write_manifest`."""
    return RunManifest.from_dict(json.loads(pathlib.Path(path).read_text()))
