"""``repro.obs`` — tracing, metrics, logging and run manifests.

The observability layer threaded through every tier of the stack:

* :mod:`repro.obs.trace` — span tracer over *simulated* time, recording
  the client→network→server→disk lifecycle of every I/O request when a
  tracer is installed (near-zero overhead when none is);
* :mod:`repro.obs.metrics` — process-wide registry of counters, gauges
  and fixed-bucket histograms used by the monitors, the training loop
  and the online predictor;
* :mod:`repro.obs.log` — ``repro``-namespaced stdlib logging;
* :mod:`repro.obs.manifest` — JSON run manifests (seed, config, git SHA,
  timings, metric snapshot) stamped by every experiment entry point;
* :mod:`repro.obs.distributed` — cross-process trace propagation: the
  trace id handed to worker processes and the deterministic merge of
  their span shipments into one timeline;
* :mod:`repro.obs.profile` — lightweight wall-clock phase profiler with
  hierarchical attribution and a critical-path summary;
* :mod:`repro.obs.export` / :mod:`repro.obs.summary` /
  :mod:`repro.obs.report` — JSONL/JSON exporters, the renderers behind
  ``python -m repro obs``, and the ``repro obs report`` surface
  (terminal report + Chrome trace-event JSON for Perfetto).

Quickstart::

    from repro import obs

    obs.configure_logging("INFO")
    tracer = obs.install_tracer()
    pair = run_pair(target, noise, config)       # spans record themselves
    obs.uninstall_tracer()
    obs.save_trace(tracer, "run.trace.jsonl")
    print(obs.render_span_summary(tracer.spans))
"""

from repro.obs.distributed import (
    WALL_CLOCK,
    attach,
    current_context,
    merge_shipment,
    ship,
)
from repro.obs.export import (
    load_metrics,
    load_trace,
    save_metrics,
    save_trace,
)
from repro.obs.log import configure_logging, get_logger
from repro.obs.manifest import (
    RunManifest,
    build_manifest,
    config_to_dict,
    git_revision,
    load_manifest,
    write_manifest,
)
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
)
from repro.obs.profile import PhaseProfiler, PhaseRecord, phase, profiling
from repro.obs.profile import get as current_profiler
from repro.obs.profile import install as install_profiler
from repro.obs.profile import uninstall as uninstall_profiler
from repro.obs.report import (
    chrome_trace_doc,
    executor_health,
    render_report,
    save_chrome_trace,
    split_spans,
    worker_breakdown,
)
from repro.obs.summary import (
    render_manifest,
    render_metrics_table,
    render_span_summary,
    summarise_file,
)
from repro.obs.trace import Span, Tracer, tracing
from repro.obs.trace import get as current_tracer
from repro.obs.trace import install as install_tracer
from repro.obs.trace import uninstall as uninstall_tracer

__all__ = [
    # trace
    "Span", "Tracer", "tracing", "current_tracer", "install_tracer",
    "uninstall_tracer",
    # metrics
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "REGISTRY",
    "registry", "DEFAULT_TIME_BUCKETS",
    # logging
    "configure_logging", "get_logger",
    # manifests
    "RunManifest", "build_manifest", "config_to_dict", "git_revision",
    "load_manifest", "write_manifest",
    # distributed tracing
    "WALL_CLOCK", "current_context", "attach", "ship",
    "merge_shipment",
    # profiling
    "PhaseProfiler", "PhaseRecord", "phase", "profiling",
    "current_profiler", "install_profiler", "uninstall_profiler",
    # export + rendering
    "save_trace", "load_trace", "save_metrics", "load_metrics",
    "render_span_summary", "render_metrics_table", "render_manifest",
    "summarise_file",
    # reporting
    "render_report", "chrome_trace_doc", "save_chrome_trace",
    "split_spans", "worker_breakdown", "executor_health",
]
