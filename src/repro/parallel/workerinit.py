"""One-time worker-process initialisation for the sweep pool.

Sweep pool workers used to do their whole setup inside every task body:
``_execute_job`` imported the simulation stack on first use (expensive
under the ``spawn`` start method), detached or attached the tracer, and
reset the metrics registry per task.  The genuinely one-time parts now
live here as a ``multiprocessing.Pool`` *initializer* — run once per
worker process, not once per task.

What stays per-task on purpose: ``_execute_job`` still calls
``attach(trace_ctx)`` and ``REGISTRY.reset()`` for every job, because a
job's shipped snapshot/spans must be exactly that job's delta.  The
initializer makes those per-task calls cheap (modules hot, base state
installed), it does not replace them.
"""

from __future__ import annotations

from typing import Any

from repro.obs import distributed as _dist
from repro.obs.metrics import REGISTRY
from repro.obs.trace import Tracer

__all__ = ["init_worker"]


def init_worker(trace_ctx: "Any | None" = None) -> Tracer | None:
    """Initialise the current process as a pool worker.

    * pre-imports the heavy simulation/monitoring modules so the first
      task does not pay import latency (a no-op under ``fork``, the
      bulk of worker startup under ``spawn``);
    * installs a fresh tracer seeded from ``trace_ctx`` — or detaches
      any tracer inherited via ``fork``, so an untraced worker never
      records into the parent's span list;
    * resets the metrics registry so fork-inherited parent counters
      never leak into the first shipped snapshot.

    Returns the installed worker tracer (``None`` when untraced).
    """
    # Pre-import the modules every job body touches; keeping this list
    # explicit (rather than importing repro.*) bounds worker startup.
    import repro.experiments.runner  # noqa: F401
    import repro.monitor.aggregator  # noqa: F401
    import repro.sim.batch  # noqa: F401
    import repro.sim.cluster  # noqa: F401
    import repro.workloads.io500  # noqa: F401

    tracer = _dist.attach(trace_ctx)
    REGISTRY.reset()
    return tracer
