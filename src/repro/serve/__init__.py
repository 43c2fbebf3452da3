"""Resilient multi-tenant prediction service.

The paper's deployment story ends with one model watching one
application (:mod:`repro.core.online`).  A shared HPC storage system has
hundreds of applications worth watching at once, and the marginal cost
of a prediction is a few tens of microseconds of matmul — the expensive
part is keeping a model process alive per consumer.  This package runs
**one** long-lived service instead: tenants stream their per-window
vectors in, and whenever its batcher is free the service scores every
window then queued across *all* tenants in a single fused forward pass
(:meth:`repro.core.predictor.DeployedPredictor.predict_proba_rows`, one
kernel matmul per layer for N tenants).  Batching is continuous: no
timer holds a window back, and a batch holds what arrived while the
previous one was being scored.  Each tenant gets back exactly the bits
a private scorer would have produced.

The interesting part is the robustness envelope, because multi-tenant
means mutually-untrusted load:

* **backpressure** — per-tenant bounded ingest queues; a full queue
  raises :class:`Backpressure` and the client retries with jittered
  exponential backoff (:func:`repro.parallel.backoff_delay`);
* **admission control and load shedding** — a tenant cap at connect
  time, and a global backlog bound past which requests are shed
  instead of queued;
* **deadlines** — a request that waits longer than its deadline is
  never scored; it degrades instead of adding latency to everyone else;
* **a per-tenant circuit breaker** driving the degradation ladder
  *fresh → stale → masked → refuse*: repeated non-fresh outcomes trip
  the breaker, masking the tenant for a cooldown instead of letting it
  churn the batcher;
* **graceful drain** — shutdown stops admissions, scores what is
  queued within a drain budget, and accounts for every leftover
  request, the batch in flight included;
* **deterministic chaos** — :class:`repro.faults.ServiceFaultPlan`
  drives the tenant harness (:func:`run_soak`) with floods, stalls,
  disconnects and slow-model stalls, all derived from the plan seed.

The envelope's bounds are constants of :mod:`repro.serve.service`
(``MAX_TENANTS``, ``MAX_BATCH``, ``SHED_BACKLOG``, ``DEADLINE``,
``BREAKER_THRESHOLD``, ``BREAKER_COOLDOWN``, ``DRAIN_TIMEOUT``): every
caller runs with the same values.  The per-tenant queue depth is the
one setting (:class:`ServeConfig`, ``repro serve --queue-depth``).

Each submission is handled on its own: it is queued, fast-failed, shed
or refused with backpressure.  Its window number is a label the result
echoes back, not a place in a sequence the service enforces; a tenant's
queued windows leave its queue in the order it submitted them.

DESIGN.md §13 documents the policies; ``repro serve`` is the CLI
entry point.
"""

from repro.serve.service import (
    Backpressure,
    PredictionService,
    Rejected,
    ServeConfig,
    TenantSession,
    WindowResult,
)
from repro.serve.tenants import (
    SoakReport,
    TenantOutcome,
    run_soak,
    tenant_windows,
)

__all__ = [
    "Backpressure",
    "PredictionService",
    "Rejected",
    "ServeConfig",
    "SoakReport",
    "TenantOutcome",
    "TenantSession",
    "WindowResult",
    "run_soak",
    "tenant_windows",
]
