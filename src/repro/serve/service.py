"""The multi-tenant prediction service core.

One asyncio event loop owns everything: tenants (coroutines, or anything
that can await) connect, submit raw per-window vectors and await
results; a single batcher task takes one window from each tenant with
queued work, round-robin, into micro-batches and scores each batch in
one fused forward pass.  Batching is continuous: no timer paces the
batcher, so each batch is whatever was queued when it came free (up to
:data:`MAX_BATCH`) and batch size follows the load.
Because scoring runs through
:meth:`repro.core.predictor.DeployedPredictor.predict_proba_rows`, a
tenant's bits never depend on who else landed in its batch — the service
is semantically N private scorers that happen to share their matmuls.

**The degradation ladder.**  Every submitted window resolves to exactly
one status, ordered from best to worst:

``fresh``
    scored this window's vector through the model;
``stale``
    missed its deadline (or arrived while the breaker probes) — the
    tenant's last good probabilities are repeated;
``masked``
    no usable answer: breaker open, or no last-good to repeat;
``shed``
    refused — global backlog past the shed bound, or still queued or
    in flight when the drain budget expired.

Only ``fresh`` is healthy; everything else marks the tenant degraded.
The per-tenant **circuit breaker** counts consecutive unhealthy
resolutions: at :data:`BREAKER_THRESHOLD` it opens and the tenant
fast-fails to ``masked`` (or ``stale``) for :data:`BREAKER_COOLDOWN`
seconds — protecting the batcher from a tenant whose traffic can no
longer be served — then half-opens to let one probe window through; a
fresh probe closes it.

Each submission is handled on its own — queued, fast-failed, shed or
refused with :class:`Backpressure` — and its ``window`` is a label the
:class:`WindowResult` echoes back: the service keeps no per-tenant
cursor, so a refused window holds back none after it.  A tenant's
queued windows leave its queue in the order it submitted them.

All waiting is wall-clock (``time.monotonic``): unlike the simulator's
tracer this is a real service loop, so deadlines and cooldowns are real
seconds.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.faults.service import ServiceFaultPlan
from repro.obs.log import get_logger
from repro.obs.metrics import REGISTRY

__all__ = [
    "Backpressure",
    "PredictionService",
    "Rejected",
    "ServeConfig",
    "TenantSession",
    "WindowResult",
    "STATUSES",
]

logger = get_logger("serve.service")

#: Every status a submitted window can resolve to.
STATUSES = ("fresh", "stale", "masked", "shed")

#: Statuses that do not trip the circuit breaker.
_HEALTHY = frozenset({"fresh"})

#: Buckets for the ``serve.batch_size`` histogram — anything reading the
#: histogram back must register with the same boundaries.
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


class Backpressure(RuntimeError):
    """This tenant's ingest queue is full — back off and retry.

    Raised from :meth:`TenantSession.submit` *before* the window is
    accepted, so the submission had no effect.  Backpressure is
    per-tenant and transient; clients retry with jittered exponential
    backoff (:func:`repro.parallel.backoff_delay`).
    """


class Rejected(RuntimeError):
    """Admission refused: tenant cap reached or service draining.

    Unlike :class:`Backpressure` this is not retryable within the
    session — the tenant was never admitted and owns no queue.
    """


# The robustness envelope.  Every caller runs with the same values, so
# they are constants, read where they are used: patching the module
# attribute changes a running service.  Only the per-tenant queue bound
# is a setting (:class:`ServeConfig`).

#: Admission control: connects past this count are rejected.
MAX_TENANTS = 1024
#: Most windows scored per fused forward pass.
MAX_BATCH = 256
#: Global queued-window bound past which new submissions are shed.
SHED_BACKLOG = 4096
#: Seconds a window may wait before it degrades instead of scoring.
DEADLINE = 1.0
#: Consecutive unhealthy resolutions that open a tenant's breaker.
BREAKER_THRESHOLD = 3
#: Seconds an open breaker masks the tenant before half-opening.
BREAKER_COOLDOWN = 0.25
#: Seconds ``stop()`` keeps scoring queued work before shedding it.
DRAIN_TIMEOUT = 5.0


@dataclass(frozen=True)
class ServeConfig:
    """The service's settable bound (``repro serve --queue-depth``)."""

    #: Per-tenant bound on queued-but-unscored windows (backpressure).
    queue_depth: int = 8

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, "
                             f"got {self.queue_depth}")


@dataclass(frozen=True)
class WindowResult:
    """What one submitted window resolved to."""

    window: int  #: the label the tenant submitted it under
    status: str  #: one of :data:`STATUSES`
    severity: int | None  #: argmax class; ``None`` when masked/shed
    probabilities: tuple[float, ...] | None
    latency: float  #: seconds from submission to resolution


class _Request:
    """One queued window awaiting resolution."""

    __slots__ = ("window", "vector", "future", "enqueued")

    def __init__(self, window: int, vector: np.ndarray,
                 future: asyncio.Future, enqueued: float) -> None:
        self.window = window
        self.vector = vector
        self.future = future
        self.enqueued = enqueued


class TenantSession:
    """One admitted tenant's window stream.

    Created by :meth:`PredictionService.connect`; all state lives on the
    service's event loop, so no locking.  Queued windows are taken in
    the order the tenant submitted them.
    """

    def __init__(self, service: "PredictionService", tenant: str) -> None:
        self.service = service
        self.tenant = tenant
        #: Windows queued for the batcher, in submission order.
        self.pending: deque[_Request] = deque()
        self.last_good: tuple[float, ...] | None = None
        # -- circuit breaker ------------------------------------------------
        self.failures = 0  #: consecutive unhealthy resolutions
        self.breaker_open_until: float | None = None
        self.probing = False  #: half-open: one window is in flight

    # -- breaker ------------------------------------------------------------

    def _breaker_state(self, now: float) -> str:
        if self.breaker_open_until is None:
            return "closed"
        if now < self.breaker_open_until:
            return "open"
        return "half-open"

    def _record(self, status: str) -> None:
        if status in _HEALTHY:
            self.failures = 0
            if self.probing:  # fresh probe closes the breaker
                self.breaker_open_until = None
                self.probing = False
        else:
            self.failures += 1
            if self.probing:  # failed probe re-opens it
                self.breaker_open_until = time.monotonic() + BREAKER_COOLDOWN
                self.probing = False
                self.service.metric_breaker.inc()
            elif (self.breaker_open_until is None
                  and self.failures >= BREAKER_THRESHOLD):
                self.breaker_open_until = time.monotonic() + BREAKER_COOLDOWN
                self.service.metric_breaker.inc()

    # -- resolution ---------------------------------------------------------

    def _resolve(self, req: _Request, status: str,
                 probabilities: tuple[float, ...] | None,
                 severity: int | None = None) -> None:
        self._record(status)
        service = self.service
        service.metric_status[status].inc()
        latency = time.monotonic() - req.enqueued
        service.metric_latency.observe(latency)
        if severity is None and probabilities is not None:
            severity = int(np.argmax(probabilities))
        if not req.future.done():
            req.future.set_result(WindowResult(
                window=req.window, status=status, severity=severity,
                probabilities=probabilities, latency=latency,
            ))

    def _degraded(self, req: _Request) -> None:
        """Resolve ``req`` down the ladder: stale if possible, else masked."""
        if self.last_good is not None:
            self._resolve(req, "stale", self.last_good)
        else:
            self._resolve(req, "masked", None)

    # -- submission ---------------------------------------------------------

    async def submit(self, window: int, vector: np.ndarray) -> WindowResult:
        """Submit one window's raw per-server vector; await its result.

        ``vector`` is ``(n_servers, n_features)`` raw (unnormalised)
        finite features, exactly what :class:`StreamingPredictor`
        assembles; anything else raises ``ValueError`` before the window
        is counted, so one malformed vector cannot reach (and kill) the
        shared batcher, and a NaN or inf is never answered ``fresh`` and
        then repeated as the tenant's last good result.  Raises
        :class:`Backpressure` (retryable) when this tenant's queue is
        full; a global overload instead resolves immediately to a
        ``shed`` result.
        """
        service = self.service
        vector = np.asarray(vector)
        if vector.shape != service.vector_shape \
                or vector.dtype.kind not in "iuf":
            raise ValueError(
                f"tenant {self.tenant}: window {window} vector must be a "
                f"real-valued {service.vector_shape} array, got "
                f"{vector.dtype} {vector.shape}")
        if not np.isfinite(vector).all():
            raise ValueError(
                f"tenant {self.tenant}: window {window} vector holds "
                f"non-finite values")
        now = time.monotonic()
        service.metric_submitted.inc()
        req = _Request(window, vector,
                       asyncio.get_running_loop().create_future(), now)
        # The breaker fast-fails without touching the queue; half-open
        # lets exactly one probe through to the batcher.
        state = self._breaker_state(now)
        if state == "open" or (state == "half-open" and self.probing):
            self._degraded(req)
        elif not service.accepting:
            self._resolve(req, "shed", None)
        elif service.backlog >= SHED_BACKLOG:
            # Load shedding: protect the whole service before queueing.
            service.metric_load_shed.inc()
            self._resolve(req, "shed", None)
        elif len(self.pending) >= service.config.queue_depth:
            # Backpressure: this tenant's own bound.
            service.metric_backpressure.inc()
            raise Backpressure(
                f"tenant {self.tenant}: queue full "
                f"({service.config.queue_depth} windows)")
        else:
            if state == "half-open":
                self.probing = True
            self._accept(req)
        return await req.future

    def _accept(self, req: _Request) -> None:
        """Queue ``req`` for the batcher and wake it.

        The one place ``backlog`` rises, so the one place the wake is
        set.
        """
        service = self.service
        if not self.pending:
            service.ready.append(self)
        self.pending.append(req)
        service.backlog += 1
        service.metric_backlog.set(service.backlog)
        service.wake.set()


class PredictionService:
    """N tenants, one model, one batcher task.

    ``scorer`` is a :class:`repro.core.predictor.DeployedPredictor` (or
    anything with its ``predict_proba_rows`` / shape attributes).
    ``fault_plan`` optionally injects service-side chaos (slow-batch
    stalls); tenant-side chaos lives in the harness, not here — the
    service cannot tell a chaotic tenant from a real one, which is the
    point.
    """

    def __init__(self, scorer, config: ServeConfig | None = None,
                 fault_plan: ServiceFaultPlan | None = None) -> None:
        self.scorer = scorer
        self.config = config or ServeConfig()
        self.fault_plan = fault_plan
        self.tenants: dict[str, TenantSession] = {}
        self.accepting = False
        self.backlog = 0
        self.batches = 0
        self.wake = asyncio.Event()
        self._task: asyncio.Task | None = None
        #: Shape every submitted vector must have.
        self.vector_shape = (scorer.n_servers, scorer.n_features)
        #: Tenants with queued windows, in round-robin order; a session
        #: is in here exactly while its ``pending`` queue is non-empty.
        self.ready: deque[TenantSession] = deque()
        #: The batch being scored: assembled off the queues (so no longer
        #: in ``backlog``) and not yet resolved.
        self.inflight: list[tuple[TenantSession, _Request]] = []
        # Resolve metrics once; the batch loop is the hot path.
        self.metric_submitted = REGISTRY.counter("serve.submitted")
        self.metric_status = {s: REGISTRY.counter(f"serve.{s}")
                              for s in STATUSES}
        self.metric_backpressure = REGISTRY.counter("serve.backpressure")
        self.metric_load_shed = REGISTRY.counter("serve.load_shed")
        self.metric_breaker = REGISTRY.counter("serve.breaker_trips")
        self.metric_deadline = REGISTRY.counter("serve.deadline_misses")
        self.metric_stalls = REGISTRY.counter("serve.injected_stalls")
        self.metric_admitted = REGISTRY.counter("serve.tenants_admitted")
        self.metric_rejected = REGISTRY.counter("serve.tenants_rejected")
        self.metric_batches = REGISTRY.counter("serve.batches")
        self.metric_batch_size = REGISTRY.histogram(
            "serve.batch_size", boundaries=BATCH_SIZE_BUCKETS)
        self.metric_latency = REGISTRY.histogram("serve.latency_seconds")
        self.metric_backlog = REGISTRY.gauge("serve.backlog")

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Start accepting tenants and spawn the batcher task."""
        if self._task is not None:
            raise RuntimeError("service already started")
        self.accepting = True
        self._task = asyncio.get_running_loop().create_task(
            self._batch_loop(), name="repro-serve-batcher")
        logger.info("prediction service up: max_tenants=%d max_batch=%d",
                    MAX_TENANTS, MAX_BATCH)

    async def stop(self) -> dict[str, int]:
        """Graceful drain: stop admissions, score the queue, account.

        Queued work is scored for up to :data:`DRAIN_TIMEOUT` seconds; any
        windows still in flight or queued after that resolve as
        ``shed``.  Returns ``{"drained": scored-or-degraded, "shed":
        leftovers}``, counting the batch in flight when ``stop`` began.
        """
        if self._task is None:
            raise RuntimeError("service not started")
        self.accepting = False
        # Everything resident right now: the batch being scored and the
        # queued windows (backlog).
        drained_from = len(self.inflight) + self.backlog
        self.wake.set()
        try:
            await asyncio.wait_for(self._task, timeout=DRAIN_TIMEOUT)
        except asyncio.TimeoutError:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
        self._task = None
        # A batcher cancelled mid-batch leaves that batch unresolved; its
        # windows precede every queued window of their tenants.
        shed = len(self.inflight)
        for session, req in self.inflight:
            session._resolve(req, "shed", None)
        self.inflight = []
        self.ready.clear()
        for session in self.tenants.values():
            while session.pending:
                session._resolve(session.pending.popleft(), "shed", None)
                shed += 1
        self.backlog = 0
        self.metric_backlog.set(0)
        logger.info("prediction service drained: %d scored, %d shed",
                    drained_from - shed, shed)
        return {"drained": drained_from - shed, "shed": shed}

    # -- admission ----------------------------------------------------------

    def connect(self, tenant: str) -> TenantSession:
        """Admit one tenant; raises :class:`Rejected` past the cap."""
        if not self.accepting:
            self.metric_rejected.inc()
            raise Rejected("service is not accepting tenants")
        if tenant in self.tenants:
            raise ValueError(f"tenant {tenant!r} already connected")
        if len(self.tenants) >= MAX_TENANTS:
            self.metric_rejected.inc()
            raise Rejected(f"tenant cap reached ({MAX_TENANTS})")
        session = TenantSession(self, tenant)
        self.tenants[tenant] = session
        self.metric_admitted.inc()
        return session

    # -- the batcher --------------------------------------------------------

    def _assemble(self) -> list[tuple[TenantSession, _Request]]:
        """Take up to :data:`MAX_BATCH` queued windows, round-robin.

        Each turn takes one window from the tenant at the head of the
        ready queue and sends the tenant to the back while it still has
        work, so no tenant gets a second window into a batch while
        another waits, and the cost is proportional to the windows
        taken, not to the tenants connected.  Deadline-expired requests
        are resolved down the ladder here and never reach the model.
        """
        batch: list[tuple[TenantSession, _Request]] = []
        now = time.monotonic()
        ready = self.ready
        while ready and len(batch) < MAX_BATCH:
            session = ready.popleft()
            req = session.pending.popleft()
            if session.pending:
                ready.append(session)
            self.backlog -= 1
            if now - req.enqueued > DEADLINE:
                self.metric_deadline.inc()
                session._degraded(req)
                continue
            batch.append((session, req))
        self.metric_backlog.set(self.backlog)
        return batch

    async def _batch_loop(self) -> None:
        """Continuous batching: score what is queued whenever free.

        With nothing queued the batcher waits on ``wake`` alone (set
        whenever a window is queued, and by ``stop``).  With work queued
        it yields once, so submissions made in the same tick and tenants
        the last batch answered can queue, then scores everything queued
        up to :data:`MAX_BATCH`: under load a batch holds what arrived while
        the previous one was being scored, and no answer waits on a timer.
        """
        scorer = self.scorer
        while True:
            if self.backlog == 0:
                if not self.accepting:
                    return
                self.wake.clear()
                await self.wake.wait()
                continue
            await asyncio.sleep(0)
            batch = self.inflight = self._assemble()
            if not batch:
                continue
            if self.fault_plan is not None:
                stall = self.fault_plan.batch_stall(self.batches)
                if stall > 0:
                    self.metric_stalls.inc()
                    await asyncio.sleep(stall)
            X = np.stack([req.vector for _, req in batch])
            probs = scorer.predict_proba_rows(X)
            for (session, req), row, severity in zip(
                    batch, probs.tolist(), probs.argmax(axis=1).tolist()):
                fresh = tuple(row)
                session.last_good = fresh
                session._resolve(req, "fresh", fresh, severity)
            self.inflight = []
            self.batches += 1
            self.metric_batches.inc()
            self.metric_batch_size.observe(len(batch))
