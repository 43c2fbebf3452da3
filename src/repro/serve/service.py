"""The multi-tenant prediction service core.

One asyncio event loop owns everything: tenants (coroutines, or anything
that can await) connect, submit raw per-window vectors and await
results; a single batcher task takes one window from each tenant with
queued work, round-robin, into micro-batches and scores each batch in
one fused forward pass.
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
    tenant's last good probabilities are repeated, like
    :class:`repro.core.online.StreamingPredictor`'s completeness
    fallback;
``masked``
    no usable answer: breaker open, no last-good to repeat, or the
    window arrived too late / out of reorder range;
``shed``
    refused — global backlog past the shed bound, or still queued when
    the drain budget expired;
``duplicate``
    the tenant already submitted this window; the previous answer's
    probabilities are repeated without scoring.

``fresh`` and ``duplicate`` are healthy; everything else marks the
tenant degraded.  The per-tenant **circuit breaker** counts consecutive
unhealthy resolutions: at ``breaker_threshold`` it opens and the tenant
fast-fails to ``masked`` (or ``stale``) for ``breaker_cooldown``
seconds — protecting the batcher from a tenant whose traffic can no
longer be served — then half-opens to let one probe window through; a
fresh probe closes it.

All waiting is wall-clock (``time.monotonic``): unlike the simulator's
tracer this is a real service loop, so deadlines and cooldowns are real
seconds.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field

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
STATUSES = ("fresh", "stale", "masked", "shed", "duplicate")

#: Statuses that do not trip the circuit breaker.
_HEALTHY = frozenset({"fresh", "duplicate"})

#: Idle poll while the batcher waits for work (seconds).
_IDLE_WAIT = 0.05

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


@dataclass(frozen=True)
class ServeConfig:
    """The service's entire robustness envelope, as data."""

    #: Admission control: connects past this count are rejected.
    max_tenants: int = 1024
    #: Per-tenant bound on queued-but-unscored windows (backpressure).
    queue_depth: int = 8
    #: Per-tenant bound on out-of-order windows buffered while earlier
    #: ones are awaited; past it the gap is abandoned (masked).
    reorder_depth: int = 4
    #: Most windows scored per fused forward pass.
    max_batch: int = 256
    #: Seconds the batcher accumulates arrivals before scoring.
    batch_interval: float = 0.002
    #: Global queued-window bound past which new submissions are shed.
    shed_backlog: int = 4096
    #: Seconds a window may wait before it degrades instead of scoring.
    deadline: float = 1.0
    #: Consecutive unhealthy resolutions that open a tenant's breaker.
    breaker_threshold: int = 3
    #: Seconds an open breaker masks the tenant before half-opening.
    breaker_cooldown: float = 0.25
    #: Seconds ``stop()`` keeps scoring queued work before shedding it.
    drain_timeout: float = 5.0

    def __post_init__(self) -> None:
        for name in ("max_tenants", "queue_depth", "max_batch",
                     "shed_backlog", "breaker_threshold"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, "
                                 f"got {getattr(self, name)}")
        for name in ("reorder_depth",):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, "
                                 f"got {getattr(self, name)}")
        for name in ("batch_interval", "deadline", "breaker_cooldown",
                     "drain_timeout"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, "
                                 f"got {getattr(self, name)}")


@dataclass(frozen=True)
class WindowResult:
    """What one submitted window resolved to."""

    window: int
    status: str  #: one of :data:`STATUSES`
    severity: int | None  #: argmax class; ``None`` when masked/shed
    probabilities: tuple[float, ...] | None
    latency: float  #: seconds from submission to resolution


class _Request:
    """One queued window awaiting resolution."""

    __slots__ = ("window", "vector", "future", "enqueued", "probe")

    def __init__(self, window: int, vector: np.ndarray,
                 future: asyncio.Future, enqueued: float,
                 probe: bool = False) -> None:
        self.window = window
        self.vector = vector
        self.future = future
        self.enqueued = enqueued
        self.probe = probe  #: half-open breaker probe


class TenantSession:
    """One admitted tenant's ordered window stream.

    Created by :meth:`PredictionService.connect`; all state lives on the
    service's event loop, so no locking.  Results are resolved in window
    order per tenant: an out-of-order window waits in the bounded
    reorder buffer until its predecessors arrive (or the gap is
    abandoned).
    """

    def __init__(self, service: "PredictionService", tenant: str) -> None:
        self.service = service
        self.tenant = tenant
        self.next_window = 0  #: lowest window not yet accepted in order
        #: In-order windows ready for the batcher.
        self.pending: deque[_Request] = deque()
        #: Out-of-order windows waiting for their predecessors.
        self.reorder: dict[int, _Request] = {}
        #: Windows abandoned by a reorder-buffer overflow: if one
        #: finally arrives it is masked (too late), not "duplicate".
        self.skipped: set[int] = set()
        #: Windows answered without ever entering the queue (breaker
        #: fast-fail, shed) while the cursor was elsewhere; the cursor
        #: skips over them when it catches up.
        self.fastfailed: set[int] = set()
        self.last_good: tuple[float, ...] | None = None
        self.counts: dict[str, int] = {status: 0 for status in STATUSES}
        # -- circuit breaker ------------------------------------------------
        self.failures = 0  #: consecutive unhealthy resolutions
        self.breaker_open_until: float | None = None
        self.probing = False  #: half-open: one window is in flight
        self.breaker_trips = 0

    # -- breaker ------------------------------------------------------------

    def _breaker_state(self, now: float) -> str:
        if self.breaker_open_until is None:
            return "closed"
        if now < self.breaker_open_until:
            return "open"
        return "half-open"

    def _record(self, status: str) -> None:
        self.counts[status] += 1
        if status in _HEALTHY:
            self.failures = 0
            if self.probing:  # fresh probe closes the breaker
                self.breaker_open_until = None
                self.probing = False
        else:
            self.failures += 1
            if self.probing:  # failed probe re-opens it
                self.breaker_open_until = (time.monotonic()
                                           + self.service.config
                                           .breaker_cooldown)
                self.probing = False
                self.breaker_trips += 1
                self.service.metric_breaker.inc()
            elif (self.breaker_open_until is None
                  and self.failures
                  >= self.service.config.breaker_threshold):
                self.breaker_open_until = (time.monotonic()
                                           + self.service.config
                                           .breaker_cooldown)
                self.breaker_trips += 1
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

    def _degraded(self, req: _Request, *, allow_stale: bool = True) -> None:
        """Resolve ``req`` down the ladder: stale if possible, else masked."""
        if allow_stale and self.last_good is not None:
            self._resolve(req, "stale", self.last_good)
        else:
            self._resolve(req, "masked", None)

    def _consume(self, window: int) -> None:
        """A window answered outside the queue still consumes its
        in-order slot.

        Without this, a sequential tenant whose window ``w`` fast-failed
        (breaker open, overload shed) would wedge: its next submission
        ``w+1`` parks in the reorder buffer waiting for a ``w`` that was
        already answered and will never be resent.
        """
        if window == self.next_window:
            self.next_window += 1
            while self.next_window in self.fastfailed:
                self.fastfailed.discard(self.next_window)
                self.next_window += 1
            self._flush_reorder()
        elif window > self.next_window:
            self.fastfailed.add(window)
            # Bounded like ``skipped``: a stale entry only costs a very
            # late resubmission the "duplicate" label.
            while len(self.fastfailed) > 256:
                self.fastfailed.discard(min(self.fastfailed))

    # -- submission ---------------------------------------------------------

    async def submit(self, window: int, vector: np.ndarray) -> WindowResult:
        """Submit one window's raw per-server vector; await its result.

        ``vector`` is ``(n_servers, n_features)`` raw (unnormalised)
        features, exactly what :class:`StreamingPredictor` assembles;
        anything else raises ``ValueError`` before the window is
        counted, so one malformed vector cannot reach (and kill) the
        shared batcher.  Raises :class:`Backpressure` (retryable) when
        this tenant's queue is full; a global overload instead resolves
        immediately to a ``shed`` result.
        """
        service = self.service
        vector = np.asarray(vector)
        if vector.shape != service.vector_shape \
                or vector.dtype.kind not in "iuf":
            raise ValueError(
                f"tenant {self.tenant}: window {window} vector must be a "
                f"real-valued {service.vector_shape} array, got "
                f"{vector.dtype} {vector.shape}")
        now = time.monotonic()
        service.metric_submitted.inc()
        loop = asyncio.get_running_loop()

        # Duplicate delivery: the window was already accepted (resolved,
        # queued, or buffered) — repeat, never rescore.  A window the
        # reorder buffer abandoned is not a duplicate: it was never
        # served, and it is now too late to serve it in order.
        if window < self.next_window or window in self.reorder \
                or any(r.window == window for r in self.pending):
            req = _Request(window, vector, loop.create_future(), now)
            if window in self.skipped:
                self.skipped.discard(window)
                self._degraded(req, allow_stale=False)
            else:
                self._resolve(req, "duplicate", self.last_good)
            return await req.future

        # The breaker fast-fails without touching the queue; half-open
        # lets exactly one probe through to the batcher.
        state = self._breaker_state(now)
        if state == "open" or (state == "half-open" and self.probing):
            req = _Request(window, vector, loop.create_future(), now)
            self._degraded(req)
            self._consume(window)
            return await req.future

        if not service.accepting:
            req = _Request(window, vector, loop.create_future(), now)
            self._resolve(req, "shed", None)
            self._consume(window)
            return await req.future

        # Load shedding: protect the whole service before any queueing.
        if service.backlog >= service.config.shed_backlog:
            service.metric_load_shed.inc()
            req = _Request(window, vector, loop.create_future(), now)
            self._resolve(req, "shed", None)
            self._consume(window)
            return await req.future

        # Backpressure: this tenant's own bound.  Count queued + buffered
        # so a reordering flood cannot sidestep the bound via the buffer.
        if len(self.pending) + len(self.reorder) \
                >= service.config.queue_depth:
            service.metric_backpressure.inc()
            raise Backpressure(
                f"tenant {self.tenant}: queue full "
                f"({service.config.queue_depth} windows)")

        probe = state == "half-open"
        if probe:
            self.probing = True
        req = _Request(window, vector, loop.create_future(), now,
                       probe=probe)
        if window == self.next_window:
            self._accept(req)
            self._flush_reorder()
        else:  # window > self.next_window: out of order
            if len(self.reorder) >= service.config.reorder_depth \
                    or service.config.reorder_depth == 0:
                # Buffer exhausted: abandon the gap.  Everything buffered
                # (plus this window) is released in window order; the
                # missing windows resolve as masked if they ever arrive
                # (they will look like duplicates of the past).
                self.reorder[window] = req
                self._abandon_gap()
            else:
                self.reorder[window] = req
        service.wake.set()
        return await req.future

    def _accept(self, req: _Request) -> None:
        if not self.pending:
            self.service.ready.append(self)
        self.pending.append(req)
        self.next_window = req.window + 1
        self.service.backlog += 1
        self.service.metric_backlog.set(self.service.backlog)

    def _flush_reorder(self) -> None:
        while self.next_window in self.reorder:
            self._accept(self.reorder.pop(self.next_window))

    def _abandon_gap(self) -> None:
        """Skip past missing windows to the oldest buffered one."""
        oldest = min(self.reorder)
        logger.warning("tenant %s: reorder buffer full; abandoning "
                       "windows %d..%d", self.tenant, self.next_window,
                       oldest - 1)
        self.service.metric_gaps.inc(oldest - self.next_window)
        self.skipped.update(range(self.next_window, oldest))
        # The skipped set stays bounded even if abandoned windows never
        # arrive: beyond a small cap, forget the oldest (a very late
        # arrival then reads as "duplicate" — a harmless downgrade of
        # the label, not of the behaviour).
        while len(self.skipped) > 256:
            self.skipped.discard(min(self.skipped))
        self.next_window = oldest
        self._flush_reorder()

    # -- accounting ---------------------------------------------------------

    @property
    def healthy(self) -> bool:
        """No unhealthy resolution ever (fresh/duplicate only)."""
        return all(self.counts[s] == 0
                   for s in STATUSES if s not in _HEALTHY)


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
        self.rejected_tenants = 0
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
        # Resolve metrics once; the batch loop is the hot path.
        self.metric_submitted = REGISTRY.counter("serve.submitted")
        self.metric_status = {s: REGISTRY.counter(f"serve.{s}")
                              for s in STATUSES}
        self.metric_backpressure = REGISTRY.counter("serve.backpressure")
        self.metric_load_shed = REGISTRY.counter("serve.load_shed")
        self.metric_breaker = REGISTRY.counter("serve.breaker_trips")
        self.metric_gaps = REGISTRY.counter("serve.abandoned_windows")
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
                    self.config.max_tenants, self.config.max_batch)

    async def stop(self) -> dict[str, int]:
        """Graceful drain: stop admissions, score the queue, account.

        Queued work is scored for up to ``drain_timeout`` seconds; any
        windows still queued or buffered after that resolve as ``shed``.
        Returns ``{"drained": scored-or-degraded, "shed": leftovers}``.
        """
        if self._task is None:
            raise RuntimeError("service not started")
        self.accepting = False
        # Everything resident right now: queued (backlog) plus windows
        # parked in reorder buffers, which the batcher cannot reach and
        # which therefore always end up shed.
        drained_from = self.backlog + sum(
            len(s.reorder) for s in self.tenants.values())
        self.wake.set()
        try:
            await asyncio.wait_for(self._task,
                                   timeout=self.config.drain_timeout)
        except asyncio.TimeoutError:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
        self._task = None
        shed = 0
        self.ready.clear()
        for session in self.tenants.values():
            leftovers = list(session.pending)
            session.pending.clear()
            leftovers.extend(session.reorder.values())
            session.reorder.clear()
            for req in sorted(leftovers, key=lambda r: r.window):
                session._resolve(req, "shed", None)
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
            self.rejected_tenants += 1
            self.metric_rejected.inc()
            raise Rejected("service is not accepting tenants")
        if tenant in self.tenants:
            raise ValueError(f"tenant {tenant!r} already connected")
        if len(self.tenants) >= self.config.max_tenants:
            self.rejected_tenants += 1
            self.metric_rejected.inc()
            raise Rejected(
                f"tenant cap reached ({self.config.max_tenants})")
        session = TenantSession(self, tenant)
        self.tenants[tenant] = session
        self.metric_admitted.inc()
        return session

    # -- the batcher --------------------------------------------------------

    def _assemble(self) -> list[tuple[TenantSession, _Request]]:
        """Take up to ``max_batch`` in-order windows, round-robin.

        Each turn takes one window from the tenant at the head of the
        ready queue and sends the tenant to the back while it still has
        work, so no tenant gets a second window into a batch while
        another waits, and the cost is proportional to the windows
        taken, not to the tenants connected.  Deadline-expired requests
        are resolved down the ladder here and never reach the model.
        """
        batch: list[tuple[TenantSession, _Request]] = []
        now = time.monotonic()
        deadline = self.config.deadline
        ready = self.ready
        while ready and len(batch) < self.config.max_batch:
            session = ready.popleft()
            req = session.pending.popleft()
            if session.pending:
                ready.append(session)
            self.backlog -= 1
            if now - req.enqueued > deadline:
                self.metric_deadline.inc()
                session._degraded(req)
                continue
            batch.append((session, req))
        self.metric_backlog.set(self.backlog)
        return batch

    async def _batch_loop(self) -> None:
        scorer = self.scorer
        while True:
            if self.backlog == 0:
                if not self.accepting:
                    return
                self.wake.clear()
                try:
                    await asyncio.wait_for(self.wake.wait(),
                                           timeout=_IDLE_WAIT)
                except asyncio.TimeoutError:
                    continue
            # Accumulate near-simultaneous arrivals into one batch.
            await asyncio.sleep(self.config.batch_interval)
            batch = self._assemble()
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
            self.batches += 1
            self.metric_batches.inc()
            self.metric_batch_size.observe(len(batch))
