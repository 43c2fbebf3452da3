"""Simulated tenant population + the chaos soak harness.

A tenant here is one coroutine replaying a deterministic stream of
per-window vectors against a :class:`~repro.serve.service.PredictionService`
— the stand-in for one monitored application's
:class:`~repro.core.online.StreamingPredictor` shipping its assembled
vectors to the shared service instead of scoring locally.  The stream
itself is pure function of ``(seed, tenant)`` (:func:`tenant_windows`),
so a test can regenerate any tenant's exact input and check the service
returned the exact bits a private scorer would have.

Chaos comes from :class:`repro.faults.ServiceFaultPlan`: each tenant
asks the plan for its profile and then *misbehaves accordingly* —
floods (shrunk think time, submissions outrunning answers), stalls
mid-stream, disconnects.  Every tenant sends each window once, in
order.  :class:`Backpressure` is handled the way a real client would:
jittered exponential backoff (:func:`repro.parallel.backoff_delay`)
with the jitter drawn from the tenant's own derived RNG, so the whole
soak replays bit-identically.

:func:`run_soak` drives N tenants concurrently, drains the service, and
folds everything into a :class:`SoakReport` whose headline invariant is
**total accounting**: every admitted-or-rejected tenant lands in exactly
one terminal state (``served`` / ``degraded`` / ``shed`` / ``error``),
and ``error`` staying empty is the harness's zero-unhandled-exceptions
guarantee.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.common.rng import derive_rng
from repro.faults.service import ServiceFaultPlan, TenantProfile
from repro.obs.log import get_logger
from repro.parallel.supervise import backoff_delay
from repro.serve.service import (
    Backpressure,
    PredictionService,
    Rejected,
    ServeConfig,
    WindowResult,
)

__all__ = ["SoakReport", "TenantOutcome", "run_soak", "tenant_windows"]

logger = get_logger("serve.tenants")

#: Base seconds for the client-side backpressure backoff.
_RETRY_BASE = 0.005
#: Cap on one backoff sleep (a soak should not stall on a single retry).
_RETRY_CAP = 0.25

#: Terminal states every tenant must land in (the accounting contract).
TERMINAL_STATES = ("served", "degraded", "shed", "error")


def tenant_windows(seed: int, tenant: str, n_windows: int,
                   n_servers: int, n_features: int) -> np.ndarray:
    """This tenant's deterministic raw vector stream.

    Pure function of the arguments: the soak driver and a bit-identity
    test regenerate the same ``(n_windows, n_servers, n_features)``
    array independently.  Magnitudes are scaled to look like z-scorable
    monitor features rather than unit noise.
    """
    rng = derive_rng(seed, "serve-windows", tenant)
    return 10.0 * rng.standard_normal((n_windows, n_servers, n_features))


@dataclass
class TenantOutcome:
    """Everything one tenant experienced, plus its terminal state."""

    tenant: str
    profile: TenantProfile
    admitted: bool
    #: Results in window order.
    results: list[WindowResult] = field(default_factory=list)
    #: False when the tenant disconnected (by chaos) before finishing.
    completed: bool = True
    #: repr of an unhandled exception; must stay ``None`` in any soak.
    error: str | None = None

    @property
    def terminal(self) -> str:
        """One of :data:`TERMINAL_STATES`."""
        if self.error is not None:
            return "error"
        if not self.admitted:
            return "shed"
        if all(r.status == "fresh" for r in self.results):
            return "served"
        return "degraded"


@dataclass
class SoakReport:
    """What a whole soak did, in one JSON-ready record.

    ``statuses`` counts what the service resolved during the soak, by
    status (its ``serve.<status>`` counter deltas): a disconnecting
    tenant abandons its pending submissions, but the windows of them
    already queued are still answered, and count.  ``outcomes`` hold
    what each tenant received.
    """

    n_tenants: int
    n_windows: int
    plan_digest: str | None
    elapsed: float
    outcomes: list[TenantOutcome] = field(default_factory=list)
    drain: dict[str, int] = field(default_factory=dict)
    statuses: dict[str, int] = field(default_factory=dict)

    @property
    def terminal_counts(self) -> dict[str, int]:
        counts = {state: 0 for state in TERMINAL_STATES}
        for outcome in self.outcomes:
            counts[outcome.terminal] += 1
        return counts

    @property
    def errors(self) -> list[str]:
        return [f"{o.tenant}: {o.error}" for o in self.outcomes
                if o.error is not None]

    @property
    def windows_resolved(self) -> int:
        return sum(self.statuses.values())

    @property
    def throughput(self) -> float:
        """Resolved windows per wall-clock second."""
        return self.windows_resolved / self.elapsed if self.elapsed else 0.0

    def to_dict(self) -> dict:
        # Exact quantiles of the latencies tenants received; the
        # registry's histogram would only give its bucket upper edges.
        latencies = [r.latency for o in self.outcomes for r in o.results]
        p50, p99 = (np.percentile(latencies, [50, 99]).tolist()
                    if latencies else (0.0, 0.0))
        return {
            "n_tenants": self.n_tenants,
            "n_windows": self.n_windows,
            "plan_digest": self.plan_digest,
            "elapsed_seconds": self.elapsed,
            "windows_resolved": self.windows_resolved,
            "windows_per_second": self.throughput,
            "latency_p50_seconds": p50,
            "latency_p99_seconds": p99,
            "terminal": self.terminal_counts,
            "statuses": self.statuses,
            "drain": self.drain,
            "errors": self.errors,
        }


async def _submit_with_retry(session, window: int, vector: np.ndarray,
                             rng) -> WindowResult:
    """One delivery, retrying through backpressure like a real client."""
    attempt = 0
    while True:
        try:
            return await session.submit(window, vector)
        except Backpressure:
            await asyncio.sleep(backoff_delay(
                _RETRY_BASE, attempt, cap=_RETRY_CAP,
                jitter=float(rng.random())))
            attempt += 1


async def _drive_tenant(service: PredictionService,
                        plan: ServiceFaultPlan | None, tenant: str,
                        windows: np.ndarray, think: float) -> TenantOutcome:
    """One tenant's whole life, chaos included.  Never raises."""
    n_windows = len(windows)
    profile = (plan.tenant_profile(tenant, n_windows) if plan is not None
               else TenantProfile(tenant=tenant))
    outcome = TenantOutcome(tenant=tenant, profile=profile, admitted=False)
    rng = derive_rng(0 if plan is None else plan.seed, "serve-client",
                     tenant)
    try:
        try:
            session = service.connect(tenant)
        except Rejected:
            return outcome
        outcome.admitted = True
        my_think = think / profile.flood_factor
        # A flooding tenant pipelines because that is what a flood is —
        # submissions outrunning responses (it is also the only way the
        # per-tenant queue bound, hence backpressure, can ever be hit).
        # Well-behaved tenants submit strictly sequentially — the regime
        # whose results a standalone scorer must match bit for bit.
        pipelined = profile.floods
        inflight: list[asyncio.Task] = []
        disconnected = False
        for window in range(n_windows):
            if profile.disconnects_at is not None \
                    and window >= profile.disconnects_at:
                disconnected = True
                outcome.completed = False
                break
            if profile.stalls_at is not None and window == profile.stalls_at:
                await asyncio.sleep(max(think, 0.001)
                                    * profile.stall_windows)
            if pipelined:
                inflight.append(asyncio.ensure_future(_submit_with_retry(
                    session, window, windows[window], rng)))
            else:
                outcome.results.append(await _submit_with_retry(
                    session, window, windows[window], rng))
            if my_think > 0:
                await asyncio.sleep(my_think)
            elif pipelined:
                # Even a full-speed pipeliner must yield so its own
                # submissions (and the batcher) get to run.
                await asyncio.sleep(0)
        if inflight:
            if disconnected:
                # A vanished client does not wait for its pipeline: keep
                # what already resolved and abandon the rest, retries
                # included.  The service still answers (or the drain
                # sheds) whatever of it was queued.
                await asyncio.sleep(0)
                for task in inflight:
                    if task.done():
                        outcome.results.append(task.result())
                    else:
                        task.cancel()
            else:
                outcome.results.extend(await asyncio.gather(*inflight))
    except Exception as exc:  # noqa: BLE001 — the soak must account, not raise
        outcome.error = f"{type(exc).__name__}: {exc}"
        logger.error("tenant %s crashed: %s", tenant, outcome.error)
    return outcome


async def _soak(scorer, n_tenants: int, n_windows: int,
                config: ServeConfig, plan: ServiceFaultPlan | None,
                seed: int, think: float) -> SoakReport:
    service = PredictionService(scorer, config, fault_plan=plan)
    resolved_before = {status: counter.value
                       for status, counter in service.metric_status.items()}
    await service.start()
    t0 = time.perf_counter()
    streams = {
        f"tenant{i:04d}": tenant_windows(seed, f"tenant{i:04d}", n_windows,
                                         scorer.n_servers,
                                         scorer.n_features)
        for i in range(n_tenants)
    }
    outcomes = await asyncio.gather(*(
        _drive_tenant(service, plan, tenant, stream, think)
        for tenant, stream in streams.items()
    ))
    drain = await service.stop()
    report = SoakReport(
        n_tenants=n_tenants,
        n_windows=n_windows,
        plan_digest=None if plan is None else plan.digest(),
        elapsed=time.perf_counter() - t0,
        outcomes=list(outcomes),
        drain=drain,
        statuses={status: int(counter.value - resolved_before[status])
                  for status, counter in service.metric_status.items()
                  if counter.value > resolved_before[status]},
    )
    counts = report.terminal_counts
    logger.info(
        "soak: %d tenants x %d windows -> served=%d degraded=%d shed=%d "
        "error=%d (%.0f windows/s)", n_tenants, n_windows,
        counts["served"], counts["degraded"], counts["shed"],
        counts["error"], report.throughput,
    )
    return report


def run_soak(scorer, *, n_tenants: int, n_windows: int = 8,
             config: ServeConfig | None = None,
             plan: ServiceFaultPlan | None = None, seed: int = 0,
             think: float = 0.0) -> SoakReport:
    """Drive ``n_tenants`` concurrent tenants through one service.

    ``scorer`` is a :class:`~repro.core.predictor.DeployedPredictor`;
    ``plan`` (optional) injects deterministic chaos; ``think`` is the
    nominal seconds between one tenant's windows (floods divide it).
    Blocking entry point — owns its own event loop.
    """
    if n_tenants < 1:
        raise ValueError(f"n_tenants must be >= 1, got {n_tenants}")
    if n_windows < 1:
        raise ValueError(f"n_windows must be >= 1, got {n_windows}")
    if not 0 <= think < math.inf:
        raise ValueError(f"think must be finite and >= 0, got {think}")
    return asyncio.run(_soak(scorer, n_tenants, n_windows,
                             config or ServeConfig(), plan, seed, think))
