"""Open-loop load for the prediction service.

Requests are due on a fixed schedule whatever the service does: request
``j`` of a phase is due ``j / rate`` seconds after the phase starts and
belongs to tenant ``j % n_tenants``, so every tenant sends one window per
``n_tenants / rate`` seconds.  Each request is timed from its *due* time,
not from when the generator got round to sending it, so a stall in the
shared event loop is charged to every request it delayed.  How late the
generator ran is recorded separately.

Quantiles are exact: :func:`numpy.percentile` over the raw per-request
samples, never histogram bucket edges.  Timings live in numpy arrays and
finished tasks are dropped at once, so the harness adds no garbage-
collector work that grows with the length of a phase.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable

import numpy as np

from repro.serve.service import Backpressure

#: Submit window ``window`` of tenant ``tenant``; resolves to a result
#: with a ``status`` attribute (``"fresh"`` means scored).
Submit = Callable[[int, int], Awaitable]


@dataclass
class PhaseResult:
    """One open-loop phase: every request's timings and outcome."""

    rate: float
    due: np.ndarray  #: loop time each request was due
    sent: np.ndarray  #: loop time the generator submitted it
    done: np.ndarray  #: loop time its answer reached the tenant
    fresh: np.ndarray  #: True when the answer was a scored window
    #: Requests sent but unanswered when the schedule ended.
    backlog: int
    #: Process CPU seconds over the phase (service + generator).
    cpu_s: float
    #: ``(tenant, window, result)`` of every ``sample_every``-th request;
    #: ``result`` is None when the request was refused.
    samples: list = field(default_factory=list, repr=False)

    @property
    def attempted(self) -> int:
        return len(self.due)

    @property
    def failed(self) -> int:
        """Requests refused (backpressure) or answered with anything but
        a freshly scored window."""
        return int(np.count_nonzero(~self.fresh))

    @property
    def latency_ms(self) -> np.ndarray:
        return (self.done - self.due) * 1e3

    @property
    def lateness_ms(self) -> np.ndarray:
        return (self.sent - self.due) * 1e3

    def latency_quantile(self, q: float) -> float:
        return float(np.percentile(self.latency_ms, q))

    def lateness_quantile(self, q: float) -> float:
        return float(np.percentile(self.lateness_ms, q))


async def run_phase(submit: Submit, n_tenants: int, rate: float,
                    seconds: float, cursor: list[int],
                    sample_every: int = 0) -> PhaseResult:
    """Offer ``rate`` windows/s for ``seconds`` and wait for every answer.

    ``cursor[i]`` is tenant ``i``'s next window number; it advances so
    consecutive phases continue each tenant's stream in order.  With
    ``sample_every`` > 0 every such request's result is kept.
    """
    loop = asyncio.get_running_loop()
    n = max(1, int(round(rate * seconds)))
    due = np.empty(n)
    sent = np.empty(n)
    done = np.full(n, np.nan)
    fresh = np.zeros(n, dtype=bool)
    samples: list = []
    pending: set[asyncio.Task] = set()
    errors: list[BaseException] = []

    async def one(j: int, tenant: int, window: int) -> None:
        try:
            result = await submit(tenant, window)
        except Backpressure:
            result = None
        done[j] = loop.time()
        fresh[j] = result is not None and result.status == "fresh"
        if sample_every and j % sample_every == 0:
            samples.append((tenant, window, result))

    def finished(task: asyncio.Task) -> None:
        pending.discard(task)
        if not task.cancelled() and task.exception() is not None:
            errors.append(task.exception())

    cpu0 = time.process_time()
    start = loop.time()
    j = 0
    while j < n:
        now = loop.time()
        while j < n and start + j / rate <= now:
            tenant = j % n_tenants
            window = cursor[tenant]
            cursor[tenant] += 1
            due[j] = start + j / rate
            sent[j] = now
            task = loop.create_task(one(j, tenant, window))
            pending.add(task)
            task.add_done_callback(finished)
            j += 1
        if j < n:
            await asyncio.sleep(start + j / rate - loop.time())
    backlog = len(pending)
    while pending:
        await asyncio.wait(set(pending))
    if errors:
        raise errors[0]
    return PhaseResult(rate=rate, due=due, sent=sent, done=done,
                       fresh=fresh, backlog=backlog,
                       cpu_s=time.process_time() - cpu0, samples=samples)


#: A ladder step passes when its p99 stays within one tenth of a 0.25 s
#: monitoring window, nothing fails, and the service keeps up.
LADDER_P99_MS = 25.0
LADDER_BACKLOG_FRACTION = 0.01
#: 2 s steps, x1.08 each, at most 24 of them (4 000 -> 23 300 windows/s
#: from the 4 000 windows/s hold), which bounds the run's length.
LADDER_STEP_S = 2.0
LADDER_FACTOR = 1.08
LADDER_MAX_STEPS = 24


def step_passes(phase: PhaseResult) -> bool:
    return (phase.latency_quantile(99) <= LADDER_P99_MS
            and phase.failed == 0
            and phase.backlog <= LADDER_BACKLOG_FRACTION * phase.attempted)


async def run_ladder(submit: Submit, n_tenants: int, start_rate: float,
                     cursor: list[int]) -> tuple[float, list[PhaseResult]]:
    """Raise the offered rate step by step until two steps in a row miss;
    returns the highest passing rate (0 if none passed) and the steps."""
    best = 0.0
    misses = 0
    steps: list[PhaseResult] = []
    rate = start_rate
    while misses < 2 and len(steps) < LADDER_MAX_STEPS:
        phase = await run_phase(submit, n_tenants, rate, LADDER_STEP_S,
                                cursor)
        steps.append(phase)
        if step_passes(phase):
            best = rate
            misses = 0
        else:
            misses += 1
        rate *= LADDER_FACTOR
    return best, steps
