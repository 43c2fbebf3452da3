"""Server-side QoS: token-bucket rate limiting per job (Lustre TBF).

Qian et al.'s classful token bucket filter (SC'17, cited by the paper as
an existing mitigation interface) throttles I/O per class at the server's
request scheduler. This module implements the primitive: a
:class:`TokenBucket` accumulates ``rate`` bytes/s of credit up to
``burst`` and RPC handlers ``consume`` their payload before service.
:class:`QoSPolicy` maps job names to buckets, supports runtime
installation/removal, and is what the prediction-driven mitigation
experiment (:mod:`repro.experiments.mitigation`) manipulates when the
streaming predictor raises an interference alarm.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.sim.engine import Environment, Event

__all__ = ["TokenBucket", "QoSPolicy"]


class TokenBucket:
    """Byte-credit bucket: ``rate`` bytes/s refill, ``burst`` capacity.

    ``consume`` is FIFO: requests wait in arrival order, each until the
    bucket holds its full size, so a large request cannot be starved by a
    stream of small ones.
    """

    def __init__(self, env: Environment, rate: float, burst: float) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.env = env
        self.rate = rate
        self.burst = float(burst)
        self._level = float(burst)
        self._last_refill = env.now
        self._waiters: deque[tuple[Event, float]] = deque()
        self._draining = False

    def _refill(self) -> None:
        now = self.env.now
        self._level = min(self.burst, self._level + (now - self._last_refill) * self.rate)
        self._last_refill = now

    def consume(self, nbytes: float) -> Event:
        """Returns an event firing once ``nbytes`` of credit is granted."""
        if nbytes < 0:
            raise ValueError(f"negative consume: {nbytes}")
        gate = Event(self.env)
        if nbytes == 0:
            return gate.succeed()
        if nbytes > self.burst:
            raise ValueError(
                f"request of {nbytes} B exceeds bucket burst {self.burst} B"
            )
        self._waiters.append((gate, float(nbytes)))
        if not self._draining:
            self._draining = True
            self.env.process(self._drain())
        return gate

    def _drain(self):
        while self._waiters:
            gate, need = self._waiters[0]
            self._refill()
            if self._level < need:
                yield self.env.timeout((need - self._level) / self.rate)
                self._refill()
            self._level -= need
            self._waiters.popleft()
            gate.succeed()
        self._draining = False

    def consume_batch(self, sizes) -> np.ndarray:
        """Closed-form FIFO grant times for a whole burst of requests.

        While the queue is busy the bucket level never touches the burst
        cap (the drain grants the head the instant its credit lands), so
        grant times follow directly from the cumulative sum of needs:
        ``grant_i = now + max(0, cum_i - level) / rate``. The total need
        is deducted up front — the level may go negative, representing
        pre-sold credit — which keeps later ``consume()`` arrivals behind
        the batch exactly as FIFO queueing would.

        Only valid when no waiters are queued (callers fall back to
        per-request :meth:`consume` otherwise). Returns absolute grant
        times, one per request, in arrival order.
        """
        if self._waiters or self._draining:
            raise RuntimeError("consume_batch requires an idle bucket queue")
        arr = np.asarray(sizes, dtype=float)
        if arr.size == 0:
            return arr
        if (arr < 0).any():
            raise ValueError("negative consume in batch")
        if (arr > self.burst).any():
            raise ValueError(f"batch request exceeds bucket burst {self.burst} B")
        self._refill()
        cum = np.cumsum(arr)
        waits = np.maximum(0.0, cum - self._level) / self.rate
        self._level -= float(cum[-1])
        return self.env.now + waits


@dataclass
class QoSPolicy:
    """Per-job token buckets installed on one server."""

    env: Environment

    def __post_init__(self) -> None:
        self._buckets: dict[str, TokenBucket] = {}

    def limit(self, job: str, rate: float, burst: float | None = None) -> None:
        """Install (or replace) a rate limit for ``job``."""
        self._buckets[job] = TokenBucket(self.env, rate,
                                         burst if burst is not None else rate)

    def clear(self, job: str) -> None:
        """Remove ``job``'s limit; queued waiters still drain first."""
        self._buckets.pop(job, None)

    def is_limited(self, job: str) -> bool:
        return job in self._buckets

    def admit_one(self, job: str | None, nbytes: int, proceed) -> None:
        """Admission gate for one RPC: ``proceed()`` runs inline now when
        ``job`` is unlimited, or at the bucket grant otherwise."""
        bucket = self._buckets.get(job) if job is not None else None
        if bucket is None:
            proceed()
        else:
            bucket.consume(nbytes).callbacks.append(lambda _ev: proceed())

    def admit_batch(self, job: str | None, sizes, on_admit) -> None:
        """Batched admission: ``on_admit(i)`` runs at request *i*'s grant.

        Unlimited jobs are admitted inline at the current instant. Limited
        jobs get closed-form cumulative-sum grant times when the bucket
        queue is idle, or fall back to FIFO ``consume`` events otherwise.
        """
        bucket = self._buckets.get(job) if job is not None else None
        if bucket is None:
            for i in range(len(sizes)):
                on_admit(i)
            return
        if bucket._waiters or bucket._draining:
            for i, nbytes in enumerate(sizes):
                bucket.consume(nbytes).callbacks.append(
                    lambda _ev, i=i: on_admit(i)
                )
            return
        now = self.env.now
        for i, when in enumerate(bucket.consume_batch(sizes)):
            self.env.after(when - now, lambda _ev, i=i: on_admit(i))
