"""Supervised child-process execution for simulation sweeps.

The resilience layer of :class:`repro.parallel.SweepExecutor`: one
watched child process per run, a wall-clock watchdog, bounded retry
with exponential backoff, and quarantine of runs that keep failing.

The contract: the caller supplies keyed :class:`~repro.parallel.RunJob`
payloads and a picklable ``worker(item)`` callable; :func:`run_supervised`
runs each payload in its own child process and reports every success
through ``on_success``.  A run that still fails after every retry is
quarantined — recorded in the returned :class:`SupervisionStats` and
*not* reported as a result, so a sweep with poisoned runs completes
instead of crashing.  :func:`backoff_delay` is the retry policy, shared
with the prediction service's tenants.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.log import get_logger
from repro.obs.metrics import REGISTRY

__all__ = ["SupervisionStats", "backoff_delay", "run_supervised",
           "supervised_entry"]

logger = get_logger("parallel.supervise")

#: Seconds between supervision polls (watchdog granularity).
POLL_INTERVAL = 0.005


def backoff_delay(base: float, attempt: int, *, cap: float = 30.0,
                  jitter: float = 0.0) -> float:
    """The retry-backoff policy shared by every supervised retry loop.

    Exponential in the (0-based) attempt number, capped so a deep retry
    chain never sleeps unboundedly.  ``jitter`` in ``[0, 1)`` spreads a
    retrying herd: the delay is stretched by up to that fraction — pass
    a deterministic draw (e.g. ``rng.random()``) so replays stay
    reproducible.  The sweep executor retries with ``jitter=0``; the
    prediction service's tenants retry with a ``derive_rng`` draw.
    """
    if base < 0:
        raise ValueError(f"backoff base must be >= 0, got {base}")
    if attempt < 0:
        raise ValueError(f"attempt must be >= 0, got {attempt}")
    if not 0.0 <= jitter < 1.0:
        raise ValueError(f"jitter must be in [0, 1), got {jitter}")
    return min(cap, base * (2 ** attempt)) * (1.0 + jitter)


def supervised_entry(conn, worker, item) -> None:
    """Child-process wrapper: ship the result or the failure over a pipe."""
    try:
        result = worker(item)
    except BaseException as exc:  # noqa: BLE001 — everything must be reported
        try:
            conn.send(("err", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    else:
        conn.send(("ok", result))
    finally:
        conn.close()


@dataclass
class SupervisionStats:
    """What one supervised batch saw: retries, timeouts, quarantine."""

    retries_used: int = 0
    timeouts: int = 0
    #: key -> {"target", "seed_salt", "attempts", "errors"}.
    quarantined: dict[str, dict] = field(default_factory=dict)
    #: key -> per-attempt records, in attempt order: {"attempt",
    #: "started", "ended" (``time.monotonic()`` stamps), "outcome"
    #: ("ok" | "err" | "timeout"), "error" (failed attempts only)}.
    #: Callers render these as retry/execute spans on a trace timeline.
    attempts: dict[str, list[dict]] = field(default_factory=dict)

    def record_attempt(self, key: str, attempt: int, started: float,
                       outcome: str, error: str | None = None) -> None:
        record: dict = {"attempt": attempt, "started": started,
                        "ended": time.monotonic(), "outcome": outcome}
        if error is not None:
            record["error"] = error
        self.attempts.setdefault(key, []).append(record)


def run_supervised(
    items: list[tuple[str, Any]],
    worker: Callable[[tuple[str, Any, int]], Any],
    *,
    ctx,
    workers: int,
    on_success: Callable[[str, Any], None],
    run_timeout: float | None = None,
    retries: int = 0,
    retry_backoff: float = 0.05,
) -> SupervisionStats:
    """Watchdogged execution: child process per item, retry, quarantine.

    Every item ``(key, job)`` gets its own supervised child running
    ``worker((key, job, attempt))`` so a crash or a wedge never takes
    the sweep down: exceptions are reported over the result pipe, silent
    deaths are detected by exit code, and children exceeding
    ``run_timeout`` are terminated.  Failed attempts are retried with
    exponential backoff up to ``retries`` times, then the run is
    quarantined (its record names the job's target and seed salt) and
    the sweep moves on.

    ``on_success(key, result)`` fires in the parent, in completion
    order.  ``worker`` must be picklable when ``ctx`` uses the spawn
    start method.  Retry/timeout/quarantine counters are published as
    ``parallel.retries``, ``parallel.timeouts`` and
    ``parallel.quarantined``.
    """
    retry_counter = REGISTRY.counter("parallel.retries")
    timeout_counter = REGISTRY.counter("parallel.timeouts")
    quarantine_counter = REGISTRY.counter("parallel.quarantined")
    stats = SupervisionStats()
    payloads = dict(items)
    workers = max(1, min(workers, len(items))) if items else 0
    #: (key, attempt, ready_at) — ready_at implements retry backoff.
    queue: list[tuple[str, int, float]] = [(key, 0, 0.0) for key, _ in items]
    #: key -> (proc, conn, deadline, attempt, started_at)
    active: dict[str, tuple] = {}
    errors: dict[str, list[str]] = {}

    def fail(key: str, attempt: int, message: str) -> None:
        errors.setdefault(key, []).append(message)
        if attempt < retries:
            stats.retries_used += 1
            retry_counter.inc()
            backoff = backoff_delay(retry_backoff, attempt)
            logger.warning(
                "%s attempt %d failed (%s); retrying in %.2fs",
                key[:12], attempt, message, backoff,
            )
            queue.append((key, attempt + 1, time.monotonic() + backoff))
        else:
            quarantine_counter.inc()
            job = payloads[key]
            stats.quarantined[key] = {
                "target": job.target.name,
                "seed_salt": job.seed_salt,
                "attempts": attempt + 1,
                "errors": list(errors[key]),
            }
            logger.error(
                "%s quarantined after %d attempt(s): %s",
                key[:12], attempt + 1, message,
            )

    while queue or active:
        now = time.monotonic()
        progressed = False
        # Launch any ready item into a free slot.
        while len(active) < workers:
            ready_idx = next(
                (i for i, (_, _, ready_at) in enumerate(queue)
                 if ready_at <= now), None,
            )
            if ready_idx is None:
                break
            key, attempt, _ = queue.pop(ready_idx)
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=supervised_entry,
                args=(child_conn, worker, (key, payloads[key], attempt)),
            )
            proc.start()
            child_conn.close()
            deadline = now + run_timeout if run_timeout is not None else None
            active[key] = (proc, parent_conn, deadline, attempt, now)
            progressed = True
        # Harvest finished / dead / overdue children.
        for key in list(active):
            proc, conn, deadline, attempt, started = active[key]
            if conn.poll():
                try:
                    kind, payload = conn.recv()
                except EOFError:
                    kind, payload = "err", "worker died (pipe closed)"
                proc.join()
                conn.close()
                del active[key]
                progressed = True
                if kind == "ok":
                    stats.record_attempt(key, attempt, started, "ok")
                    on_success(key, payload)
                else:
                    stats.record_attempt(key, attempt, started, "err",
                                         error=str(payload))
                    fail(key, attempt, str(payload))
            elif not proc.is_alive():
                proc.join()
                conn.close()
                del active[key]
                progressed = True
                message = f"worker died silently (exitcode {proc.exitcode})"
                stats.record_attempt(key, attempt, started, "err",
                                     error=message)
                fail(key, attempt, message)
            elif deadline is not None and now > deadline:
                proc.terminate()
                proc.join()
                conn.close()
                del active[key]
                progressed = True
                stats.timeouts += 1
                timeout_counter.inc()
                message = (f"timeout after {now - started:.2f}s "
                           f"(limit {run_timeout}s)")
                stats.record_attempt(key, attempt, started, "timeout",
                                     error=message)
                fail(key, attempt, message)
        if not progressed:
            time.sleep(POLL_INTERVAL)

    return stats
