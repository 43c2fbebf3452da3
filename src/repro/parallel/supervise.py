"""The one batch runner: every batch of independent items runs here.

:class:`repro.parallel.SweepExecutor` sends every sweep here, and
:meth:`repro.core.predictor.InterferencePredictor.train` its restarts.
:func:`run_supervised` has two placements and one contract.  One
predicate picks the placement: with no ``run_timeout``, no ``retries``
and at most one slot to fill (``min(workers, len(items)) <= 1``) the
items run one after another in the calling process; otherwise they run
on a supervised pool — a fixed set of worker *slots*, one long-lived
child process each, a wall-clock watchdog, bounded retry with
exponential backoff, and quarantine of items that keep failing.  Where
an item ran changes nothing the caller sees: the same attempt records,
the same ``"Type: message"`` error strings, the same ``on_success``
calls (slot 0 in-process) and the same metrics.

:func:`usable_cores` sizes both callers' batches: how many CPUs the
process may run on (its affinity mask, so ``taskset -c 0`` counts one),
or 1 in a daemonic process, which may not start children.  A sweep
takes that many slots unless the caller names a count
(``n_jobs``/``--jobs``), and a training takes one slot per restart when
it reads 2 or more, else one.

The contract: the caller supplies keyed payloads and a picklable
``worker(item)`` callable; each item runs as ``worker((key, payload,
attempt))`` and every success is reported through ``on_success``.  A
worker that raises is recorded as a failed attempt.  On the pool the
child keeps its slot; a child that dies, sends a result the parent
cannot read, or overruns ``run_timeout`` is terminated, and a fresh
child takes over the slot for its next item.  An item that still fails
after every retry is quarantined — recorded in the returned
:class:`SupervisionStats` and *not* reported as a result, so a batch
with poisoned items completes instead of crashing; the caller decides
what a quarantined item means (a sweep without resilience options and a
training both raise).  :func:`backoff_delay` is the retry policy, shared
with the prediction service's tenants.

Metrics land in the parent's :data:`~repro.obs.metrics.REGISTRY` either
way.  An in-process item records straight into it.  A child resets its
registry before each item and ships the delta with its reply, and the
parent merges the deltas without labels, in submission order, once the
batch is done, so counters, histograms and gauges end as the in-process
loop leaves them.

The pool's parent never polls: it blocks in
:func:`multiprocessing.connection.wait` on the busy slots' result pipes
and every child's sentinel until the next watchdog deadline or retry
backoff falls due.  It hands a freed slot its next item before it
handles the finished one, so the child computes while the parent merges
and stores.  The next item is the first ready one in submission order
(a retry queues behind, once its backoff has passed), unless the caller
groups items: then a slot takes the first ready item of a group its
current child has already run, and only failing that the first ready
item.  A sweep groups runs by the noise warm-up they share
(:mod:`repro.parallel.warmstart`), so the child that holds a scenario's
warm state runs the rest of the scenario's runs, and each warm state is
built about once per sweep rather than once per slot.  A replaced child
holds nothing, so it starts with no groups; in-process the items always
run in submission order.  DESIGN.md §7 has the measurements that made
this pool the only multi-process path and the sweeps' default, and §10
those that put the training restarts on it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.log import get_logger
from repro.obs.metrics import REGISTRY

__all__ = ["RETRY_BACKOFF", "SupervisionStats", "backoff_delay",
           "run_supervised", "usable_cores"]

logger = get_logger("parallel.supervise")

#: Base of the sweep's exponential retry backoff in seconds (attempt
#: ``k`` waits ``RETRY_BACKOFF * 2**k``).
RETRY_BACKOFF = 0.05


def usable_cores() -> int:
    """How many slots independent work takes: the placement rule.

    The CPUs in this process's affinity mask (``os.sched_getaffinity``,
    so ``taskset -c 0`` counts one; ``os.cpu_count()`` where the
    platform has no mask), or 1 in a daemonic process — a pool child,
    say — which may not start children of its own.  A sweep at the
    default ``n_jobs`` takes this many slots, and a training's restarts
    go side by side only when it is 2 or more.
    """
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    if cores < 2:
        return 1
    # Imported here, so a one-core process never loads it.
    import multiprocessing

    return 1 if multiprocessing.current_process().daemon else cores


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


def _start_context():
    """The ``multiprocessing`` context every slot's child starts from:
    ``fork`` where available (cheap on Linux, and the child inherits the
    parent's imports and state), else ``spawn``.  Imported here, so a
    process that never starts a pool never loads ``multiprocessing``."""
    import multiprocessing

    method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
              else "spawn")
    return multiprocessing.get_context(method)


def _describe(exc: Exception) -> str:
    """How a failed attempt's exception reads in the attempt records."""
    return f"{type(exc).__name__}: {exc}"


def _slot_main(conn, worker) -> None:
    """Child body: run items from ``conn`` until ``None`` (or EOF) arrives.

    Every item's outcome goes back over the same pipe — ``("ok",
    result, delta)`` or ``("err", message, delta)``, ``delta`` being the
    registry snapshot of that item alone (the registry is reset first:
    a fork-started child inherits the parent's) — so a raising worker
    keeps the child alive for the slot's next item.  ``SystemExit`` and
    ``KeyboardInterrupt`` end the child, which the parent sees as a death.
    """
    while True:
        try:
            item = conn.recv()
        except EOFError:
            return
        if item is None:
            return
        REGISTRY.reset()
        try:
            kind, payload = "ok", worker(item)
        except Exception as exc:  # noqa: BLE001 — reported; the child lives on
            kind, payload = "err", _describe(exc)
        delta = REGISTRY.snapshot()
        try:
            conn.send((kind, payload, delta))
        except Exception as exc:  # an unpicklable result fails before writing
            conn.send(("err", f"unpicklable result: {_describe(exc)}", delta))


@dataclass
class SupervisionStats:
    """What one supervised batch saw: retries, timeouts, quarantine."""

    retries_used: int = 0
    timeouts: int = 0
    #: key -> {"attempts", "errors"}.
    quarantined: dict[str, dict] = field(default_factory=dict)
    #: key -> per-attempt records, in attempt order: {"attempt",
    #: "started", "ended" (``time.monotonic()`` stamps), "outcome"
    #: ("ok" | "err" | "timeout"), "error" (failed attempts only)}.
    #: Callers render these as retry/execute spans on a trace timeline.
    attempts: dict[str, list[dict]] = field(default_factory=dict)

    def record_attempt(self, key: str, attempt: int, started: float,
                       ended: float, outcome: str,
                       error: str | None = None) -> None:
        record: dict = {"attempt": attempt, "started": started,
                        "ended": ended, "outcome": outcome}
        if error is not None:
            record["error"] = error
        self.attempts.setdefault(key, []).append(record)


class _Slot:
    """One worker slot: its current child, pipe and in-flight attempt."""

    __slots__ = ("index", "proc", "conn", "key", "attempt", "started",
                 "deadline", "groups")

    def __init__(self, index: int) -> None:
        self.index = index
        self.proc = None
        self.conn = None
        #: Key of the in-flight item; ``None`` while the slot is idle.
        self.key: str | None = None
        self.attempt = 0
        self.started = 0.0
        self.deadline: float | None = None
        #: Groups of the items handed to the current child.
        self.groups: set[str] = set()

    def spawn(self, ctx, worker) -> None:
        parent_conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(target=_slot_main, args=(child_conn, worker),
                                daemon=True)
        self.proc.start()
        child_conn.close()
        self.conn = parent_conn

    def reap(self) -> int:
        """Wait for the child to exit, close its pipe; returns the exit code."""
        proc = self.proc
        proc.join()
        self.conn.close()
        self.proc = self.conn = None
        self.groups = set()  # whatever the child held went with it
        return proc.exitcode

    def kill(self) -> int:
        """Terminate the child (harmless if it already exited) and reap it."""
        self.proc.terminate()
        return self.reap()


def run_supervised(
    items: list[tuple[str, Any]],
    worker: Callable[[tuple[str, Any, int]], Any],
    *,
    workers: int,
    on_success: Callable[[str, Any, int], None],
    run_timeout: float | None = None,
    retries: int = 0,
    ctx=None,
    groups: dict[str, str] | None = None,
) -> SupervisionStats:
    """Run keyed items: in-process, or on a supervised pool.

    Each item runs as ``worker((key, payload, attempt))``.  With no
    ``run_timeout``, no ``retries`` and at most one slot to fill
    (``min(workers, len(items)) <= 1``) the items run one after another
    in this process.  Otherwise ``min(workers, len(items))`` slots each
    keep one child running one item at a time, so a crash or a wedge
    never takes the batch down: exceptions come back over the slot's
    pipe (the child keeps its slot), silent deaths are detected by exit
    code, unreadable results are rejected, and children exceeding
    ``run_timeout`` are terminated; a dead or terminated child is
    replaced when its slot gets its next item.  Failed attempts are
    retried after :func:`backoff_delay` (base :data:`RETRY_BACKOFF`) up
    to ``retries`` times, then the item is quarantined and the batch
    moves on.  An in-process item that raises is recorded and
    quarantined the same way; it does not propagate.

    ``groups`` maps item keys to a group (an item it does not name is in
    none).  In-process the items run in submission order.  On the pool
    a free slot takes the first ready item (submission order, retries
    behind) of a group its current child has already run, else the
    first ready item; a replaced child starts with no groups.

    ``on_success(key, result, slot)`` fires in this process, in
    completion order, with the index of the slot that ran the item (0
    in-process).  ``ctx`` is the ``multiprocessing`` context children
    start from (default: ``fork`` where available, else ``spawn``);
    ``worker`` must be picklable under ``spawn``.  On the pool items and
    results cross a pipe, so a payload the children need in bulk is
    better bound into ``worker``, which a ``fork`` child inherits
    without pickling.  Every child has exited when this returns (or
    raises).  The children's metric deltas are merged into
    :data:`~repro.obs.metrics.REGISTRY` before this returns, in
    submission order; the returned :class:`SupervisionStats` is the rest
    of the report.
    """
    stats = SupervisionStats()
    groups = groups or {}
    #: (key, attempt, ready_at) — ready_at implements retry backoff.
    queue: list[tuple[str, int, float]] = [(key, 0, 0.0) for key, _ in items]
    errors: dict[str, list[str]] = {}
    #: key -> the registry deltas its children shipped, in attempt order.
    deltas: dict[str, list[dict]] = {}

    def fail(key: str, attempt: int, message: str) -> None:
        errors.setdefault(key, []).append(message)
        if attempt < retries:
            stats.retries_used += 1
            backoff = backoff_delay(RETRY_BACKOFF, attempt)
            logger.warning(
                "%s attempt %d failed (%s); retrying in %.2fs",
                key[:12], attempt, message, backoff,
            )
            queue.append((key, attempt + 1, time.monotonic() + backoff))
        else:
            stats.quarantined[key] = {
                "attempts": attempt + 1,
                "errors": list(errors[key]),
            }
            # The caller decides what giving up means: a resilient sweep
            # quarantines the item, any other caller raises.
            logger.error(
                "%s gave up after %d attempt(s): %s",
                key[:12], attempt + 1, message,
            )

    def handle(index: int, key: str, attempt: int, started: float,
               ended: float, outcome: str, payload: Any,
               delta: dict | None = None) -> None:
        if delta is not None:
            deltas.setdefault(key, []).append(delta)
        stats.record_attempt(key, attempt, started, ended, outcome,
                             error=None if outcome == "ok" else payload)
        if outcome == "ok":
            on_success(key, payload, index)
        else:
            fail(key, attempt, payload)

    if run_timeout is None and retries == 0 and min(workers, len(items)) <= 1:
        for key, payload in items:
            started = time.monotonic()
            try:
                outcome, result = "ok", worker((key, payload, 0))
            except Exception as exc:  # noqa: BLE001 — recorded as a child's
                outcome, result = "err", _describe(exc)
            handle(0, key, 0, started, time.monotonic(), outcome, result)
        return stats

    # Imported here: in-process batches never load it (~0.6 MB of RSS).
    from multiprocessing.connection import wait

    ctx = ctx if ctx is not None else _start_context()
    payloads = dict(items)
    slots = [_Slot(i) for i in range(min(max(1, workers), len(items)))]

    #: (slot index, key, attempt, started, ended, outcome, payload, delta)
    #: of attempts whose slot is free again but which are not handled
    #: yet; ``payload`` is the result if ``outcome`` is "ok", else the
    #: error, and ``delta`` the child's registry delta, if it sent one.
    finished: list[tuple[int, str, int, float, float, str, Any,
                         dict | None]] = []

    def pick(slot: _Slot, now: float) -> int | None:
        """Index in ``queue`` of the item ``slot`` takes next: the first
        ready one of a group its child has run, else the first ready
        one; ``None`` while nothing is ready."""
        first = None
        for i, (key, _, ready_at) in enumerate(queue):
            if ready_at > now:
                continue
            if groups.get(key) in slot.groups:
                return i
            if first is None:
                first = i
        return first

    def release(slot: _Slot, outcome: str, payload: Any,
                delta: dict | None = None) -> None:
        finished.append((slot.index, slot.key, slot.attempt, slot.started,
                         time.monotonic(), outcome, payload, delta))
        slot.key = None

    def collect(slot: _Slot) -> None:
        """Take a busy slot's reply, or account for its dead child."""
        try:
            if not slot.conn.poll():  # only the sentinel fired
                raise EOFError
            kind, payload, delta = slot.conn.recv()
            if kind not in ("ok", "err"):
                raise ValueError(f"unknown reply kind {kind!r}")
        except EOFError:
            release(slot, "err",
                    f"worker died silently (exitcode {slot.kill()})")
        except Exception as exc:  # noqa: BLE001 — a reply we cannot read
            slot.kill()
            release(slot, "err", f"broken result: {_describe(exc)}")
        else:
            release(slot, kind, payload, delta)

    try:
        while True:
            now = time.monotonic()
            # Hand ready items to idle slots, respawning retired children.
            for slot in slots:
                if slot.key is not None:
                    continue
                ready = pick(slot, now)
                if ready is None:
                    break
                key, attempt, _ = queue.pop(ready)
                if slot.proc is None:
                    slot.spawn(ctx, worker)
                if key in groups:
                    slot.groups.add(groups[key])
                slot.key, slot.attempt, slot.started = key, attempt, now
                slot.deadline = (now + run_timeout
                                 if run_timeout is not None else None)
                try:
                    slot.conn.send((key, payloads[key], attempt))
                except OSError as exc:  # the idle child died under us
                    slot.kill()
                    release(slot, "err", f"worker unreachable: {exc}")
            # Finished attempts are handled once their slots have new
            # work, so children compute while the parent merges and
            # stores results.
            for record in finished:
                handle(*record)
            finished.clear()
            busy = [s for s in slots if s.key is not None]
            if not queue and not busy:
                break
            # Block until a reply, a death, a deadline or a backoff expiry.
            due = [s.deadline for s in busy if s.deadline is not None]
            if queue and len(busy) < len(slots):
                due.append(min(ready_at for _, _, ready_at in queue))
            fired = set(wait(
                [s.conn for s in busy]
                + [s.proc.sentinel for s in slots if s.proc is not None],
                max(0.0, min(due) - now) if due else None,
            ))
            now = time.monotonic()
            for slot in slots:
                if slot.proc is None:
                    continue
                if slot.key is None:
                    if slot.proc.sentinel in fired:  # died while idle
                        slot.reap()
                elif slot.conn in fired or slot.proc.sentinel in fired:
                    collect(slot)
                elif slot.deadline is not None and now >= slot.deadline:
                    slot.kill()
                    stats.timeouts += 1
                    release(slot, "timeout",
                            f"timeout after {now - slot.started:.2f}s "
                            f"(limit {run_timeout}s)")
    finally:
        # Ask idle children to exit and terminate busy ones (only left
        # when the loop raised), then reap them all.
        live = [s for s in slots if s.proc is not None]
        for slot in live:
            if slot.key is None:
                try:
                    slot.conn.send(None)
                except OSError:
                    pass
            else:
                slot.proc.terminate()
        for slot in live:
            slot.reap()

    for key, _ in items:
        for delta in deltas.get(key, ()):
            REGISTRY.merge_snapshot(delta)
    return stats
