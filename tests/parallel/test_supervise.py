"""Tests for the supervised worker pool (:mod:`repro.parallel.supervise`).

The worker below misbehaves on request: it kills its own process with
``os._exit(3)``, raises, sleeps past the watchdog, or returns a result
the parent cannot read or the child cannot send.  Every test also checks
that the pool leaves no child process behind.
"""

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass

import pytest

from repro.parallel.supervise import run_supervised

DIED = "worker died silently (exitcode 3)"


@dataclass(frozen=True)
class Job:
    """A payload the pool knows nothing about: only the worker reads it."""

    action: str = "ok"


def _refuse():
    raise ValueError("cannot rebuild")


class Unreadable:
    """Pickles fine in the child; unpickling it in the parent raises."""

    def __reduce__(self):
        return (_refuse, ())


def worker(item):
    key, job, attempt = item
    if job.action == "exit" or (job.action == "exit-once" and attempt == 0):
        os._exit(3)
    if job.action == "raise":
        raise RuntimeError(f"boom {key}")
    if job.action == "sleep":
        time.sleep(30)
    if job.action == "unsendable":
        return lambda: None
    if job.action == "unreadable":
        return Unreadable()
    return os.getpid()


def _expire(signum, frame):
    raise TimeoutError("supervised batch still running after 120 s")


def run(actions, workers=2, ctx=None, **kwargs):
    """Run one item per action; returns ({key: (pid, slot)}, stats).

    A SIGALRM bounds the batch, so a hang fails the test instead of
    stalling the suite.
    """
    items = [(f"k{i}", Job(action)) for i, action in enumerate(actions)]
    done = {}
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(120)
    try:
        stats = run_supervised(
            items, worker,
            ctx=ctx,
            workers=workers,
            on_success=lambda key, pid, slot: done.__setitem__(key,
                                                               (pid, slot)),
            **kwargs,
        )
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []
    return done, stats


def test_clean_batch_uses_every_slot_and_leaves_no_children():
    done, stats = run(["ok"] * 6, workers=2)
    assert sorted(done) == [f"k{i}" for i in range(6)]
    assert {slot for _, slot in done.values()} <= {0, 1}
    assert len({pid for pid, _ in done.values()}) <= 2  # children reused
    assert not stats.quarantined and stats.retries_used == 0


def test_dead_worker_is_quarantined_and_the_rest_complete():
    done, stats = run(["ok", "exit", "ok", "ok", "ok"], retries=1)
    assert sorted(done) == ["k0", "k2", "k3", "k4"]
    assert list(stats.quarantined) == ["k1"]
    assert stats.quarantined["k1"] == {"attempts": 2, "errors": [DIED, DIED]}


def test_dead_worker_is_replaced_in_its_slot():
    done, _ = run(["ok", "exit", "ok"], workers=1)
    (pid_before, slot_before), (pid_after, slot_after) = done["k0"], done["k2"]
    assert slot_before == slot_after == 0
    assert pid_before != pid_after


def test_raising_worker_keeps_its_child():
    done, stats = run(["ok", "raise", "unsendable", "ok"], workers=1)
    assert done["k0"][0] == done["k3"][0]  # one child ran all four items
    assert stats.quarantined["k1"]["errors"] == ["RuntimeError: boom k1"]
    assert stats.quarantined["k2"]["errors"][0].startswith(
        "unpicklable result:")


def test_unreadable_result_replaces_the_child():
    done, stats = run(["ok", "unreadable", "ok"], workers=1)
    assert done["k0"][0] != done["k2"][0]
    assert stats.quarantined["k1"]["errors"] == [
        "broken result: ValueError: cannot rebuild"]


def test_overdue_worker_is_terminated_and_quarantined():
    started = time.monotonic()
    done, stats = run(["sleep", "ok"], run_timeout=0.5)
    assert time.monotonic() - started < 10.0
    assert list(done) == ["k1"]
    assert stats.timeouts == 1
    assert stats.attempts["k0"][0]["outcome"] == "timeout"
    assert stats.quarantined["k0"]["errors"][0].startswith("timeout after")


def test_dead_workers_are_reported_then_retried_on_more_slots_than_cores():
    """Four slots, every fifth item's first attempt kills its child:
    each such item is reported dead, then succeeds on its retry, and
    every other item completes."""
    actions = ["exit-once" if i % 5 == 0 else "ok" for i in range(40)]
    done, stats = run(actions, workers=4, retries=1)
    assert len(done) == 40
    assert {slot for _, slot in done.values()} <= {0, 1, 2, 3}
    for i in range(0, 40, 5):
        assert [(a["attempt"], a["outcome"], a.get("error"))
                for a in stats.attempts[f"k{i}"]] == [(0, "err", DIED),
                                                      (1, "ok", None)]
    assert stats.retries_used == 8 and not stats.quarantined


def test_empty_batch_starts_nothing():
    done, stats = run([], workers=4)
    assert done == {} and stats.attempts == {}


@pytest.mark.skipif("spawn" not in multiprocessing.get_all_start_methods(),
                    reason="spawn start method unavailable")
def test_spawn_start_method_runs_a_small_batch():
    done, stats = run(["ok", "raise", "ok"], workers=2,
                      ctx=multiprocessing.get_context("spawn"))
    assert sorted(done) == ["k0", "k2"]
    assert stats.quarantined["k1"]["errors"] == ["RuntimeError: boom k1"]
