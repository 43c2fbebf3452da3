"""Tests for the batch runner (:mod:`repro.parallel.supervise`).

The worker below misbehaves on request: it kills its own process with
``os._exit(3)``, raises, sleeps past the watchdog, or returns a result
the parent cannot read or the child cannot send.  Every test also checks
that the runner leaves no child process behind.  A batch with one slot
to fill and no ``run_timeout`` or ``retries`` runs in the calling
process, so the tests of a one-slot *pool* pass a generous
``run_timeout`` to keep it on a child.
"""

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass

import pytest

from repro.obs.metrics import REGISTRY
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
    if job.action == "record":
        # The first item finishes last on a pool of two.
        time.sleep(0.5 if key == "k0" else 0.0)
        REGISTRY.counter("test.items").inc()
        REGISTRY.gauge("test.last_item").set(int(key[1:]))
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


#: A watchdog no test item gets near: it keeps a one-slot batch on a child.
CHILD = {"run_timeout": 60.0}


def test_dead_worker_is_replaced_in_its_slot():
    done, _ = run(["ok", "exit", "ok"], workers=1, **CHILD)
    (pid_before, slot_before), (pid_after, slot_after) = done["k0"], done["k2"]
    assert slot_before == slot_after == 0
    assert pid_before != pid_after


def test_raising_worker_keeps_its_child():
    done, stats = run(["ok", "raise", "unsendable", "ok"], workers=1,
                      **CHILD)
    assert done["k0"][0] == done["k3"][0]  # one child ran all four items
    assert stats.quarantined["k1"]["errors"] == ["RuntimeError: boom k1"]
    assert stats.quarantined["k2"]["errors"][0].startswith(
        "unpicklable result:")


def test_unreadable_result_replaces_the_child():
    done, stats = run(["ok", "unreadable", "ok"], workers=1, **CHILD)
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


#: k0, k2 and k4 share group "a", k1 is alone in "b", k3 is in none.
GROUPS = {"k0": "a", "k1": "b", "k2": "a", "k4": "a"}


def test_a_free_slot_takes_its_own_groups_items_first():
    """Having run k0, the child takes the later items of k0's group
    before the earlier k1 of another; an item in no group waits for the
    first pick that finds none of the child's groups ready."""
    done, _ = run(["ok"] * 5, workers=1, groups=GROUPS, **CHILD)
    assert list(done) == ["k0", "k2", "k4", "k1", "k3"]
    assert len({pid for pid, _ in done.values()}) == 1


@pytest.mark.parametrize("action,options", [
    ("exit", CHILD), ("unreadable", CHILD), ("sleep", {"run_timeout": 1.0}),
], ids=["death", "unreadable-reply", "timeout"])
def test_a_replaced_child_starts_with_no_groups(action, options):
    """k2 (group "a") loses its child; the replacement has run nothing,
    so it takes the first ready item, k1, not k4 of group "a"."""
    done, stats = run(["ok", "ok", action, "ok", "ok"], workers=1,
                      groups=GROUPS, **options)
    assert list(stats.quarantined) == ["k2"]
    assert list(done) == ["k0", "k1", "k3", "k4"]
    assert done["k0"][0] != done["k1"][0] == done["k4"][0]


def test_in_process_items_keep_submission_order_whatever_their_groups():
    done, _ = run(["ok"] * 5, workers=1, groups=GROUPS)
    assert list(done) == [f"k{i}" for i in range(5)]


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


# -- the one-slot mode --------------------------------------------------------


@pytest.mark.parametrize("workers,actions", [(1, ["ok"] * 3), (4, ["ok"])],
                         ids=["one-slot", "one-item"])
def test_one_slot_runs_in_the_calling_process(workers, actions):
    done, stats = run(actions, workers=workers)
    assert done == {f"k{i}": (os.getpid(), 0) for i in range(len(actions))}
    assert [a["outcome"] for a in stats.attempts["k0"]] == ["ok"]


def test_a_raising_item_is_recorded_as_on_the_pool():
    """In-process, a raising item neither propagates nor stops the
    batch: it is quarantined with the record a pool child gives it."""
    in_process = run(["ok", "raise", "ok"], workers=1)
    pooled = run(["ok", "raise", "ok"], workers=2)
    for done, stats in (in_process, pooled):
        assert sorted(done) == ["k0", "k2"]
        assert stats.quarantined == {"k1": {
            "attempts": 1, "errors": ["RuntimeError: boom k1"]}}
        assert [(a["attempt"], a["outcome"], a.get("error"))
                for a in stats.attempts["k1"]] == [
            (0, "err", "RuntimeError: boom k1")]


@pytest.mark.parametrize("option", [{"run_timeout": 60.0}, {"retries": 1}],
                         ids=["run_timeout", "retries"])
def test_supervision_options_start_a_child_at_one_slot(option):
    done, _ = run(["ok", "ok"], workers=1, **option)
    assert {pid for pid, _ in done.values()} != {os.getpid()}
    assert {slot for _, slot in done.values()} == {0}


@pytest.mark.parametrize("workers", [1, 2], ids=["in-process", "pool"])
def test_metrics_end_as_the_in_process_loop_leaves_them(workers):
    """Children reset their registry and ship the delta; the parent
    merges the deltas in submission order, so counters sum once and a
    gauge holds the last submitted item's value, whichever item
    finished last."""
    REGISTRY.reset()
    REGISTRY.counter("test.items").inc(5)
    try:
        run(["record"] * 3, workers=workers)
        snapshot = REGISTRY.snapshot()
    finally:
        REGISTRY.reset()
    assert snapshot["test.items"]["value"] == 8
    assert snapshot["test.last_item"]["value"] == 2
