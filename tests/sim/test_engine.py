"""Tests for the discrete-event kernel."""

import pytest

from repro.sim.engine import (
    AllOf,
    Environment,
    Event,
    SimulationError,
)


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(1.5)
        return env.now

    p = env.process(proc())
    assert env.run(until=p) == pytest.approx(1.5)


def test_sequential_timeouts_accumulate():
    env = Environment()
    times = []

    def proc():
        for d in (0.5, 0.25, 0.25):
            yield env.timeout(d)
            times.append(env.now)

    env.run(until=env.process(proc()))
    assert times == pytest.approx([0.5, 0.75, 1.0])


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


@pytest.mark.parametrize("delay", [float("nan"), float("inf"), -1e-9])
@pytest.mark.parametrize("schedule", ["timeout", "after"])
def test_non_finite_or_negative_delay_rejected_at_schedule_time(schedule,
                                                                delay):
    """A NaN delay used to be accepted and kill the run later with
    "event scheduled in the past"; it is rejected where it enters."""
    env = Environment()
    with pytest.raises(ValueError, match="finite"):
        if schedule == "timeout":
            env.timeout(delay)
        else:
            env.after(delay, lambda _ev: None)
    assert env.pending == 0


def test_event_value_passed_to_waiter():
    env = Environment()
    ev = env.event()

    def trigger():
        yield env.timeout(1.0)
        ev.succeed("payload")

    def waiter():
        value = yield ev
        return value

    env.process(trigger())
    p = env.process(waiter())
    assert env.run(until=p) == "payload"


def test_event_double_trigger_raises():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_failed_event_raises_in_process():
    env = Environment()
    ev = env.event()

    def trigger():
        yield env.timeout(0.1)
        ev.fail(RuntimeError("boom"))

    def waiter():
        with pytest.raises(RuntimeError, match="boom"):
            yield ev
        return "handled"

    env.process(trigger())
    p = env.process(waiter())
    assert env.run(until=p) == "handled"


def test_process_exception_propagates_to_run():
    env = Environment()

    def bad():
        yield env.timeout(0.1)
        raise ValueError("dead")

    with pytest.raises(ValueError, match="dead"):
        env.run(until=env.process(bad()))


def test_process_yielding_non_event_fails():
    env = Environment()

    def bad():
        yield 42

    with pytest.raises(SimulationError, match="must yield Event"):
        env.run(until=env.process(bad()))


def test_yield_already_fired_event_resumes_immediately():
    env = Environment()
    ev = env.event()
    ev.succeed("old")

    def proc():
        yield env.timeout(1.0)  # ev fires long before this
        value = yield ev
        return (env.now, value)

    now, value = env.run(until=env.process(proc()))
    assert now == pytest.approx(1.0)  # no extra delay
    assert value == "old"


def test_allof_waits_for_all_children():
    env = Environment()

    def worker(delay, tag):
        yield env.timeout(delay)
        return tag

    def parent():
        procs = [env.process(worker(d, i)) for i, d in enumerate((0.3, 0.1, 0.2))]
        values = yield AllOf(env, procs)
        return (env.now, values)

    now, values = env.run(until=env.process(parent()))
    assert now == pytest.approx(0.3)
    assert values == [0, 1, 2]  # original order, not completion order


def test_allof_empty_fires_immediately():
    env = Environment()

    def parent():
        values = yield AllOf(env, [])
        return values

    assert env.run(until=env.process(parent())) == []


def test_allof_propagates_failure():
    env = Environment()

    def ok():
        yield env.timeout(0.5)

    def bad():
        yield env.timeout(0.1)
        raise RuntimeError("child failed")

    def parent():
        yield AllOf(env, [env.process(ok()), env.process(bad())])

    with pytest.raises(RuntimeError, match="child failed"):
        env.run(until=env.process(parent()))


def test_run_until_float_deadline():
    env = Environment()
    hits = []

    def proc():
        while True:
            yield env.timeout(1.0)
            hits.append(env.now)

    env.process(proc())
    env.run(until=3.5)
    assert hits == pytest.approx([1.0, 2.0, 3.0])
    assert env.now == pytest.approx(3.5)


def test_run_until_event_on_drained_queue_raises():
    env = Environment()
    ev = env.event()  # never triggered
    with pytest.raises(SimulationError, match="drained"):
        env.run(until=ev)


def test_deterministic_fifo_ordering_of_simultaneous_events():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in range(5):
        env.process(proc(tag))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_nested_processes():
    env = Environment()

    def inner():
        yield env.timeout(0.2)
        return "inner-done"

    def outer():
        value = yield env.process(inner())
        return value

    assert env.run(until=env.process(outer())) == "inner-done"


def test_is_alive_lifecycle():
    env = Environment()

    def proc():
        yield env.timeout(1.0)

    p = env.process(proc())
    assert p.is_alive
    env.run(until=p)
    assert not p.is_alive


def test_run_until_failed_event_reraises():
    """A failed stop event must surface its exception, not return it."""
    env = Environment()
    ev = Event(env)

    def saboteur():
        yield env.timeout(1.5)
        ev.fail(RuntimeError("boom"))

    env.process(saboteur())
    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=ev)
    assert env.now == pytest.approx(1.5)


def test_allof_with_already_failed_child():
    """A child that failed before the AllOf was built must fail the
    conjunction immediately, not leave it waiting forever."""
    env = Environment()
    bad = Event(env)
    bad.fail(RuntimeError("dead on arrival"))
    env.run()  # deliver the failure; bad is now fired-and-failed
    assert bad._fired and not bad._ok

    ok = Event(env)
    ok.succeed("fine")
    conj = AllOf(env, [ok, bad])
    with pytest.raises(RuntimeError, match="dead on arrival"):
        env.run(until=conj)


def test_allof_failed_child_among_pending():
    """First failure wins even while other children are still pending."""
    env = Environment()
    slow = Event(env)

    def failer():
        yield env.timeout(0.5)
        raise RuntimeError("mid-flight failure")

    conj = AllOf(env, [env.process(failer()), slow])
    with pytest.raises(RuntimeError, match="mid-flight failure"):
        env.run(until=conj)


def test_after_runs_callback_at_delay():
    env = Environment()
    seen: list[float] = []
    env.after(2.0, lambda _ev: seen.append(env.now))
    env.after(1.0, lambda _ev: seen.append(env.now))
    env.run()
    assert seen == [1.0, 2.0]


def test_defer_runs_callback_same_instant_fifo():
    """defer() fires at the current timestamp, after already-queued
    same-time events (the batch backend's bookkeeping-tick primitive)."""
    env = Environment()
    seen: list[str] = []
    env.after(0.0, lambda _ev: seen.append("after"))
    env.defer(lambda _ev: seen.append("defer"))
    env.run()
    assert env.now == 0.0
    assert seen == ["after", "defer"]
