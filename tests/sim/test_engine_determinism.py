"""Determinism guarantees of the event kernel.

The parallel sweep executor's bit-identical claim rests on the engine
replaying the exact same event order for the same inputs; these tests pin
that property directly, including across the ``run()`` fast path and the
public ``step()`` API.
"""

import numpy as np

from repro.sim.engine import Environment, SimulationError


def _busy_workload(env: Environment, log: list, rng: np.random.Generator):
    """A tangle of processes with equal-time events to stress tie-breaking."""

    def worker(name, delays):
        for i, d in enumerate(delays):
            yield env.timeout(d)
            log.append((name, i, env.now))

    def spawner():
        yield env.timeout(0.5)
        for j in range(3):
            env.process(worker(f"late-{j}", [0.25] * 4))
        log.append(("spawner", 0, env.now))

    for w in range(4):
        delays = list(rng.integers(1, 5, size=10) * 0.25)
        env.process(worker(f"w{w}", delays))
    env.process(spawner())


def _run_once(chunked: bool = False) -> list:
    env = Environment()
    log: list = []
    _busy_workload(env, log, np.random.default_rng(7))
    if chunked:
        t = 0.0
        while env.pending:
            t += 0.75
            env.run(until=t)
    else:
        env.run()
    return log


def test_identical_runs_replay_identical_event_order():
    assert _run_once() == _run_once()


def test_chunked_run_matches_single_run():
    """Driving the loop in run(until=t) increments (as the monitors do)
    fires the same events in the same order as one drain."""
    assert _run_once(chunked=True) == _run_once(chunked=False)


def test_step_api_matches_run():
    env1, env2 = Environment(), Environment()
    log1: list = []
    log2: list = []
    _busy_workload(env1, log1, np.random.default_rng(3))
    _busy_workload(env2, log2, np.random.default_rng(3))
    env1.run()
    while env2.pending:
        env2.step()
    assert log1 == log2
    assert env1.now == env2.now


def test_equal_time_events_fire_in_schedule_order():
    env = Environment()
    order: list = []

    def note(tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c", "d"):
        env.process(note(tag))
    env.run()
    assert order == ["a", "b", "c", "d"]


def test_past_event_detected():
    env = Environment()
    env.timeout(1.0)
    env.now = 5.0  # simulate clock corruption
    try:
        env.run()
    except SimulationError as exc:
        assert "past" in str(exc)
    else:
        raise AssertionError("expected SimulationError")
