"""Tests for the FIFO counting semaphore."""

import pytest

from repro.sim.engine import Environment
from repro.sim.resources import Semaphore


def test_semaphore_limits_concurrency():
    env = Environment()
    sem = Semaphore(env, 2)
    active = []
    peak = []

    def worker(i):
        yield sem.acquire()
        active.append(i)
        peak.append(len(active))
        yield env.timeout(1.0)
        active.remove(i)
        sem.release()

    for i in range(6):
        env.process(worker(i))
    env.run()
    assert max(peak) == 2
    assert env.now == pytest.approx(3.0)  # 6 workers, 2 at a time, 1s each


def test_semaphore_fifo_order():
    env = Environment()
    sem = Semaphore(env, 1)
    order = []

    def worker(i):
        yield sem.acquire()
        order.append(i)
        yield env.timeout(0.1)
        sem.release()

    for i in range(4):
        env.process(worker(i))
    env.run()
    assert order == [0, 1, 2, 3]


def test_semaphore_over_release_raises():
    env = Environment()
    sem = Semaphore(env, 1)
    with pytest.raises(RuntimeError):
        sem.release()


def test_semaphore_rejects_zero_capacity():
    with pytest.raises(ValueError):
        Semaphore(Environment(), 0)
