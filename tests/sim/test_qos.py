"""Tests for token-bucket QoS."""

import numpy as np
import pytest

from repro.common.units import MIB
from repro.sim.cluster import Cluster
from repro.sim.engine import AllOf, Environment
from repro.sim.qos import QoSPolicy, TokenBucket


class TestTokenBucket:
    def test_burst_passes_instantly(self):
        env = Environment()
        bucket = TokenBucket(env, rate=100.0, burst=1000.0)

        def proc():
            yield bucket.consume(1000.0)
            return env.now

        assert env.run(until=env.process(proc())) == pytest.approx(0.0)

    def test_sustained_rate_enforced(self):
        env = Environment()
        bucket = TokenBucket(env, rate=100.0, burst=100.0)

        def proc():
            for _ in range(5):
                yield bucket.consume(100.0)
            return env.now

        # First 100 from the initial burst; 4 more at 1 s each.
        assert env.run(until=env.process(proc())) == pytest.approx(4.0)

    def test_fifo_no_starvation(self):
        env = Environment()
        bucket = TokenBucket(env, rate=100.0, burst=200.0)
        order = []

        def consumer(tag, size, delay):
            yield env.timeout(delay)
            yield bucket.consume(size)
            order.append(tag)

        env.process(consumer("big", 200.0, 0.0))
        env.process(consumer("small1", 10.0, 0.001))
        env.process(consumer("small2", 10.0, 0.002))
        env.run()
        assert order == ["big", "small1", "small2"]

    def test_zero_consume_immediate(self):
        env = Environment()
        bucket = TokenBucket(env, rate=1.0, burst=1.0)

        def proc():
            yield bucket.consume(0)
            return env.now

        assert env.run(until=env.process(proc())) == 0.0

    def test_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            TokenBucket(env, rate=0, burst=1)
        bucket = TokenBucket(env, rate=1.0, burst=10.0)
        with pytest.raises(ValueError):
            bucket.consume(11.0)
        with pytest.raises(ValueError):
            bucket.consume(-1.0)


def gate(policy, job, nbytes):
    """Event firing when ``policy`` admits one RPC of ``job``."""
    done = policy.env.event()
    policy.admit_one(job, nbytes, done.succeed)
    return done


class TestQoSPolicy:
    def test_unlimited_jobs_pass_through(self):
        env = Environment()
        policy = QoSPolicy(env)

        def proc():
            yield gate(policy, "anyjob", 10**9)
            yield gate(policy, None, 10**9)
            return env.now

        assert env.run(until=env.process(proc())) == 0.0

    def test_limit_and_clear(self):
        env = Environment()
        policy = QoSPolicy(env)
        policy.limit("noise", rate=100.0, burst=100.0)
        assert policy.is_limited("noise")

        def proc():
            yield gate(policy, "noise", 100.0)  # burst
            yield gate(policy, "noise", 100.0)  # +1 s
            t_limited = env.now
            policy.clear("noise")
            yield gate(policy, "noise", 10**6)  # unlimited again
            return (t_limited, env.now)

        t_limited, t_final = env.run(until=env.process(proc()))
        assert t_limited == pytest.approx(1.0)
        assert t_final == pytest.approx(1.0)


def test_ost_qos_throttles_one_job_only():
    """A limited job's writes slow down; an unlimited job is unaffected."""

    def run(limited: bool):
        cluster = Cluster()
        if limited:
            for ost in cluster.osts:
                ost.qos.limit("noisy", rate=10 * MIB, burst=MIB)
        env = cluster.env

        def writer(job, path):
            sess = cluster.session(job, 0, 0 if job == "noisy" else 1)
            yield from sess.create(path)
            for i in range(8):
                yield from sess.write(path, i * MIB, MIB)

        p1 = env.process(writer("noisy", "/n"))
        p2 = env.process(writer("calm", "/c"))
        env.run(until=AllOf(env, [p1, p2]))
        recs = cluster.collector.records
        noisy = np.mean([r.duration for r in recs
                         if r.job == "noisy" and r.op.value == "write"])
        calm = np.mean([r.duration for r in recs
                        if r.job == "calm" and r.op.value == "write"])
        return noisy, calm

    free_noisy, free_calm = run(limited=False)
    lim_noisy, lim_calm = run(limited=True)
    assert lim_noisy > 3 * free_noisy  # throttled hard
    assert lim_calm < 2 * free_calm  # bystander barely affected


class TestConsumeBatch:
    def test_grant_times_match_sequential_consume(self):
        """The closed form must reproduce per-request FIFO drain times."""
        sizes = [60.0, 50.0, 10.0, 80.0, 1.0]

        env_a = Environment()
        seq = TokenBucket(env_a, rate=100.0, burst=100.0)
        grants: list[float] = []

        def consumer():
            for s in sizes:
                yield seq.consume(s)
                grants.append(env_a.now)

        env_a.run(until=env_a.process(consumer()))

        env_b = Environment()
        batch = TokenBucket(env_b, rate=100.0, burst=100.0)
        times = batch.consume_batch(sizes)
        assert times.shape == (len(sizes),)
        np.testing.assert_allclose(times, grants, atol=1e-12, rtol=0)

    def test_level_prededuction_queues_later_arrivals_behind_batch(self):
        """A consume() issued right after a batch must wait for the
        pre-sold credit to be earned back, exactly as FIFO would."""
        env = Environment()
        bucket = TokenBucket(env, rate=100.0, burst=100.0)
        last_grant = bucket.consume_batch([100.0, 100.0])[-1]

        def straggler():
            yield bucket.consume(50.0)
            return env.now

        granted_at = env.run(until=env.process(straggler()))
        assert granted_at == pytest.approx(last_grant + 0.5)

    def test_empty_batch_returns_empty(self):
        env = Environment()
        bucket = TokenBucket(env, rate=100.0, burst=100.0)
        assert bucket.consume_batch([]).size == 0

    def test_rejects_busy_queue_and_bad_sizes(self):
        env = Environment()
        bucket = TokenBucket(env, rate=100.0, burst=100.0)
        bucket.consume(100.0)
        bucket.consume(100.0)  # second consumer queues; bucket is busy
        with pytest.raises(RuntimeError):
            bucket.consume_batch([10.0])
        env.run()
        with pytest.raises(ValueError):
            bucket.consume_batch([-1.0])
        with pytest.raises(ValueError):
            bucket.consume_batch([1000.0])
