"""Unit tests for the service core: queues, ladder, breaker, drain."""

import asyncio

import numpy as np
import pytest

from repro.obs.metrics import REGISTRY
from repro.serve import (
    Backpressure,
    PredictionService,
    Rejected,
    ServeConfig,
)


def vectors(scorer, n, seed=1):
    rng = np.random.default_rng(seed)
    return 10.0 * rng.standard_normal((n, scorer.n_servers,
                                       scorer.n_features))


def expected_bits(scorer, vector):
    """What a private (batch-of-one) scorer would answer, exactly."""
    return tuple(float(p) for p in scorer.predict_proba(vector[None])[0])


class StallFirst:
    """Duck-typed fault plan stalling only the first ``n`` batches."""

    def __init__(self, n, seconds):
        self.n = n
        self.seconds = seconds

    def batch_stall(self, batch_index):
        return self.seconds if batch_index < self.n else 0.0


@pytest.mark.parametrize("kw", [
    dict(max_tenants=0), dict(queue_depth=0), dict(reorder_depth=-1),
    dict(max_batch=0), dict(batch_interval=0.0), dict(shed_backlog=0),
    dict(deadline=0.0), dict(breaker_threshold=0),
    dict(breaker_cooldown=0.0), dict(drain_timeout=-1.0),
])
def test_config_validation(kw):
    with pytest.raises(ValueError):
        ServeConfig(**kw)


def test_lifecycle_guards(scorer):
    service = PredictionService(scorer)
    with pytest.raises(Rejected):
        service.connect("early")  # not accepting before start()

    async def run():
        await service.start()
        with pytest.raises(RuntimeError):
            await service.start()
        await service.stop()
        with pytest.raises(RuntimeError):
            await service.stop()

    asyncio.run(run())


def test_admission_control(scorer):
    async def run():
        service = PredictionService(scorer, ServeConfig(max_tenants=1))
        await service.start()
        service.connect("a")
        with pytest.raises(Rejected):
            service.connect("b")  # cap reached
        with pytest.raises(ValueError):
            service.connect("a")  # duplicate name
        await service.stop()
        with pytest.raises(Rejected):
            service.connect("c")  # draining / stopped
        return service

    service = asyncio.run(run())
    assert service.rejected_tenants == 2


def test_sequential_stream_bit_identical(scorer):
    """The contract behind the whole service: sharing the batcher must
    not change a single bit versus a private scorer."""
    W = vectors(scorer, 6)

    async def run():
        service = PredictionService(scorer)
        await service.start()
        session = service.connect("t0")
        results = [await session.submit(w, W[w]) for w in range(len(W))]
        await service.stop()
        return results

    results = asyncio.run(run())
    for w, res in enumerate(results):
        assert res.status == "fresh"
        want = expected_bits(scorer, W[w])
        assert res.probabilities == want
        assert res.severity == int(np.argmax(want))
        assert res.latency >= 0.0


def test_cross_tenant_batch_bit_identity(scorer):
    """Tenants scored through one fused batch get exactly the bits their
    own vector deserves — batchmates are invisible."""
    n = 16
    W = vectors(scorer, n, seed=2)

    async def run():
        service = PredictionService(scorer, ServeConfig(batch_interval=0.05))
        await service.start()
        sessions = [service.connect(f"t{i}") for i in range(n)]
        tasks = [asyncio.ensure_future(s.submit(0, W[i]))
                 for i, s in enumerate(sessions)]
        results = await asyncio.gather(*tasks)
        batches = service.batches
        await service.stop()
        return results, batches

    results, batches = asyncio.run(run())
    assert batches == 1  # they all landed in one fused forward pass
    for i, res in enumerate(results):
        assert res.status == "fresh"
        assert res.probabilities == expected_bits(scorer, W[i])


def test_backpressure_when_queue_full(scorer):
    vec = np.zeros((scorer.n_servers, scorer.n_features))

    async def run():
        service = PredictionService(scorer, ServeConfig(
            queue_depth=2, batch_interval=5.0, drain_timeout=0.1))
        await service.start()
        session = service.connect("t0")
        tasks = [asyncio.ensure_future(session.submit(w, vec))
                 for w in (0, 1)]
        await asyncio.sleep(0)
        with pytest.raises(Backpressure):
            await session.submit(2, vec)
        drain = await service.stop()
        return drain, await asyncio.gather(*tasks)

    drain, queued = asyncio.run(run())
    # The refused window was never accepted; the queued ones were shed
    # when the (deliberately tiny) drain budget expired.
    assert [r.status for r in queued] == ["shed", "shed"]
    assert drain == {"drained": 0, "shed": 2}


def test_global_overload_sheds(scorer):
    vec = np.zeros((scorer.n_servers, scorer.n_features))

    async def run():
        service = PredictionService(scorer, ServeConfig(
            shed_backlog=1, batch_interval=5.0, drain_timeout=0.1))
        await service.start()
        a = service.connect("a")
        b = service.connect("b")
        first = asyncio.ensure_future(a.submit(0, vec))
        await asyncio.sleep(0)
        shed_before = REGISTRY.counter("serve.load_shed").value
        res = await b.submit(0, vec)
        shed_after = REGISTRY.counter("serve.load_shed").value
        await service.stop()
        await first
        return res, shed_after - shed_before

    res, shed_delta = asyncio.run(run())
    assert res.status == "shed"
    assert res.severity is None and res.probabilities is None
    assert shed_delta == 1


def test_deadline_miss_degrades_to_masked(scorer):
    vec = np.zeros((scorer.n_servers, scorer.n_features))

    async def run():
        service = PredictionService(scorer, ServeConfig(
            deadline=0.01, batch_interval=0.05))
        await service.start()
        session = service.connect("t0")
        before = REGISTRY.counter("serve.deadline_misses").value
        res = await session.submit(0, vec)
        delta = REGISTRY.counter("serve.deadline_misses").value - before
        await service.stop()
        return res, delta

    res, misses = asyncio.run(run())
    # First window, so nothing good to repeat: masked, not stale.
    assert res.status == "masked"
    assert res.probabilities is None
    assert misses == 1


def test_breaker_trips_then_probe_recovers(scorer):
    W = vectors(scorer, 7, seed=3)

    async def run():
        config = ServeConfig(deadline=0.08, batch_interval=0.005,
                             max_batch=1, breaker_threshold=2,
                             breaker_cooldown=0.25)
        service = PredictionService(scorer, config,
                                    fault_plan=StallFirst(1, 0.3))
        await service.start()
        session = service.connect("t0")
        burst = [asyncio.ensure_future(session.submit(w, W[w]))
                 for w in range(4)]
        results = list(await asyncio.gather(*burst))
        while_open = await session.submit(4, W[4])
        await asyncio.sleep(config.breaker_cooldown + 0.05)
        probe = await session.submit(5, W[5])
        after = await session.submit(6, W[6])
        await service.stop()
        return results, while_open, probe, after, session

    results, while_open, probe, after, session = asyncio.run(run())
    # w0 scored through the stalled batch; w1-w3 aged past the deadline
    # meanwhile and degraded to stale (repeating w0's probabilities).
    assert [r.status for r in results] == ["fresh", "stale", "stale",
                                           "stale"]
    assert results[1].probabilities == results[0].probabilities
    # Two consecutive stales tripped the breaker: w4 fast-failed.
    assert session.breaker_trips == 1
    assert while_open.status == "stale"
    # After the cooldown the half-open probe scored fresh and closed it.
    assert probe.status == "fresh"
    assert probe.probabilities == expected_bits(scorer, W[5])
    assert after.status == "fresh"
    assert session.breaker_open_until is None
    assert not session.healthy  # the stales are on its record


def test_failed_probe_reopens_breaker(scorer):
    vec = np.zeros((scorer.n_servers, scorer.n_features))

    async def run():
        service = PredictionService(scorer, ServeConfig(
            deadline=0.01, batch_interval=0.05, max_batch=1,
            breaker_threshold=1, breaker_cooldown=0.1))
        await service.start()
        session = service.connect("t0")
        first = await session.submit(0, vec)   # deadline miss -> masked
        await asyncio.sleep(0.15)              # past cooldown: half-open
        probe = await session.submit(1, vec)   # probe also misses
        during = await session.submit(2, vec)  # breaker re-opened
        await service.stop()
        return first, probe, during, session

    first, probe, during, session = asyncio.run(run())
    assert first.status == "masked"
    assert probe.status == "masked"
    assert during.status == "masked"
    assert session.breaker_trips == 2


def test_duplicate_window_repeats_without_rescoring(scorer):
    W = vectors(scorer, 1, seed=4)

    async def run():
        service = PredictionService(scorer)
        await service.start()
        session = service.connect("t0")
        first = await session.submit(0, W[0])
        batches = service.batches
        # Same window, different payload: the first answer stands.
        again = await session.submit(0, np.zeros_like(W[0]))
        await service.stop()
        return first, again, batches, service.batches

    first, again, batches_before, batches_after = asyncio.run(run())
    assert first.status == "fresh"
    assert again.status == "duplicate"
    assert again.probabilities == first.probabilities
    assert batches_after == batches_before  # nothing was rescored


def test_out_of_order_windows_resolve_in_order(scorer):
    W = vectors(scorer, 5, seed=5)
    order = [1, 0, 3, 4, 2]

    async def run():
        service = PredictionService(scorer)
        await service.start()
        session = service.connect("t0")
        tasks = [asyncio.ensure_future(session.submit(w, W[w]))
                 for w in order]
        results = await asyncio.gather(*tasks)
        await service.stop()
        return sorted(results, key=lambda r: r.window)

    results = asyncio.run(run())
    # The reorder buffer absorbed the shuffle: every window scored fresh
    # with the bits an in-order stream would have produced.
    for w, res in enumerate(results):
        assert res.window == w
        assert res.status == "fresh"
        assert res.probabilities == expected_bits(scorer, W[w])


def test_reorder_overflow_abandons_gap(scorer):
    W = vectors(scorer, 8, seed=6)

    async def run():
        service = PredictionService(scorer, ServeConfig(reorder_depth=2))
        await service.start()
        session = service.connect("t0")
        before = REGISTRY.counter("serve.abandoned_windows").value
        # Windows 0-4 never arrive; buffering 5, 6, 7 overflows the
        # depth-2 buffer and the gap is abandoned.
        tasks = [asyncio.ensure_future(session.submit(w, W[w]))
                 for w in (5, 6, 7)]
        results = await asyncio.gather(*tasks)
        gap = REGISTRY.counter("serve.abandoned_windows").value - before
        late = await session.submit(2, W[2])   # skipped window: too late
        dup = await session.submit(2, W[2])    # and now merely duplicate
        await service.stop()
        return results, gap, late, dup

    results, gap, late, dup = asyncio.run(run())
    assert gap == 5  # windows 0..4
    assert [r.status for r in results] == ["fresh"] * 3
    assert late.status == "masked"
    assert dup.status == "duplicate"


def test_zero_reorder_depth_skips_straight_ahead(scorer):
    W = vectors(scorer, 4, seed=7)

    async def run():
        service = PredictionService(scorer, ServeConfig(reorder_depth=0))
        await service.start()
        session = service.connect("t0")
        res = await session.submit(3, W[3])
        await service.stop()
        return res

    res = asyncio.run(run())
    # No buffer to wait in: the gap (0..2) is abandoned immediately and
    # window 3 scores fresh.
    assert res.status == "fresh"
    assert res.probabilities == expected_bits(scorer, W[3])


def test_graceful_drain_scores_queued_work(scorer):
    W = vectors(scorer, 5, seed=8)

    async def run():
        service = PredictionService(scorer, ServeConfig(
            batch_interval=0.01, drain_timeout=5.0))
        await service.start()
        session = service.connect("t0")
        tasks = [asyncio.ensure_future(session.submit(w, W[w]))
                 for w in range(5)]
        await asyncio.sleep(0)
        drain = await service.stop()
        return drain, await asyncio.gather(*tasks)

    drain, results = asyncio.run(run())
    # Work queued before the drain is scored, not dumped.
    assert drain == {"drained": 5, "shed": 0}
    assert [r.status for r in results] == ["fresh"] * 5
    for w, res in enumerate(results):
        assert res.probabilities == expected_bits(scorer, W[w])


def test_malformed_vector_is_refused_without_wedging_the_service(scorer):
    """A vector of the wrong shape or dtype is refused at submit: it is
    never counted or queued, so it cannot reach (and kill) the shared
    batcher, and every other tenant keeps being served."""
    W = vectors(scorer, 2, seed=9)

    async def run():
        service = PredictionService(scorer, ServeConfig(batch_interval=0.01))
        await service.start()
        good = service.connect("good")
        bad = service.connect("bad")
        pending = asyncio.ensure_future(good.submit(0, W[0]))
        await asyncio.sleep(0)  # the good window is queued first
        submitted = REGISTRY.counter("serve.submitted").value
        with pytest.raises(ValueError, match="vector"):
            await bad.submit(0, np.zeros((3, 5)))
        with pytest.raises(ValueError, match="vector"):
            await bad.submit(0, np.zeros((scorer.n_servers,
                                          scorer.n_features),
                                         dtype=complex))
        counted = REGISTRY.counter("serve.submitted").value - submitted
        first = await pending
        second = await good.submit(1, W[1])
        # The refusals left the bad tenant's cursor alone: a well-formed
        # window 0 is still new, not a duplicate.
        retry = await bad.submit(0, W[1])
        drain = await service.stop()
        return counted, first, second, retry, drain

    counted, first, second, retry, drain = asyncio.run(
        asyncio.wait_for(run(), timeout=10.0))
    assert counted == 0
    assert [first.status, second.status, retry.status] == ["fresh"] * 3
    assert first.probabilities == expected_bits(scorer, W[0])
    assert retry.probabilities == expected_bits(scorer, W[1])
    assert drain == {"drained": 0, "shed": 0}


class RecordingScorer:
    """Wraps a scorer and keeps a copy of every fused batch it scores."""

    def __init__(self, scorer):
        self.scorer = scorer
        self.n_servers = scorer.n_servers
        self.n_features = scorer.n_features
        self.batches = []

    def predict_proba_rows(self, X):
        self.batches.append(np.array(X))
        return self.scorer.predict_proba_rows(X)


def test_assembly_is_round_robin_over_busy_tenants(scorer):
    """Each batch takes one window per tenant with queued work before it
    takes anyone's second, and idle tenants never hold a batch back."""
    busy = (1, 2, 4)
    rows = vectors(scorer, 2 * len(busy), seed=10)
    W = {(t, w): rows[2 * i + w] for i, t in enumerate(busy) for w in (0, 1)}

    async def run():
        recorder = RecordingScorer(scorer)
        service = PredictionService(recorder, ServeConfig(
            max_batch=2, batch_interval=0.05))
        await service.start()
        sessions = [service.connect(f"t{i}") for i in range(5)]
        resolved = []
        tasks = {}
        for key in W:
            tasks[key] = asyncio.ensure_future(sessions[key[0]].submit(
                key[1], W[key]))
            tasks[key].add_done_callback(
                lambda _, key=key: resolved.append(key))
        results = {key: await task for key, task in tasks.items()}
        await service.stop()
        return recorder.batches, results, resolved

    batches, results, resolved = asyncio.run(
        asyncio.wait_for(run(), timeout=10.0))

    def owner(row):
        return next(key for key, v in W.items() if np.array_equal(v, row))

    batches = [[owner(row) for row in X] for X in batches]
    assert [len(batch) for batch in batches] == [2, 2, 2]
    order = [key for batch in batches for key in batch]
    assert sorted(order) == sorted(W)  # every window scored exactly once
    queued = set(W)
    for batch in batches:
        tenants = [t for t, _ in batch]
        waiting = {t for t, _ in queued} - set(tenants)
        assert len(set(tenants)) == len(tenants) or not waiting, \
            f"batch {batch} took two windows of one tenant while " \
            f"{sorted(waiting)} waited"
        queued -= set(batch)
    assert max(order.index((t, 0)) for t in busy) \
        < min(order.index((t, 1)) for t in busy)
    for t in busy:
        assert [w for u, w in resolved if u == t] == [0, 1]
        for w in (0, 1):
            assert results[t, w].window == w
            assert results[t, w].status == "fresh"
            assert results[t, w].probabilities == expected_bits(scorer,
                                                               W[t, w])
