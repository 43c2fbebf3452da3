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
from repro.serve import service as service_module
from repro.serve.service import STATUSES


def vectors(scorer, n, seed=1):
    rng = np.random.default_rng(seed)
    return 10.0 * rng.standard_normal((n, scorer.n_servers,
                                       scorer.n_features))


def expected_bits(scorer, vector):
    """What a private (batch-of-one) scorer would answer, exactly."""
    return tuple(scorer.predict_proba_rows(vector[None])[0].tolist())


class StallFirst:
    """Duck-typed fault plan stalling only the first ``n`` batches."""

    def __init__(self, n, seconds):
        self.n = n
        self.seconds = seconds

    def batch_stall(self, batch_index):
        return self.seconds if batch_index < self.n else 0.0


async def until_in_flight(service):
    """Yield until the batcher holds an assembled batch (one that a
    :class:`StallFirst` plan then keeps in flight)."""
    while not service.inflight:
        await asyncio.sleep(0)


@pytest.mark.parametrize("kw", [
    dict(max_tenants=0), dict(queue_depth=0), dict(max_batch=0),
    dict(shed_backlog=0), dict(deadline=0.0), dict(breaker_threshold=0),
    dict(breaker_cooldown=0.0), dict(drain_timeout=-1.0),
    # ``now - enqueued > nan`` never fires: a nan deadline never expires.
    dict(deadline=float("nan")), dict(deadline=float("inf")),
    dict(breaker_cooldown=float("inf")), dict(drain_timeout=float("nan")),
])
def test_config_validation(kw):
    """A queue depth below 1 is refused; the rest of the envelope is
    constants, so no other field can be set at all."""
    with pytest.raises(ValueError if "queue_depth" in kw else TypeError):
        ServeConfig(**kw)


def test_envelope_is_constants_but_the_queue_depth():
    """The envelope the benchmark's ``ServeConfig()`` runs with."""
    assert list(ServeConfig.__dataclass_fields__) == ["queue_depth"]
    assert ServeConfig().queue_depth == 8
    assert {name: getattr(service_module, name) for name in (
        "MAX_TENANTS", "MAX_BATCH", "SHED_BACKLOG", "DEADLINE",
        "BREAKER_THRESHOLD", "BREAKER_COOLDOWN", "DRAIN_TIMEOUT")} == {
        "MAX_TENANTS": 1024, "MAX_BATCH": 256, "SHED_BACKLOG": 4096,
        "DEADLINE": 1.0, "BREAKER_THRESHOLD": 3, "BREAKER_COOLDOWN": 0.25,
        "DRAIN_TIMEOUT": 5.0}


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


def test_admission_control(scorer, envelope):
    envelope(MAX_TENANTS=1)

    async def run():
        service = PredictionService(scorer)
        rejected = REGISTRY.counter("serve.tenants_rejected").value
        await service.start()
        service.connect("a")
        with pytest.raises(Rejected):
            service.connect("b")  # cap reached
        with pytest.raises(ValueError):
            service.connect("a")  # duplicate name
        await service.stop()
        with pytest.raises(Rejected):
            service.connect("c")  # draining / stopped
        return REGISTRY.counter("serve.tenants_rejected").value - rejected

    assert asyncio.run(run()) == 2


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
        service = PredictionService(scorer)
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


def test_backpressure_when_queue_full(scorer, envelope):
    vec = np.zeros((scorer.n_servers, scorer.n_features))
    envelope(DRAIN_TIMEOUT=0.1)

    async def run():
        # The accepted windows' batch stalls past the drain budget.
        service = PredictionService(scorer, ServeConfig(queue_depth=2),
                                    fault_plan=StallFirst(1, 5.0))
        await service.start()
        session = service.connect("t0")
        tasks = [asyncio.ensure_future(session.submit(w, vec))
                 for w in (0, 1)]
        await asyncio.sleep(0)
        with pytest.raises(Backpressure):
            await session.submit(2, vec)
        drain = await service.stop()
        return drain, await asyncio.gather(*tasks)

    drain, queued = asyncio.run(asyncio.wait_for(run(), timeout=10.0))
    # The refused window was never accepted; the accepted ones, stalled
    # in flight, were shed when the (deliberately tiny) drain budget
    # expired.
    assert [r.status for r in queued] == ["shed", "shed"]
    assert drain == {"drained": 0, "shed": 2}


def test_global_overload_sheds(scorer, envelope):
    vec = np.zeros((scorer.n_servers, scorer.n_features))
    envelope(SHED_BACKLOG=1, DRAIN_TIMEOUT=0.1)

    async def run():
        service = PredictionService(scorer)
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


def test_deadline_miss_degrades_to_masked(scorer, envelope):
    vec = np.zeros((scorer.n_servers, scorer.n_features))
    envelope(DEADLINE=0.01)

    async def run():
        service = PredictionService(scorer, fault_plan=StallFirst(1, 0.05))
        await service.start()
        hold = service.connect("hold")
        session = service.connect("t0")
        held = asyncio.ensure_future(hold.submit(0, vec))
        await until_in_flight(service)
        before = REGISTRY.counter("serve.deadline_misses").value
        # Queued behind the stalled batch, this window outlives its
        # deadline before the batcher is free.
        res = await session.submit(0, vec)
        delta = REGISTRY.counter("serve.deadline_misses").value - before
        await service.stop()
        assert (await held).status == "fresh"
        return res, delta

    res, misses = asyncio.run(asyncio.wait_for(run(), timeout=10.0))
    # First window, so nothing good to repeat: masked, not stale.
    assert res.status == "masked"
    assert res.probabilities is None
    assert misses == 1


def test_breaker_trips_then_probe_recovers(scorer, envelope):
    W = vectors(scorer, 7, seed=3)
    cooldown = 0.25
    envelope(DEADLINE=0.08, MAX_BATCH=1, BREAKER_THRESHOLD=2,
             BREAKER_COOLDOWN=cooldown)

    async def run():
        service = PredictionService(scorer, fault_plan=StallFirst(1, 0.3))
        await service.start()
        session = service.connect("t0")
        trips = REGISTRY.counter("serve.breaker_trips").value
        stales = REGISTRY.counter("serve.stale").value
        burst = [asyncio.ensure_future(session.submit(w, W[w]))
                 for w in range(4)]
        results = list(await asyncio.gather(*burst))
        while_open = await session.submit(4, W[4])
        await asyncio.sleep(cooldown + 0.05)
        probe = await session.submit(5, W[5])
        after = await session.submit(6, W[6])
        await service.stop()
        return (results, while_open, probe, after, session,
                REGISTRY.counter("serve.breaker_trips").value - trips,
                REGISTRY.counter("serve.stale").value - stales)

    results, while_open, probe, after, session, trips, stales = \
        asyncio.run(run())
    # w0 scored through the stalled batch; w1-w3 aged past the deadline
    # meanwhile and degraded to stale (repeating w0's probabilities).
    assert [r.status for r in results] == ["fresh", "stale", "stale",
                                           "stale"]
    assert results[1].probabilities == results[0].probabilities
    # Two consecutive stales tripped the breaker: w4 fast-failed.
    assert trips == 1
    assert while_open.status == "stale"
    # After the cooldown the half-open probe scored fresh and closed it.
    assert probe.status == "fresh"
    assert probe.probabilities == expected_bits(scorer, W[5])
    assert after.status == "fresh"
    assert session.breaker_open_until is None
    assert stales == 4  # the stales are on its record


def test_failed_probe_reopens_breaker(scorer, envelope):
    vec = np.zeros((scorer.n_servers, scorer.n_features))
    envelope(DEADLINE=0.01, MAX_BATCH=1, BREAKER_THRESHOLD=1,
             BREAKER_COOLDOWN=0.1)

    async def run():
        service = PredictionService(scorer, fault_plan=StallFirst(2, 0.05))
        await service.start()
        hold = service.connect("hold")
        session = service.connect("t0")
        trips = REGISTRY.counter("serve.breaker_trips").value

        async def behind_a_stalled_batch(window):
            held = asyncio.ensure_future(hold.submit(window, vec))
            await until_in_flight(service)
            result = await session.submit(window, vec)
            assert (await held).status == "fresh"
            return result

        first = await behind_a_stalled_batch(0)  # deadline miss -> masked
        await asyncio.sleep(0.15)                # past cooldown: half-open
        probe = await behind_a_stalled_batch(1)  # probe also misses
        during = await session.submit(2, vec)    # breaker re-opened
        await service.stop()
        return (first, probe, during,
                REGISTRY.counter("serve.breaker_trips").value - trips)

    first, probe, during, trips = asyncio.run(
        asyncio.wait_for(run(), timeout=10.0))
    assert first.status == "masked"
    assert probe.status == "masked"
    assert during.status == "masked"
    assert trips == 2


def test_window_labels_out_of_order_at_queue_depth_one(scorer):
    """A window number is a label, not a place in a sequence.  At
    ``queue_depth=1`` window 2 takes the one queue slot ahead of window
    1; window 1 is refused only until the slot frees, and both score
    ``fresh``: a flooding tenant whose retries reorder its own windows
    cannot livelock."""
    W = vectors(scorer, 3, seed=12)

    async def run():
        service = PredictionService(scorer, ServeConfig(queue_depth=1))
        await service.start()
        session = service.connect("t0")
        first = await session.submit(0, W[0])
        later = asyncio.ensure_future(session.submit(2, W[2]))
        await asyncio.sleep(0)  # window 2 is queued
        for _ in range(50):
            try:
                earlier = await session.submit(1, W[1])
                break
            except Backpressure:
                await asyncio.sleep(0.01)
        else:
            pytest.fail("window 1 was refused 50 times in a row")
        results = [first, earlier, await later]
        await service.stop()
        return results

    results = asyncio.run(asyncio.wait_for(run(), timeout=10.0))
    for w, res in enumerate(results):
        assert res.window == w
        assert res.status == "fresh"
        assert res.probabilities == expected_bits(scorer, W[w])


def test_refused_window_holds_back_no_later_window(scorer):
    """Backpressure leaves no trace.  Window 8, refused while windows
    0-7 fill the queue and never resent (as an open-loop client does),
    holds back nothing: each later window is answered before the next
    is sent."""
    W = vectors(scorer, 14, seed=13)

    async def run():
        service = PredictionService(scorer, fault_plan=StallFirst(1, 0.05))
        await service.start()
        hold = service.connect("hold")
        session = service.connect("t0")
        held = asyncio.ensure_future(hold.submit(0, W[0]))
        await until_in_flight(service)  # the batcher is stalled
        queued = [asyncio.ensure_future(session.submit(w, W[w]))
                  for w in range(8)]
        await asyncio.sleep(0)  # windows 0-7 fill the default queue
        with pytest.raises(Backpressure):
            await session.submit(8, W[8])
        results = list(await asyncio.gather(*queued))
        for w in range(9, 14):
            # One 0.1 s sending interval: window ``w`` must be answered
            # before window ``w + 1`` would be sent.
            results.append(await asyncio.wait_for(
                session.submit(w, W[w]), timeout=0.1))
        assert (await held).status == "fresh"
        await service.stop()
        return results

    results = asyncio.run(asyncio.wait_for(run(), timeout=10.0))
    assert [r.window for r in results] == [*range(8), *range(9, 14)]
    for res in results:
        assert res.status == "fresh"
        assert res.probabilities == expected_bits(scorer, W[res.window])


def test_graceful_drain_scores_queued_work(scorer):
    W = vectors(scorer, 5, seed=8)

    async def run():
        service = PredictionService(scorer)
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


def resolutions():
    """Windows resolved so far, over every status."""
    return sum(REGISTRY.counter(f"serve.{status}").value
               for status in STATUSES)


def test_drain_sheds_the_batch_in_flight(scorer, envelope):
    """A batch taken off the queues but still stalled when the drain
    budget expires is counted in the drain report and resolved ``shed``,
    before the tenant's windows still queued behind it: every submission
    resolves, in window order, and none is left awaiting forever."""
    vec = np.zeros((scorer.n_servers, scorer.n_features))
    envelope(DRAIN_TIMEOUT=0.1)

    async def run():
        service = PredictionService(scorer, fault_plan=StallFirst(1, 5.0))
        await service.start()
        session = service.connect("t0")
        submitted = REGISTRY.counter("serve.submitted").value
        resolved = resolutions()
        order = []
        tasks = []

        def submit(window):
            task = asyncio.ensure_future(session.submit(window, vec))
            task.add_done_callback(lambda _: order.append(window))
            tasks.append(task)

        submit(0)
        await until_in_flight(service)  # window 0's batch is stalled
        submit(1)                       # queued behind it
        await asyncio.sleep(0)
        assert service.backlog == 1
        drain = await service.stop()
        results = await asyncio.wait_for(asyncio.gather(*tasks),
                                         timeout=2.0)
        return (drain, results, order,
                REGISTRY.counter("serve.submitted").value - submitted,
                resolutions() - resolved)

    drain, results, order, submitted, resolved = asyncio.run(
        asyncio.wait_for(run(), timeout=10.0))
    assert drain == {"drained": 0, "shed": 2}
    assert [r.status for r in results] == ["shed", "shed"]
    assert order == [0, 1]
    assert submitted == resolved == 2


def test_batcher_waits_on_work_not_on_a_timer(scorer):
    """Continuous batching.  Without a fault plan the batcher never
    awaits a positive delay, busy or idle.  Windows submitted while a
    batch is stalled are scored together as the next batch."""
    W = vectors(scorer, 4, seed=11)

    async def run():
        loop = asyncio.get_running_loop()
        timers = []  # (task that armed the timer, its delay in seconds)

        def recording_call_at(when, callback, *args, **kwargs):
            timers.append((asyncio.current_task(), when - loop.time()))
            return type(loop).call_at(loop, when, callback, *args,
                                      **kwargs)

        loop.call_at = recording_call_at
        try:
            service = PredictionService(scorer)
            await service.start()
            batcher = service._task
            session = service.connect("t0")
            for w in range(3):
                assert (await session.submit(w, W[w])).status == "fresh"
            await asyncio.sleep(0.1)  # idle: longer than any poll
            await service.stop()
            assert [delay for task, delay in timers if task is batcher] \
                == []

            recorder = RecordingScorer(scorer)
            service = PredictionService(recorder,
                                        fault_plan=StallFirst(1, 0.05))
            await service.start()
            batcher = service._task
            sessions = [service.connect(f"t{i}") for i in range(4)]
            first = asyncio.ensure_future(sessions[0].submit(0, W[0]))
            await until_in_flight(service)
            queued = [asyncio.ensure_future(s.submit(0, W[i]))
                      for i, s in enumerate(sessions) if i > 0]
            results = await asyncio.gather(first, *queued)
            batches = service.batches
            await service.stop()
            stalls = [delay for task, delay in timers if task is batcher]
        finally:
            del loop.call_at
        return results, batches, recorder.batches, stalls

    results, batches, scored, stalls = asyncio.run(
        asyncio.wait_for(run(), timeout=10.0))
    assert batches == 2
    assert [len(X) for X in scored] == [1, 3]
    assert stalls == [pytest.approx(0.05, abs=0.01)]  # the injected one
    for i, res in enumerate(results):
        assert res.status == "fresh"
        assert res.probabilities == expected_bits(scorer, W[i])


def test_malformed_vector_is_refused_without_wedging_the_service(scorer):
    """A vector of the wrong shape or dtype, or holding a NaN or inf, is
    refused at submit: it is never counted or queued, so it cannot
    reach (and kill) the shared batcher or become the tenant's last good
    answer, and every other tenant keeps being served."""
    W = vectors(scorer, 2, seed=9)
    non_finite = []
    for value in (np.nan, np.inf, -np.inf):
        bad_vector = W[1].copy()
        bad_vector[0, 0] = value
        non_finite.append(bad_vector)

    async def run():
        service = PredictionService(scorer)
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
        for bad_vector in non_finite:
            with pytest.raises(ValueError, match="non-finite"):
                await bad.submit(0, bad_vector)
        counted = REGISTRY.counter("serve.submitted").value - submitted
        first = await pending
        second = await good.submit(1, W[1])
        # The refusals left no trace: a well-formed window 0 from the
        # same tenant is scored like any other.
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


def test_assembly_is_round_robin_over_busy_tenants(scorer, envelope):
    """Each batch takes one window per tenant with queued work before it
    takes anyone's second, and idle tenants never hold a batch back."""
    busy = (1, 2, 4)
    rows = vectors(scorer, 2 * len(busy), seed=10)
    W = {(t, w): rows[2 * i + w] for i, t in enumerate(busy) for w in (0, 1)}
    envelope(MAX_BATCH=2)

    async def run():
        recorder = RecordingScorer(scorer)
        service = PredictionService(recorder)
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
