"""StreamingPredictor under degraded telemetry: duplicated window
delivery, late and out-of-order samples, gappy and lost telemetry,
buffer eviction, a property-style check that shuffled delivery matches
in-order delivery, and the online vectors against offline assembly.

The harness bypasses the simulated monitor loop entirely: samples are
appended straight to ``monitor.samples`` at chosen simulated times while
the engine clock is stepped by hand, so delivery order is the *only*
variable between two runs.  Telemetry faults are a property of the
collected stream, so this is where they are exercised.
"""

import numpy as np
import pytest

from repro.core.dataset import Dataset
from repro.core.labeling import BINARY_THRESHOLDS
from repro.core.nn.train import TrainConfig
from repro.core.online import StreamingPredictor
from repro.core.predictor import InterferencePredictor
from repro.experiments.runner import experiment_cluster
from repro.monitor.aggregator import MonitoredRun, assemble_vectors
from repro.monitor.schema import SERVER_METRICS, vector_dim
from repro.monitor.server_monitor import ServerMonitor
from repro.obs.metrics import REGISTRY
from repro.sim.cluster import Cluster

WINDOW = 0.5
INTERVAL = 0.125
PER_WINDOW = int(WINDOW / INTERVAL)  # samples per (window, server)


@pytest.fixture(scope="module")
def predictor():
    n_servers = len(Cluster(experiment_cluster()).servers)
    rng = np.random.default_rng(0)
    n = 100
    X = rng.normal(0, 0.5, size=(n, n_servers, vector_dim()))
    y = (X[:, :, 0].sum(axis=1) > 0).astype(int)
    ds = Dataset(X, y,
                 feature_names=tuple(f"f{i}" for i in range(vector_dim())))
    return InterferencePredictor.train(
        ds, BINARY_THRESHOLDS, config=TrainConfig(epochs=6, seed=0),
        restarts=1)


def make_stream(predictor, **kwargs):
    cluster = Cluster(experiment_cluster())
    monitor = ServerMonitor(cluster, sample_interval=INTERVAL)
    streaming = StreamingPredictor(
        predictor=predictor, cluster=cluster, monitor=monitor, job="job",
        window_size=WINDOW, **kwargs)
    streaming.start()
    return cluster, monitor, streaming


def window_block(cluster, w, si):
    """The PER_WINDOW samples of one (window, server), in sample order."""
    sid = cluster.servers[si]
    rows = []
    for k in range(PER_WINDOW):
        t = w * WINDOW + INTERVAL * (k + 1)
        metrics = {m: float((w * 37 + si * 11 + k * 5 + j * 3) % 17)
                   for j, m in enumerate(SERVER_METRICS)}
        rows.append((t, sid, metrics))
    return rows


def all_blocks(cluster, n_windows):
    return [(w, si, window_block(cluster, w, si))
            for w in range(n_windows)
            for si in range(len(cluster.servers))]


def delayed_phases(n_windows, seed):
    """Every block delivered in its own window's phase or one later."""
    cluster = Cluster(experiment_cluster())
    rng = np.random.default_rng(seed)
    phases = {}
    for w, _, block in all_blocks(cluster, n_windows):
        phases.setdefault(w + int(rng.integers(0, 2)), []).append(block)
    return phases


def run_in_order(predictor, n_windows, **kwargs):
    cluster, monitor, streaming = make_stream(predictor, **kwargs)
    for _, _, block in all_blocks(cluster, n_windows):
        monitor.samples.extend(block)
    reorder = kwargs.get("reorder_windows", 0)
    cluster.env.run(until=(n_windows + reorder) * WINDOW + 0.1)
    return cluster, monitor, streaming


def run_phased(predictor, phases, n_windows, seed=0, **kwargs):
    """Deliver ``phases[p]`` (a list of blocks) during window ``p``: the
    blocks of one phase land in shuffled order just after the clock
    passes ``p * WINDOW``, after the windows due by then were emitted."""
    cluster, monitor, streaming = make_stream(predictor, **kwargs)
    rng = np.random.default_rng(seed)
    last = max(phases, default=0)
    for phase in range(last + 1):
        arrivals = phases.get(phase, [])
        for i in rng.permutation(len(arrivals)):
            monitor.samples.extend(arrivals[i])
        cluster.env.run(until=(phase + 1) * WINDOW + 1e-6)
    reorder = kwargs.get("reorder_windows", 0)
    cluster.env.run(until=max(last + 1, n_windows + reorder) * WINDOW + 0.1)
    return cluster, monitor, streaming


def emitted(streaming, n_windows):
    preds = streaming.predictions[:n_windows]
    return [(p.window, p.severity, p.probabilities, p.completeness,
             p.stale) for p in preds]


def test_harness_baseline_is_complete(predictor):
    _, _, streaming = run_in_order(predictor, 4)
    assert [p.window for p in streaming.predictions[:4]] == [0, 1, 2, 3]
    for p in streaming.predictions[:4]:
        assert p.completeness == pytest.approx(1.0)
        assert not p.stale


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_shuffled_delivery_matches_in_order(predictor, seed):
    """Any delivery order the reorder allowance can absorb must produce
    bit-identical predictions to in-order delivery."""
    n_windows = 6
    baseline = emitted(run_in_order(predictor, n_windows)[2], n_windows)

    # Each (window, server) block is delayed by up to one window — the
    # exact slack reorder_windows=1 grants — and blocks landing in the
    # same phase arrive in shuffled order.
    streaming = run_phased(predictor, delayed_phases(n_windows, seed),
                           n_windows, seed=seed, reorder_windows=1)[2]

    assert emitted(streaming, n_windows) == baseline


def test_duplicate_window_delivery_is_contained(predictor):
    """A window delivered twice perturbs only itself: every other
    window's prediction stays bit-identical, and nothing crashes."""
    n_windows = 4
    baseline = emitted(run_in_order(predictor, n_windows)[2], n_windows)

    cluster, monitor, streaming = make_stream(predictor)
    for w, si, block in all_blocks(cluster, n_windows):
        monitor.samples.extend(block)
        if w == 1:
            monitor.samples.extend(block)  # the duplicate delivery
    cluster.env.run(until=n_windows * WINDOW + 0.1)

    got = emitted(streaming, n_windows)
    assert [g for g in got if g[0] != 1] == \
        [b for b in baseline if b[0] != 1]
    dup = got[1]
    assert dup[0] == 1 and np.isfinite(dup[2]).all()
    assert dup[3] == pytest.approx(1.0)  # completeness stays capped


def test_samples_after_emission_are_counted_and_dropped(predictor):
    """Once a window was emitted (here: as a stale fallback), straggler
    samples for it are dropped and counted, never buffered."""
    n_windows = 4
    cluster, monitor, streaming = make_stream(predictor,
                                              min_completeness=0.6)
    for w, si, block in all_blocks(cluster, n_windows):
        if w != 2:  # window 2's telemetry is withheld entirely
            monitor.samples.extend(block)
    cluster.env.run(until=n_windows * WINDOW + 0.1)

    preds = streaming.predictions[:n_windows]
    assert preds[2].stale
    assert preds[2].completeness == 0.0
    assert preds[2].probabilities == preds[1].probabilities  # last good

    # The stragglers arrive long after window 2 was answered.
    before = REGISTRY.counter("online.late_samples").value
    n_servers = len(cluster.servers)
    for si in range(n_servers):
        monitor.samples.extend(window_block(cluster, 2, si))
    cluster.env.run(until=(n_windows + 1) * WINDOW + 0.1)
    assert REGISTRY.counter("online.late_samples").value - before == \
        n_servers * PER_WINDOW
    assert 2 not in streaming._window_samples
    # The emitted prediction for window 2 is untouched.
    assert streaming.predictions[2] is preds[2]


def test_emitted_windows_are_evicted(predictor):
    """Emitted windows release their buffers — the stream holds only
    windows that can still be predicted, whatever the delivery order."""
    n_windows = 5
    _, _, streaming = run_in_order(predictor, n_windows,
                                   reorder_windows=1)
    assert streaming._emitted_through >= n_windows - 1
    assert not streaming._window_records
    leftover = set(streaming._window_samples)
    assert all(w > streaming._emitted_through for w in leftover)


def test_out_of_order_samples_recovered_by_reorder_buffer(predictor):
    """Samples delivered a window late miss the eager predictor (counted
    as late) but land inside a one-window reorder allowance: the
    buffered predictor sees complete windows, emitted one window later,
    with the in-order predictions."""
    n_windows = 6
    phases = delayed_phases(n_windows, seed=1)
    before_late = REGISTRY.counter("online.late_samples").value
    eager = run_phased(predictor, phases, n_windows, seed=1)[2]
    assert REGISTRY.counter("online.late_samples").value > before_late

    buffered = run_phased(predictor, phases, n_windows, seed=1,
                          reorder_windows=1)[2]
    eager_c = {p.window: p.completeness for p in eager.predictions}
    buffered_c = {p.window: p.completeness for p in buffered.predictions}
    shared = sorted(set(eager_c) & set(buffered_c) & set(range(n_windows)))
    assert shared == list(range(n_windows))
    assert all(buffered_c[w] >= eager_c[w] for w in shared)
    assert sum(buffered_c[w] for w in shared) > \
        sum(eager_c[w] for w in shared)
    assert all(buffered_c[w] == pytest.approx(1.0) for w in shared)
    # The buffer delays emission by exactly reorder_windows windows.
    for pred in buffered.predictions:
        assert pred.emitted_at == pytest.approx(
            (pred.window + 2) * WINDOW, abs=0.05)
    baseline = emitted(run_in_order(predictor, n_windows)[2], n_windows)
    assert emitted(buffered, n_windows) == baseline


def test_stale_fallback_on_gapped_windows(predictor):
    """Windows below min_completeness are flagged stale and repeat the
    last good prediction instead of classifying a half-blind vector."""
    n_windows = 5
    gapped = {1, 3, 4}  # these keep one sample in PER_WINDOW per server
    cluster, monitor, streaming = make_stream(predictor,
                                              min_completeness=0.6)
    for w, _, block in all_blocks(cluster, n_windows):
        monitor.samples.extend(block[:1] if w in gapped else block)
    cluster.env.run(until=n_windows * WINDOW + 0.1)

    preds = streaming.predictions[:n_windows]
    assert [p.stale for p in preds] == [w in gapped for w in range(n_windows)]
    last_good = None
    for p in preds:
        if p.stale:
            assert p.completeness == pytest.approx(1 / PER_WINDOW)
            assert p.probabilities == last_good.probabilities
        else:
            assert p.completeness == pytest.approx(1.0)
            last_good = p


def test_missing_samples_lower_completeness_not_crash(predictor):
    """Total telemetry loss still emits a prediction per window, flagged
    with completeness 0 (the stream degrades, it never NaNs)."""
    n_windows = 4
    cluster, _, streaming = make_stream(predictor)
    cluster.env.run(until=n_windows * WINDOW + 0.1)

    preds = streaming.predictions
    assert [p.window for p in preds] == list(range(n_windows))
    for pred in preds:
        assert pred.completeness == 0.0
        assert not pred.stale
        assert np.isfinite(pred.probabilities).all()


@pytest.mark.parametrize("delivery", ["in-order", "duplicate", "shuffled"])
def test_vectors_equal_offline_assembly(predictor, streamed_vectors,
                                        delivery):
    """Whatever delivery the reorder allowance absorbs, each emitted
    window's vector is bit-identical to its row of the offline assembly
    of the same samples, and its probabilities are the fused forward
    pass's bits for that vector."""
    n_windows = 6
    if delivery == "shuffled":
        cluster, monitor, streaming = run_phased(
            predictor, delayed_phases(n_windows, seed=2), n_windows,
            seed=2, reorder_windows=1)
    else:
        cluster, monitor, streaming = make_stream(predictor)
        for w, _, block in all_blocks(cluster, n_windows):
            monitor.samples.extend(block)
            if delivery == "duplicate" and w == 1:
                monitor.samples.extend(block)
        cluster.env.run(until=n_windows * WINDOW + 0.1)

    run = MonitoredRun(job="job", records=[], server_samples=monitor.samples,
                       servers=cluster.servers, duration=n_windows * WINDOW)
    X, windows = assemble_vectors(run, window_size=WINDOW,
                                  sample_interval=INTERVAL)
    deployed = predictor.deploy()
    preds = streaming.predictions[:n_windows]
    assert [p.window for p in preds] == windows
    for pred in preds:
        vector = streamed_vectors[pred.window]
        assert np.array_equal(vector[0], X[pred.window])
        assert pred.probabilities == tuple(
            deployed.predict_proba_rows(vector)[0].tolist())
