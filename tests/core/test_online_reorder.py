"""StreamingPredictor on hand-delivered streams: samples shuffled
within their window, a window delivered twice, gapped and lost
telemetry, samples that arrive after their window was emitted (the late
guard), buffer eviction, and the online vectors against offline
assembly.

The harness bypasses the simulated monitor loop entirely: samples are
appended straight to ``monitor.samples`` at chosen simulated times while
the engine clock is stepped by hand, so delivery order is the *only*
variable between two runs.
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


def make_stream(predictor):
    cluster = Cluster(experiment_cluster())
    monitor = ServerMonitor(cluster, sample_interval=INTERVAL)
    streaming = StreamingPredictor(
        predictor=predictor, cluster=cluster, monitor=monitor, job="job",
        window_size=WINDOW)
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


def late_samples():
    return REGISTRY.counter("online.late_samples").value


def run_in_order(predictor, n_windows):
    cluster, monitor, streaming = make_stream(predictor)
    for _, _, block in all_blocks(cluster, n_windows):
        monitor.samples.extend(block)
    cluster.env.run(until=n_windows * WINDOW + 0.1)
    return cluster, monitor, streaming


def run_shuffled(predictor, n_windows, seed):
    """Deliver each window's blocks during that window, in shuffled
    order: they land just after the clock passes ``w * WINDOW``, after
    the windows due by then were emitted and before window ``w``
    closes."""
    cluster, monitor, streaming = make_stream(predictor)
    rng = np.random.default_rng(seed)
    for w in range(n_windows):
        arrivals = [window_block(cluster, w, si)
                    for si in range(len(cluster.servers))]
        for i in rng.permutation(len(arrivals)):
            monitor.samples.extend(arrivals[i])
        cluster.env.run(until=(w + 1) * WINDOW + 1e-6)
    cluster.env.run(until=n_windows * WINDOW + 0.1)
    return cluster, monitor, streaming


def emitted(streaming, n_windows):
    preds = streaming.predictions[:n_windows]
    return [(p.window, p.severity, p.probabilities) for p in preds]


def test_harness_baseline_is_complete(predictor):
    """In-order delivery reaches every window before it closes: nothing
    is late, and each window is emitted just after its boundary."""
    before = late_samples()
    _, _, streaming = run_in_order(predictor, 4)
    assert late_samples() == before
    assert [p.window for p in streaming.predictions[:4]] == [0, 1, 2, 3]
    for p in streaming.predictions[:4]:
        assert p.emitted_at == pytest.approx((p.window + 1) * WINDOW)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_shuffled_delivery_matches_in_order(predictor, seed):
    """Blocks that arrive in any order before their window closes give
    bit-identical predictions to in-order delivery."""
    n_windows = 6
    baseline = emitted(run_in_order(predictor, n_windows)[2], n_windows)
    streaming = run_shuffled(predictor, n_windows, seed)[2]
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


def test_samples_after_emission_are_counted_and_dropped(predictor):
    """Once a window was emitted (here: from a vector without server
    features), straggler samples for it are dropped and counted, never
    buffered."""
    n_windows = 4
    cluster, monitor, streaming = make_stream(predictor)
    for w, si, block in all_blocks(cluster, n_windows):
        if w != 2:  # window 2's telemetry is withheld entirely
            monitor.samples.extend(block)
    cluster.env.run(until=n_windows * WINDOW + 0.1)
    preds = streaming.predictions[:n_windows]
    assert [p.window for p in preds] == list(range(n_windows))

    # The stragglers arrive long after window 2 was answered.
    before = late_samples()
    n_servers = len(cluster.servers)
    for si in range(n_servers):
        monitor.samples.extend(window_block(cluster, 2, si))
    cluster.env.run(until=(n_windows + 1) * WINDOW + 0.1)
    assert late_samples() - before == n_servers * PER_WINDOW
    assert 2 not in streaming._window_samples
    # The emitted prediction for window 2 is untouched.
    assert streaming.predictions[2] is preds[2]


def test_emitted_windows_are_evicted(predictor):
    """Emitted windows release their buffers — the stream holds only
    windows that can still be predicted."""
    n_windows = 5
    _, _, streaming = run_in_order(predictor, n_windows)
    assert streaming._emitted_through >= n_windows - 1
    assert not streaming._window_records
    leftover = set(streaming._window_samples)
    assert all(w > streaming._emitted_through for w in leftover)


def test_missing_samples_do_not_crash(predictor):
    """Total telemetry loss still emits a finite prediction per window
    (the vector's server features are zero, never NaN)."""
    n_windows = 4
    cluster, _, streaming = make_stream(predictor)
    cluster.env.run(until=n_windows * WINDOW + 0.1)

    preds = streaming.predictions
    assert [p.window for p in preds] == list(range(n_windows))
    for pred in preds:
        assert np.isfinite(pred.probabilities).all()


@pytest.mark.parametrize("delivery", ["in-order", "duplicate", "shuffled",
                                      "gapped"])
def test_vectors_equal_offline_assembly(predictor, streamed_vectors,
                                        delivery):
    """Whatever arrives before a window closes, in whatever order, each
    emitted window's vector is bit-identical to its row of the offline
    assembly of the same samples, and its probabilities are the fused
    forward pass's bits for that vector.  A gapped window (one sample in
    PER_WINDOW per server, as a dropped-sample fault leaves it) is
    scored as it arrived, as offline assembly scores it."""
    n_windows = 6
    if delivery == "shuffled":
        cluster, monitor, streaming = run_shuffled(predictor, n_windows,
                                                   seed=2)
    else:
        cluster, monitor, streaming = make_stream(predictor)
        for w, _, block in all_blocks(cluster, n_windows):
            if delivery == "gapped" and w in (1, 3, 4):
                block = block[:1]
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
