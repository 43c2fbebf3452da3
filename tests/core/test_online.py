"""Tests for the streaming (runtime) predictor."""

import numpy as np
import pytest

from repro.core.labeling import BINARY_THRESHOLDS
from repro.core.nn.train import TrainConfig
from repro.core.online import StreamingPredictor, WindowPrediction
from repro.core.predictor import InterferencePredictor
from repro.experiments.datagen import (
    Scenario,
    bank_to_dataset,
    collect_windows,
)
from repro.experiments.runner import (
    ExperimentConfig,
    InterferenceSpec,
    experiment_cluster,
)
from repro.monitor.aggregator import MonitoredRun, assemble_vectors
from repro.monitor.server_monitor import ServerMonitor
from repro.obs.metrics import REGISTRY
from repro.sim.cluster import Cluster
from repro.workloads.base import launch, launch_interference
from repro.workloads.io500 import make_io500_task


@pytest.fixture(scope="module")
def trained_predictor():
    config = ExperimentConfig(window_size=0.5, sample_interval=0.125,
                              warmup=0.5, seed=0)
    targets = [make_io500_task("ior-easy-write", ranks=4, scale=0.3)]
    scenarios = [
        Scenario("quiet"),
        Scenario("noise", (InterferenceSpec("ior-easy-write", instances=3,
                                            ranks=3, scale=0.25),)),
    ]
    bank = collect_windows(targets, scenarios, config)
    return InterferencePredictor.train(
        bank_to_dataset(bank), BINARY_THRESHOLDS,
        config=TrainConfig(seed=0), seed=0,
    )


def run_streaming(predictor, window_size=0.5, sample_interval=0.125,
                  with_noise=True):
    cluster = Cluster(experiment_cluster())
    monitor = ServerMonitor(cluster, sample_interval=sample_interval)
    monitor.start()
    target = make_io500_task("ior-easy-write", ranks=4, scale=0.3)
    streaming = StreamingPredictor(
        predictor=predictor,
        cluster=cluster,
        monitor=monitor,
        job=target.name,
        window_size=window_size,
    )
    streaming.start()
    if with_noise:
        noise = make_io500_task("ior-easy-write", name="noise", ranks=3,
                                scale=0.25)
        launch_interference(cluster, noise, [4, 5, 6], seed=5, record=False)
        cluster.env.run(until=0.5)
    handle = launch(cluster, target, [0, 1, 2, 3], seed=7)
    cluster.env.run(until=handle.done)
    cluster.env.run(until=cluster.env.now + window_size + 0.2)
    return cluster, monitor, streaming, target


def test_predictions_emitted_during_run(trained_predictor):
    cluster, _, streaming, _ = run_streaming(trained_predictor)
    assert len(streaming.predictions) >= 2
    for pred in streaming.predictions:
        assert isinstance(pred, WindowPrediction)
        # Emitted right after the window closed, not at the end of the run.
        assert pred.emitted_at == pytest.approx(
            (pred.window + 1) * 0.5, abs=0.05)
        assert sum(pred.probabilities) == pytest.approx(1.0)


def test_streaming_matches_offline_pipeline(trained_predictor,
                                            streamed_vectors):
    """Every window's vector assembled online equals its row of the
    offline assembly bit for bit, and its probabilities are the fused
    forward pass's bits for that vector.  That holds when the window is
    not a multiple of the sample interval too (0.25 s windows, 0.15 s
    samples): a window's last sample then lands after its boundary, and
    the predictor waits for it instead of dropping it as late."""
    deployed = trained_predictor.deploy()
    for window_size, interval in ((0.5, 0.125), (0.25, 0.125), (0.25, 0.15)):
        streamed_vectors.clear()
        late = REGISTRY.counter("online.late_samples").value
        cluster, monitor, streaming, target = run_streaming(
            trained_predictor, window_size=window_size,
            sample_interval=interval)
        assert REGISTRY.counter("online.late_samples").value == late
        run = MonitoredRun(
            job=target.name,
            records=cluster.collector.records,
            server_samples=monitor.samples,
            servers=cluster.servers,
            duration=cluster.env.now,
        )
        X, windows = assemble_vectors(run, window_size=window_size,
                                      sample_interval=interval)
        preds = streaming.predictions
        assert len(preds) >= 2
        assert sorted(streamed_vectors) == [p.window for p in preds]
        for pred in preds:
            vector = streamed_vectors[pred.window]
            assert np.array_equal(vector[0],
                                  X[windows.index(pred.window)]), \
                f"window {pred.window} at {window_size}/{interval}: " \
                "online != offline"
            assert pred.probabilities == tuple(
                deployed.predict_proba_rows(vector)[0].tolist())
        offline = trained_predictor.predict_run(
            run, window_size=window_size, sample_interval=interval)
        assert all(offline[p.window] == p.severity for p in preds)


def test_callback_invoked(trained_predictor):
    seen = []
    cluster = Cluster(experiment_cluster())
    monitor = ServerMonitor(cluster, sample_interval=0.125)
    monitor.start()
    target = make_io500_task("ior-easy-write", ranks=2, scale=0.1)
    streaming = StreamingPredictor(
        predictor=trained_predictor, cluster=cluster, monitor=monitor,
        job=target.name, window_size=0.25, on_prediction=seen.append,
    )
    streaming.start()
    handle = launch(cluster, target, [0, 1], seed=1)
    cluster.env.run(until=handle.done)
    cluster.env.run(until=cluster.env.now + 0.5)
    assert seen == streaming.predictions


def test_double_start_rejected(trained_predictor):
    cluster = Cluster(experiment_cluster())
    monitor = ServerMonitor(cluster)
    monitor.start()
    streaming = StreamingPredictor(
        predictor=trained_predictor, cluster=cluster, monitor=monitor,
        job="x",
    )
    streaming.start()
    with pytest.raises(RuntimeError):
        streaming.start()


def test_param_validation(trained_predictor):
    cluster = Cluster(experiment_cluster())
    monitor = ServerMonitor(cluster)
    monitor.start()
    streaming = StreamingPredictor(predictor=trained_predictor,
                                   cluster=cluster, monitor=monitor, job="x",
                                   window_size=0.0)
    with pytest.raises(ValueError, match="window_size"):
        streaming.start()
