"""Tests for the end-to-end predictor on synthetic datasets."""

import multiprocessing
import os
import re
import signal

import numpy as np
import pytest

from repro.core import predictor as predictor_mod
from repro.core.dataset import Dataset, train_test_split
from repro.core.labeling import BINARY_THRESHOLDS, MULTICLASS_THRESHOLDS
from repro.core.nn.train import TrainConfig, restart_seed
from repro.core.predictor import InterferencePredictor
from repro.obs.metrics import REGISTRY
from repro.parallel import supervise


def synthetic_dataset(n=300, servers=4, feats=8, n_classes=2, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 0.3, size=(n, servers, feats))
    hot = rng.integers(0, servers, size=n)
    intensity = rng.uniform(0, 3 * n_classes, size=n)
    X[np.arange(n), hot, 0] += intensity
    y = np.minimum((intensity // 3).astype(int), n_classes - 1)
    return Dataset(X, y, feature_names=tuple(f"f{i}" for i in range(feats)))


def usable_cpus(monkeypatch, cores):
    """Give the process an affinity mask of ``cores`` CPUs, which the
    shared placement probe (``supervise.usable_cores``) reads."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cores)), raising=False)


def test_train_and_evaluate_binary():
    ds = synthetic_dataset()
    train, test = train_test_split(ds, 0.2, seed=0)
    predictor = InterferencePredictor.train(
        train, BINARY_THRESHOLDS, config=TrainConfig(epochs=30, seed=0))
    report = predictor.evaluate(test)
    assert report.accuracy > 0.8
    assert predictor.n_classes == 2


def test_train_multiclass():
    ds = synthetic_dataset(n=400, n_classes=3, seed=1)
    train, test = train_test_split(ds, 0.2, seed=1)
    predictor = InterferencePredictor.train(
        train, MULTICLASS_THRESHOLDS, config=TrainConfig(epochs=40, seed=1))
    report = predictor.evaluate(test)
    assert report.confusion.shape == (3, 3)
    assert report.accuracy > 0.6


def test_class_count_mismatch_rejected():
    ds = synthetic_dataset(n_classes=3)
    with pytest.raises(ValueError):
        InterferencePredictor.train(ds, BINARY_THRESHOLDS,
                                    config=TrainConfig(epochs=1))


def test_predict_shapes_and_probabilities():
    ds = synthetic_dataset(n=100)
    predictor = InterferencePredictor.train(
        ds, BINARY_THRESHOLDS, config=TrainConfig(epochs=5, seed=0))
    preds = predictor.predict(ds.X)
    probs = predictor.predict_proba(ds.X)
    assert preds.shape == (100,)
    assert probs.shape == (100, 2)
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert set(np.unique(preds)) <= {0, 1}


def test_training_history_recorded():
    ds = synthetic_dataset(n=100)
    predictor = InterferencePredictor.train(
        ds, BINARY_THRESHOLDS, config=TrainConfig(epochs=8, seed=0))
    assert predictor.history is not None
    assert len(predictor.history.train_loss) >= 1


def test_training_is_bit_identical_without_the_blas_scope(monkeypatch):
    """One BLAS thread changes no float: OpenBLAS never splits a GEMM
    over K. Shapes match the kernel net's default, so the backward
    GEMMs are large enough to be split when more threads are allowed."""
    import contextlib

    from repro.core.nn import train as train_mod

    ds = synthetic_dataset(n=400, servers=7, feats=40, seed=4)
    config = TrainConfig(epochs=3, seed=0)

    def fit():
        predictor = InterferencePredictor.train(ds, BINARY_THRESHOLDS,
                                                config=config, restarts=2)
        return ([p.value.tobytes() for p in predictor.model.params()],
                predictor.history)

    # ``train`` pins BLAS around the restarts' batch as well as the loop
    # inside it: lift both, and train in-process, so nothing pins it.
    usable_cpus(monkeypatch, 1)
    pinned = fit()
    for module in (train_mod, predictor_mod):
        monkeypatch.setattr(module, "single_blas_thread",
                            contextlib.nullcontext)
    assert fit() == pinned


# -- restarts side by side ----------------------------------------------------

#: Early stopping on, so the three restarts stop after different epochs.
FANOUT_CONFIG = TrainConfig(epochs=40, patience=3, seed=0)


@pytest.fixture(scope="module")
def fanout_set():
    return synthetic_dataset(n=300, servers=7, feats=40, seed=5)


@pytest.fixture
def bounded():
    """A SIGALRM bounds the test, so a hung child fails it instead of
    stalling the suite."""
    def expire(signum, frame):
        raise TimeoutError("training still running after 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def train_on(monkeypatch, train_set, cores, restarts=3):
    """Train with the placement probe reading ``cores`` CPUs; returns the
    predictor and the parent's ``train.*`` metrics: the epoch count and
    epoch-timer count it gained, and the final validation-loss and
    gradient gauges."""
    usable_cpus(monkeypatch, cores)
    epochs = REGISTRY.counter("train.epochs").value
    timed = REGISTRY.histogram("train.epoch_seconds").count
    predictor = InterferencePredictor.train(train_set, config=FANOUT_CONFIG,
                                            restarts=restarts)
    return predictor, (REGISTRY.counter("train.epochs").value - epochs,
                       REGISTRY.histogram("train.epoch_seconds").count - timed,
                       REGISTRY.gauge("train.val_loss").value,
                       REGISTRY.gauge("train.grad_norm").value)


def forbid_children(monkeypatch):
    def spawn(*args, **kwargs):
        raise AssertionError("training started child processes")

    monkeypatch.setattr(supervise._Slot, "spawn", spawn)


@pytest.mark.usefixtures("bounded")
def test_side_by_side_restarts_match_the_serial_loop(monkeypatch, tmp_path,
                                                     fanout_set):
    """One child per restart saves the in-process loop's bytes, and the
    parent's ``train.*`` metrics read as if it had trained them itself."""
    lengths = []
    train_restart = predictor_mod._train_restart

    def spy(*args):
        values, history = train_restart(*args)
        lengths.append(len(history.val_loss))
        return values, history

    monkeypatch.setattr(predictor_mod, "_train_restart", spy)
    serial, serial_metrics = train_on(monkeypatch, fanout_set, cores=1)
    assert len(set(lengths)) > 1  # the restarts stopped at different epochs
    assert serial_metrics[:2] == (sum(lengths), sum(lengths))
    sweep_series = {n for n in REGISTRY.names() if n.startswith("parallel.")}
    side, side_metrics = train_on(monkeypatch, fanout_set, cores=2)
    assert len(lengths) == 3  # the spy ran in the children this time
    assert multiprocessing.active_children() == []
    # The pool's slot and busy series stay the sweep's.
    assert {n for n in REGISTRY.names()
            if n.startswith("parallel.")} == sweep_series
    assert side_metrics == serial_metrics
    assert side.history == serial.history
    serial.save(tmp_path / "serial.npz")
    side.save(tmp_path / "side.npz")
    assert ((tmp_path / "serial.npz").read_bytes()
            == (tmp_path / "side.npz").read_bytes())


@pytest.mark.usefixtures("bounded")
@pytest.mark.parametrize("failure", ["raise", "exit"])
def test_a_failing_restart_fails_the_training(monkeypatch, fanout_set,
                                              failure):
    """A restart that raises in its child, or whose child dies, makes
    ``train`` raise in the caller, naming that restart; no child is
    left behind."""
    parent = os.getpid()
    net = predictor_mod.KernelInterferenceNet

    def failing_net(*, seed, **arch):
        if os.getpid() != parent and seed == restart_seed(0, 1):
            if failure == "exit":
                os._exit(3)
            raise RuntimeError("restart blew up")
        return net(seed=seed, **arch)

    monkeypatch.setattr(predictor_mod, "KernelInterferenceNet", failing_net)
    message = ("RuntimeError: restart blew up" if failure == "raise"
               else "worker died silently (exitcode 3)")
    expected = re.escape(f"training restart 1 failed: {message}")
    with pytest.raises(RuntimeError, match=f"^{expected}$"):
        train_on(monkeypatch, fanout_set, cores=2)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("restarts,cores,daemon", [(1, 2, False),
                                                   (3, 1, False),
                                                   (3, 2, True)],
                         ids=["one-restart", "one-core", "daemonic-caller"])
def test_restarts_stay_in_process(monkeypatch, fanout_set, restarts, cores,
                                  daemon):
    """One restart, one usable core, or a daemonic caller (which may not
    start children) trains in the calling process."""
    forbid_children(monkeypatch)
    monkeypatch.setattr(multiprocessing.current_process(), "daemon", daemon)
    predictor, _ = train_on(monkeypatch, fanout_set, cores=cores,
                            restarts=restarts)
    assert predictor.history is not None


def test_bad_inputs_raise_before_any_child(monkeypatch, fanout_set):
    forbid_children(monkeypatch)
    usable_cpus(monkeypatch, 2)
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        InterferencePredictor.train(fanout_set, restarts=0)
    with pytest.raises(ValueError, match="classes but thresholds"):
        InterferencePredictor.train(synthetic_dataset(n_classes=3),
                                    BINARY_THRESHOLDS, restarts=3)
