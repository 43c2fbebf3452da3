"""Tests for the end-to-end predictor on synthetic datasets."""

import numpy as np
import pytest

from repro.core.dataset import Dataset, train_test_split
from repro.core.labeling import BINARY_THRESHOLDS, MULTICLASS_THRESHOLDS
from repro.core.nn.train import TrainConfig
from repro.core.predictor import InterferencePredictor


def synthetic_dataset(n=300, servers=4, feats=8, n_classes=2, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 0.3, size=(n, servers, feats))
    hot = rng.integers(0, servers, size=n)
    intensity = rng.uniform(0, 3 * n_classes, size=n)
    X[np.arange(n), hot, 0] += intensity
    y = np.minimum((intensity // 3).astype(int), n_classes - 1)
    return Dataset(X, y, feature_names=tuple(f"f{i}" for i in range(feats)))


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

    pinned = fit()
    monkeypatch.setattr(train_mod, "single_blas_thread",
                        contextlib.nullcontext)
    assert fit() == pinned
