"""Shared fixtures for the prediction-service tests.

The scorer is a real trained-and-deployed predictor (synthetic data,
tiny budget): every bit-identity assertion in this package compares the
service against the exact model a standalone client would run.
"""

import numpy as np
import pytest

from repro.core.dataset import Dataset
from repro.core.labeling import BINARY_THRESHOLDS
from repro.core.nn.train import TrainConfig
from repro.core.predictor import InterferencePredictor
from repro.serve import service


def _synthetic_dataset(n=120, servers=4, feats=6, n_classes=2, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 0.3, size=(n, servers, feats))
    hot = rng.integers(0, servers, size=n)
    intensity = rng.uniform(0, 3 * n_classes, size=n)
    X[np.arange(n), hot, 0] += intensity
    y = np.minimum((intensity // 3).astype(int), n_classes - 1)
    return Dataset(X, y, feature_names=tuple(f"f{i}" for i in range(feats)))


@pytest.fixture
def envelope(monkeypatch):
    """Set :mod:`repro.serve.service`'s envelope constants (``MAX_BATCH``,
    ``DEADLINE``, ...) for one test: ``envelope(MAX_BATCH=1)``."""
    def set_constants(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(service, name, value)
    return set_constants


@pytest.fixture(scope="session")
def scorer():
    predictor = InterferencePredictor.train(
        _synthetic_dataset(), BINARY_THRESHOLDS,
        config=TrainConfig(epochs=8, seed=0), restarts=1)
    return predictor.deploy()
