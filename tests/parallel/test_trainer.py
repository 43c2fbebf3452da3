"""Tests for training through the executor.

The load-bearing contract: whatever mix of caching and deduplication is
in play, the predictors ``SweepExecutor.train_predictors`` returns are
bit-identical to the serial restart loop's.
"""

import logging

import numpy as np
import pytest

from repro.core.dataset import Dataset
from repro.core.labeling import BINARY_THRESHOLDS, MULTICLASS_THRESHOLDS
from repro.core.nn.train import TrainConfig
from repro.core.predictor import InterferencePredictor
from repro.parallel import ModelCache, SweepExecutor, TrainJob

CFG = TrainConfig(epochs=5, patience=3, seed=0)


def small_dataset(seed=0, n=90, n_classes=2):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 0.3, size=(n, 3, 5))
    hot = rng.integers(0, 3, size=n)
    intensity = rng.uniform(0, 3 * n_classes, size=n)
    X[np.arange(n), hot, 0] += intensity
    y = np.minimum((intensity // 3).astype(int), n_classes - 1)
    return Dataset(X, y, feature_names=("a", "b", "c", "d", "e"))


def assert_same_predictor(p, q, X):
    __tracebackhide__ = True
    for a, b in zip(p.model.params(), q.model.params()):
        assert np.array_equal(a.value, b.value)
    assert np.array_equal(p.normalizer.mean, q.normalizer.mean)
    assert np.array_equal(p.normalizer.std, q.normalizer.std)
    assert np.array_equal(p.predict_proba(X), q.predict_proba(X))


@pytest.fixture(scope="module")
def dataset():
    return small_dataset()


@pytest.fixture(scope="module")
def serial_reference(dataset):
    return InterferencePredictor.train(dataset, BINARY_THRESHOLDS,
                                       config=CFG, restarts=3)


def test_serial_executor_path_bit_identical(dataset, serial_reference):
    trainer = SweepExecutor()
    predictor = trainer.train_predictor(
        dataset, thresholds=BINARY_THRESHOLDS, config=CFG, restarts=3)
    assert trainer.trainings_executed == 3
    assert_same_predictor(serial_reference, predictor, dataset.X)
    assert predictor.history.val_loss == serial_reference.history.val_loss


def test_batch_deduplicates_equal_jobs(dataset):
    trainer = SweepExecutor()
    job = TrainJob(dataset, thresholds=BINARY_THRESHOLDS, config=CFG,
                   restarts=2)
    out = trainer.train_predictors([job, job, job])
    assert trainer.jobs_deduplicated == 2
    assert trainer.trainings_executed == 2  # one job's restarts only
    assert out[0] is out[1] is out[2]


def test_distinct_recipes_do_not_collide(dataset):
    trainer = SweepExecutor()
    ds3 = small_dataset(seed=5, n=120, n_classes=3)
    out = trainer.train_predictors([
        TrainJob(dataset, thresholds=BINARY_THRESHOLDS, config=CFG,
                 restarts=2),
        TrainJob(ds3, thresholds=MULTICLASS_THRESHOLDS,
                 config=TrainConfig(epochs=5, patience=3, seed=1),
                 seed=1, restarts=2),
    ])
    assert trainer.jobs_deduplicated == 0
    assert out[0].n_classes == 2
    assert out[1].n_classes == 3


def test_cold_then_warm_cache(tmp_path, dataset, serial_reference):
    cache_dir = tmp_path / "models"
    cold = SweepExecutor(models=ModelCache(cache_dir))
    first = cold.train_predictor(dataset, thresholds=BINARY_THRESHOLDS,
                                 config=CFG, restarts=3)
    assert cold.trainings_executed == 3

    warm = SweepExecutor(models=cache_dir)
    assert isinstance(warm.models, ModelCache)
    second = warm.train_predictor(dataset, thresholds=BINARY_THRESHOLDS,
                                  config=CFG, restarts=3)
    assert warm.trainings_executed == 0  # pure recall, zero training
    assert warm.models.hits == 1
    assert warm.training_stats()["cache"]["hits"] == 1
    assert_same_predictor(serial_reference, first, dataset.X)
    assert_same_predictor(first, second, dataset.X)


def test_corrupt_cache_entry_retrains(tmp_path, dataset):
    cache_dir = tmp_path / "models"
    cold = SweepExecutor(models=ModelCache(cache_dir))
    job = TrainJob(dataset, thresholds=BINARY_THRESHOLDS, config=CFG,
                   restarts=2)
    first = cold.train_predictors([job])[0]
    key = cold.train_key_for(job)
    (cold.models.path_for(key) / "model.npz").write_bytes(b"garbage")

    again = SweepExecutor(models=ModelCache(cache_dir))
    second = again.train_predictors([job])[0]
    assert again.models.errors == 1
    assert again.trainings_executed == 2  # retrained after the drop
    assert_same_predictor(first, second, dataset.X)


def test_code_version_changes_key(dataset, monkeypatch):
    """The model key carries the code-version salt, so a release that
    changes behaviour retires every cached model."""
    import repro

    job = TrainJob(dataset, config=CFG)
    before = SweepExecutor().train_key_for(job)
    monkeypatch.setattr(repro, "__version__", repro.__version__ + "+next")
    assert SweepExecutor().train_key_for(job) != before


def test_invalid_inputs_rejected_before_any_work(dataset):
    trainer = SweepExecutor()
    with pytest.raises(ValueError):
        trainer.train_predictor(dataset, thresholds=BINARY_THRESHOLDS,
                                config=CFG, restarts=0)
    ds3 = small_dataset(seed=5, n=120, n_classes=3)
    with pytest.raises(ValueError):
        trainer.train_predictor(ds3, thresholds=BINARY_THRESHOLDS,
                                config=CFG)
    assert trainer.trainings_executed == 0


def test_batch_log_counts_each_call(dataset, caplog):
    """The batch log line counts that call's jobs only: a second batch
    through one executor must not subtract the first batch's dedups."""
    trainer = SweepExecutor()
    job = TrainJob(dataset, thresholds=BINARY_THRESHOLDS, config=CFG,
                   restarts=1)
    with caplog.at_level(logging.INFO, logger="repro.parallel.executor"):
        trainer.train_predictors([job, job])
        trainer.train_predictors([job, job])
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("training batch:")]
    assert lines == ["training batch: 2 jobs -> 1 unique, 0 cache hits, "
                     "1 to train (1 restarts)"] * 2
