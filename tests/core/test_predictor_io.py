"""Model persistence and the deployed (fused) inference fast path."""

import json

import numpy as np
import pytest

from repro.core.dataset import Dataset
from repro.core.labeling import BINARY_THRESHOLDS, MULTICLASS_THRESHOLDS
from repro.core.nn.train import TrainConfig
from repro.core.predictor import InterferencePredictor


def synthetic_dataset(n=120, servers=4, feats=6, n_classes=2, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 0.3, size=(n, servers, feats))
    hot = rng.integers(0, servers, size=n)
    intensity = rng.uniform(0, 3 * n_classes, size=n)
    X[np.arange(n), hot, 0] += intensity
    y = np.minimum((intensity // 3).astype(int), n_classes - 1)
    return Dataset(X, y, feature_names=tuple(f"f{i}" for i in range(feats)))


@pytest.fixture(scope="module")
def trained():
    ds = synthetic_dataset()
    predictor = InterferencePredictor.train(
        ds, BINARY_THRESHOLDS, config=TrainConfig(epochs=8, seed=0),
        restarts=1)
    return predictor, ds


def test_save_load_round_trip_exact(tmp_path, trained):
    predictor, ds = trained
    path = tmp_path / "sub" / "model.npz"
    predictor.save(path)  # parent directory is created
    back = InterferencePredictor.load(path)
    assert back.n_classes == predictor.n_classes
    assert back.thresholds == predictor.thresholds
    for a, b in zip(predictor.model.params(), back.model.params()):
        assert np.array_equal(a.value, b.value)
    assert np.array_equal(predictor.normalizer.mean, back.normalizer.mean)
    assert np.array_equal(predictor.normalizer.std, back.normalizer.std)
    # Predictions are bit-identical, not merely close.
    assert np.array_equal(predictor.predict_proba(ds.X),
                          back.predict_proba(ds.X))
    assert back.history.val_loss == predictor.history.val_loss


@pytest.fixture(scope="module")
def trained_multiclass():
    ds = synthetic_dataset(n=150, n_classes=3, seed=3)
    predictor = InterferencePredictor.train(
        ds, MULTICLASS_THRESHOLDS, config=TrainConfig(epochs=6, seed=3),
        restarts=1)
    return predictor, ds


def test_load_rejects_non_float64_parameters(tmp_path, trained_multiclass):
    """A 3-class model round-trips exactly; the same archive with float32
    parameters, as float32 training used to write it, is refused with an
    error naming the dtype."""
    predictor, ds = trained_multiclass
    path = tmp_path / "model.npz"
    predictor.save(path)
    back = InterferencePredictor.load(path)
    assert back.n_classes == 3
    assert np.array_equal(predictor.predict_proba(ds.X),
                          back.predict_proba(ds.X))

    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(str(arrays["meta"][()]))
    meta["dtype"] = "float32"
    arrays["meta"] = np.array(json.dumps(meta))
    for key in arrays:
        if key.startswith("param_"):
            arrays[key] = arrays[key].astype(np.float32)
    float32 = tmp_path / "float32.npz"
    np.savez_compressed(float32, **arrays)
    with pytest.raises(ValueError, match="float32"):
        InterferencePredictor.load(float32)


def test_load_is_pickle_free(tmp_path, trained):
    predictor, _ = trained
    path = tmp_path / "model.npz"
    predictor.save(path)
    # Must load with allow_pickle left at its safe default.
    data = np.load(path, allow_pickle=False)
    assert "meta" in data.files


@pytest.mark.filterwarnings("error::ResourceWarning",
                            "error::pytest.PytestUnraisableExceptionWarning")
def test_load_rejects_foreign_and_corrupt_files(tmp_path, trained):
    """Rejected files raise cleanly and leave no open handle behind."""
    predictor, _ = trained
    with pytest.raises((OSError, ValueError)):
        InterferencePredictor.load(tmp_path / "missing.npz")

    alien = tmp_path / "alien.npz"
    np.savez(alien, stuff=np.zeros(3))
    with pytest.raises((KeyError, ValueError)):
        InterferencePredictor.load(alien)

    garbled = tmp_path / "garbled.npz"
    predictor.save(garbled)
    garbled.write_bytes(garbled.read_bytes()[:64])
    with pytest.raises((OSError, ValueError, KeyError)):
        InterferencePredictor.load(garbled)


def test_deployed_matches_unfused(trained):
    predictor, ds = trained
    deployed = predictor.deploy()
    probs = predictor.predict_proba(ds.X)
    fused = deployed.predict_proba_rows(ds.X)
    # Folding the normalizer reassociates the first matmul, so the
    # contract is numerical equivalence, not bit identity.
    assert np.allclose(probs, fused, rtol=1e-9, atol=1e-12)
    assert np.array_equal(predictor.predict(ds.X), deployed.predict(ds.X))


def test_deployed_after_round_trip(tmp_path, trained):
    predictor, ds = trained
    path = tmp_path / "model.npz"
    predictor.save(path)
    deployed = InterferencePredictor.load(path).deploy()
    assert np.array_equal(predictor.predict(ds.X), deployed.predict(ds.X))


def test_predict_proba_rows_matches_batch_of_one(trained,
                                                 trained_multiclass):
    """Every row of a fused micro-batch must be bit-identical to scoring
    that window alone — batch composition cannot perturb anyone — and
    every returned array is fresh, whatever batch sizes came before.
    Holds for the binary model and a 3-class one."""
    for predictor, ds in (trained, trained_multiclass):
        deployed = predictor.deploy()
        for n in (1, 2, 3, 7, 64, len(ds.X)):
            rows = deployed.predict_proba_rows(ds.X[:n])
            assert rows.shape == (n, deployed.n_classes)
            assert rows.dtype == np.float64
            kept = rows.copy()
            for i in range(n):
                solo = deployed.predict_proba_rows(ds.X[i:i + 1])[0]
                assert np.array_equal(rows[i], solo), \
                    f"{deployed.n_classes}-class row {i} of batch {n}"
            assert np.array_equal(rows, kept)  # later calls left it alone


def test_predict_proba_rows_validates_shape(trained):
    predictor, _ = trained
    deployed = predictor.deploy()
    with pytest.raises(ValueError, match="expected"):
        deployed.predict_proba_rows(np.zeros((2, deployed.n_servers + 1,
                                              deployed.n_features)))
    with pytest.raises(ValueError, match="expected"):
        deployed.predict_proba_rows(np.zeros((deployed.n_servers,
                                              deployed.n_features)))
    empty = np.asarray(deployed.predict_proba_rows(
        np.zeros((0, deployed.n_servers, deployed.n_features))))
    assert empty.shape == (0, deployed.n_classes)
