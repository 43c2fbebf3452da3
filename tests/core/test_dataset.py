"""Tests for dataset handling and normalisation."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import Dataset, Normalizer, train_test_split


def make_dataset(n=100, servers=3, feats=5, n_classes=2, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        rng.normal(size=(n, servers, feats)),
        rng.integers(0, n_classes, size=n),
        feature_names=tuple(f"f{i}" for i in range(feats)),
        source="unit",
    )


class TestDataset:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((4, 5)), np.zeros(4), feature_names=("a",) * 5)
        with pytest.raises(ValueError):
            Dataset(np.zeros((4, 2, 3)), np.zeros(5), feature_names=("a",) * 3)
        with pytest.raises(ValueError):
            Dataset(np.zeros((4, 2, 3)), np.zeros(4), feature_names=("a",) * 2)

    def test_negative_labels_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1, 1)), np.array([0, -1]),
                    feature_names=("a",))

    def test_class_counts(self):
        ds = Dataset(np.zeros((4, 1, 1)), np.array([0, 1, 1, 1]),
                     feature_names=("a",))
        assert ds.class_counts().tolist() == [1, 3]

    def test_concatenate(self):
        a, b = make_dataset(10), make_dataset(20, seed=1)
        c = Dataset.concatenate([a, b])
        assert len(c) == 30

    def test_concatenate_source_keeps_append_order(self):
        parts = [make_dataset(5), make_dataset(5, seed=1),
                 make_dataset(5, seed=2)]
        parts[0].source = "zeta"
        parts[1].source = "alpha"
        parts[2].source = "zeta"
        c = Dataset.concatenate(parts)
        # Append order with duplicates kept — never sorted/deduplicated,
        # so the tag order stays aligned with the row order.
        assert c.source == "zeta+alpha+zeta"

    def test_concatenate_source_skips_empty_tags(self):
        parts = [make_dataset(5), make_dataset(5, seed=1)]
        parts[0].source = ""
        parts[1].source = "only"
        assert Dataset.concatenate(parts).source == "only"

    def test_concatenate_shape_mismatch(self):
        with pytest.raises(ValueError):
            Dataset.concatenate([make_dataset(5, servers=2), make_dataset(5, servers=3)])
        with pytest.raises(ValueError):
            Dataset.concatenate([])


class TestSplit:
    def test_sizes(self):
        train, test = train_test_split(make_dataset(100), test_fraction=0.2)
        assert len(test) == 20
        assert len(train) == 80

    def test_disjoint_and_complete(self):
        ds = make_dataset(50)
        ds.X[:, 0, 0] = np.arange(50)  # make rows identifiable
        train, test = train_test_split(ds, test_fraction=0.2, seed=3)
        ids = sorted(train.X[:, 0, 0].tolist() + test.X[:, 0, 0].tolist())
        assert ids == list(range(50))

    def test_deterministic_per_seed(self):
        ds = make_dataset(50)
        _, t1 = train_test_split(ds, seed=7)
        _, t2 = train_test_split(ds, seed=7)
        assert np.array_equal(t1.X, t2.X)
        _, t3 = train_test_split(ds, seed=8)
        assert not np.array_equal(t1.X, t3.X)

    def test_validation(self):
        with pytest.raises(ValueError):
            train_test_split(make_dataset(10), test_fraction=0.0)
        with pytest.raises(ValueError):
            train_test_split(make_dataset(1))


class TestNormalizer:
    def test_zero_mean_unit_std(self):
        X = np.random.default_rng(0).normal(5.0, 3.0, size=(200, 4, 6))
        Z = Normalizer().fit(X).transform(X)
        flat = Z.reshape(-1, 6)
        assert np.allclose(flat.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(flat.std(axis=0), 1.0, atol=1e-9)

    def test_constant_features_safe(self):
        X = np.ones((10, 2, 3))
        Z = Normalizer().fit(X).transform(X)
        assert np.isfinite(Z).all()
        assert np.allclose(Z, 0.0)

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            Normalizer().transform(np.zeros((1, 1, 1)))

    def test_train_statistics_applied_to_test(self):
        rng = np.random.default_rng(0)
        train = rng.normal(10.0, 2.0, size=(100, 1, 1))
        norm = Normalizer().fit(train)
        test = np.array([[[10.0]]])
        assert norm.transform(test)[0, 0, 0] == pytest.approx(
            (10.0 - train.mean()) / train.std(), abs=0.05
        )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_transform_matches_plain_expression(self, dtype):
        rng = np.random.default_rng(2)
        norm = Normalizer().fit(rng.normal(3.0, 2.0, size=(50, 7, 5)))
        X = rng.normal(3.0, 2.0, size=(20, 7, 5)).astype(dtype)
        want = (X - norm.mean) / norm.std
        got = norm.transform(X)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=4))
    def test_round_trip_property(self, n, feats):
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 2, feats)) * 10 + 3
        norm = Normalizer().fit(X)
        Z = norm.transform(X)
        back = Z * norm.std + norm.mean
        assert np.allclose(back, X)

    def test_fit_bits_pinned(self):
        """More rows than one 65,536-row block: the statistics' bytes are
        pinned, so a change to how ``fit`` reduces (order, blocking,
        precision) shows here before it moves a model-cache key or a
        saved model."""
        rng = np.random.default_rng(21)
        X = rng.normal(3.0, 2.0, size=(10_000, 7, 10))
        X *= np.logspace(-3, 6, 10)  # bytes-to-seconds feature scales
        X[:, :, 4] = 2.5  # a constant feature takes the std guard
        norm = Normalizer().fit(X)

        def digest(a):
            return hashlib.blake2b(a.tobytes(), digest_size=16).hexdigest()

        assert norm.std[4] == 1.0
        assert digest(norm.mean) == "be5945aa970996d4cdc284ce98d6ddd9"
        assert digest(norm.std) == "645b1aa0c987bd1c27102acdcabae9e3"


class TestContentDigest:
    """Pinned digests: any change here invalidates every cached model."""

    NAMES = ("a", "b", "c", "d")

    def _dataset(self, X):
        return Dataset(X, np.array([0, 1]), feature_names=self.NAMES)

    def test_pinned_value(self):
        X = np.arange(24, dtype=np.float64).reshape(2, 3, 4) / 7.0
        assert (self._dataset(X).content_digest()
                == "6d9776977ad27315e8d53d72a3f52677674ef86c")

    def test_order_independent(self):
        X = np.arange(24, dtype=np.float64).reshape(2, 3, 4) / 7.0
        assert (self._dataset(np.asfortranarray(X)).content_digest()
                == "6d9776977ad27315e8d53d72a3f52677674ef86c")

    def test_input_dtype_normalised(self):
        # Integer-valued data survives a float32 round trip exactly, so
        # the post-init cast to float64 yields the same digest.
        X = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        expected = "0c3c8d69dc879f070067b2a1b6c31a25a0fa55ed"
        assert self._dataset(X).content_digest() == expected
        assert (self._dataset(X.astype(np.float32)).content_digest()
                == expected)

    def test_empty_pinned_value(self):
        ds = Dataset(np.empty((0, 3, 4)), np.empty((0,), dtype=int),
                     feature_names=self.NAMES)
        assert (ds.content_digest()
                == "fc9e53b035d9105d8700ee630613c4131cd16d23")

    def test_single_cell_changes_digest(self):
        X = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        d1 = self._dataset(X).content_digest()
        X2 = X.copy()
        X2[1, 2, 3] += 1e-9
        assert self._dataset(X2).content_digest() != d1
