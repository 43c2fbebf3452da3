"""Tests for dataset handling and normalisation."""

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
        Z = Normalizer().fit_transform(X)
        flat = Z.reshape(-1, 6)
        assert np.allclose(flat.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(flat.std(axis=0), 1.0, atol=1e-9)

    def test_constant_features_safe(self):
        X = np.ones((10, 2, 3))
        Z = Normalizer().fit_transform(X)
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


class TestStreamingNormalizer:
    """fit_chunks must equal whole-array fit to the last bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("chunk_rows", [1, 7, 64])
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=333),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_bitwise_equal_to_fit(self, dtype, chunk_rows, n, seed):
        rng = np.random.default_rng(seed)
        X = (rng.normal(size=(n, 5)) * rng.uniform(0.01, 1e4)).astype(dtype)
        whole = Normalizer()
        whole.mean = X.mean(axis=0)
        std = X.std(axis=0)
        std[std < 1e-12] = 1.0
        whole.std = std
        chunked = Normalizer().fit_chunks(
            lambda: (X[i:i + chunk_rows] for i in range(0, n, chunk_rows)))
        assert np.array_equal(whole.mean, chunked.mean)
        assert np.array_equal(whole.std, chunked.std)

    @pytest.mark.parametrize("chunk_rows", [1, 7, 64])
    def test_3d_window_chunks(self, chunk_rows):
        X = np.random.default_rng(3).normal(size=(100, 4, 6))
        whole = Normalizer().fit(X)
        chunked = Normalizer().fit_chunks(
            lambda: (X[i:i + chunk_rows] for i in range(0, len(X),
                                                        chunk_rows)))
        assert np.array_equal(whole.mean, chunked.mean)
        assert np.array_equal(whole.std, chunked.std)

    def test_accepts_sequence(self):
        X = np.random.default_rng(1).normal(size=(20, 3))
        seq = [X[:9], X[9:]]
        chunked = Normalizer().fit_chunks(seq)
        whole = Normalizer().fit(X)
        assert np.array_equal(whole.mean, chunked.mean)
        assert np.array_equal(whole.std, chunked.std)

    def test_empty_chunks_between_data_ignored(self):
        X = np.random.default_rng(2).normal(size=(10, 3))
        chunked = Normalizer().fit_chunks([X[:0], X[:4], X[4:4], X[4:]])
        whole = Normalizer().fit(X)
        assert np.array_equal(whole.mean, chunked.mean)

    def test_empty_stream_raises(self):
        with pytest.raises(ValueError, match="empty stream"):
            Normalizer().fit_chunks([np.empty((0, 3))])

    def test_non_reiterable_rejected(self):
        with pytest.raises(TypeError, match="re-iterable"):
            Normalizer().fit_chunks(iter([np.ones((2, 3))]))

    def test_changing_stream_rejected(self):
        grow = [np.ones((2, 3))]

        def chunks():
            yield from grow
            grow.append(np.ones((1, 3)))  # mutate between passes

        with pytest.raises(ValueError, match="changed between passes"):
            Normalizer().fit_chunks(chunks)

    def test_memmap_fit_never_densifies(self, tmp_path):
        X = np.random.default_rng(4).normal(size=(500, 2, 3))
        path = tmp_path / "X.npy"
        np.save(path, X)
        mapped = np.lib.format.open_memmap(path, mode="r")
        whole = Normalizer().fit(X)
        streamed = Normalizer().fit(mapped)
        assert np.array_equal(whole.mean, streamed.mean)
        assert np.array_equal(whole.std, streamed.std)


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

    def test_memmap_digest_equals_in_memory(self, tmp_path):
        X = np.random.default_rng(0).normal(size=(50, 3, 4))
        y = np.zeros(50, dtype=int)
        np.save(tmp_path / "X.npy", X)
        mapped = np.lib.format.open_memmap(tmp_path / "X.npy", mode="r")
        a = Dataset(X, y, feature_names=self.NAMES)
        b = Dataset(mapped, y, feature_names=self.NAMES)
        assert a.content_digest() == b.content_digest()

    def test_single_cell_changes_digest(self):
        X = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        d1 = self._dataset(X).content_digest()
        X2 = X.copy()
        X2[1, 2, 3] += 1e-9
        assert self._dataset(X2).content_digest() != d1
