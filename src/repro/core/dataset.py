"""Dataset container, splitting and normalisation.

A :class:`Dataset` holds the per-server vectors of many windows
(``X: (n, servers, features)``) with their severity labels. The paper
randomly reserves 20% of windows for testing (§III-D);
:func:`train_test_split` reproduces that. :class:`Normalizer` z-scores
each feature using training statistics only, a requirement for the NN to
train on metrics whose scales span bytes to seconds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.common.rng import derive_rng
from repro.monitor.schema import VECTOR_FEATURES

__all__ = ["Dataset", "Normalizer", "split_indices", "train_test_split"]


@dataclass
class Dataset:
    """Labelled windows: per-server vectors plus severity classes."""

    X: np.ndarray  # (n_windows, n_servers, n_features)
    y: np.ndarray  # (n_windows,), int severity classes
    feature_names: tuple[str, ...] = VECTOR_FEATURES
    source: str = ""

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=int)
        if self.X.ndim != 3:
            raise ValueError(f"X must be (windows, servers, features), got {self.X.shape}")
        if len(self.X) != len(self.y):
            raise ValueError(f"X has {len(self.X)} rows but y has {len(self.y)}")
        if self.X.shape[2] != len(self.feature_names):
            raise ValueError(
                f"X has {self.X.shape[2]} features but "
                f"{len(self.feature_names)} names"
            )
        if self.X.size and not np.isfinite(self.X).all():
            raise ValueError(
                "dataset contains non-finite feature values; gaps must be "
                "masked/imputed upstream (see assemble_vectors gap_policy)"
            )
        if len(self.y) and self.y.min() < 0:
            raise ValueError("labels must be non-negative class indices")

    def __len__(self) -> int:
        return len(self.y)

    @property
    def n_servers(self) -> int:
        return self.X.shape[1]

    @property
    def n_features(self) -> int:
        return self.X.shape[2]

    @property
    def n_classes(self) -> int:
        return int(self.y.max()) + 1 if len(self.y) else 0

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.y, minlength=self.n_classes)

    def content_digest(self) -> str:
        """Content hash of the labelled data itself.

        Primary input to the model-cache key
        (:mod:`repro.parallel.cachekey`): two datasets with equal bytes
        hash equally regardless of how they were collected, while any
        change to a single cell, label or feature name invalidates cached
        models.  ``source`` is deliberately excluded — it is a
        provenance annotation, not data.
        """
        h = hashlib.blake2b(digest_size=20)
        h.update(repr((self.X.shape, str(self.X.dtype), str(self.y.dtype),
                       self.feature_names)).encode())
        h.update(np.ascontiguousarray(self.X))
        h.update(np.ascontiguousarray(self.y).tobytes())
        return h.hexdigest()

    def subset(self, idx: np.ndarray, source_suffix: str = "") -> "Dataset":
        return Dataset(self.X[idx], self.y[idx], self.feature_names,
                       source=self.source + source_suffix)

    @staticmethod
    def concatenate(parts: list["Dataset"]) -> "Dataset":
        """Stack datasets with identical server/feature shapes."""
        if not parts:
            raise ValueError("nothing to concatenate")
        shapes = {(p.n_servers, p.n_features) for p in parts}
        if len(shapes) != 1:
            raise ValueError(f"incompatible dataset shapes: {shapes}")
        return Dataset(
            np.concatenate([p.X for p in parts]),
            np.concatenate([p.y for p in parts]),
            parts[0].feature_names,
            # Append order, duplicates kept: two parts from distinct
            # collections can legitimately share a name, and sorting
            # would decouple the tag order from the row order.
            source="+".join(p.source for p in parts if p.source),
        )


def split_indices(
    n: int, test_fraction: float = 0.2, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """(train_idx, test_idx) for a random split — shared by every consumer
    that must align auxiliary arrays (e.g. raw levels) with the split."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if n < 2:
        raise ValueError("need at least 2 samples to split")
    rng = derive_rng(seed, "train-test-split")
    perm = rng.permutation(n)
    n_test = max(1, int(round(n * test_fraction)))
    return perm[n_test:], perm[:n_test]


def train_test_split(
    dataset: Dataset, test_fraction: float = 0.2, seed: int = 0
) -> tuple[Dataset, Dataset]:
    """Random window-level split (the paper's 80/20)."""
    train_idx, test_idx = split_indices(len(dataset), test_fraction, seed)
    return dataset.subset(train_idx, ":train"), dataset.subset(test_idx, ":test")


@dataclass
class Normalizer:
    """Per-feature z-scoring with train-set statistics.

    Statistics are computed over all (window, server) cells so the kernel
    network sees every server's vector on the same scale.
    """

    mean: np.ndarray | None = None
    std: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "Normalizer":
        flat = X.reshape(-1, X.shape[-1])
        self.mean = flat.mean(axis=0)
        std = flat.std(axis=0)
        # Constant features carry no signal; avoid dividing by zero.
        std[std < 1e-12] = 1.0
        self.std = std
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.mean is None or self.std is None:
            raise RuntimeError("Normalizer used before fit()")
        out = X - self.mean
        out /= self.std  # divide the fresh difference in place
        return out
