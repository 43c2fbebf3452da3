"""Plain MLP classifier over flattened feature vectors.

Used both as an ablation baseline against the kernel network (it sees the
concatenation of all servers' vectors, so it is *not* permutation-robust)
and as the classification head inside the kernel network.
"""

from __future__ import annotations

import numpy as np

from repro.common.rng import derive_rng
from repro.core.nn.layers import Dense, Dropout, ReLU, Sequential
from repro.core.nn.losses import softmax_probs

__all__ = ["MLPClassifier"]


class MLPClassifier:
    """A dense ReLU network producing class logits."""

    def __init__(self, in_dim: int, hidden: tuple[int, ...], n_classes: int,
                 dropout: float = 0.0, seed: int = 0) -> None:
        if n_classes < 2:
            raise ValueError(f"need >= 2 classes, got {n_classes}")
        layers = []
        prev = in_dim
        for i, width in enumerate(hidden):
            layers.append(Dense(prev, width, rng=derive_rng(seed, "dense", i)))
            layers.append(ReLU(inplace=True))
            if dropout > 0:
                layers.append(Dropout(dropout, rng=derive_rng(seed, "drop", i)))
            prev = width
        layers.append(Dense(prev, n_classes, rng=derive_rng(seed, "dense", "out")))
        self.net = Sequential(layers)
        self.in_dim = in_dim
        self.n_classes = n_classes

    # -- training interface (used by train_classifier) ------------------------

    def params(self):
        return self.net.params()

    def forward(self, X: np.ndarray, training: bool = False) -> np.ndarray:
        """Logits for ``(n, in_dim)`` or ``(n, servers, features)`` input
        (the latter is flattened, making this the non-kernel ablation)."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 3:
            X = X.reshape(len(X), -1)
        return self.net.forward(X, training=training)

    def backward(self, grad: np.ndarray) -> None:
        # The first layer's input is data: no input gradient is needed.
        self.net.backward_params(grad)

    # -- inference -------------------------------------------------------------

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return softmax_probs(self.forward(X, training=False))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.predict_proba(X).argmax(axis=-1)
