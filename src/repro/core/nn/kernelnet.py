"""The paper's kernel-based per-server network (§III-C).

One small dense network (the *kernel*) is applied with shared weights to
every per-server vector, reducing each to a single scalar; the scalars
are concatenated in server order and fed to an MLP head for multi-bin
classification. The motivation in the paper: applications may use only a
subset of OSTs, or different OSTs across runs, so the model must learn to
"generally interpret the data from any server" — sharing the kernel
weights gives exactly that inductive bias, which the ablation experiments
(A1) measure against a flat MLP.
"""

from __future__ import annotations

import numpy as np

from repro.common.rng import derive_rng
from repro.core.nn.layers import Dense, Dropout, ReLU, Sequential
from repro.core.nn.losses import softmax_probs

__all__ = ["KernelInterferenceNet", "KERNEL_HIDDEN", "HEAD_HIDDEN"]

#: Hidden widths of the kernel and of the head: the architecture every
#: :class:`~repro.core.predictor.InterferencePredictor` trains, and part
#: of its model-cache key (:func:`repro.parallel.cachekey.train_key`).
KERNEL_HIDDEN: tuple[int, ...] = (64, 32)
HEAD_HIDDEN: tuple[int, ...] = (32,)


class KernelInterferenceNet:
    """Shared per-server kernel + MLP classification head."""

    def __init__(
        self,
        n_servers: int,
        n_features: int,
        n_classes: int,
        kernel_hidden: tuple[int, ...] = KERNEL_HIDDEN,
        head_hidden: tuple[int, ...] = HEAD_HIDDEN,
        dropout: float = 0.1,
        seed: int = 0,
    ) -> None:
        if n_servers < 1 or n_features < 1:
            raise ValueError("need >= 1 server and feature")
        if n_classes < 2:
            raise ValueError(f"need >= 2 classes, got {n_classes}")
        self.n_servers = n_servers
        self.n_features = n_features
        self.n_classes = n_classes
        # Recorded so a trained net can be serialised and rebuilt
        # (repro.core.predictor save/load, repro.parallel.modelcache).
        self.kernel_hidden = tuple(kernel_hidden)
        self.head_hidden = tuple(head_hidden)
        self.dropout = dropout

        kernel_layers = []
        prev = n_features
        for i, width in enumerate(kernel_hidden):
            kernel_layers.append(Dense(prev, width, rng=derive_rng(seed, "k", i)))
            kernel_layers.append(ReLU(inplace=True))
            if dropout > 0:
                kernel_layers.append(Dropout(dropout, rng=derive_rng(seed, "kd", i)))
            prev = width
        kernel_layers.append(Dense(prev, 1, rng=derive_rng(seed, "k", "out")))
        self.kernel = Sequential(kernel_layers)

        head_layers = []
        prev = n_servers
        for i, width in enumerate(head_hidden):
            head_layers.append(Dense(prev, width, rng=derive_rng(seed, "h", i)))
            head_layers.append(ReLU(inplace=True))
            prev = width
        head_layers.append(Dense(prev, n_classes, rng=derive_rng(seed, "h", "out")))
        self.head = Sequential(head_layers)

    # -- training interface -----------------------------------------------------

    def params(self):
        return self.kernel.params() + self.head.params()

    def forward(self, X: np.ndarray, training: bool = False) -> np.ndarray:
        """Logits for a ``(n, servers, features)`` batch."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 3 or X.shape[1] != self.n_servers or X.shape[2] != self.n_features:
            raise ValueError(
                f"expected (n, {self.n_servers}, {self.n_features}), got {X.shape}"
            )
        # Shared kernel over every server vector: (n, s, f) -> (n, s, 1).
        per_server = self.kernel.forward(X, training=training)
        self._kernel_out_shape = per_server.shape
        scores = per_server[..., 0]  # (n, s)
        return self.head.forward(scores, training=training)

    def backward(self, grad: np.ndarray) -> None:
        dscores = self.head.backward(grad)  # (n, s)
        # The kernel's input is data: no input gradient is needed.
        self.kernel.backward_params(dscores[..., None])

    # -- inference ----------------------------------------------------------------

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return softmax_probs(self.forward(X, training=False))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.predict_proba(X).argmax(axis=-1)
