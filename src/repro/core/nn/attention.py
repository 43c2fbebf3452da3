"""Set-attention model over per-server vectors (the paper's future work).

The paper's conclusion names transformers as the next architecture to
investigate (§VI). Per-server vectors form a *set* — there is no
meaningful server order — so the natural transformer variant is a
set-attention encoder: embed each server vector, apply multi-head
self-attention blocks (pre-LayerNorm, residual, position-free), mean-pool
over servers and classify. Like the kernel network it is
permutation-equivariant by construction, but unlike it, servers can
attend to each other *before* pooling, letting the model represent
cross-server patterns (e.g. "one OST is backlogged while its OSS twin is
idle") that a per-server scalar bottleneck cannot.

Everything — attention, LayerNorm, residuals — is implemented with
explicit backpropagation on NumPy and covered by finite-difference
gradient checks in the test suite.
"""

from __future__ import annotations

import numpy as np

from repro.common.rng import derive_rng
from repro.core.nn.layers import Dense, Layer, Param, ReLU, Sequential
from repro.core.nn.losses import softmax_probs

__all__ = ["LayerNorm", "MultiHeadSelfAttention", "TransformerBlock",
           "SetTransformerClassifier"]


class LayerNorm(Layer):
    """Layer normalisation over the last axis with learned gain/bias."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.eps = eps
        self.gain = Param.of(np.ones(dim))
        self.bias = Param.of(np.zeros(dim))
        self._cache: tuple | None = None

    def params(self) -> list[Param]:
        return [self.gain, self.bias]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean) * inv
        self._cache = (xhat, inv)
        return xhat * self.gain.value + self.bias.value

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward before forward")
        xhat, inv = self._cache
        d = xhat.shape[-1]
        self.gain.grad += (grad * xhat).reshape(-1, d).sum(axis=0)
        self.bias.grad += grad.reshape(-1, d).sum(axis=0)
        gx = grad * self.gain.value
        # Standard LayerNorm backward over the last axis.
        mean_gx = gx.mean(axis=-1, keepdims=True)
        mean_gx_xhat = (gx * xhat).mean(axis=-1, keepdims=True)
        return inv * (gx - mean_gx - xhat * mean_gx_xhat)


class MultiHeadSelfAttention(Layer):
    """Scaled dot-product self-attention over the server axis.

    Input ``(batch, servers, dim)``; queries, keys and values are linear
    projections; heads are concatenated and re-projected. No positional
    encoding — server identity is carried by the features themselves, and
    the permutation-equivariance is deliberate.
    """

    def __init__(self, dim: int, n_heads: int,
                 rng: np.random.Generator | None = None) -> None:
        if dim % n_heads != 0:
            raise ValueError(f"dim {dim} not divisible by heads {n_heads}")
        rng = rng or np.random.default_rng(0)
        self.dim = dim
        self.n_heads = n_heads
        self.head_dim = dim // n_heads
        scale = 1.0 / np.sqrt(dim)
        self.Wq = Param.of(rng.normal(0, scale, (dim, dim)))
        self.Wk = Param.of(rng.normal(0, scale, (dim, dim)))
        self.Wv = Param.of(rng.normal(0, scale, (dim, dim)))
        self.Wo = Param.of(rng.normal(0, scale, (dim, dim)))
        self._cache: tuple | None = None

    def params(self) -> list[Param]:
        return [self.Wq, self.Wk, self.Wv, self.Wo]

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        b, s, _ = x.shape
        return x.reshape(b, s, self.n_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        b, h, s, hd = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, s, h * hd)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 3 or x.shape[-1] != self.dim:
            raise ValueError(f"expected (batch, servers, {self.dim}), got {x.shape}")
        q = self._split_heads(x @ self.Wq.value)  # (b, h, s, hd)
        k = self._split_heads(x @ self.Wk.value)
        v = self._split_heads(x @ self.Wv.value)
        scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(self.head_dim)
        attn = softmax_probs(scores)  # (b, h, s, s)
        ctx = attn @ v  # (b, h, s, hd)
        merged = self._merge_heads(ctx)
        out = merged @ self.Wo.value
        self._cache = (x, q, k, v, attn, merged)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward before forward")
        x, q, k, v, attn, merged = self._cache
        b, s, d = x.shape

        self.Wo.grad += merged.reshape(-1, d).T @ grad.reshape(-1, d)
        dmerged = grad @ self.Wo.value.T
        dctx = self._split_heads(dmerged)  # (b, h, s, hd)

        dattn = dctx @ v.transpose(0, 1, 3, 2)  # (b, h, s, s)
        dv = attn.transpose(0, 1, 3, 2) @ dctx  # (b, h, s, hd)

        # Softmax backward per row.
        dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
        dscores /= np.sqrt(self.head_dim)
        dq = dscores @ k  # (b, h, s, hd)
        dk = dscores.transpose(0, 1, 3, 2) @ q

        dq_f = self._merge_heads(dq).reshape(-1, d)
        dk_f = self._merge_heads(dk).reshape(-1, d)
        dv_f = self._merge_heads(dv).reshape(-1, d)
        xf = x.reshape(-1, d)
        self.Wq.grad += xf.T @ dq_f
        self.Wk.grad += xf.T @ dk_f
        self.Wv.grad += xf.T @ dv_f
        dx = (dq_f @ self.Wq.value.T + dk_f @ self.Wk.value.T
              + dv_f @ self.Wv.value.T)
        return dx.reshape(b, s, d)


class TransformerBlock(Layer):
    """Pre-LayerNorm transformer block: attention + FFN, both residual."""

    def __init__(self, dim: int, n_heads: int, ffn_mult: int = 2,
                 seed: int = 0, tag: int = 0) -> None:
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadSelfAttention(dim, n_heads,
                                           rng=derive_rng(seed, "attn", tag))
        self.ln2 = LayerNorm(dim)
        self.ffn = Sequential([
            Dense(dim, ffn_mult * dim, rng=derive_rng(seed, "ffn1", tag)),
            ReLU(inplace=True),
            Dense(ffn_mult * dim, dim, rng=derive_rng(seed, "ffn2", tag)),
        ])

    def params(self) -> list[Param]:
        return (self.ln1.params() + self.attn.params()
                + self.ln2.params() + self.ffn.params())

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = x + self.attn.forward(self.ln1.forward(x, training), training)
        x = x + self.ffn.forward(self.ln2.forward(x, training), training)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        g = grad + self.ln2.backward(self.ffn.backward(grad))
        g = g + self.ln1.backward(self.attn.backward(g))
        return g


class SetTransformerClassifier:
    """Embed -> transformer blocks -> mean-pool over servers -> classify."""

    def __init__(
        self,
        n_servers: int,
        n_features: int,
        n_classes: int,
        dim: int = 32,
        n_heads: int = 4,
        n_blocks: int = 2,
        seed: int = 0,
    ) -> None:
        if n_classes < 2:
            raise ValueError(f"need >= 2 classes, got {n_classes}")
        self.n_servers = n_servers
        self.n_features = n_features
        self.n_classes = n_classes
        self.embed = Dense(n_features, dim, rng=derive_rng(seed, "embed"))
        self.blocks = [TransformerBlock(dim, n_heads, seed=seed, tag=i)
                       for i in range(n_blocks)]
        self.head = Sequential([
            Dense(dim, dim, rng=derive_rng(seed, "head", 0)),
            ReLU(inplace=True),
            Dense(dim, n_classes, rng=derive_rng(seed, "head", 1)),
        ])
        self._pool_servers: int | None = None

    def params(self) -> list[Param]:
        out = self.embed.params()
        for block in self.blocks:
            out += block.params()
        return out + self.head.params()

    @property
    def param_dtype(self) -> np.dtype:
        """Compute dtype of the trained parameters."""
        return self.embed.W.value.dtype

    def forward(self, X: np.ndarray, training: bool = False) -> np.ndarray:
        X = np.asarray(X, dtype=self.param_dtype)
        if X.ndim != 3 or X.shape[2] != self.n_features:
            raise ValueError(
                f"expected (n, servers, {self.n_features}), got {X.shape}"
            )
        h = self.embed.forward(X, training)
        for block in self.blocks:
            h = block.forward(h, training)
        self._pool_servers = h.shape[1]
        pooled = h.mean(axis=1)
        return self.head.forward(pooled, training)

    def backward(self, grad: np.ndarray) -> None:
        dpooled = self.head.backward(grad)
        s = self._pool_servers or self.n_servers
        dh = np.repeat(dpooled[:, None, :], s, axis=1) / s
        for block in reversed(self.blocks):
            dh = block.backward(dh)
        # The embedding's input is data: no input gradient is needed.
        self.embed.backward_params(dh)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return softmax_probs(self.forward(X, training=False))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.predict_proba(X).argmax(axis=-1)
