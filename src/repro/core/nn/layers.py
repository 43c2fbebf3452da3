"""Neural-network layers with explicit backpropagation.

Layers operate on arrays of shape ``(..., features)``: any number of
leading batch dimensions. That is what lets the kernel network apply ONE
:class:`Dense` stack to a ``(batch, servers, features)`` tensor — the
weight-sharing across servers that defines the paper's architecture falls
out of broadcasting, and gradients accumulate over all leading dims.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Param", "Layer", "Dense", "ReLU", "Dropout", "Sequential"]


@dataclass
class Param:
    """A trainable tensor and its accumulated gradient."""

    value: np.ndarray
    grad: np.ndarray

    @classmethod
    def of(cls, value: np.ndarray) -> "Param":
        return cls(value=value, grad=np.zeros_like(value))


class Layer:
    """Base layer: forward caches whatever backward needs."""

    def params(self) -> list[Param]:
        return []

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Dense(Layer):
    """Affine layer ``y = x @ W + b`` with He-normal initialisation."""

    def __init__(self, in_dim: int, out_dim: int,
                 rng: np.random.Generator | None = None) -> None:
        if in_dim < 1 or out_dim < 1:
            raise ValueError(f"bad dense shape: {in_dim} -> {out_dim}")
        rng = rng or np.random.default_rng(0)
        scale = np.sqrt(2.0 / in_dim)
        self.W = Param.of(rng.normal(0.0, scale, size=(in_dim, out_dim)))
        self.b = Param.of(np.zeros(out_dim))
        self._x: np.ndarray | None = None
        # Scratch buffers reused across training steps (the hot loop runs
        # thousands of same-shaped minibatches; fresh allocations per step
        # dominated small-model training profiles). Only the training path
        # uses them — inference always returns freshly allocated arrays,
        # so public predict results are safe to hold across calls.
        self._out_buf: np.ndarray | None = None
        self._gw_buf: np.ndarray | None = None
        self._dx_buf: np.ndarray | None = None

    def params(self) -> list[Param]:
        return [self.W, self.b]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.shape[-1] != self.W.value.shape[0]:
            raise ValueError(
                f"input has {x.shape[-1]} features, layer expects "
                f"{self.W.value.shape[0]}"
            )
        self._x = x
        W = self.W.value
        if training:
            shape = x.shape[:-1] + (W.shape[1],)
            dtype = np.result_type(x.dtype, W.dtype)
            buf = self._out_buf
            if buf is None or buf.shape != shape or buf.dtype != dtype:
                buf = self._out_buf = np.empty(shape, dtype=dtype)
            # Same arithmetic as ``x @ W + b``, written into the scratch.
            np.matmul(x, W, out=buf)
            buf += self.b.value
            return buf
        return x @ W + self.b.value

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward before forward")
        shape = self._x.shape
        self.backward_params(grad)
        W = self.W.value
        gf = grad.reshape(-1, grad.shape[-1])
        dx = self._dx_buf
        if dx is None or dx.shape != (gf.shape[0], W.shape[0]) or dx.dtype != W.dtype:
            dx = self._dx_buf = np.empty((gf.shape[0], W.shape[0]), dtype=W.dtype)
        np.matmul(gf, W.T, out=dx)
        return dx.reshape(shape)

    def backward_params(self, grad: np.ndarray) -> None:
        """The parameter half of :meth:`backward`: accumulate the W and b
        gradients and skip the input-gradient GEMM, for a layer whose
        input is data."""
        if self._x is None:
            raise RuntimeError("backward before forward")
        x = self._x
        self._x = None  # release the cached batch once consumed
        xf = x.reshape(-1, x.shape[-1])
        gf = grad.reshape(-1, grad.shape[-1])
        # The weight gradient xf.T @ gf, computed as (gf.T @ xf).T: the
        # same dot products (bit-equal on every layer shape of the
        # bundled models), and the cheaper orientation for OpenBLAS.
        gw = self._gw_buf
        if gw is None or gw.dtype != self.W.grad.dtype:
            gw = self._gw_buf = np.empty(self.W.grad.shape[::-1],
                                         dtype=self.W.grad.dtype)
        np.matmul(gf.T, xf, out=gw)
        self.W.grad += gw.T
        self.b.grad += gf.sum(axis=0)


class ReLU(Layer):
    """Rectified linear unit.

    ``inplace=True`` rectifies by multiplying the input array by its own
    positivity mask instead of allocating a second output array. Only
    safe when the input is exclusively this layer's to mutate — e.g. a
    fresh (or scratch-buffer) :class:`Dense` output, as in the bundled
    models — never an array the caller still reads. The results are
    numerically identical to the allocating path (negative entries become
    zero; only the IEEE sign of those zeros can differ, which no
    downstream computation observes).
    """

    def __init__(self, inplace: bool = False) -> None:
        self.inplace = inplace
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        mask = x > 0
        self._mask = mask
        if self.inplace:
            np.multiply(x, mask, out=x)
            return x
        return np.where(mask, x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward before forward")
        mask = self._mask
        self._mask = None  # release the cached batch once consumed
        if self.inplace:
            # The incoming grad is the downstream layer's freshly computed
            # (or scratch) array; masking it in place saves an allocation.
            np.multiply(grad, mask, out=grad)
            return grad
        return np.where(mask, grad, 0.0)


class Dropout(Layer):
    """Inverted dropout; identity at inference time.

    Training masks in place: forward multiplies its input array by the
    mask and returns it, and backward does the same to the incoming
    gradient. Like ``ReLU(inplace=True)`` this is only safe when both
    arrays are exclusively this layer's to mutate, e.g. a
    ``ReLU(inplace=True)`` output on a :class:`Dense` scratch buffer and
    the next :class:`Dense` layer's input-gradient scratch, as in the
    bundled models.

    The mask is drawn from float64 uniforms whatever the activation
    dtype, so a float32 run drops the same units as a float64 one, and
    is formed in the activation's dtype, so a float32 run stays float32.
    Uniforms and mask live in buffers reused across steps: a step
    allocates nothing once the largest batch has been seen.
    """

    def __init__(self, p: float, rng: np.random.Generator | None = None) -> None:
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout p must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng or np.random.default_rng(0)
        self._mask: np.ndarray | None = None
        # Flat buffers, grown to the largest batch seen; a step uses a
        # prefix of them. ``_mask_buf`` serves non-float64 activations
        # (a float64 mask is formed over the uniforms themselves).
        self._uniform_buf: np.ndarray | None = None
        self._mask_buf: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        n = x.size
        self._uniform_buf = _grown(self._uniform_buf, n, np.float64)
        uniform = self._uniform_buf[:n].reshape(x.shape)
        self.rng.random(out=uniform)
        mask = uniform
        if x.dtype != np.float64:
            self._mask_buf = _grown(self._mask_buf, n, x.dtype)
            mask = self._mask_buf[:n].reshape(x.shape)
        # Bit-equal to ``(uniform < keep) / keep`` in the mask's dtype.
        np.less(uniform, keep, out=mask)
        np.divide(mask, keep, out=mask)
        self._mask = mask
        np.multiply(x, mask, out=x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        mask = self._mask
        self._mask = None  # the buffer stays; only this step's view goes
        np.multiply(grad, mask, out=grad)
        return grad


def _grown(buf: np.ndarray | None, size: int, dtype) -> np.ndarray:
    """``buf`` if it holds ``size`` items of ``dtype``, else a new flat
    buffer that does."""
    if buf is None or buf.size < size or buf.dtype != dtype:
        return np.empty(size, dtype=dtype)
    return buf


class Sequential(Layer):
    """A chain of layers."""

    def __init__(self, layers: list[Layer]) -> None:
        self.layers = list(layers)

    def params(self) -> list[Param]:
        return [p for layer in self.layers for p in layer.params()]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def backward_params(self, grad: np.ndarray) -> None:
        """Backward for a stack whose input is data: every parameter
        gradient, but no input gradient from the first layer (a
        :class:`Dense`)."""
        first, *rest = self.layers
        for layer in reversed(rest):
            grad = layer.backward(grad)
        first.backward_params(grad)
