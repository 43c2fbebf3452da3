"""Adam over :class:`~repro.core.nn.layers.Param`, on one flat buffer."""

from __future__ import annotations

import numpy as np

from repro.core.nn.layers import Param

__all__ = ["Adam"]


class Adam:
    """Adam (Kingma & Ba) with optional decoupled weight decay.

    The optimiser owns its parameters' storage: it packs every value
    into one flat buffer (:attr:`value`) and every gradient into another
    (:attr:`grad`), and rebinds each ``Param.value``/``Param.grad`` to a
    view of them. :meth:`zero_grad` and :meth:`step` then run a fixed
    handful of ufuncs over one array instead of a loop over tensors.
    Every update is elementwise, so each parameter gets exactly the
    floats a per-tensor loop would give it.
    """

    def __init__(self, params: list[Param], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ValueError("betas must be in [0, 1)")
        self.params = list(params)
        dtypes = {p.value.dtype for p in self.params}
        if len(dtypes) > 1:
            raise ValueError(
                "Adam needs parameters of one dtype, got "
                + ", ".join(sorted(str(d) for d in dtypes)))
        dtype = dtypes.pop() if dtypes else np.dtype(np.float64)
        size = sum(p.value.size for p in self.params)
        self.value = np.empty(size, dtype=dtype)
        self.grad = np.empty(size, dtype=dtype)
        start = 0
        for p in self.params:
            stop = start + p.value.size
            value = self.value[start:stop].reshape(p.value.shape)
            grad = self.grad[start:stop].reshape(p.value.shape)
            value[...] = p.value
            grad[...] = p.grad
            p.value, p.grad = value, grad
            start = stop
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = np.zeros_like(self.value)
        self._v = np.zeros_like(self.value)
        self._update = np.empty_like(self.value)
        self._scratch = np.empty_like(self.value)
        self._t = 0

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def step(self) -> None:
        self._t += 1
        b1c = 1.0 - self.beta1**self._t
        b2c = 1.0 - self.beta2**self._t
        g, m, v = self.grad, self._m, self._v
        update, scratch = self._update, self._scratch
        # m = beta1·m + (1 - beta1)·g
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=scratch)
        m += scratch
        # v = beta2·v + (1 - beta2)·g²
        v *= self.beta2
        np.multiply(g, g, out=scratch)
        scratch *= 1.0 - self.beta2
        v += scratch
        # update = (m / b1c) / (sqrt(v / b2c) + eps) [+ wd·value]
        np.divide(v, b2c, out=update)
        np.sqrt(update, out=update)
        update += self.eps
        np.divide(m, b1c, out=scratch)
        np.divide(scratch, update, out=update)
        if self.weight_decay:
            np.multiply(self.value, self.weight_decay, out=scratch)
            update += scratch
        update *= self.lr
        self.value -= update
