"""Minibatch training loops with validation-based early stopping."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.common.rng import derive_rng
from repro.core.nn.blas import single_blas_thread
from repro.core.nn.losses import huber_loss, softmax_cross_entropy
from repro.core.nn.optim import Adam
from repro.obs.log import get_logger
from repro.obs.metrics import REGISTRY

__all__ = ["TrainConfig", "TrainHistory", "restart_seed", "train_classifier",
           "train_regressor"]

logger = get_logger("core.nn.train")

#: Seed stride between independent training restarts of
#: ``InterferencePredictor.train``.  Trained parameters, cached models and
#: the pipeline benchmark's pinned parameter digests all follow from it.
RESTART_SEED_STRIDE = 7919


def restart_seed(seed: int, restart: int) -> int:
    """Model-init seed of independent restart ``restart`` of a training
    run seeded ``seed`` (how ``InterferencePredictor.train`` seeds each
    restart)."""
    return seed + RESTART_SEED_STRIDE * restart


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters of one training run."""

    epochs: int = 120
    batch_size: int = 64
    lr: float = 2e-3
    weight_decay: float = 1e-5
    val_fraction: float = 0.15
    #: Early-stopping patience. Generous by default: validation slices on
    #: window datasets are small (tens of samples), so the val loss is
    #: noisy and aggressive stopping freezes half-trained models.
    patience: int = 25
    class_weighting: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in [0, 1)")


@dataclass
class TrainHistory:
    """Loss traces and the early-stopping outcome."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False


def _class_weights(y: np.ndarray, n_classes: int) -> np.ndarray:
    """Inverse-frequency weights, normalised to mean 1."""
    counts = np.bincount(y, minlength=n_classes).astype(float)
    counts[counts == 0] = 1.0
    w = len(y) / (n_classes * counts)
    return w / w.mean()


def train_classifier(model, X: np.ndarray, y: np.ndarray,
                     config: TrainConfig | None = None,
                     normalizer=None) -> TrainHistory:
    """Train a classifier (softmax cross-entropy) in place.

    A validation slice is held out for early stopping; the parameters of
    the best validation epoch are restored before returning.
    """
    config = config or TrainConfig()
    y = np.asarray(y, dtype=int)
    weights = (_class_weights(y, model.n_classes)
               if config.class_weighting else None)
    return _train(model, X, y,
                  lambda logits, target: softmax_cross_entropy(
                      logits, target, weights),
                  config, normalizer=normalizer)


def train_regressor(model, X: np.ndarray, y: np.ndarray,
                    config: TrainConfig | None = None,
                    delta: float = 1.0, normalizer=None) -> TrainHistory:
    """Train a 1-output regression model (Huber loss) in place."""
    config = config or TrainConfig()
    y = np.asarray(y, dtype=float)
    return _train(model, X, y,
                  lambda pred, target: huber_loss(pred, target, delta),
                  config, normalizer=normalizer)


def _train(model, X: np.ndarray, y: np.ndarray, loss_fn,
           config: TrainConfig, normalizer=None) -> TrainHistory:
    """Shared minibatch loop: any model exposing params/forward/backward.

    A fitted ``normalizer`` is applied per batch *after* the row gather,
    so training never holds a second, normalised copy of ``X``; the
    transform is elementwise, so the parameters are bit-identical to
    normalising the whole array up front.
    """
    X = np.asarray(X, dtype=float)
    if len(X) != len(y):
        raise ValueError(f"{len(X)} samples but {len(y)} labels")
    if len(X) < 2:
        raise ValueError("need at least 2 samples")

    # One params() walk per training run: the list is stable for a given
    # model, and the optimiser, gradient-norm probe and best-state
    # snapshots all iterate it every epoch.
    params = model.params()

    def fetch(rows: np.ndarray) -> np.ndarray:
        batch = X[rows]
        if normalizer is not None:
            batch = normalizer.transform(batch)
        return batch

    rng = derive_rng(config.seed, "train")
    perm = rng.permutation(len(X))
    n_val = int(len(X) * config.val_fraction)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    if len(train_idx) == 0:
        train_idx = perm
    ytr = y[train_idx]
    Xval, yval = fetch(val_idx), y[val_idx]

    opt = Adam(params, lr=config.lr, weight_decay=config.weight_decay)
    history = TrainHistory()
    best_val = np.inf
    best_state: np.ndarray | None = None
    since_best = 0

    logger.info(
        "training %s: %d train / %d val samples, <=%d epochs, batch %d",
        type(model).__name__, len(train_idx), len(Xval), config.epochs,
        config.batch_size,
    )
    epoch_timer = REGISTRY.histogram("train.epoch_seconds")
    epoch_counter = REGISTRY.counter("train.epochs")
    grad_gauge = REGISTRY.gauge("train.grad_norm")
    val_gauge = REGISTRY.gauge("train.val_loss")

    # One BLAS thread for the loop: its GEMMs are too small to gain from
    # a split, and one thread gives the same floats (see blas.py).
    with single_blas_thread():
        for epoch in range(config.epochs):
            t0 = time.perf_counter()
            order = rng.permutation(len(train_idx))
            epoch_loss = 0.0
            n_batches = 0
            for start in range(0, len(order), config.batch_size):
                idx = order[start:start + config.batch_size]
                opt.zero_grad()
                out = model.forward(fetch(train_idx[idx]), training=True)
                loss, dout = loss_fn(out, ytr[idx])
                model.backward(dout)
                opt.step()
                epoch_loss += loss
                n_batches += 1
            history.train_loss.append(epoch_loss / max(1, n_batches))
            # Global gradient norm of the epoch's final batch: a cheap
            # divergence/vanishing indicator without touching the hot loop.
            grad_norm = math.sqrt(
                sum(float(np.sum(p.grad * p.grad)) for p in params)
            )

            if len(Xval):
                out = model.forward(Xval, training=False)
                val_loss, _ = loss_fn(out, yval)
            else:
                val_loss = history.train_loss[-1]
            history.val_loss.append(val_loss)

            epoch_timer.observe(time.perf_counter() - t0)
            epoch_counter.inc()
            grad_gauge.set(grad_norm)
            val_gauge.set(float(val_loss))
            logger.debug(
                "epoch %d: train_loss=%.6f val_loss=%.6f grad_norm=%.4g",
                epoch, history.train_loss[-1], val_loss, grad_norm,
            )

            if val_loss < best_val - 1e-6:
                best_val = val_loss
                # Adam holds every parameter in one flat buffer, so the
                # snapshot is one copy into a preallocated array.
                if best_state is None:
                    best_state = opt.value.copy()
                else:
                    np.copyto(best_state, opt.value)
                history.best_epoch = epoch
                since_best = 0
            else:
                since_best += 1
                if since_best >= config.patience:
                    history.stopped_early = True
                    break

    if best_state is not None:
        np.copyto(opt.value, best_state)
    logger.info(
        "training done: best epoch %d (val_loss=%.6f), %s",
        history.best_epoch, best_val,
        "stopped early" if history.stopped_early else
        f"ran all {len(history.train_loss)} epochs",
    )
    return history
