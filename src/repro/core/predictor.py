"""The deployable interference predictor.

Bundles everything the paper's training server deploys after training:
the feature normaliser, the kernel-based model and the severity
thresholds. At runtime it consumes the same per-server vectors the
monitors emit and predicts each window's interference severity class.

Two deployment-side capabilities live here alongside training:

* **Persistence** — :meth:`InterferencePredictor.save` /
  :meth:`InterferencePredictor.load` round-trip the trained parameters,
  the normaliser statistics, the thresholds and the training history
  through a single format-versioned ``.npz`` file
  (``allow_pickle=False``), which is what the content-addressed model
  cache (:mod:`repro.parallel.modelcache`) and the ``repro train
  --model-out`` / ``repro predict --model`` CLI build on.
* **Fused inference** — :meth:`InterferencePredictor.deploy` folds the
  normaliser's z-score affine into the first kernel layer and returns a
  :class:`DeployedPredictor` whose forward pass runs entirely in
  preallocated buffers: per-window online scoring does no normalisation
  pass and no array allocation.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.dataset import Dataset, Normalizer
from repro.core.labeling import BINARY_THRESHOLDS
from repro.core.metrics import ClassificationReport, evaluate
from repro.core.nn.kernelnet import KernelInterferenceNet
from repro.core.nn.layers import Dense, Dropout, ReLU, Sequential
from repro.core.nn.losses import softmax_probs
from repro.core.nn.train import (
    TrainConfig,
    TrainHistory,
    restart_seed,
    train_classifier,
)
from repro.monitor.aggregator import MonitoredRun, assemble_vectors

__all__ = ["InterferencePredictor", "DeployedPredictor", "PREDICTOR_FORMAT"]

#: Bumped whenever the saved ``.npz`` layout changes incompatibly.
PREDICTOR_FORMAT = 1

_PREDICTOR_KIND = "repro-interference-predictor"


@dataclass
class InterferencePredictor:
    """Normaliser + kernel network + severity thresholds."""

    model: KernelInterferenceNet
    normalizer: Normalizer
    thresholds: tuple[float, ...] = BINARY_THRESHOLDS
    history: TrainHistory | None = field(default=None, repr=False)

    @property
    def n_classes(self) -> int:
        return self.model.n_classes

    @property
    def param_dtype(self) -> np.dtype:
        """Inference dtype — follows the trained parameters, so a
        float32-trained model scores windows in float32."""
        return self.model.param_dtype

    @staticmethod
    def check_train_inputs(train_set: Dataset, thresholds: tuple[float, ...],
                           restarts: int) -> int:
        """Validate a training request; returns the class count.

        :meth:`train` calls it, and so does
        :class:`repro.parallel.TrainExecutor` while planning a batch, so
        a bad job fails before any job in its batch trains."""
        if restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {restarts}")
        n_classes = len(thresholds) + 1
        if train_set.n_classes > n_classes:
            raise ValueError(
                f"dataset has {train_set.n_classes} classes but thresholds "
                f"define {n_classes}"
            )
        return n_classes

    @classmethod
    def train(
        cls,
        train_set: Dataset,
        thresholds: tuple[float, ...] = BINARY_THRESHOLDS,
        config: TrainConfig | None = None,
        kernel_hidden: tuple[int, ...] = (64, 32),
        head_hidden: tuple[int, ...] = (32,),
        seed: int = 0,
        restarts: int = 3,
    ) -> "InterferencePredictor":
        """Train a predictor on a labelled dataset.

        The kernel architecture squeezes every server through a single
        scalar, which makes optimisation sensitive to an unlucky
        initialisation; training therefore runs ``restarts`` independent
        initialisations and keeps the model with the best validation
        loss.  Restart ``r`` initialises from ``restart_seed(seed, r)``,
        so the result is deterministic given ``seed``.
        """
        n_classes = cls.check_train_inputs(train_set, thresholds, restarts)
        # Fit streams over X; the transform is applied lazily per batch
        # inside the training loop.  Neither densifies train_set.X, so a
        # memmap-backed dataset trains with peak RSS bounded by batch
        # and validation-slice size — bit-identical to the eager path.
        normalizer = Normalizer().fit(train_set.X)
        config = config or TrainConfig(seed=seed)
        best: tuple[float, KernelInterferenceNet, TrainHistory] | None = None
        for restart in range(restarts):
            model = KernelInterferenceNet(
                n_servers=train_set.n_servers,
                n_features=train_set.n_features,
                n_classes=n_classes,
                kernel_hidden=kernel_hidden,
                head_hidden=head_hidden,
                seed=restart_seed(seed, restart),
            )
            history = train_classifier(model, train_set.X, train_set.y,
                                       config, normalizer=normalizer)
            score = (min(history.val_loss) if history.val_loss
                     else float("inf"))
            # Strictly lower wins, so ties keep the lowest restart index.
            if best is None or score < best[0]:
                best = (score, model, history)
        assert best is not None
        return cls(model=best[1], normalizer=normalizer, thresholds=thresholds,
                   history=best[2])

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        """Write the predictor to a single ``.npz`` file.

        The file is self-describing (architecture, thresholds, history
        and a format version travel in an embedded JSON document) and
        contains no pickled objects, so it can be loaded with
        ``allow_pickle=False`` from untrusted storage.  Parameter arrays
        round-trip bit-exactly: a loaded predictor's outputs are
        identical to the saved one's.
        """
        path = pathlib.Path(path)
        model = self.model
        params = model.params()
        meta = {
            "kind": _PREDICTOR_KIND,
            "format": PREDICTOR_FORMAT,
            "arch": {
                "n_servers": model.n_servers,
                "n_features": model.n_features,
                "n_classes": model.n_classes,
                "kernel_hidden": list(model.kernel_hidden),
                "head_hidden": list(model.head_hidden),
                "dropout": model.dropout,
            },
            "thresholds": list(self.thresholds),
            "dtype": str(np.dtype(model.param_dtype)),
            "n_params": len(params),
            "history": None if self.history is None else {
                "train_loss": [float(v) for v in self.history.train_loss],
                "val_loss": [float(v) for v in self.history.val_loss],
                "best_epoch": self.history.best_epoch,
                "stopped_early": self.history.stopped_early,
            },
        }
        if self.normalizer.mean is None or self.normalizer.std is None:
            raise ValueError("cannot save a predictor with an unfitted "
                             "normalizer")
        arrays: dict[str, np.ndarray] = {
            "meta": np.array(json.dumps(meta)),
            "norm_mean": np.asarray(self.normalizer.mean),
            "norm_std": np.asarray(self.normalizer.std),
        }
        for i, p in enumerate(params):
            arrays[f"param_{i}"] = p.value
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fp:
            np.savez_compressed(fp, **arrays)
        return path

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "InterferencePredictor":
        """Read a predictor previously written by :meth:`save`.

        Raises ``ValueError`` for anything that is not a well-formed
        saved predictor (truncated archive, foreign npz, wrong format
        version, mismatched shapes) and ``OSError`` for unreadable paths.
        """
        import zipfile

        # np.load leaves a path it opened open when the archive is
        # truncated; owning the handle closes it on every outcome.
        with open(pathlib.Path(path), "rb") as fh:
            try:
                data = np.load(fh, allow_pickle=False)
            except zipfile.BadZipFile as exc:
                raise ValueError(f"{path}: not a valid npz archive "
                                 f"({exc})") from exc
            with data:
                if "meta" not in data:
                    raise ValueError(f"{path}: not a saved predictor (no meta)")
                meta = json.loads(str(data["meta"][()]))
                if meta.get("kind") != _PREDICTOR_KIND:
                    raise ValueError(
                        f"{path}: unexpected kind {meta.get('kind')!r}")
                if meta.get("format") != PREDICTOR_FORMAT:
                    raise ValueError(
                        f"{path}: format {meta.get('format')!r} not supported "
                        f"by this version (expects {PREDICTOR_FORMAT})")
                arch = meta["arch"]
                model = KernelInterferenceNet(
                    n_servers=int(arch["n_servers"]),
                    n_features=int(arch["n_features"]),
                    n_classes=int(arch["n_classes"]),
                    kernel_hidden=tuple(int(w) for w in arch["kernel_hidden"]),
                    head_hidden=tuple(int(w) for w in arch["head_hidden"]),
                    dropout=float(arch["dropout"]),
                    seed=0,
                )
                params = model.params()
                if len(params) != int(meta["n_params"]):
                    raise ValueError(
                        f"{path}: has {meta['n_params']} parameter tensors, "
                        f"architecture defines {len(params)}")
                for i, p in enumerate(params):
                    value = data[f"param_{i}"]
                    if value.shape != p.value.shape:
                        raise ValueError(
                            f"{path}: param_{i} has shape {value.shape}, "
                            f"architecture expects {p.value.shape}")
                    p.value = np.array(value)
                    p.grad = np.zeros_like(p.value)
                normalizer = Normalizer(mean=np.array(data["norm_mean"]),
                                        std=np.array(data["norm_std"]))
                history = (TrainHistory(**meta["history"])
                           if meta.get("history") else None)
                thresholds = tuple(float(t) for t in meta["thresholds"])
        return cls(model=model, normalizer=normalizer, thresholds=thresholds,
                   history=history)

    # -- inference -----------------------------------------------------------

    def _normalized(self, X: np.ndarray) -> np.ndarray:
        """Z-scored input in the model's parameter dtype."""
        dtype = self.model.param_dtype
        Xn = self.normalizer.transform(np.asarray(X, dtype=dtype))
        return Xn if Xn.dtype == dtype else Xn.astype(dtype)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Severity classes for raw (unnormalised) per-server vectors."""
        return self.model.predict(self._normalized(X))

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self.model.predict_proba(self._normalized(X))

    def predict_run(self, run: MonitoredRun, window_size: float = 1.0,
                    sample_interval: float = 0.25) -> dict[int, int]:
        """Per-window severity predictions for a monitored run."""
        X, windows = assemble_vectors(run, window_size, sample_interval)
        preds = self.predict(X)
        return dict(zip(windows, preds.tolist()))

    def evaluate(self, test_set: Dataset) -> ClassificationReport:
        """Confusion matrix + P/R/F1 on a held-out set."""
        preds = self.predict(test_set.X)
        return evaluate(test_set.y, preds, n_classes=self.n_classes)

    def deploy(self) -> "DeployedPredictor":
        """An allocation-free fused-inference view of this predictor.

        See :class:`DeployedPredictor`; the underlying parameters are
        copied, so later training of this predictor does not corrupt the
        deployed scorer (and vice versa).
        """
        return DeployedPredictor(self)


def _affine_stack(net: Sequential) -> list[list]:
    """Flatten a Dense/ReLU/Dropout Sequential into ``[W, b, relu]`` rows.

    Dropout is identity at inference time and is dropped; a trailing
    ReLU flag marks rows whose output is rectified in place.
    """
    rows: list[list] = []
    for layer in net.layers:
        if isinstance(layer, Dense):
            rows.append([layer.W.value.copy(), layer.b.value.copy(), False])
        elif isinstance(layer, ReLU):
            if not rows:
                raise ValueError("ReLU before any Dense layer")
            rows[-1][2] = True
        elif isinstance(layer, Dropout):
            continue
        else:
            raise ValueError(
                f"cannot deploy layer type {type(layer).__name__}")
    return rows


class DeployedPredictor:
    """Fused, allocation-free inference for a trained predictor.

    Two transformations make the per-window hot path cheap:

    * **Normaliser fusion** — the z-score ``(x - mean) / std`` is an
      affine map, and so is the first kernel layer ``x' @ W + b``.
      Composing them gives ``x @ (W / std[:, None]) + (b - (mean / std)
      @ W)``: one matmul replaces the normalisation pass entirely, with
      results equal to the unfused path up to float rounding (the
      reassociation of the same affine arithmetic).
    * **Buffer reuse** — every layer's output is written into a
      preallocated scratch buffer via ``np.matmul(..., out=...)``; the
      softmax runs in preallocated scratch as well.  Buffers are keyed
      to the batch size, so steady-state online scoring (batch of one
      window per prediction) allocates nothing.

    Consequently the arrays returned by :meth:`predict_proba` and
    :meth:`scores` are views into internal buffers, **valid only until
    the next call**; copy them to keep them.  :meth:`predict` returns a
    fresh (argmax) array and is always safe to hold.
    """

    def __init__(self, predictor: InterferencePredictor) -> None:
        norm = predictor.normalizer
        if norm.mean is None or norm.std is None:
            raise ValueError("cannot deploy a predictor with an unfitted "
                             "normalizer")
        model = predictor.model
        self.n_servers = model.n_servers
        self.n_features = model.n_features
        self.n_classes = model.n_classes
        self.thresholds = predictor.thresholds
        self._dtype = np.dtype(model.param_dtype)

        kernel = _affine_stack(model.kernel)
        head = _affine_stack(model.head)
        # Fold the z-score affine into the first kernel layer.
        W0, b0, relu0 = kernel[0]
        inv_std = 1.0 / np.asarray(norm.std)
        Wf = (W0 * inv_std[:, None]).astype(self._dtype, copy=False)
        bf = (b0 - (np.asarray(norm.mean) * inv_std) @ W0).astype(
            self._dtype, copy=False)
        kernel[0] = [Wf, bf, relu0]
        self._kernel = [(W.astype(self._dtype, copy=False),
                         b.astype(self._dtype, copy=False), relu)
                        for W, b, relu in kernel]
        self._head = [(W.astype(self._dtype, copy=False),
                       b.astype(self._dtype, copy=False), relu)
                      for W, b, relu in head]
        self._buf_n: int | None = None
        self._kernel_bufs: list[np.ndarray] = []
        self._head_bufs: list[np.ndarray] = []
        self._max_buf: np.ndarray | None = None
        self._sum_buf: np.ndarray | None = None
        # predict_proba_rows keeps its own buffers so mixed batch/row
        # scoring through one deployed instance never thrashes the
        # batch-size-keyed set above.
        self._row_buf_n: int | None = None
        self._row_kernel_bufs: list[np.ndarray] = []
        self._row_head_bufs: list[np.ndarray] = []

    def _ensure_buffers(self, n: int) -> None:
        if self._buf_n == n:
            return
        self._kernel_bufs = [
            np.empty((n, self.n_servers, W.shape[1]), dtype=self._dtype)
            for W, _, _ in self._kernel
        ]
        self._head_bufs = [
            np.empty((n, W.shape[1]), dtype=self._dtype)
            for W, _, _ in self._head
        ]
        self._max_buf = np.empty((n, 1), dtype=self._dtype)
        self._sum_buf = np.empty((n, 1), dtype=self._dtype)
        self._buf_n = n

    @staticmethod
    def _forward(x: np.ndarray, stack, bufs) -> np.ndarray:
        for (W, b, relu), out in zip(stack, bufs):
            np.matmul(x, W, out=out)
            out += b
            if relu:
                np.maximum(out, 0.0, out=out)
            x = out
        return x

    def logits(self, X: np.ndarray) -> np.ndarray:
        """Head logits for a raw ``(n, servers, features)`` batch.

        The returned array is an internal buffer, valid until the next
        call.
        """
        X = np.asarray(X, dtype=self._dtype)
        if X.ndim != 3 or X.shape[1] != self.n_servers \
                or X.shape[2] != self.n_features:
            raise ValueError(
                f"expected (n, {self.n_servers}, {self.n_features}), "
                f"got {X.shape}"
            )
        self._ensure_buffers(len(X))
        per_server = self._forward(X, self._kernel, self._kernel_bufs)
        return self._forward(per_server[..., 0], self._head, self._head_bufs)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class probabilities; returned array is an internal buffer."""
        logits = self.logits(X)
        np.amax(logits, axis=-1, keepdims=True, out=self._max_buf)
        logits -= self._max_buf
        np.exp(logits, out=logits)
        np.sum(logits, axis=-1, keepdims=True, out=self._sum_buf)
        logits /= self._sum_buf
        return logits

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Severity classes (fresh array, safe to keep)."""
        # argmax of the probabilities equals argmax of the logits, but
        # running the softmax keeps the numerics identical to
        # ``predict_proba(...).argmax`` for near-tied windows.
        return self.predict_proba(X).argmax(axis=-1)

    def predict_proba_rows(self, X: np.ndarray) -> np.ndarray:
        """Batch scoring whose every row is bit-identical to a
        batch-of-one :meth:`predict_proba` call.

        The prediction service micro-batches windows from many tenants
        into one forward pass, but must return each tenant the exact
        bits a standalone per-window scorer would have produced — the
        batch composition (who else happened to land in this tick)
        cannot be allowed to perturb anyone's prediction.  A plain
        batched :meth:`predict_proba` breaks that: the head's 2-D
        matmuls go through one BLAS gemm whose summation order depends
        on the row count.  Stacking restores row-invariance: numpy
        evaluates a stacked matmul slice by slice, each slice at the
        shapes of its own 2-D call.

        * the **kernel stack is 3-D** — ``(n, s, f) @ (f, h)`` runs as
          ``n`` slices of ``(s, f) @ (f, h)``, so each window's
          per-server pass is bitwise independent of ``n``.  This stage
          carries essentially all the FLOPs;
        * the **head runs on stacked rows** — ``(n, 1, s) @ (s, h)``
          runs as ``n`` slices of ``(1, s) @ (s, h)``, the exact n=1
          shapes of the standalone path, and the softmax reduces over
          the class axis only, so each row gets the standalone bits.

        Every layer is one matmul call for the whole batch; no Python
        code runs per row.  Returns a fresh ``(n, n_classes)`` array
        (safe to keep).
        """
        X = np.asarray(X, dtype=self._dtype)
        if X.ndim != 3 or X.shape[1] != self.n_servers \
                or X.shape[2] != self.n_features:
            raise ValueError(
                f"expected (n, {self.n_servers}, {self.n_features}), "
                f"got {X.shape}"
            )
        n = len(X)
        if n == 0:
            return np.empty((0, self.n_classes), dtype=self._dtype)
        if self._row_buf_n != n:
            self._row_kernel_bufs = [
                np.empty((n, self.n_servers, W.shape[1]), dtype=self._dtype)
                for W, _, _ in self._kernel
            ]
            self._row_head_bufs = [
                np.empty((n, 1, W.shape[1]), dtype=self._dtype)
                for W, _, _ in self._head
            ]
            self._row_buf_n = n
        per_server = self._forward(X, self._kernel, self._row_kernel_bufs)
        logits = self._forward(per_server[:, None, :, 0], self._head,
                               self._row_head_bufs)[:, 0]
        probs = logits - logits.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        return probs

    def scores(self, X: np.ndarray) -> np.ndarray:
        """Unfused reference probabilities (allocating; for verification)."""
        return softmax_probs(np.array(self.logits(X)))
