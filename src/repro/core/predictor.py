"""The deployable interference predictor.

Bundles everything the paper's training server deploys after training:
the feature normaliser, the kernel-based model and the severity
thresholds. At runtime it consumes the same per-server vectors the
monitors emit and predicts each window's interference severity class.

Training runs ``restarts`` independent initialisations and keeps the
best.  When the process may use a second core they train side by side,
one supervised child process per restart (:mod:`repro.parallel.
supervise`); otherwise, and always in a daemonic process, one after
another in the caller.  Both placements produce the same bits.

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
  :class:`DeployedPredictor` with one row-invariant forward pass, which
  the prediction service, the streaming predictor and batch scoring all
  share: scoring does no normalisation pass.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.dataset import Dataset, Normalizer
from repro.core.labeling import BINARY_THRESHOLDS
from repro.core.metrics import ClassificationReport, evaluate
from repro.core.nn.blas import single_blas_thread
from repro.core.nn.kernelnet import KernelInterferenceNet
from repro.core.nn.layers import Dense, Dropout, ReLU, Sequential
from repro.core.nn.train import (
    TrainConfig,
    TrainHistory,
    restart_seed,
    train_classifier,
)
from repro.monitor.aggregator import MonitoredRun, assemble_vectors
from repro.obs.metrics import REGISTRY

__all__ = ["InterferencePredictor", "DeployedPredictor", "PREDICTOR_FORMAT"]

#: Bumped whenever the saved ``.npz`` layout changes incompatibly.
PREDICTOR_FORMAT = 1

_PREDICTOR_KIND = "repro-interference-predictor"


def _cores() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one (so ``taskset -c 0`` counts 1), else the machine's
    count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _side_by_side(restarts: int) -> bool:
    """Whether ``restarts`` train in child processes, one each: more
    than one restart, more than one core, and a caller that may start
    children (a daemonic process, such as a sweep worker, may not)."""
    if restarts == 1 or _cores() < 2:
        return False
    import multiprocessing

    return not multiprocessing.current_process().daemon


def _train_restart(net, train_set: Dataset, config: TrainConfig,
                   normalizer: Normalizer, seed: int, restart: int
                   ) -> tuple[list[np.ndarray], TrainHistory]:
    """Restart ``restart`` of a training: build ``net`` from
    ``restart_seed(seed, restart)``, run the full loop, and return the
    trained parameter values and the history."""
    model = net(seed=restart_seed(seed, restart))
    history = train_classifier(model, train_set.X, train_set.y, config,
                               normalizer=normalizer)
    return [p.value for p in model.params()], history


def _restart_in_child(train_restart, item: tuple[str, int, int]):
    """Pool worker: one restart on a clean metrics registry, shipping
    the registry delta back with the result (fork-started children
    inherit the parent's registry)."""
    _, restart, _ = item
    REGISTRY.reset()
    values, history = train_restart(restart)
    return values, history, REGISTRY.snapshot()


def _train_side_by_side(train_restart, restarts: int
                        ) -> list[tuple[list[np.ndarray], TrainHistory]]:
    """Every restart on its own slot of the supervised pool.

    OpenBLAS is pinned to one thread once, here, so the children inherit
    the resolved library handle and the pin.  Each child's registry
    delta is merged in restart order without a worker label, so the
    ``train.*`` counters, histograms and final gauges equal the serial
    loop's.  A restart that raises, or whose child dies, makes this
    raise: no restart is dropped.
    """
    from repro.parallel.supervise import run_supervised

    keys = [f"restart {r}" for r in range(restarts)]
    shipped: dict[str, tuple] = {}
    with single_blas_thread():
        stats = run_supervised(
            list(zip(keys, range(restarts))),
            functools.partial(_restart_in_child, train_restart),
            workers=restarts,
            on_success=lambda key, result, slot: shipped.update({key: result}),
        )
    failed = [key for key in keys if key in stats.quarantined]
    if failed:
        raise RuntimeError("training " + "; ".join(
            f"{key} failed: {stats.quarantined[key]['errors'][-1]}"
            for key in failed))
    outcomes = []
    for key in keys:
        values, history, delta = shipped[key]
        REGISTRY.merge_snapshot(delta)
        outcomes.append((values, history))
    return outcomes


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

    @staticmethod
    def check_train_inputs(train_set: Dataset, thresholds: tuple[float, ...],
                           restarts: int) -> int:
        """Validate a training request; returns the class count.

        :meth:`train` calls it, and so does
        :meth:`repro.parallel.SweepExecutor.train_predictors` while
        planning a batch, so a bad job fails before any job in its batch
        trains."""
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

        With more than one restart and more than one usable core the
        restarts train side by side, one supervised child process each;
        otherwise they train one after another in this process.  The
        trained parameters, the history and the ``train.*`` metrics are
        the same either way.  Bad inputs raise ``ValueError`` before any
        restart starts; a restart that fails makes this raise.
        """
        n_classes = cls.check_train_inputs(train_set, thresholds, restarts)
        # The training loop normalises each batch as it is gathered.
        normalizer = Normalizer().fit(train_set.X)
        config = config or TrainConfig(seed=seed)
        net = functools.partial(
            KernelInterferenceNet, n_servers=train_set.n_servers,
            n_features=train_set.n_features, n_classes=n_classes)
        train_restart = functools.partial(_train_restart, net, train_set,
                                          config, normalizer, seed)
        if _side_by_side(restarts):
            outcomes = _train_side_by_side(train_restart, restarts)
        else:
            outcomes = [train_restart(r) for r in range(restarts)]

        def score(restart: int) -> float:
            val_loss = outcomes[restart][1].val_loss
            return min(val_loss) if val_loss else float("inf")

        # min() keeps the first of equal scores: strictly lower wins and
        # ties go to the lowest restart index.
        best = min(range(restarts), key=score)
        values, history = outcomes[best]
        model = net(seed=restart_seed(seed, best))
        for param, value in zip(model.params(), values):
            param.value = value
        return cls(model=model, normalizer=normalizer, thresholds=thresholds,
                   history=history)

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
            "dtype": "float64",
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
        version, mismatched shapes, parameters that are not float64) and
        ``OSError`` for unreadable paths.
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
                    if value.dtype != np.float64:
                        raise ValueError(
                            f"{path}: param_{i} is {value.dtype}; only "
                            f"float64 models are supported")
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
        return self.normalizer.transform(np.asarray(X, dtype=float))

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
        """A fused-inference view of this predictor.

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
    """Fused inference for a trained predictor: one forward pass.

    **Normaliser fusion** — the z-score ``(x - mean) / std`` is an
    affine map, and so is the first kernel layer ``x' @ W + b``.
    Composing them gives ``x @ (W / std[:, None]) + (b - (mean / std)
    @ W)``: one matmul replaces the normalisation pass entirely, with
    results equal to the unfused path up to float rounding (the
    reassociation of the same affine arithmetic).

    :meth:`predict_proba_rows` is the only forward pass, and it is
    row-invariant: every row of a batch is bit-identical to scoring that
    window alone, so the prediction service's micro-batches, the
    streaming predictor's batch of one and an offline batch all return
    the same bits for the same vector.  :meth:`predict` is its argmax.
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

        kernel = _affine_stack(model.kernel)
        # Fold the z-score affine into the first kernel layer.
        W0, b0, relu0 = kernel[0]
        inv_std = 1.0 / np.asarray(norm.std)
        kernel[0] = [W0 * inv_std[:, None],
                     b0 - (np.asarray(norm.mean) * inv_std) @ W0, relu0]
        self._kernel = kernel
        self._head = _affine_stack(model.head)

    @staticmethod
    def _forward(x: np.ndarray, stack) -> np.ndarray:
        for W, b, relu in stack:
            x = np.matmul(x, W)
            x += b
            if relu:
                np.maximum(x, 0.0, out=x)
        return x

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Severity classes: the argmax of :meth:`predict_proba_rows`."""
        return self.predict_proba_rows(X).argmax(axis=-1)

    def predict_proba_rows(self, X: np.ndarray) -> np.ndarray:
        """Class probabilities for a raw ``(n, servers, features)`` batch;
        every row is bit-identical to scoring that window alone.

        The prediction service micro-batches windows from many tenants
        into one forward pass, but must return each tenant the exact
        bits a standalone per-window scorer would have produced — the
        batch composition (who else happened to land in this tick)
        cannot be allowed to perturb anyone's prediction.  A plain 2-D
        head breaks that: its matmuls go through one BLAS gemm whose
        summation order depends on the row count.  Stacking restores
        row-invariance: numpy evaluates a stacked matmul slice by slice,
        each slice at the shapes of its own 2-D call.

        * the **kernel stack is 3-D** — ``(n, s, f) @ (f, h)`` runs as
          ``n`` slices of ``(s, f) @ (f, h)``, so each window's
          per-server pass is bitwise independent of ``n``.  This stage
          carries essentially all the FLOPs;
        * the **head runs on stacked rows** — ``(n, 1, s) @ (s, h)``
          runs as ``n`` slices of ``(1, s) @ (s, h)``, the shapes of a
          batch of one, and the softmax reduces over the class axis
          only, so each row gets the batch-of-one bits.

        Every layer is one matmul call for the whole batch; no Python
        code runs per row.  Returns a fresh ``(n, n_classes)`` array
        (safe to keep).
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 3 or X.shape[1] != self.n_servers \
                or X.shape[2] != self.n_features:
            raise ValueError(
                f"expected (n, {self.n_servers}, {self.n_features}), "
                f"got {X.shape}"
            )
        if len(X) == 0:
            return np.empty((0, self.n_classes))
        per_server = self._forward(X, self._kernel)
        logits = self._forward(per_server[:, None, :, 0], self._head)[:, 0]
        probs = logits - logits.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        return probs
