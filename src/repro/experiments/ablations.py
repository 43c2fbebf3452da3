"""Ablation studies on the design choices DESIGN.md calls out.

The paper motivates three design decisions without ablating them; this
module measures each:

* **A1 — model architecture**: the kernel-based per-server network vs a
  flat MLP over concatenated vectors, logistic regression and a random
  forest; plus OST-permutation robustness, the kernel design's stated
  motivation ("applications may utilise a subset of OSTs or target
  different ones in multiple runs", §III-C).
* **A2 — feature families**: client-side-only vs server-side-only vs both
  (§III-A/B claim both are needed).
* **A3 — window size**: the user-defined aggregation window trades label
  sharpness against sample count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.common.rng import derive_rng
from repro.core.baselines import LogisticRegressionClassifier, RandomForestClassifier
from repro.core.dataset import Dataset, Normalizer, train_test_split
from repro.core.labeling import BINARY_THRESHOLDS
from repro.core.metrics import ClassificationReport, evaluate
from repro.core.nn.network import MLPClassifier
from repro.core.nn.train import TrainConfig, train_classifier
from repro.core.predictor import InterferencePredictor
from repro.experiments.datagen import (
    Scenario,
    WindowBank,
    bank_to_dataset,
    collect_windows,
)
from repro.experiments.runner import ExperimentConfig
from repro.monitor.schema import CLIENT_FEATURES
from repro.workloads.base import Workload

if TYPE_CHECKING:  # imported lazily at run time (circular with repro.parallel)
    from repro.parallel import SweepExecutor

__all__ = [
    "AblationResult",
    "run_model_ablation",
    "run_feature_ablation",
    "run_window_size_ablation",
    "run_regression_extension",
]


@dataclass
class AblationResult:
    """Macro-F1 per ablation arm."""

    name: str
    scores: dict[str, float] = field(default_factory=dict)
    reports: dict[str, ClassificationReport] = field(default_factory=dict,
                                                     repr=False)

    def render(self) -> str:
        lines = [f"== ablation: {self.name} =="]
        for arm, score in sorted(self.scores.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {arm:32s} macro_f1={score:.3f}")
        return "\n".join(lines)


def _permute_servers(X: np.ndarray, seed: int) -> np.ndarray:
    """Shuffle the server axis per sample (OST reassignment between runs)."""
    rng = derive_rng(seed, "permute-servers")
    out = X.copy()
    for i in range(len(out)):
        out[i] = out[i][rng.permutation(X.shape[1])]
    return out


def _train_kernels(train_sets: list[Dataset],
                   thresholds: tuple[float, ...], seed: int,
                   executor: "SweepExecutor | None"
                   ) -> list[InterferencePredictor]:
    """Kernel-net arms, trained as one batch through ``executor`` (a
    fresh uncached :class:`~repro.parallel.SweepExecutor` when omitted)."""
    from repro.parallel import SweepExecutor, TrainJob

    return (executor or SweepExecutor()).train_predictors([
        TrainJob(train_set, thresholds=thresholds,
                 config=TrainConfig(seed=seed), seed=seed)
        for train_set in train_sets
    ])


def run_model_ablation(
    bank: WindowBank,
    thresholds: tuple[float, ...] = BINARY_THRESHOLDS,
    seed: int = 0,
    executor: "SweepExecutor | None" = None,
) -> AblationResult:
    """A1: kernel net vs flat MLP vs logistic regression vs random forest,
    each also scored on server-permuted test data.

    The kernel net trains through ``executor`` (a fresh uncached
    :class:`~repro.parallel.SweepExecutor` when omitted); the other arms
    train in place.
    """
    dataset = bank_to_dataset(bank, thresholds)
    train_set, test_set = train_test_split(dataset, 0.2, seed=seed)
    n_classes = len(thresholds) + 1
    norm = Normalizer().fit(train_set.X)
    Xtr = norm.transform(train_set.X)
    Xte = norm.transform(test_set.X)
    Xte_perm = _permute_servers(Xte, seed)
    result = AblationResult(name="model-architecture")

    [predictor] = _train_kernels([train_set], thresholds, seed, executor)
    kernel_model = predictor.model

    flat = MLPClassifier(train_set.n_servers * train_set.n_features,
                         (64, 32), n_classes, seed=seed)
    train_classifier(flat, Xtr, train_set.y, TrainConfig(seed=seed))

    from repro.core.nn.attention import SetTransformerClassifier

    set_tf = SetTransformerClassifier(train_set.n_servers,
                                      train_set.n_features, n_classes,
                                      dim=32, n_heads=4, n_blocks=2,
                                      seed=seed)
    train_classifier(set_tf, Xtr, train_set.y, TrainConfig(seed=seed))

    logreg = LogisticRegressionClassifier(n_classes, seed=seed).fit(Xtr, train_set.y)
    forest = RandomForestClassifier(n_classes, seed=seed).fit(Xtr, train_set.y)

    arms = {
        "kernel-net": lambda X: kernel_model.predict(X),
        "set-transformer": lambda X: set_tf.predict(X),
        "flat-mlp": lambda X: flat.predict(X),
        "logistic-regression": lambda X: logreg.predict(X),
        "random-forest": lambda X: forest.predict(X),
    }
    for arm, predict in arms.items():
        report = evaluate(test_set.y, predict(Xte), n_classes=n_classes)
        result.scores[arm] = report.macro_f1
        result.reports[arm] = report
        perm_report = evaluate(test_set.y, predict(Xte_perm), n_classes=n_classes)
        result.scores[f"{arm}/permuted-servers"] = perm_report.macro_f1
        result.reports[f"{arm}/permuted-servers"] = perm_report
    return result


def run_feature_ablation(
    bank: WindowBank,
    thresholds: tuple[float, ...] = BINARY_THRESHOLDS,
    seed: int = 0,
    executor: "SweepExecutor | None" = None,
) -> AblationResult:
    """A2: client-only vs server-only vs full per-server vectors.

    The three arms are independent trainings on different feature
    slices, submitted to ``executor`` as one batch.
    """
    n_client = len(CLIENT_FEATURES)
    masks = {
        "client+server": slice(None),
        "client-only": slice(0, n_client),
        "server-only": slice(n_client, None),
    }
    result = AblationResult(name="feature-families")
    splits = {}
    for arm, sl in masks.items():
        X = bank.X[:, :, sl]
        dataset = Dataset(X, bank_to_dataset(bank, thresholds).y,
                          feature_names=tuple(
                              f"f{i}" for i in range(X.shape[2])))
        splits[arm] = train_test_split(dataset, 0.2, seed=seed)
    predictors = _train_kernels([train_set for train_set, _ in
                                 splits.values()], thresholds, seed, executor)
    for (arm, (_, test_set)), predictor in zip(splits.items(), predictors):
        report = predictor.evaluate(test_set)
        result.scores[arm] = report.macro_f1
        result.reports[arm] = report
    return result


def run_regression_extension(
    bank: WindowBank,
    thresholds: tuple[float, ...] = BINARY_THRESHOLDS,
    seed: int = 0,
    executor: "SweepExecutor | None" = None,
):
    """A6: exact-level regression vs classification on the same windows.

    Trains :class:`~repro.core.regression.LevelRegressor` on raw
    degradation levels and reports (a) its regression metrics and (b) the
    classification F1 obtained by thresholding its predicted levels,
    against the kernel classifier trained on the binned labels through
    ``executor``.
    """
    from repro.core.regression import LevelRegressor

    from repro.core.dataset import split_indices

    dataset = bank_to_dataset(bank, thresholds)
    train_idx, test_idx = split_indices(len(dataset), 0.2, seed=seed)
    train_set = dataset.subset(train_idx, ":train")
    test_set = dataset.subset(test_idx, ":test")

    regressor = LevelRegressor.train(
        bank.X[train_idx], bank.levels[train_idx],
        config=TrainConfig(seed=seed, class_weighting=False), seed=seed,
    )
    reg_metrics = regressor.evaluate(bank.X[test_idx], bank.levels[test_idx])
    reg_classes = regressor.classify(bank.X[test_idx], thresholds)
    reg_report = evaluate(dataset.y[test_idx], reg_classes,
                          n_classes=len(thresholds) + 1)

    [classifier] = _train_kernels([train_set], thresholds, seed, executor)
    cls_report = classifier.evaluate(test_set)

    result = AblationResult(name="regression-extension")
    result.scores["classifier (binned training)"] = cls_report.macro_f1
    result.scores["regressor (thresholded levels)"] = reg_report.macro_f1
    result.reports["classifier (binned training)"] = cls_report
    result.reports["regressor (thresholded levels)"] = reg_report
    return result, reg_metrics


def run_window_size_ablation(
    targets: list[Workload],
    scenarios: list[Scenario],
    config: ExperimentConfig,
    window_sizes: tuple[float, ...] = (0.25, 0.5, 1.0),
    thresholds: tuple[float, ...] = BINARY_THRESHOLDS,
    seed: int = 0,
    executor: "SweepExecutor | None" = None,
) -> AblationResult:
    """A3: re-collect and re-train at several aggregation window sizes.

    ``window_size`` is excluded from the run-cache key (it only shapes
    post-processing), so with a run cache attached every arm whose
    ``sample_interval`` is unchanged re-bins the first arm's simulation
    sweep instead of re-running it.  All arms' models then train through
    ``executor`` as one batch.
    """
    from dataclasses import replace

    from repro.parallel import SweepExecutor

    executor = executor or SweepExecutor()
    result = AblationResult(name="window-size")
    splits = {}
    for ws in window_sizes:
        cfg = replace(config, window_size=ws,
                      sample_interval=min(config.sample_interval, ws / 2))
        bank = collect_windows(targets, scenarios, cfg, executor=executor)
        dataset = bank_to_dataset(bank, thresholds)
        arm = f"window={ws:g}s (n={len(dataset)})"
        splits[arm] = train_test_split(dataset, 0.2, seed=seed)
    predictors = _train_kernels([train_set for train_set, _ in
                                 splits.values()], thresholds, seed, executor)
    for (arm, (_, test_set)), predictor in zip(splits.items(), predictors):
        report = predictor.evaluate(test_set)
        result.scores[arm] = report.macro_f1
        result.reports[arm] = report
    return result
