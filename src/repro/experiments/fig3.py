"""Figures 3(a)/3(b): binary interference prediction on IO500 and DLIO.

The paper trains the binary (>= 2x slowdown) classifier on windows from
each benchmark family and evaluates on a random 20% held-out split,
reporting confusion matrices with high accuracy on both. This module
generates the per-family window banks, trains the kernel network and
returns the full report (matrix, P/R/F1, class balance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.dataset import Dataset, train_test_split
from repro.core.labeling import BINARY_THRESHOLDS
from repro.core.metrics import ClassificationReport
from repro.core.nn.train import TrainConfig
from repro.core.predictor import InterferencePredictor
from repro.experiments.datagen import (
    Scenario,
    WindowBank,
    bank_to_dataset,
    collect_windows,
    standard_scenarios,
)
from repro.experiments.reporting import render_matrix
from repro.experiments.runner import ExperimentConfig
from repro.workloads.dlio import DLIOConfig, DLIOWorkload
from repro.workloads.io500 import IO500_TASKS, make_io500_task

if TYPE_CHECKING:  # imported lazily at run time (circular with repro.parallel)
    from repro.parallel import TrainExecutor

__all__ = ["ModelEvalResult", "evaluate_bank", "evaluate_banks",
           "run_fig3_io500", "run_fig3_dlio",
           "collect_io500_bank", "collect_dlio_bank"]


@dataclass
class ModelEvalResult:
    """One trained-and-evaluated scenario (one panel of Figures 3-5)."""

    name: str
    report: ClassificationReport
    train_counts: list[int]
    test_counts: list[int]
    n_windows: int
    predictor: InterferencePredictor

    def render(self) -> str:
        classes = [f"bin{i}" for i in range(self.report.n_classes)]
        if self.report.n_classes == 2:
            classes = ["<2x", ">=2x"]
        elif self.report.n_classes == 3:
            classes = ["<2x", "2-5x", ">=5x"]
        body = render_matrix(self.name, self.report.confusion, classes)
        return (
            f"{body}\n{self.report.summary()}\n"
            f"train={self.train_counts} test={self.test_counts}"
        )


def _bank_result(name: str, predictor: InterferencePredictor,
                 dataset: Dataset, train_set: Dataset, test_set: Dataset,
                 thresholds: tuple[float, ...]) -> ModelEvalResult:
    """Evaluate a trained predictor on its held-out split."""
    report = predictor.evaluate(test_set)
    n_classes = len(thresholds) + 1
    pad = lambda ds: [
        int(c) for c in
        (list(ds.class_counts()) + [0] * n_classes)[:n_classes]
    ]
    return ModelEvalResult(
        name=name,
        report=report,
        train_counts=pad(train_set),
        test_counts=pad(test_set),
        n_windows=len(dataset),
        predictor=predictor,
    )


def evaluate_bank(
    bank: WindowBank,
    name: str,
    thresholds: tuple[float, ...] = BINARY_THRESHOLDS,
    test_fraction: float = 0.2,
    train_config: TrainConfig | None = None,
    seed: int = 0,
    trainer: "TrainExecutor | None" = None,
) -> ModelEvalResult:
    """The paper's per-benchmark protocol: 80/20 split, train, evaluate.

    Training goes through ``trainer`` (a fresh uncached
    :class:`~repro.parallel.TrainExecutor` when omitted); pass one with a
    model cache to recall the trained model instead of retraining it.
    """
    return evaluate_banks([(name, bank)], thresholds=thresholds,
                          test_fraction=test_fraction,
                          train_config=train_config, seed=seed,
                          trainer=trainer)[0]


def evaluate_banks(
    named_banks: list[tuple[str, WindowBank]],
    thresholds: tuple[float, ...] = BINARY_THRESHOLDS,
    test_fraction: float = 0.2,
    train_config: TrainConfig | None = None,
    seed: int = 0,
    trainer: "TrainExecutor | None" = None,
) -> list[ModelEvalResult]:
    """:func:`evaluate_bank` over a grid of banks, trained as one batch.

    All banks' models go to ``trainer`` together, so equal recipes train
    once and every cell is probed in the model cache up front.
    """
    from repro.parallel import TrainExecutor, TrainJob

    prepared = []
    for name, bank in named_banks:
        dataset = bank_to_dataset(bank, thresholds, source=name)
        train_set, test_set = train_test_split(dataset, test_fraction,
                                               seed=seed)
        prepared.append((name, dataset, train_set, test_set))
    config = train_config or TrainConfig(seed=seed)
    predictors = (trainer or TrainExecutor()).train_predictors([
        TrainJob(train_set, thresholds=thresholds, config=config, seed=seed)
        for _, _, train_set, _ in prepared
    ])
    return [
        _bank_result(name, predictor, dataset, train_set, test_set,
                     thresholds)
        for (name, dataset, train_set, test_set), predictor
        in zip(prepared, predictors)
    ]


#: Default noise mix: one task per access family (bulk write, bulk read,
#: small-write metadata), the contention axes Table I shows matter.
DEFAULT_NOISE_TASKS: tuple[str, ...] = (
    "ior-easy-write", "ior-easy-read", "mdt-hard-write",
)


def collect_io500_bank(
    config: ExperimentConfig | None = None,
    tasks: tuple[str, ...] = IO500_TASKS,
    target_ranks: int = 4,
    target_scale: float = 0.4,
    max_level: int = 3,
    noise_tasks: tuple[str, ...] = DEFAULT_NOISE_TASKS,
    noise_ranks: int = 3,
    noise_scale: float = 0.25,
    include_light: bool = True,
    executor=None,
    store=None,
) -> WindowBank:
    """Windows from IO500 targets under the standard noise sweep.

    ``include_light`` appends one low-intensity scenario per noise task
    (single instance, fewer ranks), populating the *moderate* (2-5x)
    severity band that Figure 4's middle bin needs — without it the sweep
    is dominated by quiet (<2x) and saturated (>=5x) windows.
    """
    config = config or ExperimentConfig()
    targets = [make_io500_task(t, ranks=target_ranks, scale=target_scale)
               for t in tasks]
    scenarios = standard_scenarios(max_level=max_level, tasks=noise_tasks,
                                   ranks=noise_ranks, scale=noise_scale)
    if include_light:
        from repro.experiments.runner import InterferenceSpec

        for task in noise_tasks:
            scenarios.append(
                Scenario(
                    f"{task}-light",
                    (InterferenceSpec(task, instances=1, ranks=2,
                                      scale=noise_scale * 0.8),),
                )
            )
            scenarios.append(
                Scenario(
                    f"{task}-medium",
                    (InterferenceSpec(task, instances=2, ranks=2,
                                      scale=noise_scale * 0.8),),
                )
            )
    return collect_windows(targets, scenarios, config,
                           executor=executor, store=store)


def collect_dlio_bank(
    config: ExperimentConfig | None = None,
    max_level: int = 3,
    noise_tasks: tuple[str, ...] = DEFAULT_NOISE_TASKS,
    noise_ranks: int = 3,
    noise_scale: float = 0.25,
    epochs: int = 2,
    steps_per_epoch: int = 12,
    compute_time: float = 0.2,
    sample_bytes: int = 16 * 1024 * 1024,
    batch_read_bytes: int = 2 * 1024 * 1024,
    executor=None,
    store=None,
) -> WindowBank:
    """Windows from the two DLIO profiles (Unet3d, BERT).

    Defaults emphasise DLIO's character versus IO500: large per-step
    sample reads separated by dominant compute phases, which is what
    makes the paper's DLIO dataset mostly negative.
    """
    config = config or ExperimentConfig()
    targets = [
        DLIOWorkload(DLIOConfig(model="unet3d", ranks=4, epochs=epochs,
                                steps_per_epoch=steps_per_epoch,
                                compute_time=compute_time,
                                sample_bytes=sample_bytes)),
        DLIOWorkload(DLIOConfig(model="bert", ranks=4, epochs=epochs,
                                steps_per_epoch=steps_per_epoch,
                                compute_time=compute_time,
                                batch_read_bytes=batch_read_bytes)),
    ]
    scenarios = standard_scenarios(max_level=max_level, tasks=noise_tasks,
                                   ranks=noise_ranks, scale=noise_scale)
    return collect_windows(targets, scenarios, config,
                           executor=executor, store=store)


def run_fig3_io500(config: ExperimentConfig | None = None,
                   bank: WindowBank | None = None,
                   trainer: "TrainExecutor | None" = None,
                   **bank_kwargs) -> ModelEvalResult:
    """Figure 3(a): binary classification on IO500 windows."""
    bank = bank or collect_io500_bank(config, **bank_kwargs)
    return evaluate_bank(bank, "fig3a-io500", BINARY_THRESHOLDS,
                         trainer=trainer)


def run_fig3_dlio(config: ExperimentConfig | None = None,
                  bank: WindowBank | None = None,
                  trainer: "TrainExecutor | None" = None,
                  **bank_kwargs) -> ModelEvalResult:
    """Figure 3(b): binary classification on DLIO windows."""
    bank = bank or collect_dlio_bank(config, **bank_kwargs)
    return evaluate_bank(bank, "fig3b-dlio", BINARY_THRESHOLDS,
                         trainer=trainer)
