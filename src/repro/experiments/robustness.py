"""Robustness (A10): prediction quality under telemetry faults.

The paper's monitors are assumed healthy: every server sample arrives,
every client window is populated.  Real deployments lose telemetry — a
monitor daemon restarts, a node's forwarder backs up, a collection
window ships empty — and a predictor that falls apart the moment its
inputs go gappy is not deployable.  This experiment measures that cliff:
an interference-trained predictor is scored on the fail-slow harness
(reused from A7, with A7's ``ior-easy-read`` target, so the ground-truth
labels come from *client-side records* and are untouched by
server-telemetry faults) while
:func:`repro.faults.apply_faults` degrades the telemetry at increasing
sample-drop and window-blanking rates, once per gap-imputation policy.

Two curves per policy come out of it:

* **macro F1 vs sample-loss rate** — server samples dropped uniformly;
* **macro F1 vs window-blank rate** — whole client windows blanked
  (the client monitor shipped nothing for the window).

Fault injection is deterministic (every decision derives from the
:class:`~repro.faults.FaultPlan` seed), so the curves are exactly
reproducible, and faults are applied *post-hoc* to the collected runs —
one simulation sweep serves the whole fault grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.labeling import BINARY_THRESHOLDS, DegradationLabeller
from repro.core.metrics import evaluate
from repro.core.nn.train import TrainConfig
from repro.core.predictor import InterferencePredictor
from repro.experiments.datagen import (
    bank_to_dataset,
    collect_windows,
    standard_scenarios,
)
from repro.experiments.failslow import run_failslow_run
from repro.experiments.runner import ExperimentConfig
from repro.faults import FaultPlan, apply_faults
from repro.monitor.aggregator import GAP_POLICIES, MonitoredRun, assemble_vectors
from repro.obs.log import get_logger
from repro.workloads.io500 import make_io500_task

if TYPE_CHECKING:  # imported lazily at run time (circular with repro.parallel)
    from repro.parallel import SweepExecutor

__all__ = ["RobustnessResult", "run_robustness"]

logger = get_logger("experiments.robustness")


@dataclass
class RobustnessResult:
    """Macro-F1 degradation curves under telemetry faults.

    ``rows`` holds one entry per (fault kind, rate, gap policy) cell:
    ``{"fault", "rate", "policy", "macro_f1", "accuracy", "gap_fraction",
    "n_windows"}``.  Rate 0.0 rows are the fault-free reference.
    """

    rows: list[dict] = field(default_factory=list)
    n_eval_windows: int = 0
    class_counts: list[int] = field(default_factory=list)
    fault_seed: int = 0

    def curve(self, fault: str, policy: str) -> list[tuple[float, float]]:
        """(rate, macro F1) points of one degradation curve, rate-sorted."""
        pts = [(row["rate"], row["macro_f1"]) for row in self.rows
               if row["fault"] == fault and row["policy"] == policy]
        return sorted(pts)

    def render(self) -> str:
        lines = [
            "== robustness: F1 under telemetry faults "
            "(interference-trained model, fail-slow eval) ==",
            f"eval windows={self.n_eval_windows} "
            f"classes={self.class_counts} fault_seed={self.fault_seed}",
            "",
            f"{'fault':<8} {'rate':>6} {'policy':>8} {'macroF1':>9} "
            f"{'acc':>7} {'gaps':>7}",
        ]
        for row in self.rows:
            lines.append(
                f"{row['fault']:<8} {row['rate']:>6.2f} "
                f"{row['policy']:>8} {row['macro_f1']:>9.3f} "
                f"{row['accuracy']:>7.3f} {row['gap_fraction']:>7.3f}"
            )
        return "\n".join(lines)

    def to_report(self) -> dict:
        """JSON-ready fault report (the CI artifact)."""
        return {
            "experiment": "robustness",
            "n_eval_windows": self.n_eval_windows,
            "class_counts": self.class_counts,
            "fault_seed": self.fault_seed,
            "rows": [dict(row) for row in self.rows],
        }


def _train_predictor(
    config: ExperimentConfig,
    target_scale: float,
    noise_scale: float,
    max_level: int,
    executor,
    epochs: int,
) -> InterferencePredictor:
    """A small interference-trained binary predictor (the A7 recipe)."""
    target = make_io500_task("ior-easy-write", ranks=2, scale=target_scale)
    scenarios = standard_scenarios(
        max_level=max_level,
        tasks=("ior-easy-write", "mdt-hard-write"),
        ranks=2, scale=noise_scale,
    )
    bank = collect_windows([target], scenarios, config, executor=executor)
    dataset = bank_to_dataset(bank, BINARY_THRESHOLDS, source="robustness")
    train_cfg = TrainConfig(epochs=epochs, seed=config.seed)
    return executor.train_predictor(
        dataset, thresholds=BINARY_THRESHOLDS, config=train_cfg, restarts=2)


def _eval_faulted(
    predictor: InterferencePredictor,
    runs: list[tuple[MonitoredRun, dict[int, int]]],
    plan: FaultPlan | None,
    policy: str,
    config: ExperimentConfig,
) -> dict:
    """Score the predictor on the eval runs under one fault condition."""
    y_parts: list[int] = []
    pred_parts: list[np.ndarray] = []
    gap_cells = 0
    total_cells = 0
    for run, labels in runs:
        faulted = apply_faults(run, plan, config.window_size) \
            if plan is not None else run
        X, windows, mask = assemble_vectors(
            faulted, config.window_size, config.sample_interval,
            gap_policy=policy, return_mask=True,
        )
        gap_cells += int((~mask).sum())
        total_cells += mask.size
        keep = [i for i, w in enumerate(windows) if w in labels]
        if not keep:
            continue
        y_parts.extend(labels[windows[i]] for i in keep)
        pred_parts.append(predictor.predict(X[keep]))
    y = np.array(y_parts)
    preds = np.concatenate(pred_parts) if pred_parts else np.array([], int)
    report = evaluate(y, preds, n_classes=predictor.n_classes)
    return {
        "macro_f1": float(report.macro_f1),
        "accuracy": float(report.accuracy),
        "gap_fraction": gap_cells / total_cells if total_cells else 0.0,
        "n_windows": int(len(y)),
    }


def run_robustness(
    config: ExperimentConfig | None = None,
    target_scale: float = 0.3,
    noise_scale: float = 0.2,
    max_level: int = 2,
    drop_rates: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6),
    blank_rates: tuple[float, ...] = (0.0, 0.2, 0.4),
    gap_policies: tuple[str, ...] = GAP_POLICIES,
    slow_factors: tuple[float, ...] = (4.0, 8.0),
    fault_seed: int = 1,
    epochs: int = 60,
    executor: "SweepExecutor | None" = None,
) -> RobustnessResult:
    """Measure prediction F1 vs telemetry sample loss and window blanking.

    Trains a binary interference predictor, collects fail-slow eval runs
    once, then sweeps ``drop_rates`` x ``gap_policies`` and
    ``blank_rates`` x ``gap_policies`` over *post-hoc* fault injections
    of those runs.  Ground-truth labels are computed from the clean
    client records before any fault is applied, so the curves isolate
    the predictor's sensitivity to degraded inputs.  The training sweep
    and the predictor's training run through ``executor`` (a fresh
    uncached :class:`~repro.parallel.SweepExecutor` when omitted).
    """
    from repro.parallel import SweepExecutor

    executor = executor or SweepExecutor()
    config = config or ExperimentConfig()
    for policy in gap_policies:
        if policy not in GAP_POLICIES:
            raise ValueError(f"unknown gap policy {policy!r}")
    predictor = _train_predictor(config, target_scale, noise_scale,
                                 max_level, executor, epochs)

    # Eval runs: the fail-slow harness (quiet cluster, sick OSTs), whose
    # labels come from client records and survive telemetry faults.  The
    # target reads, as A7's does: the OSS write-back cache absorbs a
    # write target's I/O, so sick disks never slow it and every window
    # would be labelled healthy.
    target = make_io500_task("ior-easy-read", name="robust-eval", ranks=2,
                             scale=target_scale)
    labeller = DegradationLabeller(window_size=config.window_size,
                                   thresholds=predictor.thresholds)
    baseline = run_failslow_run(target, config, slow_factor=1.0,
                                seed_salt="robust-base")
    runs: list[tuple[MonitoredRun, dict[int, int]]] = []
    for factor in (1.0, *slow_factors):
        run = run_failslow_run(target, config, slow_factor=factor,
                               seed_salt=f"robust-{factor}")
        labels = labeller.window_labels(baseline.records, run.records,
                                        target.name)
        if labels:
            runs.append((run, labels))
    if not runs:
        raise RuntimeError("robustness eval runs produced no labelled windows")

    grid: list[tuple[str, float, FaultPlan | None]] = []
    for rate in drop_rates:
        grid.append(("drop", rate,
                     FaultPlan(seed=fault_seed, sample_drop_rate=rate)
                     if rate else None))
    for rate in blank_rates:
        grid.append(("blank", rate,
                     FaultPlan(seed=fault_seed, window_blank_rate=rate)
                     if rate else None))

    result = RobustnessResult(fault_seed=fault_seed)
    for policy in gap_policies:
        for fault, rate, plan in grid:
            cell = _eval_faulted(predictor, runs, plan, policy, config)
            result.rows.append({"fault": fault, "rate": rate,
                                "policy": policy, **cell})
            logger.info("robustness %s rate=%.2f policy=%s -> F1=%.3f "
                        "(gaps %.1f%%)", fault, rate, policy,
                        cell["macro_f1"], 100 * cell["gap_fraction"])
    result.n_eval_windows = max(row["n_windows"] for row in result.rows)
    y_all = np.concatenate([np.array(sorted(labels.values()))
                            for _, labels in runs])
    counts = np.bincount(y_all, minlength=predictor.n_classes)
    result.class_counts = [int(c) for c in counts]
    return result
