"""Labelled-dataset generation from interference scenario sweeps.

The paper trains per-benchmark models on windows collected while the
target runs under "varying levels of background I/O requests (using
IO500) to cover different types and levels of I/O interference" (§III-D).
A :class:`Scenario` is one such condition (which noise tasks, how many
concurrent instances). :func:`collect_windows` sweeps targets x scenarios
and returns a :class:`WindowBank` holding per-server vectors plus raw
degradation *levels*; binning into class labels happens afterwards
(:func:`bank_to_dataset`), so the binary (Figure 3/5) and 3-class
(Figure 4) datasets share one expensive simulation sweep.

The sweep itself runs on a :class:`repro.parallel.SweepExecutor`:
pairs are independent, so its worker pool spreads them over processes
with bit-identical output, every scenario of a target reuses one
baseline run, and its run cache persists runs across invocations.  Its
window cache persists the labelled windows themselves, so a rebuild
simulates and labels only the pairs it has not seen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.dataset import Dataset
from repro.core.labeling import BINARY_THRESHOLDS, DegradationLabeller, bin_level
from repro.monitor.aggregator import assemble_vectors, select_labelled
from repro.workloads.base import Workload
from repro.experiments.runner import (
    ExperimentConfig,
    InterferenceSpec,
    PairedRuns,
)

if TYPE_CHECKING:  # imported lazily at run time (circular with repro.parallel)
    from repro.parallel import SweepExecutor

__all__ = [
    "Scenario",
    "WindowBank",
    "standard_scenarios",
    "sweep_pairs",
    "label_pair",
    "collect_windows",
    "bank_to_dataset",
    "generate_dataset",
]


@dataclass(frozen=True)
class Scenario:
    """One interference condition for data collection."""

    name: str
    interference: tuple[InterferenceSpec, ...] = ()

    @property
    def is_baseline(self) -> bool:
        return not self.interference


@dataclass
class WindowBank:
    """Collected windows with raw degradation levels (not yet binned)."""

    X: np.ndarray  # (n, servers, features)
    levels: np.ndarray  # (n,) mean per-op slowdown ratios
    sources: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.X) != len(self.levels):
            raise ValueError("X and levels length mismatch")

    def __len__(self) -> int:
        return len(self.levels)

    @staticmethod
    def concatenate(parts: list["WindowBank"]) -> "WindowBank":
        if not parts:
            raise RuntimeError("no labelled windows were produced")
        return WindowBank(
            np.concatenate([p.X for p in parts]),
            np.concatenate([p.levels for p in parts]),
            sources=[s for p in parts for s in p.sources],
        )


def standard_scenarios(
    max_level: int = 3,
    tasks: tuple[str, ...] = ("ior-easy-write", "ior-hard-write", "mdt-hard-write"),
    ranks: int = 2,
    scale: float = 0.25,
) -> list[Scenario]:
    """The paper's sweep: increasing instance counts of IO500 noise.

    Produces one quiet scenario plus ``max_level`` intensities per noise
    task type ("repeated three times with increasing amounts of
    concurrent instances of IO500").
    """
    scenarios = [Scenario("quiet")]
    for task in tasks:
        for level in range(1, max_level + 1):
            scenarios.append(
                Scenario(
                    f"{task}-x{level}",
                    (InterferenceSpec(task, instances=level, ranks=ranks,
                                      scale=scale),),
                )
            )
    return scenarios


def label_pair(
    labeller: DegradationLabeller,
    target: Workload,
    scenario: Scenario,
    pair: PairedRuns,
    config: ExperimentConfig,
) -> WindowBank | None:
    """Label one pair's windows against its baseline, or ``None`` if empty.

    The post-processing step of :func:`collect_windows`: per-window
    vectors and raw levels of one pair, which is also what a
    :class:`repro.parallel.WindowCache` entry stores.  Windows without
    matched target operations carry no label and are dropped (the
    paper's labelling is defined over windows with I/O).
    """
    run = pair.interfered
    levels = labeller.window_levels(
        pair.baseline.records, run.records, target.name
    )
    if not levels:
        return None
    X, windows = assemble_vectors(run, config.window_size,
                                  config.sample_interval)
    keep = select_labelled(windows, levels)
    if not keep:
        return None
    return WindowBank(
        X[keep],
        np.array([levels[w] for w in keep]),
        sources=[f"{target.name}:{scenario.name}"] * len(keep),
    )


def sweep_pairs(
    targets: list[Workload],
    scenarios: list[Scenario],
    include_quiet_windows: bool = True,
) -> list[tuple[Workload, Scenario]]:
    """The (target, scenario) grid of one dataset sweep, in sweep order."""
    return [
        (target, scenario)
        for target in targets
        for scenario in scenarios
        if not (scenario.is_baseline and not include_quiet_windows)
    ]


def collect_windows(
    targets: list[Workload],
    scenarios: list[Scenario],
    config: ExperimentConfig,
    include_quiet_windows: bool = True,
    executor: "SweepExecutor | None" = None,
) -> WindowBank:
    """Run every (target, scenario) pair and label windows with levels.

    The sweep is delegated to ``executor``, a
    :class:`repro.parallel.SweepExecutor` that decides how runs execute
    (workers, caches, resilience; a serial uncached one when omitted).
    Parallel execution is bit-identical to serial: per-run seeds derive
    from the config seed and stable string paths, and results are
    consumed in submission order.  A pair whose runs were quarantined is
    skipped with a warning.

    With a window cache on the executor (``SweepExecutor(windows=...)``)
    the sweep's bank, then each pair's windows, are looked up first;
    only the missing pairs are simulated and labelled, and their windows
    are stored.  The whole bank is stored too unless a pair was
    quarantined.  The result is bit-identical to the uncached path
    either way.
    """
    from repro.obs import profile as _profile
    from repro.obs.log import get_logger
    from repro.obs.metrics import REGISTRY
    from repro.parallel import RunJob, SweepExecutor, dataset_sweep_key

    executor = executor or SweepExecutor()
    windows = executor.windows
    sweep = sweep_pairs(targets, scenarios, include_quiet_windows)
    jobs = [RunJob(target, tuple(scenario.interference), config,
                   seed_salt=scenario.name)
            for target, scenario in sweep]
    parts: list[WindowBank | None] = [None] * len(sweep)
    if windows is not None:
        keys = [executor.shard_key_for(job) for job in jobs]
        sweep_key = dataset_sweep_key(keys)
        bank = windows.get(sweep_key)
        if bank is not None:
            return bank
        parts = [windows.get(key) for key in keys]
    missing = [i for i, part in enumerate(parts) if part is None]
    with _profile.phase("dataset-sweep", pairs=len(missing)):
        paired = executor.run_pairs([jobs[i] for i in missing])
    labeller = DegradationLabeller(window_size=config.window_size)
    quarantined = False
    with _profile.phase("dataset-label"):
        for i, pair in zip(missing, paired):
            target, scenario = sweep[i]
            if pair is None:
                quarantined = True
                REGISTRY.counter("datagen.pairs_skipped").inc()
                get_logger("experiments.datagen").warning(
                    "skipping pair %s:%s (run quarantined)",
                    target.name, scenario.name)
                continue
            parts[i] = (label_pair(labeller, target, scenario, pair, config)
                        or WindowBank(np.empty((0, 0, 0)), np.empty(0)))
            if windows is not None:
                windows.put(keys[i], parts[i])
        # Empty banks (pairs without labelled windows) and quarantined
        # pairs contribute no rows.
        bank = WindowBank.concatenate([part for part in parts if part])
    if windows is not None and not quarantined:
        windows.put(sweep_key, bank)
    return bank


def bank_to_dataset(
    bank: WindowBank,
    thresholds: tuple[float, ...] = BINARY_THRESHOLDS,
    source: str = "",
) -> Dataset:
    """Bin a window bank's levels into severity classes."""
    from repro.monitor.schema import VECTOR_FEATURES
    from repro.obs import profile as _profile

    with _profile.phase("dataset-assemble", windows=len(bank)):
        y = np.array([bin_level(lv, thresholds) for lv in bank.levels])
        n_feats = bank.X.shape[2]
        names = (VECTOR_FEATURES if n_feats == len(VECTOR_FEATURES)
                 else tuple(f"f{i}" for i in range(n_feats)))
        return Dataset(bank.X, y, feature_names=names, source=source)


def generate_dataset(
    targets: list[Workload],
    scenarios: list[Scenario],
    config: ExperimentConfig,
    thresholds: tuple[float, ...] = BINARY_THRESHOLDS,
    include_quiet_windows: bool = True,
    source: str = "",
    executor: "SweepExecutor | None" = None,
) -> Dataset:
    """One-shot convenience: collect windows and bin them."""
    bank = collect_windows(targets, scenarios, config, include_quiet_windows,
                           executor=executor)
    return bank_to_dataset(bank, thresholds, source=source)
