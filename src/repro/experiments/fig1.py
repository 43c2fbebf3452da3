"""Figure 1: Enzo per-operation latency under different interference.

Figure 1(a): the same Enzo operation sequence under 0/1/2/3 concurrent
``ior-easy-write`` instances — impacts are non-uniform across operations
and mostly (not always) grow with intensity.

Figure 1(b): Enzo under a data-intensive (``ior-easy-write``) vs a
metadata-intensive (``mdt-easy-write``) noise — different operations are
hurt by different noise types.

The series are per-op latencies of the target's first ``horizon`` seconds
(baseline clock), smoothed with a moving window like the paper's plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.labeling import match_operations
from repro.experiments.reporting import moving_average, render_series
from repro.experiments.runner import ExperimentConfig, InterferenceSpec
from repro.obs.log import get_logger
from repro.workloads.apps import EnzoConfig, EnzoWorkload

if TYPE_CHECKING:  # imported lazily at run time (circular with repro.parallel)
    from repro.parallel import SweepExecutor

__all__ = ["Fig1Result", "run_fig1", "run_fig1a", "run_fig1b"]


@dataclass
class Fig1Result:
    """Per-op latency series per interference condition."""

    #: op index -> aligned latency arrays, one per condition.
    series: dict[str, np.ndarray]
    op_labels: list[str]
    smoothing: int = 5

    def smoothed(self) -> dict[str, np.ndarray]:
        return {k: moving_average(v, self.smoothing) for k, v in self.series.items()}

    def render(self) -> str:
        if not self.series:
            return "(no condition completed: every pair was quarantined)"
        return render_series(self.smoothed())

    def mean_slowdown(self, condition: str) -> float:
        base = self.series["baseline"]
        other = self.series[condition]
        mask = base > 0
        return float((other[mask] / base[mask]).mean())

    def slowdown_dispersion(self, condition: str) -> float:
        """Coefficient of variation of per-op slowdowns — the paper's
        'impacts are not uniformly applied' observation quantified."""
        base = self.series["baseline"]
        other = self.series[condition]
        mask = base > 0
        ratios = other[mask] / base[mask]
        return float(ratios.std() / max(1e-12, ratios.mean()))


def _collect_panels(
    enzo_cfg: EnzoConfig,
    panels: list[dict[str, list[InterferenceSpec]]],
    config: ExperimentConfig,
    horizon: float,
    executor: "SweepExecutor | None",
) -> list[Fig1Result]:
    """One :class:`Fig1Result` per panel of ``name -> noise`` conditions.

    Every panel's pairs go to ``executor`` in one call, so the
    noise-free baseline they all share runs once.
    """
    from repro.parallel import RunJob, SweepExecutor

    executor = executor or SweepExecutor()
    target = EnzoWorkload(enzo_cfg)
    pairs = iter(executor.run_pairs([
        RunJob(target, tuple(noise), config, seed_salt=f"fig1-{name}")
        for conditions in panels for name, noise in conditions.items()
    ]))
    return [_series(target, {name: next(pairs) for name in conditions},
                    horizon)
            for conditions in panels]


def _series(target: EnzoWorkload, pairs: dict, horizon: float) -> Fig1Result:
    """Latency per baseline op (within ``horizon`` s) per condition.

    ``pairs`` maps each condition to its paired runs; a condition whose
    runs were quarantined (``None``) is skipped with a warning.
    """
    series: dict[str, np.ndarray] = {}
    op_labels: list[str] = []
    base_keys: list = []
    for name, pair in pairs.items():
        if pair is None:
            get_logger("experiments.fig1").warning(
                "skipping condition %s (run quarantined)", name)
            continue
        base_records = [r for r in pair.baseline.records if r.job == target.name]
        t0 = min(r.start for r in base_records)
        if not base_keys:
            chosen = sorted(
                (r for r in base_records if r.start - t0 <= horizon),
                key=lambda r: (r.start, r.rank, r.op_id),
            )
            base_keys = [r.key for r in chosen]
            op_labels = [f"{r.op.value}" for r in chosen]
        matched = {
            b.key: i.duration
            for b, i in match_operations(pair.baseline.records,
                                         pair.interfered.records, target.name)
        }
        base_dur = {r.key: r.duration for r in base_records}
        series[name] = np.array([matched.get(k, base_dur[k]) for k in base_keys])
        if "baseline" not in series:
            series["baseline"] = np.array([base_dur[k] for k in base_keys])
    return Fig1Result(series=series, op_labels=op_labels)


def _fig1a_conditions(max_level: int, noise_scale: float
                      ) -> dict[str, list[InterferenceSpec]]:
    return {
        f"ior-easy-write-x{level}": [
            InterferenceSpec("ior-easy-write", instances=level, ranks=2,
                             scale=noise_scale)
        ]
        for level in range(1, max_level + 1)
    }


def _fig1b_conditions(noise_scale: float) -> dict[str, list[InterferenceSpec]]:
    return {
        "data-intensive": [
            InterferenceSpec("ior-easy-write", instances=2, ranks=2,
                             scale=noise_scale)
        ],
        "metadata-intensive": [
            InterferenceSpec("mdt-easy-write", instances=2, ranks=2,
                             scale=noise_scale),
            InterferenceSpec("mdt-hard-write", instances=1, ranks=2,
                             scale=noise_scale),
        ],
    }


def run_fig1a(
    config: ExperimentConfig | None = None,
    enzo_cfg: EnzoConfig | None = None,
    max_level: int = 3,
    horizon: float = 50.0,
    noise_scale: float = 0.25,
    executor: "SweepExecutor | None" = None,
) -> Fig1Result:
    """Figure 1(a): growing amounts of ior-easy-write interference."""
    return _collect_panels(enzo_cfg or EnzoConfig(),
                           [_fig1a_conditions(max_level, noise_scale)],
                           config or ExperimentConfig(), horizon, executor)[0]


def run_fig1b(
    config: ExperimentConfig | None = None,
    enzo_cfg: EnzoConfig | None = None,
    horizon: float = 50.0,
    noise_scale: float = 0.25,
    executor: "SweepExecutor | None" = None,
) -> Fig1Result:
    """Figure 1(b): data-intensive vs metadata-intensive interference."""
    return _collect_panels(enzo_cfg or EnzoConfig(),
                           [_fig1b_conditions(noise_scale)],
                           config or ExperimentConfig(), horizon, executor)[0]


def run_fig1(
    config: ExperimentConfig | None = None,
    enzo_cfg: EnzoConfig | None = None,
    max_level: int = 3,
    horizon: float = 50.0,
    noise_scale: float = 0.25,
    executor: "SweepExecutor | None" = None,
) -> tuple[Fig1Result, Fig1Result]:
    """Figures 1(a) and 1(b) from one submission: the Enzo baseline both
    panels share runs once, without a run cache too."""
    a, b = _collect_panels(enzo_cfg or EnzoConfig(),
                           [_fig1a_conditions(max_level, noise_scale),
                            _fig1b_conditions(noise_scale)],
                           config or ExperimentConfig(), horizon, executor)
    return a, b
