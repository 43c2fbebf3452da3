"""Figure 5: binary prediction on the three real applications.

Each application (AMReX, Enzo — data-intensive; OpenPMD — metadata
intensive) is run once without interference for the baseline and then
under increasing amounts of concurrent IO500 instances (the paper's
protocol), a per-application model is trained and evaluated on a 20%
window hold-out. The paper's observed shape: AMReX and Enzo classify
well; OpenPMD is weakest because it yields the fewest samples.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import TYPE_CHECKING

from repro.core.labeling import BINARY_THRESHOLDS
from repro.experiments.datagen import Scenario, collect_windows
from repro.experiments.fig3 import ModelEvalResult, evaluate_banks
from repro.experiments.runner import ExperimentConfig, InterferenceSpec
from repro.workloads.apps import (
    AmrexConfig,
    AmrexWorkload,
    EnzoConfig,
    EnzoWorkload,
    OpenPMDConfig,
    OpenPMDWorkload,
)
from repro.workloads.base import Workload

if TYPE_CHECKING:
    from repro.parallel import SweepExecutor

__all__ = ["Fig5Result", "run_fig5", "app_scenarios", "default_app_targets"]


@dataclass
class Fig5Result:
    """One evaluation per application."""

    results: dict[str, ModelEvalResult]

    def render(self) -> str:
        return "\n\n".join(r.render() for r in self.results.values())

    def macro_f1(self, app: str) -> float:
        return self.results[app].report.macro_f1


def app_scenarios(max_level: int = 3, noise_scale: float = 0.2) -> list[Scenario]:
    """Quiet, light, and increasing concurrent IO500 instances.

    The light scenario (one small writer) populates the <2x class beyond
    the quiet run alone, mirroring the mild-contention periods a real
    shared system spends most of its time in.
    """
    scenarios = [
        Scenario("quiet"),
        Scenario(
            "io500-light",
            (InterferenceSpec("ior-easy-write", instances=1, ranks=1,
                              scale=noise_scale * 0.5),),
        ),
    ]
    for level in range(1, max_level + 1):
        scenarios.append(
            Scenario(
                f"io500-x{level}",
                (
                    InterferenceSpec("ior-easy-write", instances=level, ranks=2,
                                     scale=noise_scale),
                    InterferenceSpec("ior-easy-read", instances=max(1, level - 1),
                                     ranks=2, scale=noise_scale),
                    InterferenceSpec("mdt-hard-write", instances=max(1, level - 1),
                                     ranks=2, scale=noise_scale),
                ),
            )
        )
    return scenarios


def default_app_targets(scale: float = 1.0) -> dict[str, Workload]:
    """The three applications at a benchmark-friendly size.

    OpenPMD is configured to produce the fewest windows, reproducing the
    paper's small-sample situation for that application.
    """
    return {
        "amrex": AmrexWorkload(AmrexConfig(
            ranks=4, steps=max(2, int(8 * scale)), levels=2,
            fab_bytes=int(8 * 1024 * 1024 * scale) or 1024 * 1024,
        )),
        "enzo": EnzoWorkload(EnzoConfig(
            ranks=4, cycles=max(2, int(10 * scale)), grids_per_rank=4,
        )),
        "openpmd": OpenPMDWorkload(OpenPMDConfig(
            ranks=4, iterations=max(2, int(6 * scale)),
            records_per_iteration=10,
        )),
    }


def run_fig5(
    config: ExperimentConfig | None = None,
    targets: dict[str, Workload] | None = None,
    max_level: int = 3,
    noise_scale: float = 0.2,
    executor: "SweepExecutor | None" = None,
) -> Fig5Result:
    """Train and evaluate one model per application.

    One :class:`repro.parallel.SweepExecutor` (a fresh uncached one when
    omitted) is shared across the three applications so the worker pool
    and caches see the whole grid; the per-application models then train
    through it as one batch.
    """
    from repro.parallel import SweepExecutor

    config = config or ExperimentConfig()
    targets = targets or default_app_targets()
    scenarios = app_scenarios(max_level=max_level, noise_scale=noise_scale)
    executor = executor or SweepExecutor()
    banks = {
        app: collect_windows([workload], scenarios, config,
                             executor=executor)
        for app, workload in targets.items()
    }
    evals = evaluate_banks([(f"fig5-{app}", banks[app]) for app in targets],
                           BINARY_THRESHOLDS, executor=executor)
    return Fig5Result(results=dict(zip(targets, evals)))
