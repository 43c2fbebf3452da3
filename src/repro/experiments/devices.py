"""Device ablation: rotational disks vs flash (A4).

The paper's testbed uses 7200 RPM SATA disks, and its most extreme
interference cells (Table I's 29x read/read) are seek phenomena. This
ablation re-runs the critical interference cells on an identically-shaped
cluster whose OSTs are flash devices: with no mechanical positioning,
read/read interference collapses to plain bandwidth sharing, while
write/write interference (a cache/throttling phenomenon) survives. The
contrast quantifies how much of the paper's observed interference is
storage-technology-specific.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.experiments.runner import ExperimentConfig, InterferenceSpec
from repro.experiments.table1 import _target_runtime
from repro.obs.log import get_logger
from repro.sim.disk import FlashParams
from repro.workloads.io500 import make_io500_task

if TYPE_CHECKING:  # imported lazily at run time (circular with repro.parallel)
    from repro.parallel import SweepExecutor

__all__ = ["DeviceAblationResult", "run_device_ablation"]


@dataclass
class DeviceAblationResult:
    """Key interference cells per device technology."""

    #: (device, cell) -> slowdown, e.g. ("hdd", "read_read") -> 48.0
    slowdowns: dict[tuple[str, str], float]

    def cell(self, device: str, cell: str) -> float:
        return self.slowdowns[(device, cell)]

    def render(self) -> str:
        """One row per cell; a quarantined cell reads ``nan``."""
        cells = sorted({c for _, c in self.slowdowns})
        lines = [f"{'cell':>16} {'hdd':>10} {'ssd':>10}"]
        for cell in cells:
            hdd, ssd = (self.slowdowns.get((device, cell), math.nan)
                        for device in ("hdd", "ssd"))
            lines.append(f"{cell:>16} {hdd:>10.2f} {ssd:>10.2f}")
        return "\n".join(lines)


_CELLS: dict[str, tuple[str, str]] = {
    # cell name -> (target task, noise task)
    "read_read": ("ior-easy-read", "ior-easy-read"),
    "write_write": ("ior-easy-write", "ior-easy-write"),
    "read_vs_write": ("ior-easy-read", "ior-easy-write"),
}


def run_device_ablation(
    config: ExperimentConfig | None = None,
    target_scale: float = 0.4,
    noise_instances: int = 3,
    noise_ranks: int = 3,
    noise_scale: float = 0.25,
    executor: "SweepExecutor | None" = None,
) -> DeviceAblationResult:
    """Measure the critical Table I cells on HDD- and flash-backed OSTs.

    All cells' pairs go to ``executor`` in one call, so a target's
    baseline shared by two cells runs once per device.  A cell whose
    runs were quarantined is skipped with a warning.
    """
    from repro.parallel import RunJob, SweepExecutor

    config = config or ExperimentConfig()
    executor = executor or SweepExecutor()
    flash = replace(config, cluster=replace(config.cluster, disk=FlashParams()))
    names: list[tuple[str, str]] = []
    jobs: list[RunJob] = []
    for device, dev_config in (("hdd", config), ("ssd", flash)):
        for cell, (target_task, noise_task) in _CELLS.items():
            target = make_io500_task(target_task, ranks=4, scale=target_scale)
            noise = (InterferenceSpec(noise_task, instances=noise_instances,
                                      ranks=noise_ranks, scale=noise_scale),)
            names.append((device, cell))
            jobs.append(RunJob(target, noise, dev_config,
                               seed_salt=f"dev-{device}-{cell}"))
    slowdowns: dict[tuple[str, str], float] = {}
    for name, pair in zip(names, executor.run_pairs(jobs)):
        if pair is None:
            get_logger("experiments.devices").warning(
                "skipping cell %s/%s (run quarantined)", *name)
            continue
        slowdowns[name] = (_target_runtime(pair.interfered)
                           / _target_runtime(pair.baseline))
    return DeviceAblationResult(slowdowns=slowdowns)
