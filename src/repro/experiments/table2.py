"""Table II: the server-side metric catalogue.

Table II defines the server metrics the framework collects (I/O speed,
device sector counters, read/write queue statistics). This experiment
validates the catalogue end-to-end: under a mixed data+metadata load,
every metric must be collected for every server, be finite, and the
load-bearing ones must actually move — a metric that stays zero under
load would silently starve the model of its signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.reporting import render_table
from repro.experiments.runner import ExperimentConfig, InterferenceSpec
from repro.monitor.schema import SERVER_METRICS
from repro.obs.log import get_logger
from repro.workloads.io500 import make_io500_task

__all__ = ["Table2Result", "run_table2"]


@dataclass
class Table2Result:
    """Per-metric activity summary across all servers (empty when the
    run was quarantined)."""

    #: metric -> (total across run, fraction of samples where non-zero)
    totals: dict[str, float]
    nonzero_fraction: dict[str, float]
    n_samples: int

    def render(self) -> str:
        if not self.totals:
            return "(no metrics collected: the run was quarantined)"
        metrics = list(self.totals)
        values = np.array(
            [[self.totals[m], self.nonzero_fraction[m]] for m in metrics]
        )
        return render_table(metrics, ["total", "nonzero_frac"], values,
                            corner="metric", fmt="{:.3g}")

    def moved(self, metric: str) -> bool:
        return self.totals.get(metric, 0.0) > 0


def run_table2(config: ExperimentConfig | None = None,
               scale: float = 0.25,
               executor=None) -> Table2Result:
    """Collect every Table II metric under a mixed representative load.

    The single run is routed through ``executor`` (a
    :class:`repro.parallel.SweepExecutor`) so a warm run cache replays
    it without simulating.  If the executor quarantines the run, the
    result is empty and says so.
    """
    from repro.parallel import RunJob, SweepExecutor

    config = config or ExperimentConfig()
    executor = executor or SweepExecutor()
    target = make_io500_task("ior-easy-write", ranks=4, scale=scale)
    noise = (
        InterferenceSpec("ior-easy-read", instances=1, ranks=2, scale=scale),
        InterferenceSpec("mdt-hard-write", instances=1, ranks=2, scale=scale),
    )
    run = executor.run_one(RunJob(target, noise, config, seed_salt="table2"))
    if run is None:
        get_logger("experiments.table2").warning(
            "no server metrics to summarise (run quarantined)")
        return Table2Result(totals={}, nonzero_fraction={}, n_samples=0)
    totals = {m: 0.0 for m in SERVER_METRICS}
    nonzero = {m: 0 for m in SERVER_METRICS}
    for _, _, metrics in run.server_samples:
        for m in SERVER_METRICS:
            value = metrics[m]
            if not np.isfinite(value):
                raise RuntimeError(f"metric {m} produced a non-finite sample")
            totals[m] += value
            if value != 0:
                nonzero[m] += 1
    n = len(run.server_samples)
    return Table2Result(
        totals=totals,
        nonzero_fraction={m: nonzero[m] / max(1, n) for m in SERVER_METRICS},
        n_samples=n,
    )
