"""Table I: IO500 task slowdown under each type of interfering I/O pattern.

For every pair of the seven selected IO500 tasks, the paper runs the row
task standalone and with the column task generating background noise from
other compute nodes (3 concurrent instances kept active), reporting the
row task's runtime slowdown averaged over repetitions. Absolute values
depend on the testbed; the *shape* is what the reproduction targets (see
:func:`shape_checks`): read patterns crush other reads, data writes barely
touch reads, ``mdt-hard-write`` collapses under bulk data writes while
``mdt-easy-write`` shrugs them off.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.experiments.reporting import render_table
from repro.experiments.runner import ExperimentConfig, InterferenceSpec
from repro.monitor.aggregator import MonitoredRun
from repro.obs.log import get_logger
from repro.workloads.io500 import IO500_TASKS, make_io500_task

__all__ = ["Table1Result", "run_table1", "shape_checks"]


@dataclass
class Table1Result:
    """The slowdown matrix plus raw runtimes."""

    tasks: tuple[str, ...]
    #: matrix[row, col] = slowdown of task `row` under interference `col`.
    matrix: np.ndarray
    standalone_runtime: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        return render_table(list(self.tasks), list(self.tasks), self.matrix,
                            corner="target\\noise")

    def cell(self, row_task: str, col_task: str) -> float:
        return float(self.matrix[self.tasks.index(row_task),
                                 self.tasks.index(col_task)])


def _target_runtime(run: MonitoredRun | None) -> float:
    """Wall time of the target task: first op start to last op end
    (NaN for a quarantined run)."""
    if run is None:
        return float("nan")
    records = [r for r in run.records if r.job == run.job]
    if not records:
        raise RuntimeError(f"target {run.job} issued no operations")
    return max(r.end for r in records) - min(r.start for r in records)


def run_table1(
    config: ExperimentConfig | None = None,
    tasks: tuple[str, ...] = IO500_TASKS,
    target_ranks: int = 4,
    target_scale: float = 0.25,
    noise_instances: int = 3,
    noise_ranks: int = 2,
    noise_scale: float = 0.25,
    repetitions: int = 1,
    executor=None,
) -> Table1Result:
    """Compute the slowdown matrix.

    ``repetitions`` averages over different seeds (the paper averages 3
    consecutive runs; the simulator is deterministic per seed so
    repetitions vary the seed instead).

    All ``len(tasks) * (len(tasks) + 1) * repetitions`` runs of the grid
    are submitted to one sweep of ``executor`` (a
    :class:`repro.parallel.SweepExecutor`; serial and uncached when
    omitted), so they spread over its workers and persist in its run
    cache; the matrix itself is bit-identical to the serial computation.
    A quarantined run makes its cell NaN, and a quarantined baseline its
    whole row.
    """
    from repro.parallel import RunJob, SweepExecutor

    config = config or ExperimentConfig()
    executor = executor or SweepExecutor()
    n = len(tasks)

    jobs: list[RunJob] = []
    for row_task in tasks:
        target = make_io500_task(row_task, ranks=target_ranks,
                                 scale=target_scale)
        for rep in range(repetitions):
            cfg = replace(config, seed=config.seed + rep)
            jobs.append(RunJob(target, (), cfg, seed_salt=f"t1-base-{rep}"))
        for ci, col_task in enumerate(tasks):
            noise = (InterferenceSpec(col_task, instances=noise_instances,
                                      ranks=noise_ranks, scale=noise_scale),)
            for rep in range(repetitions):
                cfg = replace(config, seed=config.seed + rep)
                jobs.append(RunJob(target, noise, cfg,
                                   seed_salt=f"t1-{ci}-{rep}"))

    finished = executor.run_many(jobs)
    lost = sum(run is None for run in finished)
    if lost:
        get_logger("experiments.table1").warning(
            "%d of %d runs quarantined; their cells read nan",
            lost, len(finished))
    runs = iter(finished)
    matrix = np.zeros((n, n))
    standalone: dict[str, float] = {}
    for ri, row_task in enumerate(tasks):
        base_times = [_target_runtime(next(runs)) for _ in range(repetitions)]
        standalone[row_task] = float(np.mean(base_times))
        for ci in range(n):
            times = [_target_runtime(next(runs)) for _ in range(repetitions)]
            matrix[ri, ci] = float(np.mean(times)) / standalone[row_task]
    return Table1Result(tasks=tuple(tasks), matrix=matrix,
                        standalone_runtime=standalone)


def shape_checks(result: Table1Result) -> dict[str, bool]:
    """The qualitative claims of Table I, as testable predicates.

    Paper values in comments for reference; the reproduction asserts
    direction and rough magnitude, not absolute numbers.
    """
    c = result.cell
    return {
        # 29.3x: competing sequential reads seek-thrash each other.
        "read_read_severe": c("ior-easy-read", "ior-easy-read") > 2.0,
        # 1.004x: writeback absorption + read priority shields reads.
        "write_noise_spares_reads":
            c("ior-easy-read", "ior-easy-write") < 2.0,
        # Reads hurt reads far more than writes hurt reads (29.3 vs 1.0).
        "reads_hurt_reads_more_than_writes":
            c("ior-easy-read", "ior-easy-read")
            > 1.5 * c("ior-easy-read", "ior-easy-write"),
        # 2.72x: bulk writes contend with each other moderately.
        "write_write_moderate": c("ior-easy-write", "ior-easy-write") > 1.3,
        # 26.2x vs 1.04x: small data writes starve behind bulk writes,
        # pure-metadata creates do not.
        "mdt_hard_write_crushed_by_data_writes":
            c("mdt-hard-write", "ior-easy-write")
            > 2.0 * c("mdt-easy-write", "ior-easy-write"),
        # 1.04x: mdt-easy-write (MDT-only) insensitive to OST writes.
        "mdt_easy_write_insensitive":
            c("mdt-easy-write", "ior-easy-write") < 2.0,
        # 3.96x: metadata reads suffer under metadata-write noise.
        "mdt_read_hurt_by_mdt_write":
            c("mdt-hard-read", "mdt-hard-write")
            > c("mdt-hard-read", "ior-easy-write"),
    }
