"""Paired baseline/interference executions.

The paper's data collection protocol (§III-D): run the *target workload*
once alone and once per interference scenario, with interference always
on *other* compute nodes, keeping a fixed number of concurrent
interference instances active for the whole measurement.  This module
reproduces that in two phases.  :func:`warm_up` wires a fresh cluster,
attaches the server monitor, launches looping interference instances on
the non-target nodes and lets them warm up; :func:`run_target` then runs
the target to completion on that cluster.  :func:`execute_run` is the
two back to back.  The first phase never depends on the target, which
is what lets a sweep simulate it once per noise scenario and fork every
run of the scenario from it (:mod:`repro.parallel.warmstart`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.common.rng import derive_seed
from repro.common.units import MIB
from repro.monitor.aggregator import MonitoredRun
from repro.monitor.server_monitor import ServerMonitor
from repro.obs.log import get_logger
from repro.sim.cache import CacheParams
from repro.sim.cluster import Cluster, ClusterConfig
from repro.workloads.base import Workload, launch, launch_interference
from repro.workloads.io500 import make_io500_task

__all__ = [
    "InterferenceSpec",
    "ExperimentConfig",
    "PairedRuns",
    "WarmUp",
    "warm_up",
    "run_target",
    "execute_run",
    "run_pair",
    "experiment_cluster",
]

logger = get_logger("experiments.runner")


def experiment_cluster(cache_mib: int = 64, mds_threads: int = 4) -> ClusterConfig:
    """Cluster config used by the paper-reproduction experiments.

    Identical to the testbed topology, but with the OSS page cache scaled
    down to ``cache_mib``. The paper's measurements span minutes of real
    load against 32-140 GB of server memory; our simulated runs span
    seconds, so the cache is shrunk proportionally to the compressed
    timescale — otherwise every run would sit in the transient
    everything-fits-in-RAM regime and no steady-state interference (dirty
    throttling, cache-cold re-reads) would ever be exercised. The MDS
    thread pool is reduced for the same reason: the noise generators run
    at a fraction of a real IO500's op rate, so the pool they must be
    able to saturate shrinks with them.
    """
    from repro.sim.mds import MDSParams

    return ClusterConfig(
        cache=CacheParams(capacity_bytes=cache_mib * MIB),
        mds=MDSParams(service_threads=mds_threads),
    )


@dataclass(frozen=True)
class InterferenceSpec:
    """One kind of background noise: an IO500 task at some concurrency.

    ``instances`` is the number of concurrently-running copies (the paper
    keeps 3 active per noise node); each copy loops until the measurement
    ends.
    """

    task: str
    instances: int = 3
    ranks: int = 2
    scale: float = 0.25

    def __post_init__(self) -> None:
        if self.instances < 1 or self.ranks < 1:
            raise ValueError("instances and ranks must be >= 1")

    def build(self, index: int) -> Workload:
        return make_io500_task(
            self.task, name=f"noise-{self.task}-{index}", ranks=self.ranks,
            scale=self.scale,
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs of one experiment."""

    cluster: ClusterConfig = field(default_factory=experiment_cluster)
    #: Compute nodes hosting the target workload; the rest host noise.
    target_nodes: tuple[int, ...] = (0, 1, 2, 3)
    window_size: float = 0.5
    sample_interval: float = 0.125
    #: Seconds of interference warm-up before the target starts.
    warmup: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.target_nodes:
            raise ValueError("need at least one target node")
        if max(self.target_nodes) >= self.cluster.n_client_nodes:
            raise ValueError("target node index out of range")
        if self.window_size <= 0 or self.sample_interval <= 0:
            raise ValueError("window_size and sample_interval must be positive")

    @property
    def noise_nodes(self) -> tuple[int, ...]:
        return tuple(
            i for i in range(self.cluster.n_client_nodes)
            if i not in self.target_nodes
        )


@dataclass
class PairedRuns:
    """A baseline run and one interfered run of the same target."""

    baseline: MonitoredRun
    interfered: MonitoredRun


@dataclass
class WarmUp:
    """A run's target-independent prefix, simulated: the cluster with its
    monitor armed and its noise running ``config.warmup`` seconds, the
    target not yet launched.  :func:`run_target` finishes it, once."""

    cluster: Cluster
    monitor: ServerMonitor
    interference: tuple[InterferenceSpec, ...]
    config: ExperimentConfig


def warm_up(
    interference: list[InterferenceSpec],
    config: ExperimentConfig,
    seed_salt: str = "",
) -> WarmUp:
    """A run's first phase: cluster, monitor, noise, and the warm-up.

    Wires a fresh cluster, arms the server monitor, launches the looping
    noise instances on the non-target nodes and, when there is noise,
    runs it ``config.warmup`` seconds.  Nothing here depends on the
    target, so every run of one noise scenario (same ``interference``,
    ``config`` and ``seed_salt``) simulates the same prefix, bit for bit;
    :mod:`repro.parallel.warmstart` simulates it once and forks each run
    from it.
    """
    cluster = Cluster(config.cluster)
    monitor = ServerMonitor(cluster, sample_interval=config.sample_interval)
    monitor.start()
    noise_nodes = list(config.noise_nodes) or list(config.target_nodes)
    for spec_idx, spec in enumerate(interference):
        for copy in range(spec.instances):
            workload = spec.build(copy)
            # Unique job name per (spec, copy) so traces stay separable.
            workload.name = f"{workload.name}-{spec_idx}"
            seed = derive_seed(config.seed, "noise", seed_salt, spec_idx, copy)
            logger.debug("launching noise %s on nodes %s (seed=%d)",
                         workload.name, noise_nodes, seed)
            launch_interference(cluster, workload, noise_nodes, seed,
                                record=False)
    if interference and config.warmup > 0:
        cluster.env.run(until=config.warmup)
    return WarmUp(cluster, monitor, tuple(interference), config)


def run_target(warm: WarmUp, target: Workload,
               abort_at: float | None = None) -> MonitoredRun:
    """A run's second phase: launch ``target`` on a warmed-up cluster,
    run it to completion (or to ``abort_at``), then one trailing sample
    period.  It advances ``warm``, which therefore serves one run."""
    if abort_at is not None and abort_at <= 0:
        raise ValueError(f"abort_at must be positive, got {abort_at}")
    cluster, config = warm.cluster, warm.config
    target_seed = derive_seed(config.seed, "target", target.name)
    handle = launch(cluster, target, list(config.target_nodes), target_seed)
    aborted = False
    if abort_at is not None:
        cluster.env.run(until=abort_at)
        aborted = not handle.done._fired
        if aborted:
            logger.warning("run %s aborted at t=%.3fs (fault injection)",
                           target.name, abort_at)
    else:
        cluster.env.run(until=handle.done)
    # One trailing sampling period so the last window has server samples.
    cluster.env.run(until=cluster.env.now + config.sample_interval)
    interference = warm.interference
    return MonitoredRun(
        job=target.name,
        records=cluster.collector.records,
        server_samples=warm.monitor.samples,
        servers=cluster.servers,
        duration=cluster.env.now,
        metadata={
            "interference": [spec.task for spec in interference],
            "instances": sum(spec.instances for spec in interference),
            "warmup": config.warmup if interference else 0.0,
            "seed": config.seed,
            "target_nodes": list(config.target_nodes),
            "window_size": config.window_size,
            "sample_interval": config.sample_interval,
            **({"aborted": True, "abort_at": abort_at} if aborted else {}),
        },
    )


def execute_run(
    target: Workload,
    interference: list[InterferenceSpec],
    config: ExperimentConfig,
    seed_salt: str = "",
    abort_at: float | None = None,
) -> MonitoredRun:
    """One monitored execution of ``target`` under the given noise:
    :func:`warm_up`, then :func:`run_target`.

    ``abort_at`` kills the simulation at that simulated time (fault
    injection: a run that died mid-flight).  The truncated run is still
    a valid :class:`MonitoredRun` — whatever was traced and sampled up
    to the abort — with ``metadata["aborted"]`` recording the cut.
    """
    wall_start = time.perf_counter()
    logger.info(
        "execute_run: target=%s noise=%s seed=%d",
        target.name, [spec.task for spec in interference] or "none",
        config.seed,
    )
    run = run_target(warm_up(interference, config, seed_salt=seed_salt),
                     target, abort_at=abort_at)
    logger.info(
        "execute_run done: %s finished at t=%.3fs sim (%d records, "
        "%d samples, %.2fs wall)",
        target.name, run.duration, len(run.records),
        len(run.server_samples), time.perf_counter() - wall_start,
    )
    return run


def run_pair(
    target: Workload,
    interference: list[InterferenceSpec],
    config: ExperimentConfig,
    seed_salt: str = "",
) -> PairedRuns:
    """Baseline + interfered execution with identical target op sequences.

    Ops are matched by (job, rank, op_id), not by time, so the baseline
    needs no warm-up alignment: it simply provides the undisturbed
    duration of every operation.

    Both runs execute here, uncached, each from its own
    :func:`warm_up`; sweeps submit their pairs to
    :meth:`repro.parallel.SweepExecutor.run_pairs` instead, for its
    deduplication, run cache, worker pool and warm starts (a scenario's
    warm-up simulated once and forked for each of its runs).
    """
    from repro.obs import profile as _profile

    with _profile.phase("sim-run", target=target.name, kind="baseline"):
        baseline = execute_run(target, [], config, seed_salt=seed_salt)
    with _profile.phase("sim-run", target=target.name, kind="interfered"):
        interfered = execute_run(target, interference, config,
                                 seed_salt=seed_salt)
    return PairedRuns(baseline=baseline, interfered=interfered)
