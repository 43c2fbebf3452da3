"""The pipeline's executor: deduplicated, cached, parallel runs and trainings.

The experiment pipeline is one offline chain: simulate every (target,
scenario) pair, label its windows, train the kernel network.
:class:`SweepExecutor` is its one handle.  It owns the three
content-addressed caches (runs, labelled windows, trained models) and
puts every simulation and every training through the same stacked
layers (the fourth is the simulations' alone):

1. **Deduplication** — jobs are keyed by :func:`repro.parallel.cachekey.
   run_key` or :func:`~repro.parallel.cachekey.train_key`; identical
   jobs (most importantly the baseline run a target shares across *all*
   its scenarios) execute once per batch, whatever the worker count.
2. **Caching** — with a :class:`~repro.parallel.cache.RunCache` or a
   :class:`~repro.parallel.modelcache.ModelCache` attached, finished
   runs and trained models persist on disk, so the binary and 3-class
   datasets share one simulation sweep across invocations and a warm
   re-run of an experiment simulates and trains nothing.  The
   :class:`~repro.parallel.windowcache.WindowCache` is read and filled
   by :func:`repro.experiments.datagen.collect_windows`, under the
   executor's :meth:`~SweepExecutor.shard_key_for` keys.
3. **Parallelism** — remaining run misses go to
   :func:`repro.parallel.supervise.run_supervised`, the one batch
   runner: ``n_jobs`` slots, by default one per core the process may use
   (:func:`~repro.parallel.supervise.usable_cores`, the rule that sizes
   training restarts too).  Determinism is free: every
   stochastic component derives its generator via
   :func:`repro.common.rng.derive_seed` from the experiment seed plus a
   stable string path, never from global or temporal state, so a run's
   outcome depends only on its job spec — not on which worker executes
   it or in what order jobs complete.  Results are returned in
   submission order, making parallel output **bit-identical** to serial.
   Trainings execute one after another; inside one,
   :meth:`~repro.core.predictor.InterferencePredictor.train` runs the
   restarts through the same runner (DESIGN.md §10).
4. **Warm starts** — runs of one noise scenario share a target-free
   warm-up (:func:`repro.experiments.runner.warm_up`).  When two or
   more pending runs of a batch share one, each process that runs them
   simulates it once and forks every such run from it
   (:mod:`repro.parallel.warmstart`); a forked run is bit for bit the
   fresh run, so this too changes nothing the caller can see.

Every sweep takes that one path; the runner alone decides where the runs
execute.  With no ``run_timeout`` or ``retries`` and one slot to fill
(``n_jobs == 1`` — one usable core, ``taskset -c 0``, a daemonic
caller, or ``n_jobs=1`` given — or one pending run) they run in this
process, otherwise in supervised child processes.  Where a run executes
changes nothing the caller can see: the same results, the same metrics,
the same trace and the same failures.  Without resilience options a run
that raises, or whose child dies, makes the sweep raise once the batch
has drained, naming the run; the runs that finished are cached.  With a
``run_timeout``, ``retries`` or a worker fault the **resilience layer**
is on: a wall-clock watchdog terminates overdue workers, a dead or hung
child is replaced, failed attempts retry with exponential backoff, and
runs that keep failing are quarantined.  Such a sweep with poisoned runs
*completes*: ``run_many`` returns ``None`` for the quarantined runs and
:meth:`SweepExecutor.fault_report` says exactly what died, how often,
and why.  Because every successful run lands in the cache the moment it
finishes, an interrupted or fault-ridden sweep resumes from the cache:
re-running it re-executes only the runs that never completed.

The runner hands each run's metrics to the parent registry (a child
ships its delta, merged without labels in submission order), so
``monitor.*``/``sim.*`` counters, histograms and gauges end as a serial
sweep leaves them.  Per-run wall time lands in the
``parallel.run_seconds`` histogram, and per-slot busy time in the
``parallel.worker_busy_seconds{worker=wN}`` counters.

With a tracer installed, every run attaches a fresh tracer under the
parent's trace id and ships its finished spans back with the result
(in-process too, restoring the caller's tracer after), and the parent
merges every shipment into one timeline: wall-clock ``job.*`` spans
(queue-wait, execute, retry) and ``cache.probe`` spans wrap each job,
with the run's simulated-time spans nested under its ``job.execute``;
a quarantined run keeps its ``job.run``, marked ``quarantined``, with
its queue-wait and one ``job.retry`` per failed attempt.  Merged span
ids are allocated in *submission* order, so the timeline's shape is
deterministic whatever order or placement the runs finish in.
"""

from __future__ import annotations

import functools
import math
import os
import time
from dataclasses import dataclass, field

from repro.core.dataset import Dataset
from repro.core.labeling import BINARY_THRESHOLDS
from repro.core.nn.train import TrainConfig
from repro.core.predictor import InterferencePredictor
from repro.experiments.runner import (
    ExperimentConfig,
    InterferenceSpec,
    PairedRuns,
    execute_run,
)
from repro.faults.plan import FaultPlan
from repro.monitor.aggregator import MonitoredRun
from repro.obs import distributed as _dist
from repro.obs import profile as _profile
from repro.obs import trace as _trace
from repro.obs.distributed import WALL_CLOCK
from repro.obs.log import get_logger
from repro.obs.metrics import REGISTRY
from repro.parallel import supervise
from repro.parallel.cache import ContentCache, RunCache
from repro.parallel.cachekey import (
    dataset_shard_key,
    run_key,
    run_key_material,
    train_key,
    train_key_material,
)
from repro.parallel.modelcache import ModelCache
from repro.parallel.warmstart import WarmStarts
from repro.parallel.windowcache import WindowCache
from repro.workloads.base import Workload

__all__ = ["RunJob", "TrainJob", "SweepExecutor", "InjectedWorkerFault"]

logger = get_logger("parallel.executor")


class InjectedWorkerFault(RuntimeError):
    """A deliberate, plan-driven worker failure (crash injection)."""


@dataclass
class RunJob:
    """One monitored execution (the executor's unit of work), or, given
    to :meth:`SweepExecutor.run_pairs`, one baseline + interfered pair."""

    target: Workload
    interference: tuple[InterferenceSpec, ...] = ()
    config: ExperimentConfig = field(default_factory=ExperimentConfig)
    seed_salt: str = ""


@dataclass
class TrainJob:
    """One model training (what the model experiments submit)."""

    dataset: Dataset
    thresholds: tuple[float, ...] = BINARY_THRESHOLDS
    config: TrainConfig | None = None
    seed: int = 0
    restarts: int = 3

    def effective_config(self) -> TrainConfig:
        """The config training actually uses (mirrors the restart loop's
        ``config or TrainConfig(seed=seed)`` default)."""
        return self.config or TrainConfig(seed=self.seed)


def _execute_job(item: tuple[str, RunJob, int], warm: WarmStarts,
                 plan: FaultPlan | None = None,
                 trace_id: str | None = None):
    """Batch body: run one job and return (run, wall, aux).

    Runs wherever :func:`~repro.parallel.supervise.run_supervised` puts
    it: in a pool child or in the calling process.  When the caller is
    tracing it passes its ``trace_id`` (``""`` for a tracer without
    one): the job attaches a fresh tracer under it and ships the
    finished spans back in ``aux["trace"]``; ``None`` detaches any
    inherited tracer instead, so a fork-started child never records into
    the parent's span list.  The caller's tracer is restored on the way
    out, which is what an in-process job needs.
    ``aux`` also carries the job's ``time.monotonic()`` start stamp,
    from which the parent derives queue-wait and execute wall spans.
    A job whose warm-up another job of the batch shares runs forked
    from ``warm``'s state for it (:mod:`repro.parallel.warmstart`), with
    the same run, spans and metrics; any other job is a fresh
    ``execute_run``.  When a fault plan is supplied, injected worker
    faults fire *before* the simulation (a killed worker never produces
    partial results) and simulated-run aborts are threaded into the
    run's target phase.
    """
    key, job, attempt = item
    caller_tracer = _trace.get()
    worker_tracer = _dist.attach(trace_id)
    try:
        abort_at = None
        if plan is not None:
            if plan.kills_worker(key):
                raise InjectedWorkerFault(
                    f"injected persistent crash for run {key[:12]}"
                )
            if plan.worker_is_flaky(key, attempt):
                raise InjectedWorkerFault(
                    f"injected transient crash for run {key[:12]} "
                    f"(attempt {attempt})"
                )
            stall = plan.worker_stall(key, attempt)
            if stall > 0:
                time.sleep(stall)
            abort_at = plan.run_abort_time(job.target.name, job.seed_salt)
        started = time.monotonic()
        start = time.perf_counter()
        forked = warm.run(key, job, trace_id, abort_at)
        if forked is not None:
            run, shipment = forked
        else:
            run = execute_run(job.target, list(job.interference),
                              job.config, seed_salt=job.seed_salt,
                              abort_at=abort_at)
            shipment = _dist.ship(worker_tracer)
        wall = time.perf_counter() - start
        return run, wall, {"started": started, "trace": shipment}
    finally:
        _trace.TRACER = caller_tracer


def emit_job_spans(tracer, keys: list[str], submit: float,
                   done: dict[str, dict],
                   attempts: dict[str, list[dict]]) -> None:
    """Emit wall-clock ``job.*`` spans into ``tracer`` in submission order.

    ``submit`` is the batch's ``time.monotonic()`` submission stamp,
    ``done`` maps each finished job's key to {"started", "wall",
    "trace"} (the job's monotonic start stamp, its wall seconds and its
    span shipment), and ``attempts`` is
    :attr:`~repro.parallel.supervise.SupervisionStats.attempts`.  Every
    job gets a ``job.run`` with its ``job.queue-wait`` and one
    ``job.retry`` per failed attempt; a finished job adds its
    ``job.execute`` with the shipped spans nested under it, and a job
    that never finished is marked ``quarantined``.  Iterating ``keys``
    — submission order — rather than completion order is what keeps
    merged span ids deterministic across runs.
    """
    submitted = _dist.monotonic_to_wall(tracer, submit)
    for key in keys:
        tries = attempts[key]
        info = done.get(key)
        label = key[:12]
        first = max(submitted,
                    _dist.monotonic_to_wall(tracer, tries[0]["started"]))
        job_span = tracer.start("job.run", submitted, clock=WALL_CLOCK,
                                worker=label)
        wait = tracer.start("job.queue-wait", submitted, parent=job_span,
                            clock=WALL_CLOCK, worker=label)
        tracer.finish(wait, first)
        end = first
        for t in tries:
            if t["outcome"] == "ok":
                continue
            t_start = max(submitted,
                          _dist.monotonic_to_wall(tracer, t["started"]))
            retry = tracer.start("job.retry", t_start, parent=job_span,
                                 clock=WALL_CLOCK, worker=label,
                                 attempt=t["attempt"], outcome=t["outcome"])
            end = max(t_start, _dist.monotonic_to_wall(tracer, t["ended"]))
            tracer.finish(retry, end)
        if info is None:
            tracer.finish(job_span, end, quarantined=True)
            continue
        started = max(first,
                      _dist.monotonic_to_wall(tracer, info["started"]))
        end = max(end, started + info["wall"])
        execute = tracer.start("job.execute", started, parent=job_span,
                               clock=WALL_CLOCK, worker=label)
        _dist.merge_shipment(tracer, info["trace"], parent_span=execute,
                             worker=label)
        tracer.finish(execute, end)
        tracer.finish(job_span, end)


#: Name of the per-slot busy-seconds counters, labelled ``{worker=wN}``.
_BUSY = "parallel.worker_busy_seconds"


def record_batch_telemetry(done: dict[str, dict]) -> None:
    """Publish executor health metrics for one batch's finished runs.

    ``done`` maps each finished run's key to at least {"wall", "slot"}.

    * ``parallel.worker_busy_seconds{worker=wN}`` — counter: busy wall
      seconds of slot ``N`` over the whole process (slots, not pids: a
      replaced child keeps its slot, and labels stay stable run to run);
    * ``parallel.workers_used`` — how many slots have busy time, so it
      always describes the same work as the busy series.

    Straggler skew is not a metric of its own: ``repro obs report``
    derives it from the ``parallel.run_seconds`` histogram, which spans
    every batch the registry saw.
    """
    if not done:
        return
    for info in done.values():
        REGISTRY.counter(f"{_BUSY}{{worker=w{info['slot']}}}").inc(
            info["wall"])
    REGISTRY.gauge("parallel.workers_used").set(
        sum(name.startswith(_BUSY + "{") for name in REGISTRY.names()))


def _open(cache, cls: type[ContentCache]) -> ContentCache | None:
    """``cache`` as a ``cls``: kept if it is one, opened if it is a
    directory, ``None`` (no persistent cache) if ``None``."""
    if cache is None or isinstance(cache, cls):
        return cache
    return cls(cache)


class SweepExecutor:
    """Runs sweeps and trainings: deduplicated, cached, parallel.

    Parameters
    ----------
    n_jobs:
        Slots a sweep may fill, at least ``1``.  ``None`` (default)
        takes :func:`repro.parallel.supervise.usable_cores`: every CPU
        this process may use, or 1 in a daemonic process.  With ``1`` a
        sweep without ``run_timeout`` or ``retries`` executes
        in-process.  The count is resolved here, so :meth:`stats` and
        the ``parallel.n_jobs`` gauge report the one in use.
    cache:
        The run cache: a :class:`RunCache`, a directory path to open one
        in, or ``None`` for none (in-batch deduplication still applies).
    windows:
        The labelled-window cache
        :func:`~repro.experiments.datagen.collect_windows` reads and
        fills: a :class:`WindowCache`, a directory, or ``None``.
    models:
        The trained-model cache: a :class:`ModelCache`, a directory, or
        ``None``.
    run_timeout:
        Wall-clock seconds one run may take before the watchdog kills
        its worker (counts as a failed attempt).  ``None`` disables the
        watchdog.
    retries:
        How many times a failed (crashed / timed-out) run is retried
        before quarantine, after an exponential backoff
        (:data:`repro.parallel.supervise.RETRY_BACKOFF` ``* 2**k``).
        ``0`` quarantines on first failure.
    fault_plan:
        A :class:`repro.faults.FaultPlan` whose worker- and
        simulation-level faults are injected into this sweep's runs.
        Telemetry faults are *not* applied here (apply
        :func:`repro.faults.apply_faults` to the returned runs), so
        cached runs stay clean.
    """

    def __init__(self, n_jobs: int | None = None,
                 cache: RunCache | str | os.PathLike | None = None,
                 windows: WindowCache | str | os.PathLike | None = None,
                 models: ModelCache | str | os.PathLike | None = None,
                 run_timeout: float | None = None,
                 retries: int = 0,
                 fault_plan: FaultPlan | None = None) -> None:
        if n_jobs is None:
            n_jobs = supervise.usable_cores()
        elif n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
        if run_timeout is not None and not 0 < run_timeout < math.inf:
            raise ValueError(f"run_timeout must be positive and finite, "
                             f"got {run_timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.n_jobs = n_jobs
        self.cache = _open(cache, RunCache)
        self.windows = _open(windows, WindowCache)
        self.models = _open(models, ModelCache)
        self.run_timeout = run_timeout
        self.retries = retries
        self.fault_plan = fault_plan
        self.runs_executed = 0
        self.runs_deduplicated = 0
        self.retries_used = 0
        self.timeouts = 0
        #: key -> {"target", "seed_salt", "attempts", "errors"} for runs
        #: that kept dying.
        self.quarantined: dict[str, dict] = {}
        self.trainings_executed = 0
        self.jobs_deduplicated = 0
        REGISTRY.gauge("parallel.n_jobs").set(self.n_jobs)

    # -- keys -------------------------------------------------------------

    def key_for(self, job: RunJob) -> str:
        return run_key(job.target, job.interference, job.config,
                       seed_salt=job.seed_salt, faults=self._fault_material())

    def shard_key_for(self, pair: RunJob) -> str:
        """Content-addressed key of the pair's labelled windows.

        Mirrors :meth:`key_for` — same fault material — so the window
        cache agrees with the run cache about what counts as "the same"
        sweep.
        """
        return dataset_shard_key(pair.target, pair.interference, pair.config,
                                 seed_salt=pair.seed_salt,
                                 faults=self._fault_material())

    def train_key_for(self, job: TrainJob) -> str:
        return train_key(job.dataset.content_digest(), job.thresholds,
                         job.effective_config(), job.seed, job.restarts)

    def _fault_material(self) -> dict | None:
        if self.fault_plan is not None and self.fault_plan.affects_simulation:
            return self.fault_plan.sim_material()
        return None

    def _resilient(self) -> bool:
        """Whether failing runs are retried and quarantined (a timeout,
        retries or worker faults are set) rather than raised."""
        return (self.run_timeout is not None or self.retries > 0
                or (self.fault_plan is not None
                    and self.fault_plan.has_worker_faults))

    @staticmethod
    def _probe(jobs: list, key_for, cache: ContentCache | None,
               span_attrs: dict) -> tuple[list[str], dict, dict, int]:
        """Key ``jobs``, drop in-batch repeats and look the rest up in
        ``cache``.

        Returns every job's key in submission order, the cache hits by
        key, the jobs left to execute by key, and how many jobs repeated
        an earlier key.  With a tracer installed each lookup is one
        wall-clock ``cache.probe`` span, with ``span_attrs`` added.
        """
        tracer = _trace.get()
        with _profile.phase("plan"):
            keys = [key_for(job) for job in jobs]
        results: dict = {}
        pending: dict = {}
        deduplicated = 0
        with _profile.phase("cache-probe"):
            for job, key in zip(jobs, keys):
                if key in results or key in pending:
                    deduplicated += 1
                    continue
                cached = None
                if cache is not None:
                    probe = (tracer.start("cache.probe",
                                          _dist.wall_now(tracer),
                                          clock=WALL_CLOCK, key=key[:12],
                                          **span_attrs)
                             if tracer is not None else None)
                    cached = cache.get(key)
                    if probe is not None:
                        tracer.finish(probe, _dist.wall_now(tracer),
                                      hit=cached is not None)
                if cached is not None:
                    results[key] = cached
                else:
                    pending[key] = job
        return keys, results, pending, deduplicated

    # -- simulation -------------------------------------------------------

    def run_many(self, jobs: list[RunJob]) -> list[MonitoredRun | None]:
        """Execute ``jobs`` and return their runs in submission order.

        Jobs with equal keys execute once and share one result object.
        Positions whose run was quarantined (kept failing after every
        retry) hold ``None``; without failures none is ever ``None``.
        """
        REGISTRY.counter("parallel.runs_requested").inc(len(jobs))
        with _profile.phase("sweep", jobs=len(jobs)):
            keys, results, pending, deduplicated = self._probe(
                jobs, self.key_for, self.cache, {})
            REGISTRY.counter("parallel.runs_deduplicated").inc(deduplicated)
            self.runs_deduplicated += deduplicated

            items = list(pending.items())
            self.runs_executed += len(items)
            REGISTRY.counter("parallel.runs_executed").inc(len(items))
            unique = len(jobs) - deduplicated
            logger.info(
                "sweep: %d jobs -> %d unique, %d cache hits, %d to run "
                "(n_jobs=%d)", len(jobs), unique, unique - len(items),
                len(items), self.n_jobs,
            )
            with _profile.phase("execute", runs=len(items)):
                self._execute(items, results)

        return [results.get(key) for key in keys]

    def _execute(self, items: list[tuple[str, RunJob]],
                 results: dict[str, MonitoredRun]) -> None:
        """Execute pending runs through :func:`repro.parallel.supervise.
        run_supervised`, which places them in-process or on the pool.

        Without resilience options a run that raises or whose child dies
        makes this raise ``RuntimeError`` once the batch has drained,
        naming each failed run's target, seed salt and error; the runs
        that finished are cached.  Otherwise runs that keep failing land
        in :attr:`quarantined`, named the same way, and the sweep moves
        on; the retry, timeout and quarantine counts are published as
        ``parallel.retries``, ``parallel.timeouts`` and
        ``parallel.quarantined``.  With a tracer installed the batch's
        ``job.*`` spans are emitted before either.
        """
        jobs = dict(items)
        wall_hist = REGISTRY.histogram("parallel.run_seconds")
        wait_hist = REGISTRY.histogram("parallel.queue_wait_seconds")
        #: key -> {"started", "wall", "trace", "slot"} of finished runs.
        done: dict[str, dict] = {}
        submit = time.monotonic()

        def on_success(key: str, payload, slot: int) -> None:
            run, wall, aux = payload
            wall_hist.observe(wall)
            wait_hist.observe(max(0.0, aux["started"] - submit))
            done[key] = {"wall": wall, "slot": slot, **aux}
            self._store(key, jobs[key], run)
            results[key] = run

        stats = supervise.run_supervised(
            items,
            functools.partial(_execute_job, warm=WarmStarts(jobs),
                              plan=self.fault_plan,
                              trace_id=_dist.current_context()),
            workers=self.n_jobs,
            on_success=on_success,
            run_timeout=self.run_timeout,
            retries=self.retries,
        )
        tracer = _trace.get()
        if tracer is not None:
            emit_job_spans(tracer, list(jobs), submit, done, stats.attempts)
        record_batch_telemetry(done)
        if stats.quarantined and not self._resilient():
            raise RuntimeError("; ".join(
                f"run {job.target.name} (seed salt {job.seed_salt!r}) "
                f"failed: {stats.quarantined[key]['errors'][-1]}"
                for key, job in jobs.items() if key in stats.quarantined))
        self.retries_used += stats.retries_used
        self.timeouts += stats.timeouts
        for key, record in stats.quarantined.items():
            job = jobs[key]
            self.quarantined[key] = {"target": job.target.name,
                                     "seed_salt": job.seed_salt, **record}
        REGISTRY.counter("parallel.retries").inc(stats.retries_used)
        REGISTRY.counter("parallel.timeouts").inc(stats.timeouts)
        REGISTRY.counter("parallel.quarantined").inc(len(stats.quarantined))

    def run_one(self, job: RunJob) -> MonitoredRun | None:
        """Convenience wrapper: a one-job sweep."""
        return self.run_many([job])[0]

    def run_pairs(self, pairs: list[RunJob]) -> list[PairedRuns | None]:
        """Baseline + interfered execution for every pair, in order.

        Each pair is a :class:`RunJob` naming the interfered run.  Its
        baseline runs the same target and config alone and drops the
        ``seed_salt`` (it only seeds noise launches), so all scenarios of
        a target key to — and reuse — one baseline run.  A pair either
        of whose runs was quarantined comes back as ``None`` (sweeps
        degrade, they don't crash).
        """
        jobs: list[RunJob] = []
        for pair in pairs:
            jobs.append(RunJob(pair.target, (), pair.config, seed_salt=""))
            jobs.append(RunJob(pair.target, tuple(pair.interference),
                               pair.config, seed_salt=pair.seed_salt))
        runs = self.run_many(jobs)
        out: list[PairedRuns | None] = []
        for i in range(len(pairs)):
            baseline, interfered = runs[2 * i], runs[2 * i + 1]
            if baseline is None or interfered is None:
                out.append(None)
            else:
                out.append(PairedRuns(baseline=baseline,
                                      interfered=interfered))
        return out

    def _store(self, key: str, job: RunJob, run: MonitoredRun) -> None:
        if self.cache is None:
            return
        self.cache.put(key, run,
                       material=run_key_material(job.target, job.interference,
                                                 job.config,
                                                 seed_salt=job.seed_salt,
                                                 faults=self._fault_material()))

    # -- training ---------------------------------------------------------

    def train_predictor(self, dataset: Dataset, **kwargs
                        ) -> InterferencePredictor:
        """Train (or recall) one predictor; kwargs mirror ``TrainJob``."""
        return self.train_predictors([TrainJob(dataset, **kwargs)])[0]

    def train_predictors(self, jobs: list[TrainJob]
                         ) -> list[InterferencePredictor]:
        """Train ``jobs`` and return predictors in submission order.

        Jobs with equal keys train once and share one result object.
        Every job's inputs are checked before any job trains.
        """
        REGISTRY.counter("parallel.train.requested").inc(len(jobs))
        exec_counter = REGISTRY.counter("parallel.train.executed")
        dedup_counter = REGISTRY.counter("parallel.train.deduplicated")

        def checked_key(job: TrainJob) -> str:
            InterferencePredictor.check_train_inputs(
                job.dataset, job.thresholds, job.restarts)
            return self.train_key_for(job)

        with _profile.phase("train", jobs=len(jobs)):
            keys, results, pending, deduplicated = self._probe(
                jobs, checked_key, self.models, {"cache": "model"})
            dedup_counter.inc(deduplicated)
            self.jobs_deduplicated += deduplicated

            n_restarts = sum(job.restarts for job in pending.values())
            unique = len(jobs) - deduplicated
            logger.info(
                "training batch: %d jobs -> %d unique, %d cache hits, "
                "%d to train (%d restarts)",
                len(jobs), unique, unique - len(pending), len(pending),
                n_restarts,
            )
            if pending:
                self.trainings_executed += n_restarts
                exec_counter.inc(n_restarts)
                with _profile.phase("execute", restarts=n_restarts):
                    self._train(pending, results)

        return [results[key] for key in keys]

    def _train(self, pending: dict[str, TrainJob],
               results: dict[str, InterferencePredictor]) -> None:
        """``InterferencePredictor.train`` once per pending job."""
        wall_hist = REGISTRY.histogram("parallel.train.seconds")
        for key, job in pending.items():
            start = time.perf_counter()
            predictor = InterferencePredictor.train(
                job.dataset, job.thresholds, job.config,
                seed=job.seed, restarts=job.restarts,
            )
            wall_hist.observe(time.perf_counter() - start)
            if self.models is not None:
                self.models.put(key, predictor, material=train_key_material(
                    job.dataset.content_digest(), job.thresholds,
                    job.effective_config(), job.seed, job.restarts))
            results[key] = predictor

    # -- reporting --------------------------------------------------------

    def fault_report(self) -> dict:
        """What the resilience layer saw: quarantine, retries, timeouts."""
        return {
            "plan": (self.fault_plan.to_dict()
                     if self.fault_plan is not None else None),
            "quarantined": [
                {"key": key, **info}
                for key, info in sorted(self.quarantined.items())
            ],
            "retries_used": self.retries_used,
            "timeouts": self.timeouts,
        }

    def stats(self) -> dict:
        """Sweep + run-cache counters, manifest-ready."""
        stats = {
            "n_jobs": self.n_jobs,
            "runs_executed": self.runs_executed,
            "runs_deduplicated": self.runs_deduplicated,
            "cache": self.cache.stats() if self.cache is not None else None,
        }
        if (self.fault_plan is not None or self.quarantined
                or self.run_timeout is not None or self.retries):
            stats["run_timeout"] = self.run_timeout
            stats["retries"] = self.retries
            stats["faults"] = self.fault_report()
        return stats

    def training_stats(self) -> dict:
        """Training + model-cache counters, manifest-ready."""
        return {
            "trainings_executed": self.trainings_executed,
            "jobs_deduplicated": self.jobs_deduplicated,
            "cache": self.models.stats() if self.models is not None else None,
        }
