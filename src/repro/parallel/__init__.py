"""Parallel execution and content-addressed caching (runs and models).

The experiment stack has two bottlenecks.  The first is the scenario
sweep: every (target, scenario) pair costs two full discrete-event
simulations.  The second is training: restarts, seed repetitions and
ablation grid cells are independent trainings run back to back.  This
package removes both without touching determinism:

* :mod:`repro.parallel.cachekey` — stable content-addressed keys over
  (workload spec, interference, config, seed, code-version salt) for
  runs, and (dataset digest, training recipe) for models;
* :mod:`repro.parallel.cache` — :class:`RunCache`, an atomic on-disk
  store of :class:`~repro.monitor.aggregator.MonitoredRun` records;
* :mod:`repro.parallel.modelcache` — :class:`ModelCache`, its sibling
  for trained :class:`~repro.core.predictor.InterferencePredictor`s;
* :mod:`repro.parallel.supervise` — the shared watchdog/retry/quarantine
  machinery both executors run their children under;
* :mod:`repro.parallel.executor` — :class:`SweepExecutor`, fanning
  deduplicated cache misses over a ``multiprocessing`` pool while
  keeping results bit-identical to serial execution;
* :mod:`repro.parallel.trainer` — :class:`TrainExecutor`, the same
  layering for trainings, parallel at restart granularity and
  bit-identical to the serial restart loop;
* :mod:`repro.parallel.workerinit` — the sweep pool's worker
  initializer (one-time imports and telemetry attach).

Quick use::

    from repro.parallel import SweepExecutor, TrainExecutor
    from repro.experiments.datagen import collect_windows

    bank = collect_windows(targets, scenarios, config,
                           n_jobs=4, cache="results/.runcache")
    trainer = TrainExecutor(n_jobs=4, cache="results/.modelcache")
    predictor = trainer.train_predictor(bank.binary())

DESIGN.md §7 documents the determinism contract and cache layout;
§10 covers the training side.
"""

from repro.parallel.cache import RunCache
from repro.parallel.cachekey import (
    CACHE_FORMAT,
    DATASET_FORMAT,
    canonical_json,
    dataset_shard_key,
    dataset_shard_key_material,
    run_key,
    run_key_material,
    stable_hash,
    train_key,
    train_key_material,
    workload_spec,
)
from repro.parallel.executor import (
    InjectedWorkerFault,
    PairJob,
    RunJob,
    SweepExecutor,
    resolve_n_jobs,
)
from repro.parallel.modelcache import ModelCache
from repro.parallel.supervise import (
    SupervisionStats,
    backoff_delay,
    run_supervised,
)
from repro.parallel.trainer import TrainExecutor, TrainJob
from repro.parallel.workerinit import init_worker

__all__ = [
    "CACHE_FORMAT",
    "DATASET_FORMAT",
    "InjectedWorkerFault",
    "ModelCache",
    "PairJob",
    "RunCache",
    "RunJob",
    "SupervisionStats",
    "SweepExecutor",
    "TrainExecutor",
    "TrainJob",
    "backoff_delay",
    "canonical_json",
    "dataset_shard_key",
    "dataset_shard_key_material",
    "init_worker",
    "resolve_n_jobs",
    "run_key",
    "run_key_material",
    "run_supervised",
    "stable_hash",
    "train_key",
    "train_key_material",
    "workload_spec",
]
