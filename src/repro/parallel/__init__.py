"""Parallel sweeps and content-addressed caching (runs, windows, models).

The experiment stack has two costs.  The first is the scenario sweep:
every (target, scenario) pair costs two full discrete-event simulations.
The second is training: one kernel network per recipe, seed repetition
or ablation grid cell.  This package cuts both without touching
determinism:

* :mod:`repro.parallel.cachekey` — stable content-addressed keys over
  (workload spec, interference, config, seed, code-version salt) for
  runs and labelled windows, and (dataset digest, training recipe) for
  models;
* :mod:`repro.parallel.cache` — :class:`RunCache`, an atomic on-disk
  store of :class:`~repro.monitor.aggregator.MonitoredRun` records, on
  the :class:`~repro.parallel.cache.ContentCache` base all three caches
  share;
* :mod:`repro.parallel.windowcache` — :class:`WindowCache`, its sibling
  for the labelled window banks of dataset sweeps;
* :mod:`repro.parallel.modelcache` — :class:`ModelCache`, its sibling
  for trained :class:`~repro.core.predictor.InterferencePredictor`s;
* :mod:`repro.parallel.executor` — :class:`SweepExecutor`, running
  deduplicated cache misses in-process or on the worker pool while
  keeping results bit-identical to serial execution;
* :mod:`repro.parallel.supervise` — that worker pool: one long-lived
  child per slot, with a watchdog, retry and quarantine; it also runs a
  training's restarts side by side when a second core is usable;
* :mod:`repro.parallel.trainer` — :class:`TrainExecutor`, deduplication
  and the model cache in front of the restart loop (DESIGN.md §10).

Quick use::

    from repro.parallel import SweepExecutor, TrainExecutor, WindowCache
    from repro.experiments.datagen import bank_to_dataset, collect_windows

    sweep = SweepExecutor(n_jobs=4, cache="results/.runcache")
    bank = collect_windows(targets, scenarios, config, executor=sweep,
                           store=WindowCache("results/.dataset"))
    trainer = TrainExecutor(cache="results/.modelcache")
    predictor = trainer.train_predictor(bank_to_dataset(bank))

DESIGN.md §7 documents the determinism contract and cache layout;
§10 covers the training side and §14 the window cache.
"""

from repro.parallel.cache import RunCache
from repro.parallel.cachekey import (
    CACHE_FORMAT,
    DATASET_FORMAT,
    canonical_json,
    dataset_shard_key,
    dataset_shard_key_material,
    dataset_sweep_key,
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
)
from repro.parallel.modelcache import ModelCache
from repro.parallel.supervise import (
    SupervisionStats,
    backoff_delay,
    run_supervised,
)
from repro.parallel.trainer import TrainExecutor, TrainJob
from repro.parallel.windowcache import WindowCache

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
    "WindowCache",
    "backoff_delay",
    "canonical_json",
    "dataset_shard_key",
    "dataset_shard_key_material",
    "dataset_sweep_key",
    "run_key",
    "run_key_material",
    "run_supervised",
    "stable_hash",
    "train_key",
    "train_key_material",
    "workload_spec",
]
