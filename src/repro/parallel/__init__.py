"""Parallel sweeps and content-addressed caching (runs, windows, models).

The experiment stack has two costs.  The first is the scenario sweep:
every (target, scenario) pair costs two full discrete-event simulations.
The second is training: one kernel network per recipe, seed repetition
or ablation grid cell.  This package cuts both without touching
determinism:

* :mod:`repro.parallel.cachekey` — stable content-addressed keys over
  (workload spec, interference, config, seed, code version) for runs
  and labelled windows, and (dataset digest, training recipe) for
  models;
* :mod:`repro.parallel.cache` — :class:`RunCache`, an atomic on-disk
  store of :class:`~repro.monitor.aggregator.MonitoredRun` records, on
  the :class:`~repro.parallel.cache.ContentCache` base all three caches
  share;
* :mod:`repro.parallel.windowcache` — :class:`WindowCache`, its sibling
  for the labelled window banks of dataset sweeps;
* :mod:`repro.parallel.modelcache` — :class:`ModelCache`, its sibling
  for trained :class:`~repro.core.predictor.InterferencePredictor`s;
* :mod:`repro.parallel.executor` — :class:`SweepExecutor`, the
  pipeline's one handle: it owns the three caches, and runs deduplicated
  cache misses (simulations through the batch runner, one slot per
  usable core by default; trainings one after another) with results
  bit-identical to serial execution;
* :mod:`repro.parallel.supervise` — that batch runner,
  :func:`~repro.parallel.supervise.run_supervised`: in-process when one
  slot is enough and nothing needs supervising, else a worker pool with
  one long-lived child per slot, a watchdog, retry and quarantine.  It
  runs every sweep and every training's restarts, hands the children's
  metrics back to the parent, and looks the same to its callers in both
  placements; its :func:`~repro.parallel.supervise.usable_cores` is the
  one rule that sizes both callers' batches;
* :mod:`repro.parallel.warmstart` — warm starts: where it runs, a
  sweep simulates the noise warm-up that two or more of its runs share
  once and forks each of those runs from it, bit for bit the fresh run.

Quick use::

    from repro.parallel import SweepExecutor
    from repro.experiments.datagen import bank_to_dataset, collect_windows

    executor = SweepExecutor(cache="results/.runcache",
                             windows="results/.dataset",
                             models="results/.modelcache")
    bank = collect_windows(targets, scenarios, config, executor=executor)
    predictor = executor.train_predictor(bank_to_dataset(bank))

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
    RunJob,
    SweepExecutor,
    TrainJob,
)
from repro.parallel.modelcache import ModelCache
from repro.parallel.supervise import (
    SupervisionStats,
    backoff_delay,
    run_supervised,
)
from repro.parallel.windowcache import WindowCache

__all__ = [
    "CACHE_FORMAT",
    "DATASET_FORMAT",
    "InjectedWorkerFault",
    "ModelCache",
    "RunCache",
    "RunJob",
    "SupervisionStats",
    "SweepExecutor",
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
