"""Stable content-addressed keys for simulation runs.

A cached run is only reusable when *everything* that shapes its outcome
is part of its key: the target workload's full specification, the
interference mix, the experiment and cluster configuration (which embeds
the seed) and a code-version salt that invalidates every entry when the
simulator changes behaviour.  Keys are a BLAKE2b digest over canonical
JSON (sorted keys, no whitespace), so they are stable across processes,
Python versions and dict orderings — the property the on-disk cache and
the cross-process sweep deduplication both rely on.

Two deliberate normalisations keep the key *minimal* (anything not in
the key becomes a cache hit instead of a pointless recompute):

* ``window_size`` is dropped — it only parameterises post-processing
  (labelling and vector assembly), never the simulation itself, so the
  window-size ablation can re-bin one sweep instead of re-running it;
* for baseline runs (no interference) the ``seed_salt`` is cleared and
  the warm-up zeroed, because both only affect noise launches.  This is
  what lets every scenario of a target share a single baseline run.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable

from repro.core.nn.kernelnet import HEAD_HIDDEN, KERNEL_HIDDEN
from repro.experiments.runner import ExperimentConfig, InterferenceSpec
from repro.obs.manifest import config_to_dict, jsonable
from repro.workloads.base import Workload

__all__ = [
    "CACHE_FORMAT",
    "DATASET_FORMAT",
    "TRAINER_VERSION",
    "canonical_json",
    "stable_hash",
    "workload_spec",
    "run_key_material",
    "run_key",
    "train_key_material",
    "train_key",
    "dataset_shard_key_material",
    "dataset_shard_key",
    "dataset_sweep_key",
]

#: Bumped whenever the persisted run layout or key material changes.
#: 2: the cluster config grew a request-backend field (event vs batch
#: request path) — it participated in the key via ``config_to_dict``,
#: and the bump retired entries written before the batch path existed.
#: 3: the backend field is gone (the simulator has one request path),
#: so it is no longer part of the run key; the bump retires keys that
#: carried it.
CACHE_FORMAT = 3

#: Bumped whenever the layout of a
#: :class:`~repro.parallel.windowcache.WindowCache` entry or its key
#: material changes.  Separate from ``CACHE_FORMAT`` so retiring cached
#: windows does not retire cached runs.
DATASET_FORMAT = 1

#: Bumped whenever the trainer maps the same inputs to different
#: parameters, so :class:`~repro.parallel.modelcache.ModelCache` entries
#: an older trainer wrote are not reused.  Separate from ``CACHE_FORMAT``
#: so retiring trained models does not retire cached runs.  Keys before
#: the field existed count as version 1.
#: 2: float32 training (an option since removed) formed its dropout
#: masks in float32 (they were float64, which promoted training to
#: float64 after the first dropout layer).
TRAINER_VERSION = 2


def canonical_json(obj: Any) -> str:
    """Render ``obj`` as canonical JSON (sorted keys, compact)."""
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"))


def stable_hash(obj: Any, digest_size: int = 20) -> str:
    """Hex BLAKE2b digest of the canonical JSON form of ``obj``."""
    h = hashlib.blake2b(digest_size=digest_size)
    h.update(canonical_json(obj).encode())
    return h.hexdigest()


def workload_spec(workload: Workload) -> dict[str, Any]:
    """A JSON-safe full description of a workload instance.

    Captures the concrete class plus every instance attribute (the
    config dataclass, the job name, any extra knobs), so two workloads
    hash equal exactly when they would generate the same operations.
    """
    spec: dict[str, Any] = {"type": type(workload).__qualname__}
    spec.update(config_to_dict(vars(workload)))
    return spec


def _code_salt() -> str:
    from repro import __version__

    return f"{__version__}/f{CACHE_FORMAT}/"


def run_key_material(
    target: Workload,
    interference: Iterable[InterferenceSpec],
    config: ExperimentConfig,
    seed_salt: str = "",
    faults: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """The key's raw material (also persisted next to cache entries).

    ``faults`` carries the *simulation-affecting* part of a
    :class:`repro.faults.FaultPlan` (``plan.sim_material()``): a run
    aborted mid-flight has different content than a clean run and must
    never collide with it in the cache.  Worker- and telemetry-level
    faults don't change run content and stay out of the key.
    """
    interference = tuple(interference)
    cfg = config_to_dict(config)
    cfg.pop("window_size", None)  # post-processing only; see module doc
    if not interference:
        seed_salt = ""
        cfg["warmup"] = 0.0
    material = {
        "kind": "monitored-run",
        "salt": _code_salt(),
        "target": workload_spec(target),
        "interference": [config_to_dict(spec) for spec in interference],
        "config": cfg,
        "seed_salt": seed_salt,
    }
    if faults:
        material["faults"] = dict(faults)
    return material


def run_key(
    target: Workload,
    interference: Iterable[InterferenceSpec],
    config: ExperimentConfig,
    seed_salt: str = "",
    faults: dict[str, Any] | None = None,
) -> str:
    """Content-addressed key of one monitored run."""
    return stable_hash(run_key_material(target, interference, config,
                                        seed_salt=seed_salt, faults=faults))


def dataset_shard_key_material(
    target: Workload,
    interference: Iterable[InterferenceSpec],
    config: ExperimentConfig,
    seed_salt: str = "",
    faults: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Key material of one (target, scenario) pair's labelled windows.

    A pair's window entry holds the *post-processed* product of a
    baseline + interfered run pair: per-window per-server vectors and
    degradation levels.  Its content is therefore shaped by both runs' full key
    material **plus** the post-processing knobs that ``run_key``
    deliberately drops — ``window_size`` (labelling and vector windows)
    and ``sample_interval`` (server-feature aggregation).  Re-binning at
    a new window size keys new entries while reusing the same cached
    runs, exactly the split the run cache's normalisation was built for.
    """
    return {
        "kind": "window-shard",
        "salt": _code_salt(),
        "format": DATASET_FORMAT,
        "baseline": run_key_material(target, (), config, faults=faults),
        "interfered": run_key_material(target, tuple(interference), config,
                                       seed_salt=seed_salt, faults=faults),
        "window_size": config.window_size,
        "sample_interval": config.sample_interval,
    }


def dataset_shard_key(
    target: Workload,
    interference: Iterable[InterferenceSpec],
    config: ExperimentConfig,
    seed_salt: str = "",
    faults: dict[str, Any] | None = None,
) -> str:
    """Content-addressed key of one pair's labelled windows."""
    return stable_hash(dataset_shard_key_material(
        target, interference, config, seed_salt=seed_salt, faults=faults))


def dataset_sweep_key(shard_keys: Iterable[str]) -> str:
    """Content-addressed key of a sweep's labelled windows.

    The sweep's bank is its pairs' banks concatenated in sweep order, so
    the ordered pair keys determine it completely.
    """
    return stable_hash({"kind": "window-sweep", "format": DATASET_FORMAT,
                        "pairs": list(shard_keys)})


def train_key_material(
    dataset_digest: str,
    thresholds: tuple[float, ...],
    config: Any,
    seed: int,
    restarts: int,
) -> dict[str, Any]:
    """The model-cache key's raw material (persisted next to entries).

    A cached model is reusable only when every input that shapes the
    trained parameters is part of its key: the training data's content
    digest (:meth:`repro.core.dataset.Dataset.content_digest`), the
    severity thresholds, the full :class:`~repro.core.nn.train.
    TrainConfig`, the architecture (the kernel net's fixed widths,
    :data:`~repro.core.nn.kernelnet.KERNEL_HIDDEN` and
    :data:`~repro.core.nn.kernelnet.HEAD_HIDDEN`), and the seed/restart
    schedule.  The same code-version salt as the run cache invalidates
    entries across behaviour-changing releases, and
    :data:`TRAINER_VERSION` across trainer changes.
    """
    return {
        "kind": "trained-predictor",
        "salt": _code_salt(),
        "trainer": TRAINER_VERSION,
        "dataset": dataset_digest,
        "thresholds": list(thresholds),
        "config": config_to_dict(config),
        "kernel_hidden": list(KERNEL_HIDDEN),
        "head_hidden": list(HEAD_HIDDEN),
        "seed": seed,
        "restarts": restarts,
    }


def train_key(
    dataset_digest: str,
    thresholds: tuple[float, ...],
    config: Any,
    seed: int,
    restarts: int,
) -> str:
    """Content-addressed key of one training run (dataset + recipe)."""
    return stable_hash(train_key_material(dataset_digest, thresholds, config,
                                          seed, restarts))
