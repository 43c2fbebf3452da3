"""Tests for collect_windows through a WindowCache.

The load-bearing contract: a cache-built bank is bit-identical —
``content_digest()`` equal — to the in-memory ``collect_windows`` path,
cold and warm, on data and metadata workloads; a warm rebuild performs
zero simulations and reads one entry; and a corrupt, missing or
quarantined pair is recomputed in the next build, alone.
"""

import json

import numpy as np
import pytest

from repro.experiments.datagen import (Scenario, collect_windows,
                                       generate_dataset, sweep_pairs)
from repro.experiments.runner import (ExperimentConfig, InterferenceSpec,
                                      experiment_cluster)
from repro.faults import FaultPlan
from repro.parallel import (RunJob, SweepExecutor, WindowCache,
                            dataset_sweep_key)
from repro.workloads.io500 import make_io500_task


def small_config():
    return ExperimentConfig(cluster=experiment_cluster(), window_size=0.25,
                            sample_interval=0.125, warmup=0.5, seed=0)


def small_targets():
    return [make_io500_task("ior-easy-write", ranks=2, scale=0.1)]


def small_scenarios():
    return [
        Scenario("quiet"),
        Scenario("noise", (InterferenceSpec("ior-easy-write", instances=2,
                                            ranks=2, scale=0.2),)),
    ]


def extra_scenario():
    return Scenario("noise2", (InterferenceSpec("ior-easy-read", instances=1,
                                                ranks=2, scale=0.2),))


def pair_keys(targets, scenarios, config):
    """The WindowCache keys of a sweep's pairs, in sweep order."""
    executor = SweepExecutor()
    return [executor.shard_key_for(RunJob(target, scenario.interference,
                                          config, seed_salt=scenario.name))
            for target, scenario in sweep_pairs(targets, scenarios)]


def entry_file(cache, key):
    return cache.path_for(key) / "windows.npz"


#: (target, noise) IO500 tasks exercising each of the simulator's two
#: request paths: data ops on the columnar callback chain of
#: repro.sim.batch, metadata ops as generator steps on engine events.
PATH_TASKS = {
    "batch": ("ior-easy-write", "ior-easy-write"),
    "event": ("mdt-easy-write", "mdt-hard-write"),
}


@pytest.mark.parametrize("path", ["batch", "event"])
def test_cold_build_digest_matches_in_memory(tmp_path, path):
    config = small_config()
    target, noise = PATH_TASKS[path]
    targets = [make_io500_task(target, ranks=2, scale=0.1)]
    scenarios = [
        Scenario("quiet"),
        Scenario("noise", (InterferenceSpec(noise, instances=2, ranks=2,
                                            scale=0.2),)),
    ]
    in_memory = generate_dataset(targets, scenarios, config, source="t")
    for build in ("cold", "warm"):
        built = generate_dataset(
            targets, scenarios, config, source="t",
            executor=SweepExecutor(windows=tmp_path / "windows"))
        assert built.content_digest() == in_memory.content_digest(), build
        assert np.array_equal(built.X, in_memory.X)
        assert np.array_equal(built.y, in_memory.y)


def test_warm_rebuild_zero_simulations_zero_reaggregations(tmp_path):
    config = small_config()
    cold = WindowCache(tmp_path / "windows")
    bank_cold = collect_windows(small_targets(), small_scenarios(), config,
                                executor=SweepExecutor(windows=cold))
    # A sweep-entry miss, two pair misses; two pairs plus the sweep stored.
    assert (cold.hits, cold.misses, cold.stores) == (0, 3, 3)

    warm = WindowCache(tmp_path / "windows")
    executor = SweepExecutor(windows=warm)
    bank_warm = collect_windows(small_targets(), small_scenarios(), config,
                                executor=executor)
    # Zero simulations: the executor never ran a job.
    assert executor.runs_executed == 0
    # Zero re-aggregations: only the sweep's own entry was read.
    assert (warm.hits, warm.misses, warm.stores) == (1, 0, 0)
    assert np.array_equal(bank_warm.X, bank_cold.X)
    assert np.array_equal(bank_warm.levels, bank_cold.levels)
    assert bank_warm.sources == bank_cold.sources


def test_append_touches_only_new_pairs(tmp_path):
    config = small_config()
    collect_windows(small_targets(), small_scenarios(), config,
                    executor=SweepExecutor(windows=tmp_path / "windows"))

    grown = WindowCache(tmp_path / "windows")
    executor = SweepExecutor(windows=grown)
    scenarios = small_scenarios() + [extra_scenario()]
    bank = collect_windows(small_targets(), scenarios, config,
                           executor=executor)
    # The grown sweep misses; its two old pairs hit; the new pair (its
    # baseline and interfered run) is simulated and stored, then the sweep.
    assert (grown.hits, grown.misses, grown.stores) == (2, 2, 2)
    assert executor.runs_executed == 2
    # The appended grid equals a from-scratch in-memory collection.
    in_memory = collect_windows(small_targets(), scenarios, config)
    assert np.array_equal(bank.X, in_memory.X)
    assert bank.sources == in_memory.sources


def test_corrupt_shard_is_evicted_then_rebuilt(tmp_path):
    config = small_config()
    cache = WindowCache(tmp_path / "windows")
    original = generate_dataset(small_targets(), small_scenarios(), config,
                                executor=SweepExecutor(windows=cache))
    keys = pair_keys(small_targets(), small_scenarios(), config)
    for key in (dataset_sweep_key(keys), keys[1]):
        entry_file(cache, key).write_bytes(b"garbage")

    # One build: both corrupt entries read as misses and are deleted,
    # and only the noise pair is simulated again.
    repaired = WindowCache(tmp_path / "windows")
    executor = SweepExecutor(windows=repaired)
    rebuilt = generate_dataset(small_targets(), small_scenarios(), config,
                               executor=executor)
    assert repaired.errors == 2
    assert (repaired.hits, repaired.misses, repaired.stores) == (1, 2, 2)
    assert executor.runs_executed == 2
    assert rebuilt.content_digest() == original.content_digest()
    assert entry_file(repaired, keys[1]).exists()


def test_missing_shard_file_evicts_entry(tmp_path):
    config = small_config()
    cache = WindowCache(tmp_path / "windows")
    original = collect_windows(small_targets(), small_scenarios(), config,
                               executor=SweepExecutor(windows=cache))
    keys = pair_keys(small_targets(), small_scenarios(), config)
    for key in (dataset_sweep_key(keys), keys[1]):
        entry_file(cache, key).unlink()

    repaired = WindowCache(tmp_path / "windows")
    bank = collect_windows(small_targets(), small_scenarios(), config,
                           executor=SweepExecutor(windows=repaired))
    assert repaired.errors == 0
    assert (repaired.hits, repaired.misses, repaired.stores) == (1, 2, 2)
    assert np.array_equal(bank.X, original.X)
    assert entry_file(repaired, keys[1]).exists()


def test_stats_shape(tmp_path):
    config = small_config()
    cache = WindowCache(tmp_path / "windows")
    collect_windows(small_targets(), small_scenarios(), config,
                    executor=SweepExecutor(windows=cache))
    stats = cache.stats()
    assert stats == {"directory": str(tmp_path / "windows"), "hits": 0,
                     "misses": 3, "stores": 3, "errors": 0}
    assert len(cache) == 3
    json.dumps(stats)  # manifest-ready


def test_collect_windows_store_roundtrip_bitwise(tmp_path):
    """The wire-through: collect_windows through an executor's window
    cache equals the uncached path."""
    config = small_config()
    plain = collect_windows(small_targets(), small_scenarios(), config)
    cache = WindowCache(tmp_path / "windows")
    via_cache = collect_windows(small_targets(), small_scenarios(), config,
                                executor=SweepExecutor(windows=cache))
    assert np.array_equal(plain.X, via_cache.X)
    assert np.array_equal(plain.levels, via_cache.levels)
    assert plain.sources == via_cache.sources
    assert cache.stores == 3


def test_quarantined_pair_is_recomputed_alone(tmp_path):
    """A sweep with a quarantined pair stores its other pairs but no
    sweep entry; re-run without faults, it simulates only that pair."""
    config = small_config()
    targets = small_targets()
    scenarios = small_scenarios() + [extra_scenario()]
    probe = SweepExecutor()
    baseline = probe.key_for(RunJob(targets[0], (), config))
    noisy = [probe.key_for(RunJob(targets[0], s.interference, config,
                                  seed_salt=s.name))
             for s in scenarios[1:]]
    # A plan that kills the "noise" pair's interfered run and no other.
    plan = next(plan for plan in (FaultPlan(seed=seed, worker_kill_rate=0.4)
                                  for seed in range(200))
                if plan.kills_worker(noisy[0])
                and not plan.kills_worker(noisy[1])
                and not plan.kills_worker(baseline))

    cache = WindowCache(tmp_path / "windows")
    faulty = SweepExecutor(windows=cache, fault_plan=plan, retries=0)
    partial = collect_windows(targets, scenarios, config, executor=faulty)
    assert list(faulty.quarantined) == [noisy[0]]
    keys = pair_keys(targets, scenarios, config)
    assert dataset_sweep_key(keys) not in cache
    assert [key in cache for key in keys] == [True, False, True]
    assert "ior-easy-write:noise" not in partial.sources

    rerun = WindowCache(tmp_path / "windows")
    clean = SweepExecutor(windows=rerun)
    bank = collect_windows(targets, scenarios, config, executor=clean)
    assert clean.runs_executed == 2  # the noise pair's baseline + its run
    assert (rerun.hits, rerun.misses, rerun.stores) == (2, 2, 2)
    in_memory = collect_windows(targets, scenarios, config)
    assert np.array_equal(bank.X, in_memory.X)
    assert np.array_equal(bank.levels, in_memory.levels)
    assert bank.sources == in_memory.sources
