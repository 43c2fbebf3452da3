"""Tests for the incremental content-addressed DatasetStore.

The load-bearing contract: a store-built dataset is bit-identical —
``content_digest()`` equal — to the in-memory ``collect_windows`` path,
on data and metadata workloads, and a warm rebuild performs zero
simulations and zero re-aggregations.
"""

import json

import numpy as np
import pytest

from repro.data import DatasetStore
from repro.experiments.datagen import (Scenario, collect_windows,
                                       generate_dataset)
from repro.experiments.runner import (ExperimentConfig, InterferenceSpec,
                                      experiment_cluster)
from repro.parallel import SweepExecutor
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
    store = DatasetStore(tmp_path / "store")
    built = store.build(targets, scenarios, config, source="t")
    assert built.content_digest() == in_memory.content_digest()
    assert np.array_equal(built.X, in_memory.X)
    assert np.array_equal(built.y, in_memory.y)


def test_warm_rebuild_zero_simulations_zero_reaggregations(tmp_path):
    config = small_config()
    cold = DatasetStore(tmp_path / "store")
    bank_cold = cold.build_bank(small_targets(), small_scenarios(), config)
    assert cold.pairs_appended == 2
    assert cold.shards_written >= 2

    warm = DatasetStore(tmp_path / "store")
    executor = SweepExecutor()
    bank_warm = warm.build_bank(small_targets(), small_scenarios(), config,
                                executor=executor)
    # Zero simulations: the executor never ran a job.
    assert executor.runs_executed == 0
    assert warm.last_build["missing_pairs"] == 0
    assert warm.last_build["reused_pairs"] == 2
    # Zero re-aggregations: no shard was even re-read — the assembled
    # memmap itself is cache-hit by its ordered-shard key.
    assert warm.shards_scanned == 0
    assert warm.assembly_hits == 1
    assert warm.pairs_appended == 0
    assert np.array_equal(bank_warm.X, bank_cold.X)
    assert np.array_equal(bank_warm.levels, bank_cold.levels)
    assert bank_warm.sources == bank_cold.sources


def test_append_touches_only_new_pairs(tmp_path):
    config = small_config()
    store = DatasetStore(tmp_path / "store")
    store.build_bank(small_targets(), small_scenarios(), config)

    grown = DatasetStore(tmp_path / "store")
    executor = SweepExecutor()
    bank = grown.build_bank(small_targets(),
                            small_scenarios() + [extra_scenario()], config,
                            executor=executor)
    assert grown.last_build["missing_pairs"] == 1
    assert grown.last_build["reused_pairs"] == 2
    assert grown.pairs_appended == 1
    # The appended grid equals a from-scratch in-memory collection.
    in_memory = collect_windows(small_targets(),
                                small_scenarios() + [extra_scenario()],
                                config)
    assert np.array_equal(bank.X, in_memory.X)
    assert bank.sources == in_memory.sources


def test_assembled_x_is_readonly_memmap(tmp_path):
    config = small_config()
    store = DatasetStore(tmp_path / "store")
    dataset = store.build(small_targets(), small_scenarios(), config)
    assert isinstance(dataset.X.base, np.memmap)
    with pytest.raises(ValueError):
        dataset.X[0, 0, 0] = 1.0


def test_small_shards_split_and_still_match(tmp_path):
    config = small_config()
    # A longer target: each pair yields several windows, so a one-window
    # shard limit forces every pair to split across files.
    targets = [make_io500_task("ior-easy-write", ranks=2, scale=2.0)]
    in_memory = generate_dataset(targets, small_scenarios(), config)
    store = DatasetStore(tmp_path / "store", max_windows_per_shard=1)
    built = store.build(targets, small_scenarios(), config)
    # One window per shard: the pairs really split into multiple files.
    assert store.shards_written == store.windows_appended
    assert store.shards_written > store.pairs_appended
    assert built.content_digest() == in_memory.content_digest()


def test_corrupt_shard_is_evicted_then_rebuilt(tmp_path):
    config = small_config()
    store = DatasetStore(tmp_path / "store")
    original = store.build(small_targets(), small_scenarios(), config)

    shard_files = sorted((tmp_path / "store" / "shards").rglob("*-000.npz"))
    assert shard_files
    shard_files[0].write_bytes(b"garbage")
    # Invalidate the cached assembly so the scan actually re-reads shards.
    for f in (tmp_path / "store" / "assemblies").iterdir():
        f.unlink()

    broken = DatasetStore(tmp_path / "store")
    with pytest.raises(RuntimeError, match="re-run the build"):
        broken.build(small_targets(), small_scenarios(), config)
    assert broken.errors >= 1

    # The corrupt pair was evicted; the next build re-simulates just it.
    repaired = DatasetStore(tmp_path / "store")
    executor = SweepExecutor()
    rebuilt = repaired.build(small_targets(), small_scenarios(), config,
                             executor=executor)
    assert repaired.last_build["missing_pairs"] == 1
    assert rebuilt.content_digest() == original.content_digest()


def test_missing_shard_file_evicts_entry(tmp_path):
    config = small_config()
    store = DatasetStore(tmp_path / "store")
    store.build(small_targets(), small_scenarios(), config)
    shard_files = sorted((tmp_path / "store" / "shards").rglob("*-000.npz"))
    shard_files[0].unlink()

    repaired = DatasetStore(tmp_path / "store")
    repaired.build(small_targets(), small_scenarios(), config)
    assert repaired.errors >= 1
    assert repaired.last_build["missing_pairs"] == 1


def test_wrong_manifest_kind_raises(tmp_path):
    store = DatasetStore(tmp_path / "store")
    store.manifest_path.write_text(json.dumps({"kind": "something-else"}))
    with pytest.raises(ValueError, match="not a dataset-store manifest"):
        store.load_manifest()


def test_corrupt_manifest_starts_fresh(tmp_path):
    store = DatasetStore(tmp_path / "store")
    store.manifest_path.write_text("{not json")
    manifest = store.load_manifest()
    assert manifest["entries"] == {}
    assert store.errors == 1


def test_format_bump_starts_fresh(tmp_path):
    store = DatasetStore(tmp_path / "store")
    store.manifest_path.write_text(
        json.dumps({"kind": "repro-dataset-store", "format": -1,
                    "entries": {"k": {}}, "seq": 1}))
    manifest = store.load_manifest()
    assert manifest["entries"] == {}


def test_store_rejects_bad_shard_size(tmp_path):
    with pytest.raises(ValueError, match="max_windows_per_shard"):
        DatasetStore(tmp_path / "store", max_windows_per_shard=0)


def test_stats_shape(tmp_path):
    config = small_config()
    store = DatasetStore(tmp_path / "store")
    store.build(small_targets(), small_scenarios(), config)
    stats = store.stats()
    assert stats["entries"] == 2
    assert stats["windows"] > 0
    assert stats["bytes"] > 0
    assert stats["pairs_appended"] == 2
    assert stats["last_build"]["missing_pairs"] == 2
    json.dumps(stats)  # manifest-ready


def test_collect_windows_store_roundtrip_bitwise(tmp_path):
    """The wire-through: collect_windows(store=...) equals store-less."""
    config = small_config()
    plain = collect_windows(small_targets(), small_scenarios(), config)
    store = DatasetStore(tmp_path / "store")
    via_store = collect_windows(small_targets(), small_scenarios(), config,
                                store=store)
    assert np.array_equal(plain.X, via_store.X)
    assert np.array_equal(plain.levels, via_store.levels)
    assert plain.sources == via_store.sources
    assert store.pairs_appended == 2
