"""Tests for content-addressed run keys."""

from dataclasses import replace

from repro.experiments.runner import ExperimentConfig, InterferenceSpec
from repro.parallel.cachekey import (
    CACHE_FORMAT,
    canonical_json,
    dataset_shard_key,
    run_key,
    run_key_material,
    stable_hash,
    workload_spec,
)
from repro.workloads.io500 import make_io500_task


def small_config(**overrides):
    base = ExperimentConfig(window_size=0.25, sample_interval=0.125,
                            warmup=0.5, seed=0)
    return replace(base, **overrides) if overrides else base


def target():
    return make_io500_task("ior-easy-write", ranks=2, scale=0.1)


NOISE = (InterferenceSpec("ior-easy-read", instances=1, ranks=2, scale=0.2),)


def test_key_is_stable_across_fresh_objects():
    k1 = run_key(target(), NOISE, small_config(), seed_salt="s")
    k2 = run_key(target(), NOISE, small_config(), seed_salt="s")
    assert k1 == k2


def test_canonical_json_ignores_dict_insertion_order():
    assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})
    assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})


def test_workload_spec_distinguishes_instances():
    spec_a = workload_spec(target())
    spec_b = workload_spec(make_io500_task("ior-easy-write", ranks=2,
                                           scale=0.2))
    assert spec_a["type"] == spec_b["type"]
    assert spec_a != spec_b


def test_window_size_excluded_from_key():
    """window_size only parameterises post-processing, so re-binning the
    same sweep at another window size must hit the cache."""
    k1 = run_key(target(), NOISE, small_config(window_size=0.25), seed_salt="s")
    k2 = run_key(target(), NOISE, small_config(window_size=1.0), seed_salt="s")
    assert k1 == k2


def test_sample_interval_changes_key():
    k1 = run_key(target(), NOISE, small_config(), seed_salt="s")
    k2 = run_key(target(), NOISE, small_config(sample_interval=0.0625),
                 seed_salt="s")
    assert k1 != k2


def test_seed_changes_key():
    k1 = run_key(target(), NOISE, small_config(seed=0), seed_salt="s")
    k2 = run_key(target(), NOISE, small_config(seed=1), seed_salt="s")
    assert k1 != k2


def test_baseline_ignores_seed_salt_and_warmup():
    """Both only affect noise launches, so every scenario of a target
    shares one baseline run."""
    k1 = run_key(target(), (), small_config(warmup=0.5), seed_salt="scenario-a")
    k2 = run_key(target(), (), small_config(warmup=2.0), seed_salt="scenario-b")
    assert k1 == k2


def test_interfered_runs_keep_seed_salt_and_warmup():
    k1 = run_key(target(), NOISE, small_config(warmup=0.5), seed_salt="a")
    k2 = run_key(target(), NOISE, small_config(warmup=0.5), seed_salt="b")
    k3 = run_key(target(), NOISE, small_config(warmup=2.0), seed_salt="a")
    assert len({k1, k2, k3}) == 3


def test_interference_mix_changes_key():
    more = NOISE + (InterferenceSpec("mdt-hard-write", instances=1, ranks=2,
                                     scale=0.2),)
    k1 = run_key(target(), NOISE, small_config(), seed_salt="s")
    k2 = run_key(target(), more, small_config(), seed_salt="s")
    assert k1 != k2


def test_code_version_changes_key(monkeypatch):
    """Every key carries the code-version salt, so a release that
    changes behaviour retires every cached run and window bank."""
    import repro

    k1 = run_key(target(), NOISE, small_config(), seed_salt="s")
    s1 = dataset_shard_key(target(), NOISE, small_config(), seed_salt="s")
    monkeypatch.setattr(repro, "__version__", repro.__version__ + "+next")
    assert run_key(target(), NOISE, small_config(), seed_salt="s") != k1
    assert dataset_shard_key(target(), NOISE, small_config(),
                             seed_salt="s") != s1
    material = run_key_material(target(), NOISE, small_config())
    assert material["salt"] == f"{repro.__version__}/f{CACHE_FORMAT}/"


def test_keys_are_pinned():
    """Warm run caches and dataset stores stay valid only while these
    keys hold.  They change on purpose with ``CACHE_FORMAT``, the
    package version or the key material, never by accident."""
    assert CACHE_FORMAT == 3
    assert (run_key(target(), NOISE, small_config(), seed_salt="s")
            == "e00914925fa4253d1473baea0fe063c43f1e8a13")
    assert (run_key(target(), (), small_config())
            == "8852a241e2d46239a9ec9debacf8c63d9cb6f7e6")
    assert (dataset_shard_key(target(), NOISE, small_config(), seed_salt="s")
            == "a6d188cfd3424013e164c509cc33677cc47bfa5c")


def test_model_key_is_pinned():
    """Warm model caches stay valid only while these keys hold.  They
    change on purpose with ``TRAINER_VERSION``, the package version or
    the key material, never by accident."""
    import numpy as np

    from repro.core.dataset import Dataset
    from repro.core.labeling import MULTICLASS_THRESHOLDS
    from repro.core.nn.train import TrainConfig
    from repro.parallel import SweepExecutor, TrainJob

    X = np.arange(2 * 3 * 4, dtype=float).reshape(2, 3, 4) / 8
    dataset = Dataset(X, [0, 1], feature_names=("a", "b", "c", "d"))
    assert dataset.content_digest() == \
        "f6f67d9107dcff41ed9fb5585a7fd55697947521"
    executor = SweepExecutor()
    assert (executor.train_key_for(TrainJob(dataset))
            == "7cdd202115c07a466683aa4d9e22bced02a9eeda")
    job = TrainJob(dataset, thresholds=MULTICLASS_THRESHOLDS,
                   config=TrainConfig(epochs=5, patience=3, seed=1), seed=1,
                   restarts=2)
    assert (executor.train_key_for(job)
            == "b2e5b4476a1390573817eb7b3764e63f721157bb")


def test_material_is_json_serialisable():
    import json

    material = run_key_material(target(), NOISE, small_config(), seed_salt="s")
    text = json.dumps(material, sort_keys=True)
    assert "ior-easy-write" in text
    assert "window_size" not in text
