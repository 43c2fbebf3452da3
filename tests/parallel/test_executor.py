"""Tests for the sweep executor: dedup, caching, parallel determinism."""

import numpy as np

from repro.experiments.datagen import Scenario, collect_windows
from repro.experiments.runner import ExperimentConfig, InterferenceSpec
from repro.parallel import PairJob, RunCache, RunJob, SweepExecutor, resolve_n_jobs
from repro.workloads.io500 import make_io500_task


def small_config():
    return ExperimentConfig(window_size=0.25, sample_interval=0.125,
                            warmup=0.5, seed=0)


def small_targets():
    return [make_io500_task("ior-easy-write", ranks=2, scale=0.1)]


def small_scenarios():
    return [
        Scenario("quiet"),
        Scenario("noise", (InterferenceSpec("ior-easy-write", instances=2,
                                            ranks=2, scale=0.2),)),
    ]


def test_resolve_n_jobs():
    assert resolve_n_jobs(3) == 3
    assert resolve_n_jobs(1) == 1
    assert resolve_n_jobs(None) >= 1
    assert resolve_n_jobs(0) >= 1
    assert resolve_n_jobs(-2) >= 1


def test_baseline_shared_across_scenarios():
    """2 pairs = 4 runs requested, but the quiet scenario's 'interfered'
    run has no noise, so it deduplicates onto the shared baseline:
    only 2 simulations execute."""
    executor = SweepExecutor(n_jobs=1)
    target = small_targets()[0]
    pairs = [PairJob(target, tuple(s.interference), small_config(),
                     seed_salt=s.name) for s in small_scenarios()]
    paired = executor.run_pairs(pairs)
    assert len(paired) == 2
    assert executor.runs_executed == 2
    assert executor.runs_deduplicated == 2
    assert paired[0].baseline is paired[1].baseline
    assert paired[0].interfered is paired[0].baseline  # quiet == baseline


def test_run_one_matches_direct_execution():
    from repro.experiments.runner import execute_run

    cfg = small_config()
    target = small_targets()[0]
    direct = execute_run(target, [], cfg)
    via_executor = SweepExecutor().run_one(RunJob(target, (), cfg))
    assert via_executor.job == direct.job
    assert via_executor.records == direct.records
    assert via_executor.duration == direct.duration


def test_parallel_bit_identical_to_serial():
    """The acceptance criterion: n_jobs=4 must produce the exact same
    WindowBank as n_jobs=1, bit for bit."""
    serial = collect_windows(small_targets(), small_scenarios(),
                             small_config(), n_jobs=1)
    parallel = collect_windows(small_targets(), small_scenarios(),
                               small_config(), n_jobs=4)
    assert np.array_equal(serial.X, parallel.X)
    assert np.array_equal(serial.levels, parallel.levels)
    assert serial.sources == parallel.sources


def test_warm_cache_executes_zero_runs(tmp_path):
    cache_dir = tmp_path / "cache"
    cold = SweepExecutor(cache=RunCache(cache_dir))
    bank_cold = collect_windows(small_targets(), small_scenarios(),
                                small_config(), executor=cold)
    assert cold.runs_executed > 0

    warm = SweepExecutor(cache=RunCache(cache_dir))
    bank_warm = collect_windows(small_targets(), small_scenarios(),
                                small_config(), executor=warm)
    assert warm.runs_executed == 0
    assert warm.cache.hits > 0
    assert warm.cache.misses == 0
    assert np.array_equal(bank_cold.X, bank_warm.X)
    assert np.array_equal(bank_cold.levels, bank_warm.levels)


def test_cache_replay_survives_window_size_change(tmp_path):
    """window_size is post-processing: re-binning at another size must
    be pure cache replay."""
    from dataclasses import replace

    cache_dir = tmp_path / "cache"
    cold = SweepExecutor(cache=RunCache(cache_dir))
    collect_windows(small_targets(), small_scenarios(), small_config(),
                    executor=cold)

    warm = SweepExecutor(cache=RunCache(cache_dir))
    rebinned = collect_windows(small_targets(), small_scenarios(),
                               replace(small_config(), window_size=0.5),
                               executor=warm)
    assert warm.runs_executed == 0
    assert len(rebinned) > 0


def test_executor_accepts_path_as_cache(tmp_path):
    executor = SweepExecutor(cache=tmp_path / "c")
    assert isinstance(executor.cache, RunCache)


def test_stats_shape(tmp_path):
    executor = SweepExecutor(n_jobs=2, cache=tmp_path / "c")
    stats = executor.stats()
    assert stats["n_jobs"] == 2
    assert stats["runs_executed"] == 0
    assert set(stats["cache"]) >= {"hits", "misses", "stores", "errors"}
    assert SweepExecutor().stats()["cache"] is None


def test_init_worker_attach_and_detach():
    """The pool initializer installs exactly the tracer state a worker
    needs: a fresh tracer under the parent's trace id when traced, no
    tracer at all (even a fork-inherited one) when untraced — and the
    heavy simulation modules are hot either way."""
    import sys

    from repro.obs import trace as _trace
    from repro.obs.distributed import TraceContext
    from repro.parallel import init_worker

    saved = _trace.get()
    try:
        tracer = init_worker(TraceContext(trace_id="t-init",
                                          worker="w0").to_dict())
        assert tracer is not None and tracer.trace_id == "t-init"
        assert _trace.get() is tracer
        assert "repro.experiments.runner" in sys.modules
        assert "repro.sim.batch" in sys.modules

        assert init_worker(None) is None
        assert _trace.get() is None  # inherited tracer detached
    finally:
        _trace.TRACER = saved


def test_pool_initializer_keeps_parallel_results_identical():
    """Moving one-time setup into the initializer must not change what
    the pool produces: same banks as serial, still bit for bit."""
    serial = collect_windows(small_targets(), small_scenarios(),
                             small_config(), n_jobs=1)
    pooled = collect_windows(small_targets(), small_scenarios(),
                             small_config(), n_jobs=2)
    assert np.array_equal(serial.X, pooled.X)
    assert np.array_equal(serial.levels, pooled.levels)


def test_parallel_merges_worker_metrics(tmp_path):
    """Worker registries ship back with the runs: after a parallel sweep
    the parent registry must show the simulation counters a serial sweep
    would have recorded."""
    from repro.obs.metrics import REGISTRY

    jobs = [
        RunJob(small_targets()[0],
               (InterferenceSpec("ior-easy-read", instances=1, ranks=2,
                                 scale=0.1 * (i + 1)),),
               small_config(), seed_salt=f"m{i}")
        for i in range(2)
    ]
    before = REGISTRY.counter("monitor.server_samples").value
    SweepExecutor(n_jobs=2).run_many(jobs)
    after = REGISTRY.counter("monitor.server_samples").value
    assert after > before
