"""Tests for the sweep executor: dedup, caching, parallel determinism,
placement and failed runs."""

import logging
import multiprocessing
import os
import re

import numpy as np
import pytest

from repro.experiments.datagen import Scenario, collect_windows
from repro.experiments.runner import ExperimentConfig, InterferenceSpec
from repro.parallel import RunCache, RunJob, SweepExecutor, supervise
from repro.workloads.base import Workload
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


def test_baseline_shared_across_scenarios():
    """2 pairs = 4 runs requested, but the quiet scenario's 'interfered'
    run has no noise, so it deduplicates onto the shared baseline:
    only 2 simulations execute."""
    executor = SweepExecutor(n_jobs=1)
    target = small_targets()[0]
    pairs = [RunJob(target, tuple(s.interference), small_config(),
                    seed_salt=s.name) for s in small_scenarios()]
    paired = executor.run_pairs(pairs)
    assert len(paired) == 2
    assert executor.runs_executed == 2
    assert executor.runs_deduplicated == 2
    assert paired[0].baseline is paired[1].baseline
    assert paired[0].interfered is paired[0].baseline  # quiet == baseline


def test_second_sweep_logs_per_call_counts(caplog):
    """The sweep log line counts that call's jobs only: a second sweep
    through one executor must not subtract the first sweep's dedups."""
    executor = SweepExecutor(n_jobs=1)
    target = small_targets()[0]
    pairs = [RunJob(target, tuple(s.interference), small_config(),
                    seed_salt=s.name) for s in small_scenarios()]
    with caplog.at_level(logging.INFO, logger="repro.parallel.executor"):
        executor.run_pairs(pairs)
        executor.run_pairs(pairs)
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("sweep:")]
    assert lines == ["sweep: 4 jobs -> 2 unique, 0 cache hits, 2 to run "
                     "(n_jobs=1)"] * 2
    assert executor.runs_deduplicated == 4


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
    """The acceptance criterion: n_jobs=4, and the default slot count,
    must produce the exact same WindowBank as n_jobs=1, bit for bit."""
    serial = collect_windows(small_targets(), small_scenarios(),
                             small_config(),
                             executor=SweepExecutor(n_jobs=1))
    for n_jobs in (4, None):
        parallel = collect_windows(small_targets(), small_scenarios(),
                                   small_config(),
                                   executor=SweepExecutor(n_jobs=n_jobs))
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


def test_pool_initializer_keeps_parallel_results_identical():
    """Two pool slots with no per-worker initializer (each job attaches
    its own tracer and resets its registry) produce the same banks as
    serial, bit for bit."""
    serial = collect_windows(small_targets(), small_scenarios(),
                             small_config(),
                             executor=SweepExecutor(n_jobs=1))
    pooled = collect_windows(small_targets(), small_scenarios(),
                             small_config(),
                             executor=SweepExecutor(n_jobs=2))
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


# -- placement ----------------------------------------------------------------


def two_pending_runs():
    return [RunJob(small_targets()[0], (), small_config(), seed_salt=""),
            RunJob(small_targets()[0],
                   (InterferenceSpec("ior-easy-read", instances=1, ranks=2,
                                     scale=0.1),),
                   small_config(), seed_salt="noise")]


def forbid_children(monkeypatch):
    def spawn(*args, **kwargs):
        raise AssertionError("the sweep started child processes")

    monkeypatch.setattr(supervise._Slot, "spawn", spawn)


def test_one_usable_core_keeps_the_default_sweep_in_process(monkeypatch):
    monkeypatch.setattr(supervise, "usable_cores", lambda: 1)
    forbid_children(monkeypatch)
    executor = SweepExecutor()
    assert executor.n_jobs == 1
    assert all(run is not None for run in executor.run_many(two_pending_runs()))


def test_two_usable_cores_put_the_default_sweep_on_the_pool(monkeypatch):
    """The default takes one slot per usable core, resolved when the
    executor is built, so its stats and gauge report the count used."""
    from repro.obs.metrics import REGISTRY

    slots = []
    run_supervised = supervise.run_supervised

    def spy(items, worker, *, workers, **kwargs):
        slots.append(workers)
        return run_supervised(items, worker, workers=workers, **kwargs)

    monkeypatch.setattr(supervise, "usable_cores", lambda: 2)
    monkeypatch.setattr(supervise, "run_supervised", spy)
    executor = SweepExecutor()
    assert executor.stats()["n_jobs"] == 2
    assert REGISTRY.gauge("parallel.n_jobs").value == 2
    assert all(run is not None for run in executor.run_many(two_pending_runs()))
    assert slots == [2]
    assert multiprocessing.active_children() == []


def test_a_daemonic_caller_resolves_to_one_slot(monkeypatch):
    """A daemonic process may not start children, whatever its mask."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    assert SweepExecutor().n_jobs == 2
    monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
    assert SweepExecutor().n_jobs == 1


# -- failed runs --------------------------------------------------------------


class BrokenTarget(Workload):
    """A target whose rank raises, or kills its process, when it starts."""

    def __init__(self, failure: str) -> None:
        self.name = f"broken-{failure}"
        self.failure = failure

    @property
    def ranks(self) -> int:
        return 1

    def rank_body(self, session, rank, rng, instance=0):
        if self.failure == "exit":
            os._exit(3)
        raise RuntimeError("simulator bug")
        yield  # pragma: no cover — makes this a generator


#: How a broken run fails, and the error the pool reports for it.
FAILURES = [("raise", "RuntimeError: simulator bug"),
            ("exit", "worker died silently (exitcode 3)")]


@pytest.mark.parametrize("failure,error", FAILURES, ids=["raise", "exit"])
def test_a_failing_run_fails_a_pooled_sweep(tmp_path, failure, error):
    """Without resilience options a run that raises, or whose child
    dies, makes a pooled sweep raise once the batch has drained, naming
    the run; the run that finished is cached."""
    good = RunJob(small_targets()[0], (), small_config())
    bad = RunJob(BrokenTarget(failure), (), small_config(), seed_salt="s1")
    executor = SweepExecutor(n_jobs=2, cache=tmp_path / "c")
    expected = f"run broken-{failure} (seed salt 's1') failed: {error}"
    with pytest.raises(RuntimeError, match=f"^{re.escape(expected)}$"):
        executor.run_many([good, bad])
    assert multiprocessing.active_children() == []
    assert not executor.quarantined
    assert executor.key_for(good) in executor.cache
    assert executor.key_for(bad) not in executor.cache


def test_a_failing_run_fails_an_in_process_sweep(monkeypatch, tmp_path):
    """In-process, the failure reads as on the pool: the sweep finishes,
    caches the good run, and raises naming the failed one."""
    forbid_children(monkeypatch)
    good = RunJob(small_targets()[0], (), small_config())
    bad = RunJob(BrokenTarget("raise"), (), small_config(), seed_salt="s1")
    executor = SweepExecutor(n_jobs=1, cache=tmp_path / "c")
    expected = ("run broken-raise (seed salt 's1') failed: "
                "RuntimeError: simulator bug")
    with pytest.raises(RuntimeError, match=f"^{re.escape(expected)}$"):
        executor.run_many([bad, good])
    assert not executor.quarantined
    assert executor.key_for(good) in executor.cache
    assert executor.key_for(bad) not in executor.cache


@pytest.mark.parametrize("failure,error", FAILURES, ids=["raise", "exit"])
def test_a_resilient_sweep_quarantines_a_failing_run(failure, error):
    good = RunJob(small_targets()[0], (), small_config())
    bad = RunJob(BrokenTarget(failure), (), small_config(), seed_salt="s1")
    executor = SweepExecutor(n_jobs=2, retries=1)
    run, quarantined = executor.run_many([good, bad])
    assert run is not None and quarantined is None
    assert executor.quarantined == {executor.key_for(bad): {
        "target": f"broken-{failure}", "seed_salt": "s1", "attempts": 2,
        "errors": [error, error]}}
    assert multiprocessing.active_children() == []
