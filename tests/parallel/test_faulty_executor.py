"""Tests for the executor's resilience layer: watchdog, retry, quarantine.

The acceptance criterion for the fault-injection PR: a sweep with a
worker kill rate >= 20% completes, quarantines the poisoned runs, and
the surviving runs are bit-identical to a fault-free serial sweep.
"""

import pytest

from repro.experiments.runner import ExperimentConfig, InterferenceSpec
from repro.faults import FaultPlan
from repro.obs.metrics import REGISTRY
from repro.parallel import RunCache, RunJob, SweepExecutor

from tests.parallel.test_executor import (  # noqa: F401 (shared fixtures)
    small_config,
    small_targets,
)


def make_jobs(n=5):
    """n distinct small jobs (different noise scales → different keys)."""
    return [
        RunJob(small_targets()[0],
               (InterferenceSpec("ior-easy-write", instances=1, ranks=2,
                                 scale=0.1 + 0.02 * i),),
               small_config(), seed_salt=f"j{i}")
        for i in range(n)
    ]


def find_kill_plan(executor_keys, min_killed=1, max_killed=None):
    """A seed whose kill decisions poison some but not all of the keys."""
    max_killed = max_killed or len(executor_keys) - 1
    for seed in range(100):
        plan = FaultPlan(seed=seed, worker_kill_rate=0.4)
        killed = sum(plan.kills_worker(k) for k in executor_keys)
        if min_killed <= killed <= max_killed:
            return plan
    raise AssertionError("no suitable seed found")  # pragma: no cover


class TestValidation:
    def test_bad_resilience_params_rejected(self):
        with pytest.raises(ValueError, match="run_timeout"):
            SweepExecutor(run_timeout=0)
        # inf overflowed the watchdog's wait; nan made it busy-poll.
        for timeout in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="run_timeout must be "
                                                 "positive and finite"):
                SweepExecutor(run_timeout=timeout)
        with pytest.raises(ValueError, match="retries"):
            SweepExecutor(retries=-1)
        with pytest.raises(ValueError, match="n_jobs"):
            SweepExecutor(n_jobs=0)


class TestWorkerCrashes:
    def test_kill_rate_quarantines_and_sweep_completes(self):
        """Kill rate >= 20%: the sweep finishes, poisoned runs come back
        as None, survivors are bit-identical to a fault-free serial run."""
        jobs = make_jobs(5)
        clean = SweepExecutor(n_jobs=1)
        clean_runs = clean.run_many(jobs)

        probe = SweepExecutor(n_jobs=1)
        keys = [probe.key_for(j) for j in jobs]
        plan = find_kill_plan(keys, min_killed=1, max_killed=3)
        killed = {k for k in keys if plan.kills_worker(k)}
        assert len(killed) / len(keys) >= 0.2

        faulty = SweepExecutor(n_jobs=2, fault_plan=plan, retries=1)
        runs = faulty.run_many(jobs)
        assert len(runs) == len(jobs)
        for key, clean_run, run in zip(keys, clean_runs, runs):
            if key in killed:
                assert run is None
                assert key in faulty.quarantined
            else:
                assert run is not None
                assert run.records == clean_run.records
                assert run.duration == clean_run.duration
                assert run.server_samples == clean_run.server_samples
        # Kills are persistent: every quarantined run burned all attempts.
        for info in faulty.quarantined.values():
            assert info["attempts"] == 2
            assert len(info["errors"]) == 2
            assert "injected" in info["errors"][0]

    def test_quarantine_is_deterministic_across_executors(self):
        """Kills fire before the simulation, so one slot (in-process)
        and two slots (children) quarantine the same runs, with the
        same records."""
        jobs = make_jobs(5)
        probe = SweepExecutor()
        plan = find_kill_plan([probe.key_for(j) for j in jobs])
        executors = [SweepExecutor(n_jobs=n_jobs, fault_plan=plan, retries=0)
                     for n_jobs in (None, 1, 2)]
        for executor in executors:
            executor.run_many(jobs)
        a, one_slot, two_slots = (e.quarantined for e in executors)
        assert a == one_slot == two_slots
        assert a  # the plan poisoned something

    def test_flaky_workers_succeed_with_retries(self):
        """Transient (per-attempt) failures: with enough retries every
        run completes and nothing is quarantined."""
        jobs = make_jobs(3)
        plan = FaultPlan(seed=2, worker_flaky_rate=0.5)
        executor = SweepExecutor(n_jobs=2, fault_plan=plan, retries=5)
        runs = executor.run_many(jobs)
        assert all(run is not None for run in runs)
        assert not executor.quarantined

    def test_fault_report_shape(self):
        jobs = make_jobs(3)
        probe = SweepExecutor()
        plan = find_kill_plan([probe.key_for(j) for j in jobs])
        executor = SweepExecutor(fault_plan=plan, retries=1)
        executor.run_many(jobs)
        report = executor.fault_report()
        assert report["plan"]["worker_kill_rate"] == 0.4
        assert report["retries_used"] >= 1
        for entry in report["quarantined"]:
            assert {"key", "target", "attempts", "errors"} <= set(entry)
        stats = executor.stats()
        assert stats["retries"] == 1
        assert stats["faults"]["quarantined"] == report["quarantined"]

    def test_quarantine_record_names_the_job_and_is_counted(self):
        """The pool knows nothing of run jobs: the executor names each
        quarantined run's target and seed salt, and publishes the pool's
        retry and quarantine counts once per sweep."""
        jobs = make_jobs(3)
        probe = SweepExecutor()
        plan = find_kill_plan([probe.key_for(j) for j in jobs])
        before = {name: REGISTRY.counter(name).value
                  for name in ("parallel.retries", "parallel.quarantined")}
        executor = SweepExecutor(fault_plan=plan, retries=1)
        executor.run_many(jobs)
        by_key = {executor.key_for(job): job for job in jobs}
        assert executor.quarantined
        for key, record in executor.quarantined.items():
            job = by_key[key]
            assert record == {"target": job.target.name,
                              "seed_salt": job.seed_salt, "attempts": 2,
                              "errors": record["errors"]}
        assert (REGISTRY.counter("parallel.retries").value
                - before["parallel.retries"]) == executor.retries_used
        assert (REGISTRY.counter("parallel.quarantined").value
                - before["parallel.quarantined"]) == len(executor.quarantined)


class TestTimeouts:
    def test_stalled_run_times_out_and_is_quarantined(self):
        """A stalled worker exceeds the watchdog deadline, is terminated,
        and (with no retries) quarantined; healthy runs still finish."""
        jobs = make_jobs(2)
        plan = FaultPlan(seed=0, worker_stall_rate=1.0,
                         worker_stall_seconds=30.0)
        executor = SweepExecutor(n_jobs=2, fault_plan=plan,
                                 run_timeout=0.5, retries=0)
        runs = executor.run_many(jobs)
        assert runs == [None, None]
        assert executor.timeouts == 2
        assert len(executor.quarantined) == 2
        for info in executor.quarantined.values():
            assert "timeout" in info["errors"][0]

    def test_generous_timeout_passes_healthy_runs(self):
        jobs = make_jobs(2)
        executor = SweepExecutor(n_jobs=2, run_timeout=120.0, retries=1)
        runs = executor.run_many(jobs)
        assert all(run is not None for run in runs)
        assert executor.timeouts == 0
        assert not executor.quarantined


class TestCheckpointResume:
    def test_interrupted_sweep_resumes_from_cache(self, tmp_path):
        """Completed runs persist even when others are quarantined: a
        re-run without faults only executes the previously-failed runs."""
        jobs = make_jobs(4)
        probe = SweepExecutor()
        keys = [probe.key_for(j) for j in jobs]
        plan = find_kill_plan(keys, min_killed=1, max_killed=3)
        survivors = [k for k in keys if not plan.kills_worker(k)]

        first = SweepExecutor(cache=RunCache(tmp_path / "c"),
                              fault_plan=plan, retries=0)
        first.run_many(jobs)
        assert len(first.quarantined) == len(keys) - len(survivors)

        resumed = SweepExecutor(cache=RunCache(tmp_path / "c"))
        runs = resumed.run_many(jobs)
        assert all(run is not None for run in runs)
        assert resumed.runs_executed == len(keys) - len(survivors)
        assert resumed.cache.hits == len(survivors)


class TestSimulationAborts:
    @staticmethod
    def long_job():
        """A bare target big enough that aborting at t=0.4 cuts it off."""
        from repro.workloads.io500 import make_io500_task

        return RunJob(make_io500_task("ior-easy-write", ranks=2, scale=4.0),
                      (), small_config())

    def test_abort_changes_cache_key_and_truncates_run(self):
        job = self.long_job()
        clean = SweepExecutor()
        plan = FaultPlan(seed=3, run_abort_rate=1.0, run_abort_after=0.4)
        faulty = SweepExecutor(fault_plan=plan)
        assert clean.key_for(job) != faulty.key_for(job)

        clean_run = clean.run_many([job])[0]
        aborted_run = faulty.run_many([job])[0]
        assert aborted_run.metadata.get("aborted") is True
        assert aborted_run.metadata["abort_at"] == 0.4
        assert aborted_run.duration < clean_run.duration
        assert len(aborted_run.records) < len(clean_run.records)

    def test_abort_replays_bit_identically(self):
        job = self.long_job()
        plan = FaultPlan(seed=3, run_abort_rate=1.0, run_abort_after=0.4)
        a = SweepExecutor(fault_plan=plan).run_many([job])[0]
        b = SweepExecutor(fault_plan=plan).run_many([job])[0]
        assert a.records == b.records
        assert a.server_samples == b.server_samples

    def test_worker_faults_stay_out_of_cache_key(self):
        job = make_jobs(1)[0]
        plain = SweepExecutor()
        worker_faults = SweepExecutor(
            fault_plan=FaultPlan(worker_kill_rate=0.9, worker_stall_rate=0.5))
        assert plain.key_for(job) == worker_faults.key_for(job)


def test_pairs_with_quarantined_member_come_back_none():
    from repro.experiments.datagen import Scenario, collect_windows
    from tests.parallel.test_executor import small_scenarios

    targets = small_targets()
    scenarios = small_scenarios()
    # Poison everything: every pair must be skipped, and collect_windows
    # must then report it has nothing rather than crash.
    plan = FaultPlan(worker_kill_rate=1.0)
    executor = SweepExecutor(fault_plan=plan, retries=0)
    with pytest.raises(RuntimeError, match="no labelled windows"):
        collect_windows(targets, scenarios, small_config(),
                        executor=executor)
    assert executor.quarantined
    pairs = executor.run_pairs([
        RunJob(targets[0], tuple(scenarios[1].interference), small_config(),
               seed_salt="x")
    ])
    assert pairs == [None]
