"""Acceptance tests for cross-process trace propagation in the executors.

ISSUE 6's tentpole contract: a ``--jobs 4`` sweep run under an installed
tracer produces ONE merged timeline — wall-clock job spans (queue-wait,
execute, cache probes) from the parent wrapping the simulated-time spans
each worker recorded inside its run — with deterministic structure, and
the merged metrics registry exactly matching a serial execution of the
same job set.
"""

import pytest

from repro.experiments.runner import ExperimentConfig
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.obs import trace as obs_trace
from repro.obs.distributed import WALL_CLOCK
from repro.obs.report import executor_health
from repro.obs.trace import Tracer
from repro.parallel import RunCache, RunJob, SweepExecutor
from repro.workloads.io500 import make_io500_task

from tests.parallel.test_faulty_executor import find_kill_plan


@pytest.fixture(autouse=True)
def _isolate_obs_state():
    previous_tracer = obs_trace.TRACER
    obs_trace.TRACER = None
    obs_metrics.REGISTRY.reset()
    yield
    obs_trace.TRACER = previous_tracer
    obs_metrics.REGISTRY.reset()


def small_config():
    return ExperimentConfig(window_size=0.25, sample_interval=0.125,
                            warmup=0.25, seed=0)


def four_distinct_jobs():
    """Four jobs with distinct run keys.

    ``run_key`` ignores ``seed_salt`` for interference-free jobs (it only
    seeds noise launches), so distinctness must come from the workload
    config itself — here, the rank count.
    """
    cfg = small_config()
    return [
        RunJob(make_io500_task("ior-easy-write", ranks=r, scale=0.1), (), cfg)
        for r in (1, 2, 3, 4)
    ]


def traced_sweep(n_jobs: int, cache=None) -> tuple[Tracer, dict[str, dict]]:
    """Run the 4-job sweep under a fresh tracer; return (tracer, metrics)."""
    obs_metrics.REGISTRY.reset()
    tracer = obs_trace.install(Tracer(trace_id="sweep-accept"))
    try:
        runs = SweepExecutor(n_jobs=n_jobs, cache=cache).run_many(
            four_distinct_jobs())
    finally:
        obs_trace.uninstall()
    assert all(run is not None for run in runs)
    return tracer, obs_metrics.REGISTRY.snapshot()


def span_index(tracer: Tracer) -> dict[int, object]:
    return {span.span_id: span for span in tracer.spans}


class TestMergedTimeline:
    @pytest.fixture(scope="class")
    def sweep(self):
        return traced_sweep(n_jobs=4)

    def test_one_timeline_with_spans_from_all_four_workers(self, sweep):
        tracer, _ = sweep
        assert all(s.trace_id == "sweep-accept" for s in tracer.spans)
        runs = [s for s in tracer.spans if s.name == "job.run"]
        assert len(runs) == 4
        workers = {s.attrs["worker"] for s in runs}
        assert len(workers) == 4  # one label per distinct job
        # Every worker contributed simulated-time spans from inside its run.
        sim_workers = {s.attrs.get("worker") for s in tracer.spans
                       if s.attrs.get("clock") != WALL_CLOCK}
        assert workers <= sim_workers

    def test_queue_wait_and_execute_phases_nest_under_job_run(self, sweep):
        tracer, _ = sweep
        index = span_index(tracer)
        for name in ("job.queue-wait", "job.execute"):
            children = [s for s in tracer.spans if s.name == name]
            assert len(children) == 4, name
            for child in children:
                parent = index[child.parent_id]
                assert parent.name == "job.run"
                assert parent.attrs["worker"] == child.attrs["worker"]
                assert child.attrs["clock"] == WALL_CLOCK
                assert child.end is not None and child.end >= child.start

    def test_worker_sim_spans_hang_off_their_execute_span(self, sweep):
        tracer, _ = sweep
        index = span_index(tracer)
        executes = {s.span_id: s for s in tracer.spans
                    if s.name == "job.execute"}
        sim_roots = [
            s for s in tracer.spans
            if s.attrs.get("clock") != WALL_CLOCK
            and s.parent_id in executes
        ]
        assert len(sim_roots) >= 4
        # Parent/child ids are consistent throughout the merged trace.
        for span in tracer.spans:
            if span.parent_id is not None:
                assert span.parent_id in index
                assert span.parent_id != span.span_id

    def test_cache_probe_spans_present_when_cache_configured(self, tmp_path):
        tracer, _ = traced_sweep(n_jobs=2, cache=RunCache(tmp_path / "c"))
        probes = [s for s in tracer.spans if s.name == "cache.probe"]
        assert len(probes) == 4
        assert all(s.attrs["clock"] == WALL_CLOCK for s in probes)
        assert all(s.attrs["hit"] is False for s in probes)  # cold cache


class TestDeterminism:
    def test_same_sweep_twice_gives_identical_structure(self):
        def structure(tracer):
            return [(s.span_id, s.parent_id, s.name, s.attrs.get("worker"))
                    for s in tracer.spans]

        first, _ = traced_sweep(n_jobs=4)
        second, _ = traced_sweep(n_jobs=4)
        assert structure(first) == structure(second)

    def test_sim_spans_byte_identical_across_runs(self):
        def sim_dicts(tracer):
            return [s.to_dict() for s in tracer.spans
                    if s.attrs.get("clock") != WALL_CLOCK]

        first, _ = traced_sweep(n_jobs=4)
        second, _ = traced_sweep(n_jobs=4)
        assert sim_dicts(first) == sim_dicts(second)


def comparable(snapshot: dict[str, dict]) -> dict[str, dict]:
    """The metrics covered by the serial/parallel equality contract.

    Executor bookkeeping (``parallel.*``) depends on the slot count by
    construction; everything else — the simulation counters, histograms
    and gauges the runs recorded — must merge to exactly what a serial
    run records.
    """
    return {name: doc for name, doc in snapshot.items()
            if not name.startswith("parallel.")}


class TestMetricsMerge:
    def test_parallel_counters_and_histograms_equal_serial(self):
        _, serial = traced_sweep(n_jobs=1)
        _, parallel = traced_sweep(n_jobs=4)
        serial_cmp, parallel_cmp = comparable(serial), comparable(parallel)
        assert serial_cmp  # the contract must cover something
        assert serial_cmp == parallel_cmp

    def test_parallel_health_gauges_recorded(self):
        _, snapshot = traced_sweep(n_jobs=4)
        assert snapshot["parallel.workers_used"]["value"] >= 1
        assert snapshot["parallel.straggler_skew"]["value"] >= 1.0
        busy = [name for name in snapshot
                if name.startswith("parallel.worker_busy_seconds{worker=")]
        assert len(busy) == int(snapshot["parallel.workers_used"]["value"])
        assert snapshot["parallel.queue_wait_seconds"]["count"] == 4

    @pytest.mark.parametrize("retries", [0, 1])
    def test_workers_are_counted_by_slot(self, retries):
        """Four distinct runs on two slots report at most two workers and
        one busy series per used slot, with or without retries."""
        runs = SweepExecutor(n_jobs=2, retries=retries).run_many(
            four_distinct_jobs())
        assert all(run is not None for run in runs)
        snapshot = obs_metrics.REGISTRY.snapshot()
        used = int(snapshot["parallel.workers_used"]["value"])
        busy = {name for name in snapshot
                if name.startswith("parallel.worker_busy_seconds{")}
        assert 1 <= used <= 2
        assert len(busy) == used
        assert busy <= {"parallel.worker_busy_seconds{worker=w0}",
                        "parallel.worker_busy_seconds{worker=w1}"}

    def test_busy_series_and_workers_used_describe_the_same_work(self):
        """A sweep on two slots, then one on a one-slot pool: every slot
        with busy time counts as used, and the busy counters add up to
        the run time the process recorded."""
        jobs = four_distinct_jobs()[:3]
        SweepExecutor(n_jobs=2).run_many(jobs)
        SweepExecutor(n_jobs=1, retries=1).run_many(jobs)
        snapshot = obs_metrics.REGISTRY.snapshot()
        busy = {name: doc["value"] for name, doc in snapshot.items()
                if name.startswith("parallel.worker_busy_seconds{")}
        assert set(busy) == {"parallel.worker_busy_seconds{worker=w0}",
                             "parallel.worker_busy_seconds{worker=w1}"}
        assert snapshot["parallel.workers_used"]["value"] == 2
        assert sum(busy.values()) == pytest.approx(
            snapshot["parallel.run_seconds"]["sum"])
        (line,) = [line for line in executor_health(snapshot)
                   if line.startswith("workers used")]
        assert line.startswith("workers used: 2, busy seconds per worker: ")
        assert line.count("/") == 1

    def test_untraced_parallel_sweep_needs_no_tracer(self):
        obs_metrics.REGISTRY.reset()
        runs = SweepExecutor(n_jobs=4).run_many(four_distinct_jobs())
        assert all(run is not None for run in runs)
        assert obs_trace.get() is None


class TestQuarantinedRuns:
    def test_a_quarantined_run_keeps_its_job_spans(self):
        """A run that kept dying has its ``job.run``, marked quarantined,
        with its queue-wait and one ``job.retry`` per failed attempt,
        and no ``job.execute``; the runs that finished are unchanged."""
        jobs = four_distinct_jobs()
        keys = [SweepExecutor(n_jobs=1).key_for(job) for job in jobs]
        plan = find_kill_plan(keys)
        killed = {key[:12] for key in keys if plan.kills_worker(key)}
        tracer = obs_trace.install(Tracer(trace_id="quarantine"))
        try:
            executor = SweepExecutor(n_jobs=2, retries=1, fault_plan=plan)
            executor.run_many(jobs)
        finally:
            obs_trace.uninstall()
        assert {key[:12] for key in executor.quarantined} == killed
        children: dict[int, list] = {}
        for span in tracer.spans:
            children.setdefault(span.parent_id, []).append(span)
        runs = [s for s in tracer.spans if s.name == "job.run"]
        assert len(runs) == len(jobs)
        for run in runs:
            names = [c.name for c in children[run.span_id]]
            if run.attrs["worker"] in killed:
                assert run.attrs["quarantined"] is True
                assert names == ["job.queue-wait", "job.retry", "job.retry"]
                assert [(c.attrs["attempt"], c.attrs["outcome"])
                        for c in children[run.span_id][1:]] == [
                    (0, "err"), (1, "err")]
                assert run.end is not None
            else:
                assert "quarantined" not in run.attrs
                assert names == ["job.queue-wait", "job.execute"]


# -- placement invariance -----------------------------------------------------


def placed_sweep(n_jobs: int):
    """Three distinct runs, traced and profiled from a reset registry.

    Returns the tracer, the metrics snapshot and the profile's phase
    paths."""
    obs_metrics.REGISTRY.reset()
    tracer = obs_trace.install(Tracer(trace_id="placement"))
    profiler = obs_profile.install(tracer=tracer)
    try:
        runs = SweepExecutor(n_jobs=n_jobs).run_many(
            four_distinct_jobs()[:3])
    finally:
        obs_profile.uninstall()
        obs_trace.uninstall()
    assert all(run is not None for run in runs)
    return tracer, obs_metrics.REGISTRY.snapshot(), set(profiler.summary())


class TestPlacementInvariance:
    """One slot runs the sweep in-process, two on child processes; what
    a user can see must not tell them apart, save the slot count and the
    per-slot busy series."""

    @pytest.fixture(scope="class")
    def placements(self):
        return placed_sweep(n_jobs=1), placed_sweep(n_jobs=2)

    def test_same_metric_series(self, placements):
        (_, one, _), (_, two, _) = placements
        assert set(two) - {"parallel.worker_busy_seconds{worker=w1}"} \
            == set(one)
        assert one["parallel.n_jobs"]["value"] == 1
        assert two["parallel.n_jobs"]["value"] == 2

    def test_same_counters_histogram_counts_and_gauges(self, placements):
        (_, one, _), (_, two, _) = placements
        for name, doc in one.items():
            if doc["kind"] == "counter" \
                    and not name.startswith("parallel.worker_busy_seconds"):
                assert two[name]["value"] == doc["value"], name
            elif doc["kind"] == "histogram":
                assert two[name]["count"] == doc["count"], name
            elif doc["kind"] == "gauge" and not name.startswith("parallel."):
                assert two[name]["value"] == doc["value"], name

    def test_same_span_tree(self, placements):
        (one, _, _), (two, _, _) = placements

        def tree(tracer):
            return [(s.span_id, s.parent_id, s.name, s.attrs)
                    for s in tracer.spans]

        assert tree(one) == tree(two)
        executes = {s.span_id for s in one.spans if s.name == "job.execute"}
        assert len(executes) == 3
        sim_roots = [s for s in one.spans
                     if s.attrs.get("clock") != WALL_CLOCK
                     and s.parent_id not in {x.span_id for x in one.spans}]
        assert sim_roots == []  # every sim span hangs off the job tree

    def test_sim_spans_byte_identical(self, placements):
        (one, _, _), (two, _, _) = placements

        def sim(tracer):
            return [s.to_dict() for s in tracer.spans
                    if s.attrs.get("clock") != WALL_CLOCK]

        assert sim(one)
        assert sim(one) == sim(two)

    def test_same_profile_phases(self, placements):
        (_, _, one), (_, _, two) = placements
        assert one == two
        assert "sweep/execute" in one
        assert not any(path.endswith("/run") for path in one)
