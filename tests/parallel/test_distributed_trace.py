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
from repro.obs import trace as obs_trace
from repro.obs.distributed import WALL_CLOCK
from repro.obs.trace import Tracer
from repro.parallel import RunCache, RunJob, SweepExecutor
from repro.workloads.io500 import make_io500_task


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

    Executor bookkeeping (``parallel.*``) and per-worker labeled gauges
    are parallel-only by construction; everything else — the simulation
    counters and histograms the workers recorded — must merge to exactly
    what a serial run records.
    """
    return {
        name: doc for name, doc in snapshot.items()
        if not name.startswith("parallel.")
        and "{worker=" not in name
        and doc.get("kind") in ("counter", "histogram")
    }


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

    def test_untraced_parallel_sweep_needs_no_tracer(self):
        obs_metrics.REGISTRY.reset()
        runs = SweepExecutor(n_jobs=4).run_many(four_distinct_jobs())
        assert all(run is not None for run in runs)
        assert obs_trace.get() is None
