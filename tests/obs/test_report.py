"""Tests for the ``repro obs report`` rendering and Chrome trace export."""

from __future__ import annotations

import json

import pytest

from repro.obs.distributed import WALL_CLOCK
from repro.obs.manifest import RunManifest
from repro.obs.report import (
    chrome_trace_doc,
    executor_health,
    render_report,
    save_chrome_trace,
    split_spans,
    worker_breakdown,
)
from repro.obs.trace import Span, Tracer


def _mixed_spans() -> list[Span]:
    tracer = Tracer(trace_id="t")
    job = tracer.start("job.run", 0.0, clock=WALL_CLOCK, worker="w0")
    execute = tracer.start("job.execute", 0.1, parent=job,
                           clock=WALL_CLOCK, worker="w0")
    sim = tracer.start("client.write", 0.0, worker="w0")
    tracer.finish(sim, 2.5)
    tracer.finish(execute, 0.9)
    tracer.finish(job, 1.0)
    main = tracer.start("cache.probe", 1.1, clock=WALL_CLOCK)
    tracer.finish(main, 1.2, hit=False)
    return tracer.spans


class TestSplitAndBreakdown:
    def test_split_by_clock_attr(self):
        sim, wall = split_spans(_mixed_spans())
        assert [s.name for s in sim] == ["client.write"]
        assert {s.name for s in wall} == {"job.run", "job.execute",
                                          "cache.probe"}

    def test_worker_breakdown_buckets_by_label(self):
        rows = worker_breakdown(_mixed_spans())
        assert set(rows) == {"w0", "main"}
        assert rows["w0"]["spans"] == 3
        assert rows["w0"]["sim_busy"] == pytest.approx(2.5)
        assert rows["w0"]["wall_busy"] == pytest.approx(1.8)  # 1.0 + 0.8
        assert rows["main"]["wall_busy"] == pytest.approx(0.1)

    def test_open_spans_count_but_add_no_busy_time(self):
        span = Span(1, None, "open", 0.0, {})
        rows = worker_breakdown([span])
        assert rows["main"]["spans"] == 1
        assert rows["main"]["sim_busy"] == 0.0


class TestExecutorHealth:
    def test_empty_snapshot_gives_no_lines(self):
        assert executor_health({}) == []

    def test_cache_dedup_and_worker_lines(self):
        snapshot = {
            "parallel.cache.hits": {"kind": "counter", "value": 3.0},
            "parallel.cache.misses": {"kind": "counter", "value": 1.0},
            "parallel.runs_requested": {"kind": "counter", "value": 8.0},
            "parallel.runs_deduplicated": {"kind": "counter", "value": 2.0},
            "parallel.retries": {"kind": "counter", "value": 1.0},
            # Four runs of 0.25-0.75 s: slowest 0.75 s over a 0.5 s mean.
            "parallel.run_seconds": {"kind": "histogram", "count": 4,
                                     "sum": 2.0, "min": 0.25, "max": 0.75,
                                     "mean": 0.5},
            "parallel.workers_used": {"kind": "gauge", "value": 2.0},
            "parallel.worker_busy_seconds{worker=w0}":
                {"kind": "gauge", "value": 0.25},
            "parallel.worker_busy_seconds{worker=w1}":
                {"kind": "gauge", "value": 0.75},
        }
        text = "\n".join(executor_health(snapshot))
        assert "run cache: 3 hit(s) / 1 miss(es) (75% hit rate)" in text
        assert "dedup: 2 of 8" in text
        assert "run retries: 1" in text
        assert "straggler skew (slowest run / mean): 1.50x over 4 run(s)" \
            in text
        assert "workers used: 2" in text
        assert "0.75/0.25" in text  # busiest worker first

    def test_window_cache_listed_between_run_and_model_caches(self):
        snapshot = {
            f"parallel.{ns}.{what}": {"kind": "counter", "value": value}
            for ns in ("cache", "windowcache", "modelcache")
            for what, value in (("hits", 1.0), ("misses", 3.0))
        }
        lines = executor_health(snapshot)
        assert [line.split(":")[0] for line in lines] == [
            "run cache", "window cache", "model cache"]
        assert lines[1] == "window cache: 1 hit(s) / 3 miss(es) (25% hit rate)"


class TestChromeTrace:
    def test_clock_domains_become_processes(self):
        doc = chrome_trace_doc(_mixed_spans(), trace_id="abc")
        events = doc["traceEvents"]
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert names == {"simulated time", "wall clock"}
        assert doc["otherData"]["trace_id"] == "abc"
        # Complete events carry microsecond timestamps and durations.
        write = next(e for e in events if e.get("name") == "client.write")
        assert write["ph"] == "X"
        assert write["ts"] == 0.0
        assert write["dur"] == 2.5e6

    def test_workers_become_threads(self):
        doc = chrome_trace_doc(_mixed_spans())
        threads = {e["args"]["name"] for e in doc["traceEvents"]
                   if e["ph"] == "M" and e["name"] == "thread_name"}
        assert threads == {"w0", "main"}

    def test_open_span_becomes_instant(self):
        doc = chrome_trace_doc([Span(1, None, "open", 0.5, {})])
        event = next(e for e in doc["traceEvents"] if e["ph"] != "M")
        assert event["ph"] == "i"
        assert "dur" not in event

    def test_save_writes_loadable_json(self, tmp_path):
        path = save_chrome_trace(_mixed_spans(), tmp_path / "t" / "out.json",
                                 trace_id="abc")
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "X" for e in doc["traceEvents"])


class TestRenderReport:
    def test_nothing_supplied(self):
        assert "nothing to report" in render_report()

    def test_spans_render_both_domains_and_workers(self):
        text = render_report(spans=_mixed_spans())
        assert "-- wall-clock spans (jobs, phases) --" in text
        assert "-- simulated-time spans --" in text
        assert "-- per-worker breakdown --" in text
        assert "w0" in text

    def test_manifest_profile_and_metrics_sections(self):
        manifest = RunManifest(
            name="exp", seed=3, config={},
            created_at="2026-01-01T00:00:00+00:00", git_sha=None,
            version="1", python="3", platform="L",
            trace_id="feedc0de",
            metrics={"parallel.cache.hits": {"kind": "counter", "value": 1.0},
                     "parallel.cache.misses": {"kind": "counter",
                                               "value": 0.0}},
            extra={"profile": {
                "sweep": {"count": 1, "total": 2.0, "self": 0.5},
                "sweep/run": {"count": 4, "total": 1.5, "self": 1.5},
            }},
        )
        text = render_report(manifest=manifest)
        assert "trace id:   feedc0de" in text
        assert "-- wall-clock phases --" in text
        assert "critical path: sweep 2.000s > run 1.500s" in text
        assert "-- executor / cache health --" in text
        assert "run cache: 1 hit(s)" in text
        assert "-- metrics --" in text

    def test_phase_section_equals_profiler_render(self, tmp_path):
        """The report renders a manifest's stored profile exactly as the
        profiler that recorded it does, critical path and ties included."""
        from repro.obs.manifest import (build_manifest, load_manifest,
                                        write_manifest)
        from repro.obs.profile import PhaseProfiler, PhaseRecord

        profiler = PhaseProfiler()
        profiler.records = [
            PhaseRecord("collect/sweep", 0.0, 1.25, {}),
            PhaseRecord("collect/label", 1.25, 2.5, {}),  # ties sweep
            PhaseRecord("collect", 0.0, 3.0, {}),
            PhaseRecord("train/epoch", 3.0, 3.5, {}),
            PhaseRecord("train/epoch", 3.5, 4.125, {}),
            PhaseRecord("train", 3.0, 4.5, {}),
        ]
        path = write_manifest(
            build_manifest("exp", 0, {}, extra={"profile": profiler.summary()}),
            tmp_path / "exp.manifest.json")
        text = render_report(manifest=load_manifest(path))
        section = next(part for part in text.split("\n\n")
                       if part.startswith("-- wall-clock phases --\n"))
        assert section == "-- wall-clock phases --\n" + profiler.render()
        assert "critical path: collect 3.000s > label 1.250s" in section

    def test_explicit_metrics_override_manifest_metrics(self):
        manifest = RunManifest(
            name="exp", seed=0, config={},
            created_at="now", git_sha=None, version="1", python="3",
            platform="L",
            metrics={"old.metric": {"kind": "counter", "value": 1.0}},
        )
        text = render_report(manifest=manifest,
                             metrics={"fresh.metric": {"kind": "counter",
                                                       "value": 2.0}})
        assert "fresh.metric" in text
        assert "old.metric" not in text
