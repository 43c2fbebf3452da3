"""Tests of the benchmark harness itself, on tiny inputs.

    PYTHONPATH=src python -m pytest benchmarks/pipeline -q
"""

from __future__ import annotations

import asyncio
import cProfile
import json
import pathlib
import pkgutil
import pstats
import re
import time
from types import SimpleNamespace

import numpy as np
import pytest

import compare
import layers
import openloop
import run

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((HERE / "layer_map.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- BENCHMARK.json ----------------------------------------------------------


def test_benchmark_json_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/pipeline"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [w["name"] for w in SPEC["workloads"]]
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    for m in metrics:
        assert m["better"] in ("lower", "higher")
        assert UNIT.fullmatch(m["unit"]), m["unit"]
    names += [m["name"] for m in metrics]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_layer_metric_maps_to_an_end_to_end_metric_and_workload():
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert set(LAYER_MAP) == {m["name"] for m in SPEC["per_layer"]}
    for name, target in LAYER_MAP.items():
        assert target["moves"] and set(target["moves"]) <= e2e, name
        assert target["workloads"] and set(target["workloads"]) <= workloads


def test_run_reports_every_metric_by_name():
    names = [m["name"] for m in SPEC["per_layer"]]
    grid_base = {"job_s": 10.0, "cpu_s": 10.0,
                 "stages": {"collect": 9.0, "dataset": 0.1, "train": 0.8,
                            "predict": 0.1},
                 "counts": {"collect.windows": 40, "train.epochs": 30,
                            "monitor.server_samples": 700},
                 "predict_us_per_window": 5.0}
    fold = {"total_s": 30.0, "coverage": 0.9,
            "self_s": {"sim.engine": 12.0, "nn": 3.0, "other": 3.0,
                       "serve": 0.0},
            "counts": {name: 7 for name in layers.COUNTS},
            "cumulative_s": {"monitor.aggregate": 1.5, "label.levels": 0.3}}
    grid = run.per_layer(names, grid_base,
                         {"cpu_s": 30.0, "fold": fold,
                          "label_kept_ratio": 0.5})
    assert list(grid) == names
    assert grid["stage.collect_share"] == 90.0
    assert grid["sim.engine.share"] == 40.0
    assert grid["monitor.aggregate_share"] == 5.0
    assert grid["sim.engine.events"] == 7
    assert grid["trace.overhead"] == 3.0
    assert grid["trace.coverage"] == 90.0
    assert grid["serve.max_wps"] == 0.0
    serve = run.per_layer(
        names,
        {"job_s": 10.0, "cpu_s": 4.0,
         "serve": {"p50_ms": 4.0, "p99_ms": 8.0, "gen_late_p99_ms": 2.0,
                   "max_wps": 9000.0}},
        {"job_s": 10.0, "cpu_s": 4.4, "predict_us_per_window": 20.0,
         "forward": {"seconds": 1.0, "calls": 100, "rows": 1500}})
    assert serve["serve.tail_ratio"] == 2.0
    assert serve["serve.gen_late_share"] == 25.0
    assert serve["serve.forward_share"] == 10.0
    assert serve["serve.loop_other_share"] == pytest.approx(34.0)
    assert serve["serve.mean_batch"] == 15.0
    assert serve["predict.us_per_window"] == 20.0
    assert serve["trace.overhead"] == pytest.approx(1.1)


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    noisy = [70.0, 100.0, 130.0, 85.0, 115.0, 95.0, 105.0, 75.0, 125.0, 100.0]
    assert compare.verdict(steady, steady, 0.1, True) == "unchanged"
    assert compare.verdict(steady, [v * 1.2 for v in steady], 0.1,
                           True) == "worse"
    assert compare.verdict(steady, [v * 0.9 for v in steady], 0.1,
                           True) == "better"
    # A higher-is-better metric that dropped is worse.
    assert compare.verdict(steady, [v * 0.8 for v in steady], 0.1,
                           False) == "worse"
    # Spread wider than the bound: not "unchanged" ...
    assert compare.verdict(noisy, noisy, 0.1, True) == "unresolved"
    # ... unless every run of B beats every run of A.
    assert compare.verdict(noisy, [v * 0.5 for v in noisy], 0.1,
                           True) == "better"


# -- the layer fold ----------------------------------------------------------


def test_every_repro_module_maps_to_a_layer():
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        layers.layer_of_module(info.name)  # raises for an unmapped module
    with pytest.raises(ValueError):
        layers.layer_of_module("reproduction.extra")


def test_fold_charges_foreign_time_to_repro_callers(tmp_path):
    pkg = tmp_path / "repro"
    engine = (str(pkg / "sim" / "engine.py"), 10, "_step")
    nn = (str(pkg / "core" / "nn" / "layers.py"), 5, "forward")
    wrapper = (str(tmp_path / "numpy_like.py"), 1, "mean")
    builtin = ("~", 0, "<built-in method heappop>")
    harness = (str(tmp_path / "bench.py"), 1, "main")
    stats = {
        harness: (1, 1, 0.5, 10.0, {}),
        engine: (100, 100, 4.0, 7.0, {harness: (100, 100, 4.0, 7.0)}),
        nn: (10, 10, 1.0, 2.5, {harness: (10, 10, 1.0, 2.5)}),
        # numpy-like wrapper called from both layers, 3:1 by cumulative.
        wrapper: (4, 4, 0.4, 2.0, {engine: (3, 3, 0.3, 1.5),
                                   nn: (1, 1, 0.1, 0.5)}),
        # a builtin called by the engine directly and by the wrapper.
        builtin: (8, 8, 2.6, 2.6, {engine: (6, 6, 1.0, 1.0),
                                   wrapper: (2, 2, 1.6, 1.6)}),
    }
    result = layers.fold(stats, pkg)
    assert result.total_s == pytest.approx(8.5)
    assert sum(result.self_s.values()) == pytest.approx(result.total_s)
    assert result.self_s["sim.engine"] == pytest.approx(
        4.0 + 0.3 + 1.0 + 1.6 * 0.75)
    assert result.self_s["nn"] == pytest.approx(1.0 + 0.1 + 1.6 * 0.25)
    assert result.self_s["other"] == pytest.approx(0.5)
    assert result.counts["sim.engine.events"] == 100
    assert result.coverage == pytest.approx(8.0 / 8.5)


def test_fold_of_a_real_simulation_sums_to_the_profile_total():
    import repro
    from repro.experiments.runner import ExperimentConfig, execute_run
    from repro.workloads.io500 import make_io500_task

    def simulate():
        execute_run(make_io500_task("ior-easy-write", ranks=2, scale=0.05),
                    [], ExperimentConfig(window_size=0.25,
                                         sample_interval=0.125))

    simulate()  # lazy imports happen once, outside the profile
    profiler = cProfile.Profile()
    profiler.enable()
    simulate()
    profiler.disable()
    result = layers.fold(pstats.Stats(profiler).stats,
                         pathlib.Path(repro.__file__).parent)
    assert sum(result.self_s.values()) >= 0.99 * result.total_s
    assert result.coverage >= 0.9
    assert result.counts["sim.engine.events"] > 0


# -- the open loop -----------------------------------------------------------


def test_quantiles_are_exact_over_raw_samples_from_due_time():
    rng = np.random.default_rng(3)
    n = 501
    due = np.arange(n) / 1000.0
    sent = due + rng.uniform(0, 0.002, n)
    done = sent + rng.exponential(0.004, n)
    phase = openloop.PhaseResult(
        rate=1000.0, due=due, sent=sent, done=done,
        fresh=np.ones(n, dtype=bool), backlog=0, cpu_s=0.1)
    for q in (50, 90, 99, 99.9):
        assert phase.latency_quantile(q) == np.percentile(
            (done - due) * 1e3, q)
        assert phase.lateness_quantile(q) == np.percentile(
            (sent - due) * 1e3, q)


def _answer_after(delay: float, stall_request: int | None = None):
    """A fake service: answers every window after ``delay`` seconds and,
    once, blocks the whole event loop for 50 ms."""
    calls = []

    async def submit(tenant: int, window: int):
        calls.append((tenant, window))
        if len(calls) - 1 == stall_request:
            time.sleep(0.05)
        await asyncio.sleep(delay)
        return SimpleNamespace(status="fresh")

    return submit, calls


def test_open_loop_schedule_and_due_time_accounting():
    n_tenants, rate, seconds = 5, 400.0, 0.25
    cursor = [0] * n_tenants
    submit, calls = _answer_after(0.002, stall_request=20)
    phase = asyncio.run(openloop.run_phase(submit, n_tenants, rate, seconds,
                                           cursor))
    n = int(rate * seconds)
    assert phase.attempted == n and phase.failed == 0
    assert np.allclose(np.diff(phase.due), 1 / rate)
    assert np.all(phase.sent >= phase.due)
    assert np.all(phase.done >= phase.sent)
    # Tenant j % n_tenants sends its windows in order, one per period.
    assert calls[:n_tenants] == [(t, 0) for t in range(n_tenants)]
    assert cursor == [n // n_tenants] * n_tenants
    for tenant in range(n_tenants):
        windows = [w for t, w in calls if t == tenant]
        assert windows == list(range(len(windows)))
    # The stall delays the requests due during it: they are sent late,
    # and their latency counts from the due time, so it includes the
    # lateness as well as the service time.
    late = phase.lateness_ms
    assert late[21] > 40.0
    assert np.all(phase.latency_ms >= late + 2.0 - 0.5)
    assert phase.latency_quantile(99) > 40.0


def test_refused_and_degraded_requests_count_as_failed():
    from repro.serve.service import Backpressure

    async def submit(tenant: int, window: int):
        if window % 2:
            raise Backpressure("full")
        return SimpleNamespace(status="stale" if tenant else "fresh")

    phase = asyncio.run(openloop.run_phase(submit, 2, 200.0, 0.1, [0, 0]))
    assert phase.attempted == 20
    assert phase.failed == 15  # tenant 1 is never fresh; odd windows refused
    assert openloop.step_passes(phase) is False
