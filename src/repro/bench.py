"""Performance baselines: the ``repro bench`` subcommand.

Five committed baselines (regenerated with ``python -m repro bench``,
selectable via ``--only SUITE`` (repeatable) or the positional name,
and compared non-gatingly in CI against the checked-in
``BENCH_engine.json`` / ``BENCH_sweep.json`` / ``BENCH_train.json`` /
``BENCH_serve.json`` / ``BENCH_dataset.json``):

* **engine** — a microbenchmark of the discrete-event kernel: raw
  timeout churn (generator processes yielding timeouts) and callback-hop
  churn (``after``/``defer`` chains, the request path's link) through
  ``Environment.run()``, each run twice to check the event order is
  deterministic.

* **sweep** — the end-to-end dataset-generation grid, run serially, then
  cold (fresh run cache) and warm through the parallel executor. All
  three passes must produce bit-identical window banks.

* **train** — the training stack: a seeds x restarts grid trained by
  the serial restart loop, then cold (fresh model cache) and warm
  through :class:`repro.parallel.TrainExecutor` — the warm pass must
  execute zero trainings — plus the per-window inference latency of the
  deployed (normalizer-fused) fast path against the unfused predictor.
  Serial, cold and cached models must be bit-identical; fused
  predictions class-identical.

* **serve** — the multi-tenant prediction service (:mod:`repro.serve`):
  windows/sec and exact p50/p99 request latency against growing concurrent
  stream counts, clean and under a fixed chaos plan (with shed/degraded
  tenant rates). Demonstrates micro-batching amortising the fused
  forward pass across tenants.

* **dataset** — ``collect_windows`` through a
  :class:`repro.parallel.WindowCache` against the in-memory path: cold
  build vs warm rebuild (zero simulations, one entry read, bit-identical
  ``content_digest``), and one-pair appends into caches of different
  sizes (walls must match).

Every result embeds an ``environment`` block (numpy/python versions,
platform, cpu_count); ``benchmarks/check_regression.py`` warns — without
failing — when a baseline being compared was recorded on a different
environment, since wall-clock numbers only transfer between like
machines.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
import time
from typing import Any

import numpy as np

__all__ = ["bench_dataset", "bench_engine", "bench_environment",
           "bench_serve", "bench_sweep", "bench_train", "main"]


def _peak_rss_bytes() -> int:
    """This process's lifetime peak resident set size, in bytes.

    ``ru_maxrss`` is kilobytes on Linux.
    """
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def bench_environment() -> dict[str, Any]:
    """The machine/toolchain a benchmark ran on (embedded in results).

    Wall-clock baselines only transfer between like environments;
    recording this lets ``check_regression.py`` warn when a comparison
    crosses machines instead of silently flagging a phantom regression.
    """
    import platform

    from repro.obs.manifest import git_revision

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        # Commit provenance: lets check_regression.py distinguish "code
        # changed" from "machine changed" when wall numbers drift.
        "git_sha": git_revision(),
        # Peak RSS of the recording process: memory provenance for the
        # wall numbers.  check_regression.py compares it non-fatally and
        # excludes it from the environment-mismatch check.
        "peak_rss_bytes": _peak_rss_bytes(),
    }


# -- engine microbenchmarks ---------------------------------------------------


def _churn(n_processes: int, hops: int):
    """Timeout-relay workload; returns (events_fired, wall, order)."""
    from repro.sim.engine import Environment

    env = Environment()
    order: list[tuple[str, float]] = []
    rng = np.random.default_rng(11)
    delays = rng.integers(1, 7, size=(n_processes, hops)) * 0.125

    def proc(pid: int):
        for h in range(hops):
            yield env.timeout(float(delays[pid, h]))
        order.append((f"p{pid}", env.now))

    for pid in range(n_processes):
        env.process(proc(pid))
    t0 = time.perf_counter()
    env.run()
    wall = time.perf_counter() - t0
    return n_processes * hops, wall, order


def _hop_churn(n_chains: int, hops: int):
    """Callback-hop relay: each chain re-arms itself with ``after``, or
    ``defer`` on a zero delay; returns (hops_fired, wall, order)."""
    from repro.sim.engine import Environment

    env = Environment()
    order: list[tuple[str, float]] = []
    rng = np.random.default_rng(11)
    delays = (rng.integers(0, 7, size=(n_chains, hops)) * 0.125).tolist()

    def link(cid: int, h: int) -> None:
        if h == hops:
            order.append((f"c{cid}", env.now))
            return
        delay = delays[cid][h]
        if delay:
            env.after(delay, lambda _ev: link(cid, h + 1))
        else:
            env.defer(lambda _ev: link(cid, h + 1))

    for cid in range(n_chains):
        link(cid, 0)
    t0 = time.perf_counter()
    env.run()
    wall = time.perf_counter() - t0
    return n_chains * hops, wall, order


def bench_engine(processes: int = 2000, hops: int = 100) -> dict[str, Any]:
    """Engine kernel microbenchmark (see module doc)."""
    n1, wall1, order1 = _churn(processes, hops)
    n2, wall2, order2 = _churn(processes, hops)
    assert order1 == order2, "engine event order is not deterministic"
    wall = min(wall1, wall2)
    h1, hop_wall1, hop_order1 = _hop_churn(processes, hops)
    h2, hop_wall2, hop_order2 = _hop_churn(processes, hops)
    assert hop_order1 == hop_order2, "engine hop order is not deterministic"
    hop_wall = min(hop_wall1, hop_wall2)

    return {
        "environment": bench_environment(),
        "processes": processes,
        "hops": hops,
        "timeout_events": n1,
        "wall_seconds": wall,
        "timeouts_per_second": n1 / wall,
        "hop_events": h1,
        "hop_wall_seconds": hop_wall,
        "hops_per_second": h1 / hop_wall,
        "deterministic": True,
    }


# -- end-to-end sweep benchmark -----------------------------------------------


def bench_grid():
    """The benchmark's (target, scenario) grid and experiment config."""
    from repro.experiments.datagen import Scenario
    from repro.experiments.runner import (ExperimentConfig, InterferenceSpec,
                                          experiment_cluster)
    from repro.workloads.io500 import make_io500_task

    config = ExperimentConfig(cluster=experiment_cluster(), window_size=0.25,
                              sample_interval=0.125, warmup=1.0, seed=0)
    targets = [
        make_io500_task("ior-easy-write", ranks=4, scale=2.5),
        make_io500_task("ior-easy-read", ranks=4, scale=2.5),
        make_io500_task("mdt-hard-write", ranks=4, scale=2.5),
    ]
    scenarios = [Scenario("quiet")]
    for level in (1, 2):
        scenarios.append(Scenario(
            f"io500-x{level}",
            (InterferenceSpec("ior-easy-write", instances=level, ranks=2,
                              scale=0.2),
             InterferenceSpec("ior-easy-read", instances=1, ranks=2,
                              scale=0.2)),
        ))
    return targets, scenarios, config


def bench_sweep(jobs: int | None = None) -> dict[str, Any]:
    """Serial vs cold/warm parallel grid."""
    from repro.experiments.datagen import collect_windows
    from repro.parallel import RunCache, SweepExecutor

    jobs = jobs or min(4, os.cpu_count() or 1)
    targets, scenarios, config = bench_grid()
    n_pairs = len(targets) * len(scenarios)

    t0 = time.perf_counter()
    serial_bank = collect_windows(targets, scenarios, config)
    serial_s = time.perf_counter() - t0

    with tempfile.TemporaryDirectory(prefix="bench-sweep-") as tmp:
        cold = SweepExecutor(n_jobs=jobs, cache=RunCache(tmp))
        t0 = time.perf_counter()
        cold_bank = collect_windows(targets, scenarios, config,
                                    executor=cold)
        cold_s = time.perf_counter() - t0

        warm = SweepExecutor(n_jobs=jobs, cache=RunCache(tmp))
        t0 = time.perf_counter()
        warm_bank = collect_windows(targets, scenarios, config,
                                    executor=warm)
        warm_s = time.perf_counter() - t0

        identical = (
            np.array_equal(serial_bank.X, cold_bank.X)
            and np.array_equal(serial_bank.levels, cold_bank.levels)
            and np.array_equal(serial_bank.X, warm_bank.X)
            and np.array_equal(serial_bank.levels, warm_bank.levels)
        )
        assert identical, "serial/parallel/warm banks differ"
        assert warm.runs_executed == 0, "warm cache still executed runs"

        return {
            "environment": bench_environment(),
            "grid": {"targets": len(targets), "scenarios": len(scenarios),
                     "pairs": n_pairs, "windows": len(serial_bank)},
            "serial_batch_seconds": serial_s,
            "cold_batch_seconds": cold_s,
            "cold_improvement_vs_serial": serial_s / cold_s,
            "warm_seconds": warm_s,
            "speedup_warm": serial_s / warm_s if warm_s else None,
            "n_jobs": cold.n_jobs,
            "cpu_count": os.cpu_count(),
            "bit_identical": identical,
            "cold": cold.stats(),
            "warm": warm.stats(),
        }


# -- training-stack benchmark -------------------------------------------------


def bench_train_dataset(n: int = 240, n_servers: int = 7,
                        n_features: int = 10):
    """A deterministic synthetic window set with learnable structure.

    Synthetic rather than simulated so the benchmark isolates the
    training stack: same class balance and separability every run,
    no simulator wall time mixed into the numbers.
    """
    from repro.common.rng import derive_rng
    from repro.core.dataset import Dataset

    rng = derive_rng(0, "bench-train-dataset")
    X = rng.normal(size=(n, n_servers, n_features))
    y = (X[:, :, :3].mean(axis=(1, 2))
         + 0.3 * rng.normal(size=n) > 0).astype(int)
    X[y == 1, :, :3] += 0.5
    names = tuple(f"f{i}" for i in range(n_features))
    return Dataset(X, y, feature_names=names)


def bench_train() -> dict[str, Any]:
    """Serial restart loop vs cold/warm TrainExecutor + fused inference."""
    from repro.core.labeling import BINARY_THRESHOLDS
    from repro.core.nn.train import TrainConfig
    from repro.core.predictor import InterferencePredictor
    from repro.parallel import ModelCache, TrainExecutor, TrainJob

    seeds = (0, 1, 2, 3)
    restarts = 3
    dataset = bench_train_dataset()
    configs = {s: TrainConfig(epochs=40, patience=12, seed=s)
               for s in seeds}

    t0 = time.perf_counter()
    serial = [
        InterferencePredictor.train(dataset, BINARY_THRESHOLDS,
                                    config=configs[s], seed=s,
                                    restarts=restarts)
        for s in seeds
    ]
    serial_s = time.perf_counter() - t0

    job_list = [TrainJob(dataset, thresholds=BINARY_THRESHOLDS,
                         config=configs[s], seed=s, restarts=restarts)
                for s in seeds]
    with tempfile.TemporaryDirectory(prefix="bench-train-") as tmp:
        cold_ex = TrainExecutor(cache=ModelCache(tmp))
        t0 = time.perf_counter()
        cold = cold_ex.train_predictors(job_list)
        cold_s = time.perf_counter() - t0

        warm_ex = TrainExecutor(cache=ModelCache(tmp))
        t0 = time.perf_counter()
        warm = warm_ex.train_predictors(job_list)
        warm_s = time.perf_counter() - t0
        assert warm_ex.trainings_executed == 0, \
            "warm model cache still executed trainings"

        def _same(p, q) -> bool:
            return (all(np.array_equal(a.value, b.value) for a, b in
                        zip(p.model.params(), q.model.params()))
                    and np.array_equal(p.predict_proba(dataset.X),
                                       q.predict_proba(dataset.X)))

        identical = (all(_same(p, q) for p, q in zip(serial, cold))
                     and all(_same(p, q) for p, q in zip(serial, warm)))
        assert identical, "serial/cold/cached models differ"

    # Inference fast path: per-window (batch of 1) latency, the
    # streaming predictor's request shape, unfused vs the deployed
    # forward pass.
    predictor = serial[0]
    deployed = predictor.deploy()
    assert np.array_equal(predictor.predict(dataset.X),
                          deployed.predict(dataset.X)), \
        "fused predictions diverge from unfused"
    n_windows = 2000
    rows = [dataset.X[i % len(dataset):i % len(dataset) + 1]
            for i in range(n_windows)]
    unfused, fused = predictor.predict_proba, deployed.predict_proba_rows
    unfused(rows[0])  # warm both paths
    fused(rows[0])
    t0 = time.perf_counter()
    for row in rows:
        unfused(row)
    unfused_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for row in rows:
        fused(row)
    fused_s = time.perf_counter() - t0

    return {
        "environment": bench_environment(),
        "grid": {"seeds": len(seeds), "restarts": restarts,
                 "trainings": len(seeds) * restarts,
                 "windows": len(dataset), "epochs": configs[0].epochs},
        "serial_seconds": serial_s,
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "speedup_warm": serial_s / warm_s if warm_s else None,
        "fused_inference": {
            "windows": n_windows,
            "unfused_seconds": unfused_s,
            "fused_seconds": fused_s,
            "unfused_us_per_window": 1e6 * unfused_s / n_windows,
            "fused_us_per_window": 1e6 * fused_s / n_windows,
            "fused_speedup": unfused_s / fused_s,
        },
        "bit_identical": identical,
        "cold": cold_ex.stats(),
        "warm": warm_ex.stats(),
    }


# -- prediction-service benchmark ---------------------------------------------


def _serve_scorer():
    """A small deployed predictor for the service benchmark.

    Trained quickly on the synthetic training set — the benchmark
    measures the service machinery (batching, queues, chaos), not
    training, so one restart and few epochs suffice.
    """
    from repro.core.nn.train import TrainConfig
    from repro.core.predictor import InterferencePredictor

    dataset = bench_train_dataset()
    predictor = InterferencePredictor.train(
        dataset, config=TrainConfig(epochs=10, patience=5, seed=0),
        restarts=1)
    return predictor.deploy()


def bench_serve(stream_counts: tuple[int, ...] = (16, 64, 256),
                n_windows: int = 20) -> dict[str, Any]:
    """Multi-tenant service throughput/latency vs concurrent streams.

    Two curves over the stream counts:

    * **clean** — well-behaved tenants only: windows/sec, p50/p99
      request latency, mean micro-batch size.  Throughput should grow
      with stream count as batching amortises the per-forward cost —
      the whole point of sharing one model across tenants.
    * **chaos** — the same populations under a fixed
      :class:`~repro.faults.ServiceFaultPlan` (floods, stalls,
      disconnects, reorder, duplicates, slow batches): throughput plus
      the shed/degraded tenant rates, i.e. what the robustness envelope
      costs and contains.

    Wall-clock numbers; the committed baseline embeds the environment
    block like every other suite.
    """
    from repro.faults import ServiceFaultPlan
    from repro.obs.metrics import REGISTRY
    from repro.serve import run_soak
    from repro.serve.service import BATCH_SIZE_BUCKETS

    scorer = _serve_scorer()
    plan = ServiceFaultPlan(seed=3, flood_rate=0.15, stall_rate=0.1,
                            disconnect_rate=0.05, reorder_rate=0.15,
                            duplicate_rate=0.1, slow_batch_rate=0.02,
                            slow_batch_seconds=0.02)

    def _one(n_tenants: int, with_chaos: bool) -> dict[str, Any]:
        REGISTRY.reset()
        report = run_soak(scorer, n_tenants=n_tenants, n_windows=n_windows,
                          plan=plan if with_chaos else None, seed=7)
        assert not report.errors, \
            f"soak raised unhandled exceptions: {report.errors}"
        doc = report.to_dict()
        sizes = REGISTRY.histogram("serve.batch_size",
                                   boundaries=BATCH_SIZE_BUCKETS)
        terminal = report.terminal_counts
        row = {
            "tenants": n_tenants,
            "windows_resolved": report.windows_served,
            "wall_seconds": report.elapsed,
            "windows_per_second": report.throughput,
            "latency_p50_ms": 1e3 * doc["latency_p50_seconds"],
            "latency_p99_ms": 1e3 * doc["latency_p99_seconds"],
            "mean_batch_size": (sizes.total / sizes.count
                                if sizes.count else 0.0),
        }
        if with_chaos:
            row["degraded_rate"] = terminal["degraded"] / n_tenants
            row["shed_rate"] = terminal["shed"] / n_tenants
            row["statuses"] = report.status_totals
        return row

    clean = [_one(n, with_chaos=False) for n in stream_counts]
    chaos = [_one(n, with_chaos=True) for n in stream_counts]
    REGISTRY.reset()
    return {
        "environment": bench_environment(),
        "stream_counts": list(stream_counts),
        "windows_per_tenant": n_windows,
        "fault_plan": plan.to_dict(),
        "fault_plan_digest": plan.digest(),
        "clean": clean,
        "chaos": chaos,
        "peak_windows_per_second": max(r["windows_per_second"]
                                       for r in clean),
    }


# -- dataset benchmark --------------------------------------------------------


def bench_dataset(jobs: int | None = None) -> dict[str, Any]:
    """The window cache vs the in-memory ETL path.

    Passes over the sweep grid, with the run cache pre-primed so the
    numbers measure labelling and caching, not simulation: the in-memory
    ``collect_windows`` baseline, a cold build into a fresh
    :class:`~repro.parallel.WindowCache` (every pair labelled and
    stored), a warm rebuild (one sweep-entry hit: zero simulations, no
    pair entry read, asserted), and a one-pair append into both a small
    and a 3x-larger cache — the append walls must match, showing that
    cost scales with *new* windows, not stored ones.  Cache-built
    datasets must match the in-memory ``content_digest()`` exactly.
    """
    from repro.core.labeling import BINARY_THRESHOLDS
    from repro.experiments.datagen import (Scenario, bank_to_dataset,
                                           collect_windows)
    from repro.experiments.runner import InterferenceSpec
    from repro.parallel import RunCache, SweepExecutor, WindowCache

    jobs = jobs or min(4, os.cpu_count() or 1)
    targets, scenarios, config = bench_grid()
    extra = Scenario(
        "io500-x3",
        (InterferenceSpec("ior-easy-write", instances=3, ranks=2, scale=0.2),
         InterferenceSpec("ior-easy-read", instances=2, ranks=2, scale=0.2)),
    )

    with tempfile.TemporaryDirectory(prefix="bench-dataset-") as tmpdir:
        tmp = pathlib.Path(tmpdir)
        runcache = RunCache(tmp / "runcache")

        def _executor() -> SweepExecutor:
            return SweepExecutor(n_jobs=jobs, cache=runcache)

        def _build(windows: WindowCache, grid_targets, grid_scenarios,
                   executor: SweepExecutor | None = None):
            bank = collect_windows(grid_targets, grid_scenarios, config,
                                   executor=executor or _executor(),
                                   store=windows)
            return bank_to_dataset(bank, BINARY_THRESHOLDS, source="bench")

        # Prime the run cache (untimed): every timed pass below measures
        # ETL cost, not simulator cost.
        collect_windows(targets, scenarios + [extra], config,
                        executor=_executor())

        t0 = time.perf_counter()
        bank_mem = collect_windows(targets, scenarios, config,
                                   executor=_executor())
        ds_mem = bank_to_dataset(bank_mem, BINARY_THRESHOLDS, source="bench")
        in_memory_s = time.perf_counter() - t0

        cold_cache = WindowCache(tmp / "windows")
        t0 = time.perf_counter()
        ds_cold = _build(cold_cache, targets, scenarios)
        cold_s = time.perf_counter() - t0

        warm_cache = WindowCache(tmp / "windows")
        warm_exec = _executor()
        t0 = time.perf_counter()
        ds_warm = _build(warm_cache, targets, scenarios, warm_exec)
        warm_s = time.perf_counter() - t0

        digest = ds_mem.content_digest()
        identical = (ds_cold.content_digest() == digest
                     and ds_warm.content_digest() == digest)
        assert identical, "cache-built dataset digests diverge from in-memory"
        assert warm_exec.runs_executed == 0, "warm rebuild still simulated"
        assert (warm_cache.hits, warm_cache.misses, warm_cache.stores) == \
            (1, 0, 0), "warm rebuild did more than read the sweep entry"

        # Append: the same single new pair into a 1-target cache and
        # into the full-grid cache.  The walls must not scale with what
        # is already stored.
        _build(WindowCache(tmp / "windows-small"), targets[:1], scenarios)
        appends = []
        for directory in ("windows-small", "windows"):
            cache = WindowCache(tmp / directory)
            t0 = time.perf_counter()
            _build(cache, targets[:1], [extra])
            appends.append(time.perf_counter() - t0)
            # A sweep-entry miss, then one new pair: both get stored.
            assert (cache.misses, cache.stores) == (2, 2), cache.stats()
        append_small_s, append_large_s = appends

        return {
            "environment": bench_environment(),
            "grid": {"targets": len(targets), "scenarios": len(scenarios),
                     "pairs": len(targets) * len(scenarios),
                     "windows": len(ds_mem)},
            "in_memory_seconds": in_memory_s,
            "cold_build_seconds": cold_s,
            "warm_rebuild_seconds": warm_s,
            "speedup_warm_vs_in_memory": in_memory_s / warm_s if warm_s
            else None,
            "bit_identical": identical,
            "content_digest": digest,
            "warm": {"runs_executed": warm_exec.runs_executed,
                     "hits": warm_cache.hits, "misses": warm_cache.misses,
                     "stores": warm_cache.stores},
            "append": {
                "small_store_entries": len(WindowCache(tmp / "windows-small")),
                "large_store_entries": len(WindowCache(tmp / "windows")),
                "append_small_seconds": append_small_s,
                "append_large_seconds": append_large_s,
                "ratio_large_vs_small": append_large_s / append_small_s,
            },
            "cold": cold_cache.stats(),
        }


# -- CLI ----------------------------------------------------------------------


def _write(result: dict[str, Any], path: pathlib.Path) -> None:
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {path}")


def main(argv: list[str] | None = None) -> int:
    """``python -m repro bench`` — regenerate the committed baselines."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Regenerate BENCH_engine.json / BENCH_sweep.json / "
                    "BENCH_train.json / BENCH_serve.json / "
                    "BENCH_dataset.json.",
    )
    parser.add_argument("which", nargs="?", default="all",
                        choices=("engine", "sweep", "train", "serve",
                                 "dataset", "all"))
    parser.add_argument("--only", action="append", default=None,
                        metavar="SUITE",
                        choices=("engine", "sweep", "train", "serve",
                                 "dataset"),
                        help="run only this suite; repeatable "
                             "(--only engine --only serve). Overrides the "
                             "positional selection")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="simulation workers for the sweep and "
                             "dataset suites (default: min(4, cores))")
    parser.add_argument("--out-dir", type=pathlib.Path,
                        default=pathlib.Path("."),
                        help="directory for the BENCH_*.json files "
                             "(default: current directory)")
    args = parser.parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)

    if args.only:
        selected = tuple(dict.fromkeys(args.only))  # de-dup, keep order
    elif args.which == "all":
        selected = ("engine", "sweep", "train", "serve", "dataset")
    else:
        selected = (args.which,)

    if "engine" in selected:
        result = bench_engine()
        print(f"engine: {result['timeouts_per_second']:,.0f} timeouts/s, "
              f"{result['hops_per_second']:,.0f} hops/s")
        _write(result, args.out_dir / "BENCH_engine.json")
    if "sweep" in selected:
        result = bench_sweep(jobs=args.jobs)
        print(f"sweep: serial {result['serial_batch_seconds']:.2f}s, cold "
              f"parallel {result['cold_batch_seconds']:.2f}s "
              f"({result['cold_improvement_vs_serial']:.2f}x), warm "
              f"{result['warm_seconds']:.2f}s")
        _write(result, args.out_dir / "BENCH_sweep.json")
    if "train" in selected:
        result = bench_train()
        fi = result["fused_inference"]
        print(f"train: serial {result['serial_seconds']:.2f}s, cold "
              f"{result['cold_seconds']:.2f}s, warm "
              f"{result['warm_seconds']:.2f}s "
              f"({result['speedup_warm']:.0f}x); inference "
              f"{fi['unfused_us_per_window']:.0f}us -> "
              f"{fi['fused_us_per_window']:.0f}us/window "
              f"({fi['fused_speedup']:.2f}x fused)")
        _write(result, args.out_dir / "BENCH_train.json")
    if "serve" in selected:
        result = bench_serve()
        rows = ", ".join(
            f"{r['tenants']}: {r['windows_per_second']:,.0f} w/s "
            f"(p99 {r['latency_p99_ms']:.1f}ms)" for r in result["clean"])
        worst = result["chaos"][-1]
        print(f"serve: clean {rows}; chaos at {worst['tenants']} tenants: "
              f"{worst['windows_per_second']:,.0f} w/s, "
              f"{worst['degraded_rate']:.0%} degraded, "
              f"{worst['shed_rate']:.0%} shed")
        _write(result, args.out_dir / "BENCH_serve.json")
    if "dataset" in selected:
        result = bench_dataset(jobs=args.jobs)
        ap = result["append"]
        print(f"dataset: in-memory {result['in_memory_seconds']:.2f}s, cold "
              f"build {result['cold_build_seconds']:.2f}s, warm rebuild "
              f"{result['warm_rebuild_seconds']:.2f}s; append 1 pair: "
              f"{ap['append_small_seconds']:.2f}s small vs "
              f"{ap['append_large_seconds']:.2f}s large "
              f"({ap['ratio_large_vs_small']:.2f}x)")
        _write(result, args.out_dir / "BENCH_dataset.json")
    return 0


if __name__ == "__main__":  # pragma: no cover - thin wrapper
    raise SystemExit(main())
