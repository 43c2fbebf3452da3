#!/usr/bin/env python3
"""End-to-end benchmark of the interference-prediction pipeline.

Run from the repository root::

    python3 benchmarks/pipeline/run.py --workload grid-bulk --seed 0
    python3 benchmarks/pipeline/run.py --repeats 10 --out bench-results/A.json
    python3 benchmarks/pipeline/run.py --workload grid-meta --trace 1

One *run* measures one workload at one seed for about ``--seconds``
seconds.  Every pass of a run executes in a fresh interpreter, one at a
time, at default flags, so every pass is cold; ``--repeats K`` makes K
runs per workload at seeds ``seed .. seed+K-1``, round-robin across the
workloads.  With ``--trace 1`` a run instead makes one untraced pass and
one traced pass and reports the per-layer metrics.

Every metric is printed by name with its unit.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of BENCHMARK.json, or with
``--trace 1`` its per-layer metrics).  A failed output check makes the
exit code 1; a missing source tree or a crashed pass makes it 2.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: A run keeps starting passes while the next one is expected to end
#: within this multiple of ``--seconds``.
OVERRUN = 1.25
#: Set-up is measured at least this many times per run (extra processes
#: only set up) and reported as the median.
MIN_SETUPS = 3
#: Longest a single pass may take before the run is abandoned.
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """A pass crashed or hung; the run has no result."""


def spawn(workload: str, seed: int, mode: str, hold_s: float) -> dict:
    """Run one pass in a fresh interpreter and return its record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), workload, str(seed),
         mode, repr(hold_s), repr(t_spawn)],
        stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} {mode} pass exceeded "
                         f"{CHILD_TIMEOUT_S:.0f}s") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload} {mode} pass exited with code "
                         f"{proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float) -> list[dict]:
    """Untraced passes until the budget is spent, at least one."""
    passes: list[dict] = []
    busy = 0.0
    while not passes or busy + statistics.median(
            p["job_s"] for p in passes) <= seconds * OVERRUN:
        passes.append(spawn(workload, seed, "pass", seconds / 2))
        busy += passes[-1]["job_s"]
    return passes


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "latency_ms": statistics.median(p["latency_ms"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(names: list[str], base: dict, traced: dict) -> dict[str, float]:
    """Layer metrics from one untraced and one traced pass.

    Every name is reported on every workload; a layer a workload does not
    exercise reads 0.  Times are shares (%) of the pass, so they compare
    across workloads and machines.
    """
    m = dict.fromkeys(names, 0.0)
    for stage, seconds in base.get("stages", {}).items():
        m[f"stage.{stage}_share"] = 100 * seconds / base["job_s"]
    m.update(base.get("counts", {}))
    m["predict.us_per_window"] = (base.get("predict_us_per_window")
                                  or traced.get("predict_us_per_window", 0.0))
    m["trace.overhead"] = traced["cpu_s"] / base["cpu_s"]
    fold = traced.get("fold")
    if fold is not None:
        total = fold["total_s"]
        for layer, seconds in fold["self_s"].items():
            # ``other`` is what trace.coverage leaves out; every layer's
            # seconds are in the results file either way.
            if f"{layer}.share" in m:
                m[f"{layer}.share"] = 100 * seconds / total
        m.update(fold["counts"])
        for name, seconds in fold["cumulative_s"].items():
            m[f"{name}_share"] = 100 * seconds / total
        m["trace.coverage"] = 100 * fold["coverage"]
        if "label_kept_ratio" in traced:
            m["label.kept_ratio"] = traced["label_kept_ratio"]
    serve = base.get("serve")
    if serve is not None:
        m["serve.tail_ratio"] = serve["p99_ms"] / serve["p50_ms"]
        m["serve.gen_late_share"] = (100 * serve["gen_late_p99_ms"]
                                     / serve["p99_ms"])
        m["serve.max_wps"] = serve.get("max_wps", 0.0)
    forward = traced.get("forward")
    if forward is not None:
        wall = traced["job_s"]
        m["serve.forward_share"] = 100 * forward["seconds"] / wall
        m["serve.loop_other_share"] = (100 * (traced["cpu_s"]
                                              - forward["seconds"]) / wall)
        m["serve.batches"] = forward["calls"]
        m["serve.mean_batch"] = forward["rows"] / max(1, forward["calls"])
    unknown = set(m) - set(names)
    if unknown:
        raise BenchError(f"layer metrics missing from BENCHMARK.json: "
                         f"{sorted(unknown)}")
    return {name: float(m[name]) for name in names}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            spec: dict) -> dict:
    """One run: its passes, checks and metrics."""
    if trace:
        passes = [spawn(workload, seed, "base", seconds / 2),
                  spawn(workload, seed, "traced", seconds / 2)]
        values = per_layer([m["name"] for m in spec["per_layer"]], *passes)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        passes = run_passes(workload, seed, seconds)
        setups = [p["setup_s"] for p in passes]
        while len(setups) < MIN_SETUPS:
            setups.append(spawn(workload, seed, "setup", 0.0)["setup_s"])
        values = end_to_end(passes, setups)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    checks: dict[str, bool] = {}
    for record in passes:
        for name, ok in record["checks"].items():
            checks[name] = checks.get(name, True) and bool(ok)
    digests = [p["digests"] for p in passes if "digests" in p]
    if digests:
        checks["same_output_every_pass"] = all(d == digests[0]
                                               for d in digests)
    failed_checks = sum(not ok for ok in checks.values())
    return {
        "workload": workload,
        "seed": seed,
        "correct": failed_checks == 0,
        "attempted": sum(p["attempted"] for p in passes) + len(checks),
        "failed": sum(p["failed"] for p in passes) + failed_checks,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
        "checks": checks,
        "macro_f1": [p["macro_f1"] for p in passes if "macro_f1" in p],
        "passes": passes,
    }


def print_run(run: dict) -> None:
    print(f"{run['workload']} seed={run['seed']} passes="
          f"{len(run['passes'])} attempted={run['attempted']} "
          f"failed={run['failed']}")
    for name, metric in run["metrics"].items():
        print(f"  {name:28s} {metric['value']:14.4f} {metric['unit']}")
    if run["macro_f1"]:
        print(f"  {'macro_f1':28s} {statistics.median(run['macro_f1']):14.4f}")
    for name, ok in run["checks"].items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    fold = run["passes"][-1].get("fold")
    if fold is not None:
        print(f"  layers (traced pass, {fold['total_s']:.2f}s profiled, "
              f"{100 * fold['coverage']:.1f}% attributed):")
        for layer, seconds in sorted(fold["self_s"].items(),
                                     key=lambda kv: -kv[1]):
            print(f"    {layer:18s} {seconds:9.3f}s "
                  f"{100 * seconds / fold['total_s']:6.2f}%")


def summary_line(runs: list[dict]) -> dict:
    """The last stdout line: one run's result, or medians over several."""
    line = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
    }
    if len(runs) == 1:
        line["metrics"] = runs[0]["metrics"]
        return line
    grouped: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for r in runs:
        for name, metric in r["metrics"].items():
            key = f"{r['workload']}/{name}"
            grouped.setdefault(key, []).append(metric["value"])
            units[key] = metric["unit"]
    line["metrics"] = {key: {"value": statistics.median(values),
                             "unit": units[key]}
                       for key, values in grouped.items()}
    return line


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="End-to-end pipeline benchmark (see README.md).")
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run; repeatable (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="measuring budget of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from an untraced "
                             "and a traced pass")
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs per workload, at consecutive seeds")
    parser.add_argument("--out", type=pathlib.Path,
                        help="write every run's full record to this JSON "
                             "file")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.repeats < 1:
        parser.error("--seconds must be positive and --repeats at least 1")

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"error: no source tree at {src}; run from a repository "
              f"checkout", file=sys.stderr)
        return 2

    selected = list(dict.fromkeys(args.workload or names))
    runs = []
    try:
        for i in range(args.repeats):
            for workload in selected:
                run = measure(workload, args.seed + i, args.seconds,
                              bool(args.trace), spec)
                print_run(run)
                runs.append(run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        sys.path.insert(0, str(src))
        from repro.bench import bench_environment

        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "environment": bench_environment(),
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "runs": runs,
        }, indent=1) + "\n")
        print(f"wrote {args.out}")
    print(json.dumps(summary_line(runs)))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
