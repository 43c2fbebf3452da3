#!/usr/bin/env python3
"""Compare two results files of ``run.py``, workload by workload.

    python3 benchmarks/pipeline/compare.py A.json B.json

For every workload and metric both files hold, prints each side's median
and quartiles over its runs, the bound BENCHMARK.json fixes and a
verdict on B against A:

``worse``
    B's median is worse than A's by more than the bound.
``unresolved``
    the runs spread wider than the bound (either side's quartile
    distance over its median), and not every run of B beats every run
    of A.
``better``
    B's median beats A's by more than A's own quartile distance, and B
    wins at least nine tenths of the runs paired by position (ties count
    for neither); or, under a spread wider than the bound, every run of
    B beats every run of A.
``unchanged``
    none of the above.

Per-layer metrics have no bound, so they get no verdict: their medians
are printed, and a count is marked ``identical`` when every paired run
reads the same on both sides.  The exit code is 1 when any end-to-end
verdict is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them; a
    single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def by_workload(results: dict) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per run]}}`` in run order."""
    out: dict[str, dict[str, list[float]]] = {}
    for run in results["runs"]:
        metrics = out.setdefault(run["workload"], {})
        for name, metric in run["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return out


def verdict(a: list[float], b: list[float], bound: float,
            lower_is_better: bool) -> str:
    """One end-to-end metric of B against A (see module docstring)."""
    sign = 1.0 if lower_is_better else -1.0

    def worse_by(x: float, y: float) -> float:
        """How much worse ``y`` reads than ``x``, as a share of ``x``."""
        return sign * (y - x) / abs(x) if x else 0.0

    _, a_med, _ = quartiles(a)
    _, b_med, _ = quartiles(b)
    change = worse_by(a_med, b_med)
    if change > bound:
        return "worse"
    if max(spread(a), spread(b)) > bound:
        return ("better" if all(worse_by(x, y) < 0 for x in a for y in b)
                else "unresolved")
    pairs = [worse_by(x, y) for x, y in zip(a, b)]
    wins = sum(p < 0 for p in pairs)
    if -change > spread(a) and pairs and wins >= 0.9 * len(pairs):
        return "better"
    return "unchanged"


def fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:12.4f} [{q1:.4f}, {q3:.4f}] n={len(values)}"


def compare(a: dict, b: dict, spec: dict) -> list[str]:
    """Print the comparison; returns the failing end-to-end verdicts."""
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    a_runs, b_runs = by_workload(a), by_workload(b)
    failing = []
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in a_runs or workload not in b_runs:
            continue
        print(workload)
        for name, a_vals in a_runs[workload].items():
            b_vals = b_runs[workload].get(name)
            if not b_vals:
                continue
            if name in e2e:
                m = e2e[name]
                v = verdict(a_vals, b_vals, m["bound"],
                            m["better"] == "lower")
                note = f"bound {m['bound']:.0%}  {v}"
                if v in ("worse", "unresolved"):
                    failing.append(f"{workload} {name}: {v}")
            elif units.get(name) == "count":
                same = len(a_vals) == len(b_vals) and a_vals == b_vals
                note = "identical" if same else "differs"
            else:
                note = ""
            print(f"  {name:26s} {units.get(name, ''):6s} A {fmt(a_vals)}"
                  f"  B {fmt(b_vals)}  {note}")
    return failing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two run.py results files.")
    parser.add_argument("a", type=pathlib.Path, help="baseline results")
    parser.add_argument("b", type=pathlib.Path, help="results to judge")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failing = compare(json.loads(args.a.read_text()),
                      json.loads(args.b.read_text()), spec)
    for line in failing:
        print(f"FAIL {line}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
