#!/usr/bin/env python
"""Compare fresh benchmark results against the committed baselines.

Reads the committed ``BENCH_*.json`` files (engine, sweep, train,
dataset, serve) from one directory and freshly generated ones from
another, and flags any tracked metric that regressed by more than the
threshold (25% by default; throughput metrics must not drop, wall-clock
metrics must not grow). Exits nonzero on regression — the CI job that
runs it is non-gating, so this marks the job red without blocking the
merge.

Wall-clock baselines only transfer between like machines, so when a
result pair records different ``environment`` blocks (numpy/python
version, platform, core count) a WARNING is printed — the comparison
still runs, but a red result on a different machine is expected noise,
not a regression.  Stronger: a wall-clock metric recorded on a machine
with a *different core count* than the one running the check is
SKIPPED outright (with a printed notice) — parallel-pass timings
simply don't compare across core counts, so flagging them would only
train people to ignore the job.

Usage::

    python benchmarks/check_regression.py BASELINE_DIR FRESH_DIR
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

#: (file, path-into-json, kind): "rate" regresses down, "wall" up.
METRICS = (
    ("BENCH_engine.json", ("timeouts_per_second",), "rate"),
    ("BENCH_engine.json", ("hops_per_second",), "rate"),
    ("BENCH_sweep.json", ("serial_batch_seconds",), "wall"),
    ("BENCH_sweep.json", ("cold_batch_seconds",), "wall"),
    ("BENCH_sweep.json", ("warm_seconds",), "wall"),
    ("BENCH_train.json", ("serial_seconds",), "wall"),
    ("BENCH_train.json", ("warm_seconds",), "wall"),
    ("BENCH_train.json", ("speedup_warm",), "rate"),
    ("BENCH_train.json",
     ("fused_inference", "fused_us_per_window"), "wall"),
    ("BENCH_train.json", ("fused_inference", "fused_speedup"), "rate"),
    ("BENCH_dataset.json", ("cold_build_seconds",), "wall"),
    ("BENCH_dataset.json", ("warm_rebuild_seconds",), "wall"),
    ("BENCH_dataset.json", ("append", "append_large_seconds"), "wall"),
    # Append cost must stay flat as the store grows: the ratio between
    # appending one pair into the large vs the small store is the
    # window cache's scaling contract in one number.
    ("BENCH_dataset.json", ("append", "ratio_large_vs_small"), "wall"),
    ("BENCH_serve.json", ("peak_windows_per_second",), "rate"),
    # clean[2] is the 256-tenant closed-loop row.
    ("BENCH_serve.json", ("clean", 2, "latency_p50_ms"), "wall"),
)

#: Environment keys excluded from the mismatch warning: they differ on
#: every run by design. ``peak_rss_bytes`` is recording provenance, not
#: machine identity; it is compared separately (and non-fatally) below.
_ENV_IGNORE = ("peak_rss_bytes",)


def _get(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _foreign_cpu_count(doc: dict) -> int | None:
    """The doc's recorded cpu_count iff it differs from this machine's.

    ``None`` means the numbers are comparable here (same core count, or
    none recorded — the environment warning covers the latter).
    """
    recorded = (doc.get("environment") or {}).get("cpu_count")
    if recorded is not None and recorded != os.cpu_count():
        return recorded
    return None


def check_environments(docs: dict) -> list[str]:
    """One warning line per file whose baseline/fresh environments differ.

    Old baselines without an ``environment`` block compare as unknown —
    that also warns, since nothing ties their numbers to this machine.
    """
    by_name: dict[str, dict[str, dict | None]] = {}
    for (directory, name), doc in docs.items():
        by_name.setdefault(name, {})[str(directory)] = doc.get("environment")
    warnings = []
    for name, envs in sorted(by_name.items()):
        if len(envs) < 2:
            continue
        (d1, e1), (d2, e2) = sorted(envs.items())
        if e1 is not None and e2 is not None:
            e1 = {k: v for k, v in e1.items() if k not in _ENV_IGNORE}
            e2 = {k: v for k, v in e2.items() if k not in _ENV_IGNORE}
        if e1 is None or e2 is None:
            missing = d1 if e1 is None else d2
            warnings.append(
                f"WARNING: {name}: no environment recorded in {missing}; "
                "wall-clock comparison may cross machines")
        elif e1 != e2:
            diff = ", ".join(
                f"{key}: {e1.get(key)!r} vs {e2.get(key)!r}"
                for key in sorted(set(e1) | set(e2))
                if e1.get(key) != e2.get(key))
            note = ("wall-clock regressions are expected noise across "
                    "machines")
            if (e1.get("git_sha") != e2.get("git_sha")
                    and e1.get("git_sha") and e2.get("git_sha")):
                note = (f"results span commits "
                        f"{str(e1['git_sha'])[:12]} -> "
                        f"{str(e2['git_sha'])[:12]}; regenerate the "
                        "baseline if the code change was intentional")
            warnings.append(
                f"WARNING: {name}: baseline and fresh results come from "
                f"different environments ({diff}); {note}")
    return warnings


def compare_peak_rss(docs: dict) -> list[str]:
    """Non-fatal per-file comparison of the recorded peak RSS.

    Memory numbers drift with allocator/page-cache state, so they never
    gate; the printed drift is context for reading the wall numbers.
    """
    by_name: dict[str, dict[str, int | None]] = {}
    for (directory, name), doc in docs.items():
        env = doc.get("environment") or {}
        by_name.setdefault(name, {})[str(directory)] = env.get(
            "peak_rss_bytes")
    lines = []
    for name, values in sorted(by_name.items()):
        if len(values) < 2:
            continue
        (d1, first), (d2, second) = sorted(values.items())
        if first is None or second is None:
            continue
        rel = (second - first) / first if first else 0.0
        lines.append(f"{name}: recording peak RSS {first / 1e6:,.0f}MB "
                     f"({d1}) vs {second / 1e6:,.0f}MB ({d2}) "
                     f"({rel:+.1%}) [informational]")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("baseline_dir", type=pathlib.Path)
    parser.add_argument("fresh_dir", type=pathlib.Path)
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed relative regression (default: 0.25)")
    args = parser.parse_args(argv)

    docs: dict[tuple[pathlib.Path, str], dict] = {}
    regressions = []
    skipped = []
    missing_files: set[str] = set()
    for name, path, kind in METRICS:
        row = []
        foreign = None
        absent = None
        for directory in (args.baseline_dir, args.fresh_dir):
            key = (directory, name)
            if key not in docs:
                try:
                    docs[key] = json.loads((directory / name).read_text())
                except FileNotFoundError:
                    absent = directory / name
                    break
            row.append(float(_get(docs[key], path)))
            foreign = foreign or _foreign_cpu_count(docs[key])
        if absent is not None:
            # A run may regenerate only some suites; compare what exists
            # instead of failing the whole check on the rest.
            if name not in missing_files:
                missing_files.add(name)
                print(f"{name}: SKIPPED ({absent} not found; suite not "
                      "regenerated in this run)")
            continue
        if kind == "wall" and foreign is not None:
            label = f"{name}:{'.'.join(str(key) for key in path)}"
            print(f"{label}: SKIPPED (recorded on a {foreign}-core "
                  f"machine, this one has {os.cpu_count()}; wall-clock "
                  "numbers don't transfer)")
            skipped.append(label)
            continue
        base, fresh = row
        rel = (fresh - base) / base if base else 0.0
        worse = (-rel if kind == "rate" else rel) > args.threshold
        label = f"{name}:{'.'.join(str(key) for key in path)}"
        print(f"{label}: baseline {base:.4g}, fresh {fresh:.4g} "
              f"({rel:+.1%}) [{'REGRESSED' if worse else 'ok'}]")
        if worse:
            regressions.append(label)

    warnings = check_environments(docs)
    if warnings:
        print()
        for line in warnings:
            print(line)

    rss_lines = compare_peak_rss(docs)
    if rss_lines:
        print()
        for line in rss_lines:
            print(line)

    if skipped:
        print(f"\n{len(skipped)} wall-clock metric(s) skipped "
              "(cross-machine core-count mismatch)")
    if regressions:
        print(f"\n{len(regressions)} metric(s) regressed beyond "
              f"{args.threshold:.0%}: {', '.join(regressions)}")
        return 1
    print("\nall compared benchmark metrics within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
