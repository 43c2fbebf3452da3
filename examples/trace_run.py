#!/usr/bin/env python3
"""Trace one paired run and see where every request's time went.

Installs the span tracer, executes a baseline + interfered pair of a
small IOR-style read job, then exports the trace as JSONL and prints the
span summary — the simulator's view of the run: how much simulated time
the client operations took end to end, how much of it the disks were
busy, and how interference shifts that split.

Run:  python examples/trace_run.py
"""

import pathlib
import tempfile

from repro import obs
from repro.experiments.runner import ExperimentConfig, InterferenceSpec, run_pair
from repro.workloads.io500 import make_io500_task


def main() -> None:
    obs.configure_logging("INFO")
    config = ExperimentConfig(window_size=0.25, warmup=0.5, seed=1)
    target = make_io500_task("ior-easy-read", ranks=2, scale=0.1)
    noise = [InterferenceSpec("ior-easy-read", instances=2, ranks=2,
                              scale=0.1)]

    tracer = obs.install_tracer()
    try:
        pair = run_pair(target, noise, config)
    finally:
        obs.uninstall_tracer()

    out = pathlib.Path(tempfile.mkdtemp(prefix="repro-trace-"))
    trace_path = obs.save_trace(tracer, out / "pair.trace.jsonl")
    print(f"\n{len(tracer.spans)} spans "
          f"({tracer.events_fired} kernel events) -> {trace_path}")
    print("summarise later with: "
          f"python -m repro obs {trace_path}\n")

    print(obs.render_span_summary(tracer.spans))

    slow = pair.interfered.duration / max(pair.baseline.duration, 1e-9)
    op_total = sum(s.duration for s in tracer.spans
                   if s.name in ("client.read", "client.write")
                   and s.end is not None)
    disk_total = sum(s.duration for s in tracer.spans
                     if s.name == "disk.io" and s.end is not None)
    print(f"\ntarget slowdown under interference: {slow:.2f}x")
    print(f"simulated time in client data ops: {op_total:.3f}s, "
          f"at the disks: {disk_total:.3f}s")


if __name__ == "__main__":
    main()
