"""Command-line entry point: regenerate paper artefacts.

Usage::

    python -m repro list                 # show available experiments
    python -m repro table1 [--fast]      # the 7x7 slowdown matrix
    python -m repro fig1                 # Enzo latency series
    python -m repro table2               # server-metric catalogue
    python -m repro fig3 | fig4 | fig5   # model evaluations
    python -m repro all [--fast]         # everything, in order
    python -m repro robustness [--fast]  # F1 under telemetry faults
    python -m repro obs FILE [FILE ...]  # summarise traces/metrics/manifests
    python -m repro obs report FILE ... [--chrome-trace OUT.json]
                                         # merged report + Perfetto trace
    python -m repro train --model-out M.npz     # train once, save the model
    python -m repro predict --model M.npz       # predict anywhere
    python -m repro serve --tenants 256 --chaos 'flood=0.1,stall=0.05'
                                         # multi-tenant service chaos soak

Fault injection and resilience: ``--faults 'abort=0.2,kill=0.1,seed=1'``
attaches a deterministic :class:`repro.faults.FaultPlan` to the sweep
executor (worker and simulation faults only: a spec with telemetry
faults is refused, since the ``robustness`` experiment sweeps its own),
``--run-timeout`` arms a per-run watchdog and ``--retries`` bounds how
often a failed run is retried before being quarantined — a sweep with
poisoned runs completes and reports them instead of crashing.

``--fast`` shrinks workloads for a quick smoke pass (IO500 targets at
``target_scale`` 0.15 instead of the default 0.4; the paper-shape
benchmarks under ``benchmarks/`` set their own, larger sizes, e.g.
0.8). Results print to stdout; pass ``--out DIR`` to also write one
text file per experiment. Every output path (``--out``,
``--trace``, ``--metrics-out``, ``--model-out``, ``--report-out``,
``--chrome-trace``) is checked before any work: an unusable one is one
``error:`` line and exit 2.

Every command that simulates or trains builds a
:class:`repro.parallel.SweepExecutor` from its flags (one per experiment
under ``all``) and hands it to the experiment; it owns the run, window
and model caches. Independent simulation runs fan out over one worker
process per CPU this process may use (``taskset -c 0`` makes that one),
with bit-identical results; ``--jobs N`` (N >= 1) sets the count, and
``--jobs 1`` runs sweeps in-process unless ``--run-timeout`` or
``--retries`` asks for a supervised child. Where a run executes shows
in no output, trace or failure, and in the metrics only as the slot
count and the number of per-slot busy series.
Runs persist in a content-addressed cache (``--cache-dir``, default
``results/.runcache``) so e.g. ``fig4`` re-bins ``fig3``'s cached IO500
sweep and a re-run after a training-side change simulates nothing.
``--no-cache`` disables persistence. Labelled windows persist the same
way (``--dataset-dir``, ``--no-dataset-cache``).

Training runs a model's restarts side by side, one child process each,
by the same rule: when the process may use more than one core, and
in-process otherwise (``taskset -c 0`` forces that), with bit-identical
models either way; ``--jobs``, ``--run-timeout`` and ``--retries`` apply
to simulation runs only. Trained models persist in a content-addressed
model cache (``--model-cache-dir``, default ``results/.modelcache``)
keyed by dataset digest + training recipe, so a warm re-run of a model
experiment trains nothing. ``--no-model-cache`` disables it.

Observability: every experiment writes a JSON run manifest (seed, config,
git SHA, timings, that experiment's own sweep/training/cache counters, a
wall-clock phase profile and a metric snapshot, which is
process-cumulative) next to its results. ``--trace PATH`` records a span
trace of all simulated I/O to a JSONL file — including runs executed in
worker processes: workers attach a tracer under the parent's trace id
and ship their spans back, and the parent merges everything
(plus wall-clock queue-wait/execute/retry/cache-probe job spans) into
one multi-process timeline. ``--metrics-out PATH`` dumps the metrics
registry, ``-v``/``-vv`` turn on INFO/DEBUG logging, ``python -m repro
obs`` renders any exported file, and ``python -m repro obs report``
renders manifest + trace + metrics together — with ``--chrome-trace
OUT.json`` producing a Perfetto-loadable timeline.
"""

from __future__ import annotations

import argparse
import math
import pathlib
import sys
import time

from repro import obs
from repro.experiments.runner import ExperimentConfig, experiment_cluster

#: Paper artefacts (run by ``all``).
EXPERIMENTS = ("table1", "fig1", "table2", "fig3", "fig4", "fig5")

#: Extension experiments beyond the paper (run individually).
EXTENSIONS = ("devices", "crosscluster", "robustness")

#: JSON reports produced by runners (written next to the manifests).
_REPORTS: dict[str, dict] = {}


def _config(fast: bool) -> ExperimentConfig:
    return ExperimentConfig(cluster=experiment_cluster(), window_size=0.25,
                            sample_interval=0.125,
                            warmup=0.5 if fast else 1.0, seed=0)


def _scales(fast: bool) -> dict[str, float]:
    return {
        "target_scale": 0.15 if fast else 0.4,
        "noise_scale": 0.15 if fast else 0.25,
    }


def run_table1(fast: bool, executor) -> str:
    from repro.experiments.table1 import run_table1, shape_checks

    s = _scales(fast)
    result = run_table1(_config(fast), target_scale=s["target_scale"],
                        noise_ranks=2 if fast else 3,
                        noise_instances=2 if fast else 3,
                        noise_scale=s["noise_scale"],
                        executor=executor)
    lines = [result.render(), ""]
    for name, ok in shape_checks(result).items():
        lines.append(f"[{'ok' if ok else 'MISS'}] {name}")
    return "\n".join(lines)


def run_fig1(fast: bool, executor) -> str:
    from repro.experiments.fig1 import run_fig1
    from repro.workloads.apps import EnzoConfig

    enzo = EnzoConfig(ranks=4, cycles=3 if fast else 5)
    a, b = run_fig1(_config(fast), enzo, max_level=2 if fast else 3,
                    noise_scale=_scales(fast)["noise_scale"],
                    executor=executor)
    return "Figure 1(a)\n" + a.render() + "\n\nFigure 1(b)\n" + b.render()


def run_table2(fast: bool, executor) -> str:
    from repro.experiments.table2 import run_table2

    return run_table2(_config(fast),
                      scale=_scales(fast)["target_scale"],
                      executor=executor).render()


def run_fig3(fast: bool, executor) -> str:
    from repro.experiments.fig3 import (
        collect_dlio_bank,
        collect_io500_bank,
        run_fig3_dlio,
        run_fig3_io500,
    )

    s = _scales(fast)
    io500 = collect_io500_bank(_config(fast), target_scale=s["target_scale"],
                               max_level=2 if fast else 3,
                               noise_scale=s["noise_scale"],
                               executor=executor)
    dlio_cfg = ExperimentConfig(cluster=experiment_cluster(), window_size=0.5,
                                sample_interval=0.125, warmup=1.0, seed=0)
    dlio = collect_dlio_bank(dlio_cfg, max_level=2 if fast else 3,
                             noise_scale=s["noise_scale"],
                             steps_per_epoch=8 if fast else 12,
                             executor=executor)
    a = run_fig3_io500(bank=io500, executor=executor)
    b = run_fig3_dlio(bank=dlio, executor=executor)
    return a.render() + "\n\n" + b.render()


def run_fig4(fast: bool, executor) -> str:
    from repro.experiments.fig4 import run_fig4 as _run

    s = _scales(fast)
    return _run(_config(fast), target_scale=s["target_scale"],
                max_level=2 if fast else 3,
                noise_scale=s["noise_scale"],
                executor=executor).render()


def run_fig5(fast: bool, executor) -> str:
    from repro.experiments.fig5 import run_fig5 as _run

    return _run(_config(fast), max_level=2 if fast else 3,
                noise_scale=_scales(fast)["noise_scale"],
                executor=executor).render()


def run_devices(fast: bool, executor) -> str:
    from repro.experiments.devices import run_device_ablation

    return run_device_ablation(
        _config(fast), target_scale=_scales(fast)["target_scale"],
        executor=executor,
    ).render()


def run_crosscluster(fast: bool, executor) -> str:
    from repro.experiments.cross_cluster import run_cross_cluster

    kwargs = {}
    if fast:
        kwargs = dict(target_tasks=("ior-easy-write", "ior-easy-read"),
                      target_scale=0.4, max_level=2)
    return run_cross_cluster(_config(fast), executor=executor,
                             **kwargs).render()


def run_robustness(fast: bool, executor) -> str:
    from repro.experiments.robustness import run_robustness as _run

    kwargs = {}
    if fast:
        kwargs = dict(max_level=1, drop_rates=(0.0, 0.4),
                      blank_rates=(0.0, 0.4), gap_policies=("zero", "mean"),
                      slow_factors=(8.0,), epochs=30)
    result = _run(_config(fast), executor=executor, **kwargs)
    _REPORTS["robustness"] = result.to_report()
    return result.render()


_RUNNERS = {
    "table1": run_table1,
    "fig1": run_fig1,
    "table2": run_table2,
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "devices": run_devices,
    "crosscluster": run_crosscluster,
    "robustness": run_robustness,
}


def _fail(message: str) -> int:
    """One-line CLI error: print to stderr, exit nonzero (no traceback)."""
    print(f"error: {message}", file=sys.stderr)
    return 2


#: (directory flag, default, off flag, contents) of the run, window and
#: model caches.
_CACHE_FLAGS = (
    ("--cache-dir", "results/.runcache", "--no-cache", "simulation runs"),
    ("--dataset-dir", "results/.dataset", "--no-dataset-cache",
     "labelled windows, so a rebuild simulates only pairs it has not seen"),
    ("--model-cache-dir", "results/.modelcache", "--no-model-cache",
     "trained models"),
)


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    for flag, default, off, contents in _CACHE_FLAGS:
        parser.add_argument(flag, type=pathlib.Path,
                            default=pathlib.Path(default),
                            help=f"content-addressed cache of {contents} "
                                 f"(default: %(default)s)")
        parser.add_argument(off, action="store_true",
                            help=f"do not read or write the {flag} cache")


def _probe_writable(directory: pathlib.Path) -> None:
    """Create ``directory`` and write a probe file in it (``OSError``
    where either fails)."""
    directory.mkdir(parents=True, exist_ok=True)
    probe = directory / ".write-probe"
    probe.write_bytes(b"")
    probe.unlink()


def _check_outputs(args, *flags: str) -> None:
    """Fail before any work when an output flag's path is unusable.

    ``--out`` names a directory, which is created and write-probed;
    every other flag names a file, whose directory is.  A failure raises
    ``ValueError`` naming the flag.
    """
    for flag in flags:
        path = getattr(args, flag[2:].replace("-", "_"))
        if path is None:
            continue
        try:
            if flag == "--out":
                _probe_writable(path)
            elif path.is_dir():
                raise IsADirectoryError(f"{path} is a directory")
            else:
                _probe_writable(path.parent)
        except OSError as exc:
            raise ValueError(f"{flag} {path} is not writable ({exc})") from exc


def _open_executor(args, **options):
    """A :class:`~repro.parallel.SweepExecutor` with the run, window and
    model caches the flags ask for (``--no-*`` turns one off).

    Each cache directory is created and write-probed here, so an
    unusable one fails before any work, with a ``ValueError`` naming its
    flag.
    """
    from repro.parallel import SweepExecutor

    caches = []
    for flag, _, off, _ in _CACHE_FLAGS:
        directory = getattr(args, flag[2:].replace("-", "_"))
        if getattr(args, off[2:].replace("-", "_")):
            caches.append(None)
            continue
        try:
            _probe_writable(directory)
        except OSError as exc:
            raise ValueError(f"{flag} {directory} is not writable ({exc}); "
                             f"pass another {flag} or {off}") from exc
        caches.append(directory)
    run_cache, windows, models = caches
    return SweepExecutor(n_jobs=args.jobs, cache=run_cache, windows=windows,
                         models=models, **options)


def main_obs_report(argv: list[str]) -> int:
    """``python -m repro obs report`` — one merged report over artefacts."""
    parser = argparse.ArgumentParser(
        prog="python -m repro obs report",
        description="Render a run manifest, a (multi-process) trace and "
                    "a metrics snapshot into one report: per-phase and "
                    "per-worker breakdowns, executor/cache health, and "
                    "optionally a Chrome trace-event JSON for Perfetto.",
    )
    parser.add_argument("files", nargs="+", type=pathlib.Path,
                        help="any mix of manifest.json, *.trace.jsonl "
                             "and *.metrics.json from one run")
    parser.add_argument("--chrome-trace", type=pathlib.Path, default=None,
                        metavar="OUT.json",
                        help="also write the trace as Chrome trace-event "
                             "JSON (load in Perfetto / about:tracing)")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v: INFO logs, -vv: DEBUG logs")
    args = parser.parse_args(argv)
    if args.verbose:
        obs.configure_logging("DEBUG" if args.verbose > 1 else "INFO")
    try:
        _check_outputs(args, "--chrome-trace")
    except ValueError as exc:
        return _fail(str(exc))

    from repro.obs.summary import sniff_kind

    manifest = None
    spans = None
    metrics = None
    for path in args.files:
        try:
            kind = sniff_kind(path)
            if kind == "manifest":
                manifest = obs.load_manifest(path)
            elif kind == "trace":
                spans = (spans or []) + obs.load_trace(path)
            else:
                metrics = {**(metrics or {}), **obs.load_metrics(path)}
        except (OSError, ValueError) as exc:
            return _fail(str(exc))
    print(obs.render_report(manifest=manifest, spans=spans, metrics=metrics))
    if args.chrome_trace is not None:
        if spans is None:
            return _fail("--chrome-trace needs a *.trace.jsonl input")
        trace_id = manifest.trace_id if manifest is not None else None
        trace_id = trace_id or next(
            (s.trace_id for s in spans if s.trace_id), None)
        obs.save_chrome_trace(spans, args.chrome_trace, trace_id=trace_id)
        print(f"wrote {args.chrome_trace}")
    return 0


def main_obs(argv: list[str]) -> int:
    """``python -m repro obs`` — summarise exported observability files."""
    if argv and argv[0] == "report":
        return main_obs_report(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro obs",
        description="Summarise exported traces, metric snapshots and "
                    "run manifests from their files alone ('obs report' "
                    "renders them together, with a Chrome trace export).",
    )
    parser.add_argument("files", nargs="+", type=pathlib.Path,
                        help="*.trace.jsonl, *.metrics.json or manifest.json")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v: INFO logs, -vv: DEBUG logs")
    args = parser.parse_args(argv)
    if args.verbose:
        obs.configure_logging("DEBUG" if args.verbose > 1 else "INFO")
    status = 0
    for path in args.files:
        print(f"==== {path} ====")
        try:
            print(obs.summarise_file(path))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}")
            status = 1
        print()
    return status


def main_train(argv: list[str]) -> int:
    """``python -m repro train`` — train a predictor once, save it to npz."""
    parser = argparse.ArgumentParser(
        prog="python -m repro train",
        description="Collect an IO500 interference sweep, train the "
                    "kernel predictor and save it as a portable "
                    "npz model file.",
    )
    parser.add_argument("--model-out", type=pathlib.Path, required=True,
                        metavar="MODEL.npz",
                        help="where to write the trained model")
    parser.add_argument("--fast", action="store_true",
                        help="shrink the sweep for a quick smoke pass")
    parser.add_argument("--multiclass", action="store_true",
                        help="train the 3-class (<2x, 2-5x, >=5x) model "
                             "instead of the binary one")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for simulation runs "
                             "(default: every CPU this process may use; "
                             "1 = in-process)")
    _add_cache_flags(parser)
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v: INFO logs, -vv: DEBUG logs")
    args = parser.parse_args(argv)
    if args.verbose:
        obs.configure_logging("DEBUG" if args.verbose > 1 else "INFO")
    if args.jobs is not None and args.jobs <= 0:
        return _fail(f"--jobs must be a positive integer, got {args.jobs}")

    try:
        _check_outputs(args, "--model-out")
        executor = _open_executor(args)
    except ValueError as exc:
        return _fail(str(exc))

    from repro.core.labeling import BINARY_THRESHOLDS, MULTICLASS_THRESHOLDS
    from repro.experiments.fig3 import collect_io500_bank, evaluate_bank

    thresholds = (MULTICLASS_THRESHOLDS if args.multiclass
                  else BINARY_THRESHOLDS)
    s = _scales(args.fast)
    start = time.time()
    bank = collect_io500_bank(_config(args.fast),
                              target_scale=s["target_scale"],
                              max_level=2 if args.fast else 3,
                              noise_scale=s["noise_scale"],
                              executor=executor)
    result = evaluate_bank(bank, "train-io500", thresholds, executor=executor)
    elapsed = time.time() - start
    result.predictor.save(args.model_out)
    print(result.render())
    stats = executor.training_stats()
    cache_note = "model cache: off"
    if stats["cache"] is not None:
        cache_note = (f"model cache: {stats['cache']['hits']} hit(s), "
                      f"{stats['cache']['misses']} miss(es)")
    print(f"\ntrained {stats['trainings_executed']} restart(s) "
          f"in {elapsed:.0f}s ({cache_note})")
    windows = executor.windows
    if windows is not None:
        # One parseable line: the CI warm-rebuild smoke greps it to prove
        # a second build reads one entry and simulates nothing.
        print(f"dataset: stored={windows.stores} hits={windows.hits} "
              f"misses={windows.misses} "
              f"runs_executed={executor.runs_executed}")
    print(f"wrote {args.model_out}")
    return 0


def main_predict(argv: list[str]) -> int:
    """``python -m repro predict`` — score a run with a saved model."""
    parser = argparse.ArgumentParser(
        prog="python -m repro predict",
        description="Load a model saved by 'repro train' and print "
                    "per-window interference severities for a persisted "
                    "run (--run DIR) or a freshly simulated demo run.",
    )
    parser.add_argument("--model", type=pathlib.Path, required=True,
                        metavar="MODEL.npz",
                        help="model file written by 'repro train'")
    parser.add_argument("--run", type=pathlib.Path, default=None,
                        metavar="DIR",
                        help="a run directory written by "
                             "repro.monitor.persist.save_run; omitted = "
                             "simulate a demo run")
    parser.add_argument("--window-size", type=float, default=0.25,
                        help="aggregation window seconds "
                             "(default: %(default)s)")
    parser.add_argument("--sample-interval", type=float, default=0.125,
                        help="server sampling interval seconds "
                             "(default: %(default)s)")
    parser.add_argument("--fast", action="store_true",
                        help="shrink the demo simulation")
    args = parser.parse_args(argv)
    if not 0 < args.window_size < math.inf:
        return _fail(f"--window-size must be positive and finite, got "
                     f"{args.window_size}")
    if not 0 < args.sample_interval < math.inf:
        return _fail(f"--sample-interval must be positive and finite, got "
                     f"{args.sample_interval}")

    from repro.core.predictor import InterferencePredictor

    try:
        predictor = InterferencePredictor.load(args.model)
    except (OSError, ValueError, KeyError) as exc:
        return _fail(f"cannot load model {args.model}: {exc}")

    if args.run is not None:
        from repro.monitor.persist import load_run

        try:
            run = load_run(args.run)
        except (OSError, ValueError, KeyError) as exc:
            return _fail(f"cannot load run {args.run}: {exc}")
    else:
        from repro.experiments.runner import InterferenceSpec, execute_run
        from repro.workloads.io500 import make_io500_task

        s = _scales(args.fast)
        target = make_io500_task("ior-easy-write", ranks=2,
                                 scale=s["target_scale"])
        noise = [InterferenceSpec("ior-easy-write", instances=2, ranks=2,
                                  scale=s["noise_scale"])]
        run = execute_run(target, noise, _config(args.fast),
                          seed_salt="predict-demo")
        print("(no --run given: scoring a simulated demo run of "
              "ior-easy-write under write noise)")

    severities = predictor.predict_run(run, args.window_size,
                                       args.sample_interval)
    names = (["<2x", ">=2x"] if predictor.n_classes == 2
             else ["<2x", "2-5x", ">=5x"])
    print(f"model: {args.model} ({predictor.n_classes} classes)")
    for window, severity in sorted(severities.items()):
        t0 = window * args.window_size
        print(f"  window {window:>4d} [{t0:7.2f}s, "
              f"{t0 + args.window_size:7.2f}s)  -> {names[severity]}")
    counts = {name: 0 for name in names}
    for severity in severities.values():
        counts[names[severity]] += 1
    summary = ", ".join(f"{name}: {count}"
                        for name, count in counts.items())
    print(f"{len(severities)} windows ({summary})")
    return 0


def main_serve(argv: list[str]) -> int:
    """``python -m repro serve`` — run the multi-tenant service soak."""
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run the resilient multi-tenant prediction service "
                    "against a simulated tenant population: micro-batched "
                    "fused inference, admission control, backpressure, "
                    "deadlines, per-tenant circuit breakers and an "
                    "optional deterministic chaos plan.",
    )
    parser.add_argument("--tenants", type=int, default=64, metavar="N",
                        help="concurrent tenant streams (default: %(default)s)")
    parser.add_argument("--windows", type=int, default=8, metavar="N",
                        help="windows per tenant stream "
                             "(default: %(default)s)")
    parser.add_argument("--model", type=pathlib.Path, default=None,
                        metavar="MODEL.npz",
                        help="serve a model saved by 'repro train'; omitted "
                             "= train a small synthetic model first")
    parser.add_argument("--chaos", metavar="SPEC", default=None,
                        help="deterministic tenant-chaos spec, e.g. "
                             "'flood=0.1,stall=0.05,disconnect=0.05,"
                             "reorder=0.1,dup=0.1,slow=0.02,seed=3' (see "
                             "repro.faults.SERVICE_FAULT_SPEC_FIELDS)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the tenants' synthetic window "
                             "streams (default: %(default)s)")
    parser.add_argument("--think", type=float, default=0.0,
                        metavar="SECONDS",
                        help="nominal seconds between one tenant's windows "
                             "(default: 0 = submit as fast as served)")
    parser.add_argument("--max-tenants", type=int, default=1024,
                        help="admission cap (default: %(default)s)")
    parser.add_argument("--queue-depth", type=int, default=8,
                        help="per-tenant ingest queue bound "
                             "(default: %(default)s)")
    parser.add_argument("--max-batch", type=int, default=256,
                        help="largest fused micro-batch "
                             "(default: %(default)s)")
    parser.add_argument("--deadline", type=float, default=1.0,
                        metavar="SECONDS",
                        help="per-request deadline before degradation "
                             "(default: %(default)s)")
    parser.add_argument("--report-out", type=pathlib.Path, default=None,
                        metavar="REPORT.json",
                        help="write the soak report as JSON here")
    parser.add_argument("--metrics-out", type=pathlib.Path, default=None,
                        help="write the final metrics-registry snapshot "
                             "to this JSON file")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v: INFO logs, -vv: DEBUG logs")
    args = parser.parse_args(argv)
    if args.verbose:
        obs.configure_logging("DEBUG" if args.verbose > 1 else "INFO")
    if args.tenants <= 0:
        return _fail(f"--tenants must be a positive integer, "
                     f"got {args.tenants}")
    if args.windows <= 0:
        return _fail(f"--windows must be a positive integer, "
                     f"got {args.windows}")
    if not 0 <= args.think < math.inf:
        return _fail(f"--think must be finite and >= 0, got {args.think}")
    plan = None
    if args.chaos:
        from repro.faults import parse_service_fault_spec

        try:
            plan = parse_service_fault_spec(args.chaos)
        except ValueError as exc:
            return _fail(f"bad --chaos spec: {exc}")
    from repro.serve import ServeConfig, run_soak

    try:
        config = ServeConfig(max_tenants=args.max_tenants,
                             queue_depth=args.queue_depth,
                             max_batch=args.max_batch,
                             deadline=args.deadline)
        _check_outputs(args, "--report-out", "--metrics-out")
    except ValueError as exc:
        return _fail(str(exc))

    from repro.core.predictor import InterferencePredictor

    if args.model is not None:
        try:
            predictor = InterferencePredictor.load(args.model)
        except (OSError, ValueError, KeyError) as exc:
            return _fail(f"cannot load model {args.model}: {exc}")
    else:
        from repro.bench import bench_train_dataset
        from repro.core.nn.train import TrainConfig

        print("(no --model given: training a small synthetic model)")
        predictor = InterferencePredictor.train(
            bench_train_dataset(),
            config=TrainConfig(epochs=10, patience=5, seed=0), restarts=1)

    report = run_soak(predictor.deploy(), n_tenants=args.tenants,
                      n_windows=args.windows, config=config, plan=plan,
                      seed=args.seed, think=args.think)
    doc = report.to_dict()
    terminal = report.terminal_counts
    print(f"soak: {args.tenants} tenant(s) x {args.windows} window(s)"
          + (f" under chaos plan {plan.digest()}" if plan else " (no chaos)"))
    print(f"  terminal: " + ", ".join(
        f"{state}={terminal[state]}" for state in sorted(terminal)))
    print(f"  resolved {doc['windows_resolved']} windows at "
          f"{doc['windows_per_second']:,.0f}/s "
          f"(p50 {1e3 * doc['latency_p50_seconds']:.2f}ms, "
          f"p99 {1e3 * doc['latency_p99_seconds']:.2f}ms)")
    from repro.obs.report import service_health

    for line in service_health(obs.REGISTRY.snapshot()):
        print(f"  {line}")
    if args.report_out is not None:
        import json

        args.report_out.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {args.report_out}")
    if args.metrics_out:
        obs.save_metrics(obs.REGISTRY, args.metrics_out)
        print(f"wrote metrics snapshot to {args.metrics_out}")
    if report.errors:
        print(f"ERROR: {len(report.errors)} tenant(s) hit unhandled "
              f"exceptions", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "obs":
        return main_obs(argv[1:])
    if argv and argv[0] == "train":
        return main_train(argv[1:])
    if argv and argv[0] == "predict":
        return main_predict(argv[1:])
    if argv and argv[0] == "serve":
        return main_serve(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiment", metavar="experiment",
                        help="one of: list, all, "
                             + ", ".join((*EXPERIMENTS, *EXTENSIONS)))
    parser.add_argument("--fast", action="store_true",
                        help="shrink workloads for a quick smoke pass")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="also write one text file per experiment here")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for simulation runs "
                             "(default: every CPU this process may use; "
                             "1 = in-process)")
    _add_cache_flags(parser)
    parser.add_argument("--faults", metavar="SPEC", default=None,
                        help="deterministic worker/simulation fault spec, "
                             "e.g. 'abort=0.1,kill=0.05,seed=1' (keys: "
                             "abort, abort_after, kill, flaky, stall, "
                             "stall_s, seed)")
    parser.add_argument("--run-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="watchdog: kill and retry any single "
                             "simulation run exceeding this wall time")
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="retries per failed/timed-out simulation run "
                             "before it is quarantined (default: 0)")
    parser.add_argument("--trace", type=pathlib.Path, default=None,
                        help="record a span trace of all simulated I/O "
                             "to this JSONL file")
    parser.add_argument("--metrics-out", type=pathlib.Path, default=None,
                        help="write the final metrics-registry snapshot "
                             "to this JSON file")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v: INFO logs, -vv: DEBUG logs")
    args = parser.parse_args(argv)

    if args.verbose:
        obs.configure_logging("DEBUG" if args.verbose > 1 else "INFO")

    known = ("list", "all", *EXPERIMENTS, *EXTENSIONS)
    if args.experiment not in known:
        return _fail(f"unknown experiment {args.experiment!r} "
                     f"(choose from: {', '.join(known)})")
    if args.jobs is not None and args.jobs <= 0:
        return _fail(f"--jobs must be a positive integer, got {args.jobs}")
    if args.run_timeout is not None and not 0 < args.run_timeout < math.inf:
        return _fail(f"--run-timeout must be positive and finite, "
                     f"got {args.run_timeout}")
    if args.retries < 0:
        return _fail(f"--retries must be >= 0, got {args.retries}")
    fault_plan = None
    if args.faults:
        from repro.faults import parse_fault_spec

        try:
            fault_plan = parse_fault_spec(args.faults)
        except ValueError as exc:
            return _fail(f"bad --faults spec: {exc}")
        if fault_plan.has_telemetry_faults:
            return _fail("bad --faults spec: sweeps apply only abort, kill, "
                         "flaky and stall faults; telemetry faults (drop, "
                         "delay, delay_max, dup, skew, blank) are not "
                         "applied (the robustness experiment sweeps its "
                         "own drop/blank grid)")

    if args.experiment == "list":
        for name in (*EXPERIMENTS, *EXTENSIONS):
            print(name)
        return 0

    def open_executor():
        return _open_executor(args, run_timeout=args.run_timeout,
                              retries=args.retries, fault_plan=fault_plan)

    try:
        _check_outputs(args, "--out", "--trace", "--metrics-out")
        executor = open_executor()
    except ValueError as exc:
        return _fail(str(exc))

    tracer = None
    if args.trace:
        # Deterministic trace id: a digest of what is being run, never
        # wall-clock or pid derived, so same-command traces share an id.
        import hashlib

        material = (f"{args.experiment}:{_config(args.fast).seed}:"
                    f"{int(args.fast)}")
        trace_id = hashlib.sha256(material.encode()).hexdigest()[:16]
        tracer = obs.install_tracer(obs.Tracer(trace_id=trace_id))
    names = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    manifest_dir = args.out if args.out else pathlib.Path("results")
    quarantined: dict[str, dict] = {}
    try:
        for index, name in enumerate(names):
            from repro.obs import profile as _profile

            if index:
                # One executor per experiment, so each manifest counts
                # that experiment's own work; runs, windows and models
                # still pass between experiments through the caches.
                executor = open_executor()

            profiler = _profile.install(tracer=tracer)
            start = time.time()
            print(f"==== {name} ====")
            try:
                text = _RUNNERS[name](args.fast, executor)
            finally:
                _profile.uninstall()
            elapsed = time.time() - start
            print(text)
            print(f"({elapsed:.0f}s)\n")
            if args.verbose:
                print(profiler.render())
                print()
            if args.out:
                (args.out / f"{name}.txt").write_text(text + "\n")
            manifest = obs.build_manifest(
                name=name,
                seed=_config(args.fast).seed,
                config={"fast": args.fast,
                        **obs.config_to_dict(_config(args.fast))},
                timings={"run": elapsed},
                extra={"scales": _scales(args.fast),
                       "sweep": executor.stats(),
                       "training": executor.training_stats(),
                       "dataset": (executor.windows.stats()
                                   if executor.windows is not None else None),
                       "profile": profiler.summary()},
            )
            obs.write_manifest(manifest,
                               manifest_dir / f"{name}.manifest.json")
            if name in _REPORTS:
                import json

                report_path = manifest_dir / f"{name}.report.json"
                report_path.parent.mkdir(parents=True, exist_ok=True)
                report_path.write_text(
                    json.dumps(_REPORTS.pop(name), indent=2) + "\n")
                print(f"wrote {report_path}")
            quarantined.update(executor.quarantined)
        if quarantined:
            print(f"WARNING: {len(quarantined)} run(s) quarantined; "
                  "see the manifest's sweep.faults section")
    finally:
        if tracer is not None:
            obs.uninstall_tracer()
    if tracer is not None:
        obs.save_trace(tracer, args.trace)
        print(f"wrote {len(tracer.spans)} spans to {args.trace}")
    if args.metrics_out:
        obs.save_metrics(obs.REGISTRY, args.metrics_out)
        print(f"wrote metrics snapshot to {args.metrics_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
