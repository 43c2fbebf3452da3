"""Tests for the command-line entry point (parsing-level)."""

import os

import pytest

from repro.__main__ import EXPERIMENTS, _RUNNERS, main


def test_every_experiment_has_a_runner():
    from repro.__main__ import EXTENSIONS

    assert set(EXPERIMENTS) | set(EXTENSIONS) == set(_RUNNERS)


def test_list_command(capsys):
    from repro.__main__ import EXTENSIONS

    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert out == list(EXPERIMENTS) + list(EXTENSIONS)


def test_unknown_experiment_rejected(capsys):
    """Unknown names get a one-line error and exit code 2, no traceback."""
    assert main(["figure9000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "figure9000" in err


def test_bad_jobs_rejected(capsys):
    assert main(["table2", "--jobs", "0"]) == 2
    assert main(["table2", "--jobs", "-4"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_run_timeout_and_retries_rejected(capsys):
    assert main(["table2", "--run-timeout", "0"]) == 2
    assert main(["table2", "--retries", "-1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_fault_spec_rejected(capsys):
    assert main(["table2", "--faults", "drop=oops"]) == 2
    assert main(["table2", "--faults", "nosuchkey=1"]) == 2
    err = capsys.readouterr().err
    assert "error: bad --faults spec" in err


@pytest.mark.parametrize("spec", ["drop=0.5", "delay=0.3", "delay_max=2",
                                  "dup=0.1", "skew=0.5", "blank=0.9",
                                  "kill=0.1,drop=0.9,blank=0.9,seed=1"])
def test_telemetry_fault_spec_refused(capsys, spec):
    """Sweeps apply only abort/kill/flaky/stall, so a telemetry fault
    would be silently ignored (the tables come out clean); it is
    refused with one error line, before any run."""
    assert main(["table2", "--fast", "--no-cache", "--faults", spec]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: bad --faults spec: ")
    assert captured.err.count("\n") == 1
    assert "telemetry faults" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("spec", ["kill=1", "abort=1,abort_after=2"])
def test_sim_and_worker_fault_specs_still_run(tmp_path, capsys, spec):
    """Worker and simulation faults reach fig1's runs: a killed run is
    quarantined and its condition skipped, an aborted one still plots."""
    assert main(["fig1", "--fast", "--no-cache", "--no-dataset-cache",
                 "--no-model-cache", "--out", str(tmp_path),
                 "--faults", spec]) == 0
    out = capsys.readouterr().out
    if spec.startswith("kill"):
        assert "every pair was quarantined" in out
        assert "run(s) quarantined" in out
    else:
        assert "o=ior-easy-write-x1  x=baseline" in out


@pytest.mark.parametrize("command", ["table1", "table2"])
def test_tables_survive_quarantined_runs(tmp_path, capsys, command):
    """Every run killed: table1 prints a NaN in each lost cell, table2
    one line saying its run was quarantined, and both exit 0 with the
    quarantine warning instead of a traceback."""
    assert main([command, "--fast", "--no-cache", "--no-dataset-cache",
                 "--no-model-cache", "--out", str(tmp_path),
                 "--faults", "kill=1.0,seed=1"]) == 0
    out = capsys.readouterr().out
    text = (tmp_path / f"{command}.txt").read_text()
    if command == "table1":
        assert text.count("nan") == 7 * 7
        assert "WARNING: 56 run(s) quarantined" in out
    else:
        assert text == "(no metrics collected: the run was quarantined)\n"
        assert "WARNING: 1 run(s) quarantined" in out


@pytest.mark.parametrize("flag", ["--cache-dir", "--dataset-dir",
                                  "--model-cache-dir"],
                         ids=lambda flag: flag[2:])
@pytest.mark.parametrize("command", ["table2", "train"])
def test_unwritable_cache_dir_rejected(tmp_path, capsys, command, flag):
    """A cache dir that cannot be created (here: below a regular file)
    fails with one ``error:`` line and exit 2, not a traceback."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    dirs = {"--cache-dir": tmp_path / "runs",
            "--dataset-dir": tmp_path / "windows",
            "--model-cache-dir": tmp_path / "models",
            flag: blocker / "sub"}
    argv = [command, "--fast",
            *(arg for item in dirs.items() for arg in map(str, item))]
    if command == "train":
        argv += ["--model-out", str(tmp_path / "m.npz")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} {blocker / 'sub'} is not writable")
    assert err.count("\n") == 1


def _trace_file(path):
    """A one-span trace file, enough input for ``obs report``."""
    from repro.obs.export import save_trace
    from repro.obs.trace import Tracer

    tracer = Tracer(trace_id="t")
    tracer.finish(tracer.start("client.write", 0.0), 1.0)
    return save_trace(tracer, path)


_NO_CACHES = ["--no-cache", "--no-dataset-cache", "--no-model-cache"]


@pytest.mark.parametrize("argv, flag", [
    (["table2", "--fast", *_NO_CACHES, "--out"], "--out"),
    (["table2", "--fast", *_NO_CACHES, "--trace"], "--trace"),
    (["table2", "--fast", *_NO_CACHES, "--metrics-out"], "--metrics-out"),
    (["train", "--fast", *_NO_CACHES, "--model-out"], "--model-out"),
    (["serve", "--tenants", "2", "--windows", "2", "--report-out"],
     "--report-out"),
    (["serve", "--tenants", "2", "--windows", "2", "--metrics-out"],
     "--metrics-out"),
    (["obs", "report", "TRACE", "--chrome-trace"], "--chrome-trace"),
], ids=lambda value: value if isinstance(value, str) else value[0])
def test_unwritable_output_rejected_before_any_work(tmp_path, capsys, argv,
                                                    flag):
    """An output path below a regular file used to fail only after the
    work was done (or, for ``--out``, as a traceback); it is one
    ``error:`` line naming the flag, exit 2, before anything runs."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    target = blocker / "x"
    argv = [str(_trace_file(tmp_path / "t.trace.jsonl")) if arg == "TRACE"
            else arg for arg in argv]
    assert main([*argv, str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} {target} is not writable")
    assert captured.err.count("\n") == 1


def test_output_path_that_is_a_directory_rejected(tmp_path, capsys):
    assert main(["serve", "--report-out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --report-out {tmp_path} is not "
                                   f"writable")


def test_table2_fast_runs_end_to_end(tmp_path, capsys):
    """The cheapest experiment actually runs through the CLI."""
    cache_dir = tmp_path / "cache"
    assert main(["table2", "--fast", "--out", str(tmp_path),
                 "--cache-dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "table2" in out
    assert "sectors_read" in out
    assert (tmp_path / "table2.txt").exists()
    assert (tmp_path / "table2.manifest.json").exists()
    assert any(cache_dir.iterdir())  # the run landed in the cache


def test_cli_warm_cache_recorded_in_manifest(tmp_path, capsys):
    """Second identical invocation replays from cache; the manifest's
    sweep stats prove zero simulations ran."""
    from repro.obs.manifest import load_manifest

    cache = ["--cache-dir", str(tmp_path / "cache")]
    assert main(["table2", "--fast", "--out", str(tmp_path / "a"), *cache]) == 0
    assert main(["table2", "--fast", "--out", str(tmp_path / "b"), *cache]) == 0
    capsys.readouterr()
    cold = load_manifest(tmp_path / "a" / "table2.manifest.json")
    warm = load_manifest(tmp_path / "b" / "table2.manifest.json")
    assert cold.extra["sweep"]["runs_executed"] == 1
    assert cold.extra["sweep"]["cache"]["stores"] == 1
    assert warm.extra["sweep"]["runs_executed"] == 0
    assert warm.extra["sweep"]["cache"]["hits"] == 1
    # The default slot count, resolved: every CPU this process may use.
    assert warm.extra["sweep"]["n_jobs"] == len(os.sched_getaffinity(0))


def test_all_manifests_count_each_experiments_own_work(tmp_path, capsys,
                                                       monkeypatch):
    """Under ``all`` each manifest's sweep and training counters are its
    experiment's own, not running totals; the metric snapshot stays
    process-cumulative."""
    from repro.obs.manifest import load_manifest

    monkeypatch.setattr("repro.__main__.EXPERIMENTS", ("fig1", "table2"))
    assert main(["all", "--fast", "--no-cache", "--no-dataset-cache",
                 "--no-model-cache", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    fig1 = load_manifest(tmp_path / "fig1.manifest.json")
    table2 = load_manifest(tmp_path / "table2.manifest.json")
    assert fig1.extra["sweep"]["runs_executed"] == 5
    assert fig1.extra["sweep"]["runs_deduplicated"] == 3
    assert table2.extra["sweep"]["runs_executed"] == 1
    assert table2.extra["sweep"]["runs_deduplicated"] == 0
    for manifest in (fig1, table2):
        assert manifest.extra["training"]["trainings_executed"] == 0
        assert manifest.extra["training"]["jobs_deduplicated"] == 0
    executed = [manifest.metrics["parallel.runs_executed"]["value"]
                for manifest in (fig1, table2)]
    assert executed[1] - executed[0] == 1


def test_observability_flags_and_obs_summary(tmp_path, capsys):
    """--trace/--metrics-out write artefacts that `repro obs` can render
    from the files alone."""
    from repro.obs.manifest import load_manifest

    trace_path = tmp_path / "run.trace.jsonl"
    metrics_path = tmp_path / "run.metrics.json"
    # --no-cache: a cache hit would replay the run without simulating,
    # and an unsimulated run emits no spans to trace.
    assert main(["table2", "--fast", "--out", str(tmp_path), "--no-cache",
                 "--trace", str(trace_path),
                 "--metrics-out", str(metrics_path)]) == 0
    capsys.readouterr()
    assert trace_path.exists()
    assert metrics_path.exists()

    manifest = load_manifest(tmp_path / "table2.manifest.json")
    assert manifest.name == "table2"
    assert manifest.seed == 0
    assert manifest.config["fast"] is True
    assert "run" in manifest.timings
    assert manifest.metrics  # metric snapshot travels in the manifest

    assert main(["obs", str(trace_path), str(metrics_path),
                 str(tmp_path / "table2.manifest.json")]) == 0
    out = capsys.readouterr().out
    assert "client.write" in out        # span summary table
    assert "monitor.server_samples" in out  # metric table
    assert "table2" in out              # manifest rendering


def test_obs_report_renders_and_exports_chrome_trace(tmp_path, capsys):
    """`obs report` merges all artefacts of one traced run and writes a
    loadable Chrome trace-event JSON."""
    import json

    trace_path = tmp_path / "run.trace.jsonl"
    metrics_path = tmp_path / "run.metrics.json"
    assert main(["table2", "--fast", "--out", str(tmp_path), "--no-cache",
                 "--trace", str(trace_path),
                 "--metrics-out", str(metrics_path)]) == 0
    capsys.readouterr()

    chrome = tmp_path / "trace.chrome.json"
    assert main(["obs", "report", str(trace_path), str(metrics_path),
                 str(tmp_path / "table2.manifest.json"),
                 "--chrome-trace", str(chrome)]) == 0
    out = capsys.readouterr().out
    assert "table2" in out
    assert "trace id:" in out               # manifest ties to the trace
    assert "-- wall-clock phases --" in out  # profiler summary travelled
    assert "critical path:" in out
    assert "-- simulated-time spans --" in out
    assert "-- metrics --" in out
    assert f"wrote {chrome}" in out

    doc = json.loads(chrome.read_text())
    events = doc["traceEvents"]
    assert any(e["ph"] == "X" for e in events)
    assert any(e["ph"] == "M" and e["args"]["name"] == "simulated time"
               for e in events)
    assert doc["otherData"]["trace_id"]


def test_obs_report_chrome_trace_requires_spans(tmp_path, capsys):
    from repro.obs.export import save_metrics
    from repro.obs.metrics import MetricsRegistry

    metrics_path = save_metrics(MetricsRegistry(),
                                tmp_path / "m.metrics.json")
    assert main(["obs", "report", str(metrics_path),
                 "--chrome-trace", str(tmp_path / "o.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_obs_verbose_flag_configures_logging_once(tmp_path, capsys):
    """`-v` on repeated obs invocations must not stack log handlers."""
    import logging

    from repro.obs.export import save_metrics
    from repro.obs.metrics import MetricsRegistry

    metrics_path = save_metrics(MetricsRegistry(),
                                tmp_path / "m.metrics.json")
    root = logging.getLogger("repro")
    try:
        assert main(["obs", "-v", str(metrics_path)]) == 0
        assert main(["obs", "report", "-v", str(metrics_path)]) == 0
        ours = [h for h in root.handlers
                if getattr(h, "_repro_obs_handler", False)]
        assert len(ours) == 1
    finally:
        for handler in list(root.handlers):
            if getattr(handler, "_repro_obs_handler", False):
                root.removeHandler(handler)
        root.setLevel(logging.NOTSET)


def test_obs_subcommand_reports_bad_files(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text("{}")
    assert main(["obs", str(bogus)]) == 1
    assert "error:" in capsys.readouterr().out


def test_sim_backend_flag_runs_batch_and_is_recorded(tmp_path, capsys,
                                                     monkeypatch):
    """The batch request path is the only one: a plain run takes it, and
    the manifest's cluster config records no backend (nor does the
    run-cache key).  Selecting it by the old flag is an error, not a
    silently ignored argument."""
    from repro.obs.manifest import load_manifest
    from repro.sim.batch import _DataOpDriver

    with pytest.raises(SystemExit) as exc:
        main(["table2", "--sim-backend", "batch"])
    assert exc.value.code == 2
    assert ("unrecognized arguments: --sim-backend batch"
            in capsys.readouterr().err)

    begun = []
    begin = _DataOpDriver.begin
    monkeypatch.setattr(_DataOpDriver, "begin",
                        lambda self: (begun.append(self), begin(self))[1])
    assert main(["table2", "--fast", "--out", str(tmp_path),
                 "--no-cache"]) == 0
    assert "sectors_read" in capsys.readouterr().out
    assert begun
    manifest = load_manifest(tmp_path / "table2.manifest.json")
    assert "sim_backend" not in manifest.config["cluster"]


def test_bad_sim_backend_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table2", "--sim-backend", "vectorised"])
    assert exc.value.code == 2


def test_bench_subcommand_dispatches(capsys):
    """``repro bench`` is gone: the pipeline benchmark
    (``benchmarks/pipeline``) is the one performance record, so the name
    is an unknown experiment like any other."""
    assert main(["bench"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown experiment 'bench'")
    assert err.count("\n") == 1


def test_train_requires_model_out():
    with pytest.raises(SystemExit):
        main(["train"])


def test_train_bad_jobs_rejected(tmp_path, capsys):
    assert main(["train", "--model-out", str(tmp_path / "m.npz"),
                 "--jobs", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_predict_requires_model():
    with pytest.raises(SystemExit):
        main(["predict"])


def test_predict_rejects_bad_model_and_run(tmp_path, capsys):
    bogus = tmp_path / "bogus.npz"
    bogus.write_bytes(b"not a model")
    assert main(["predict", "--model", str(bogus)]) == 2
    assert "cannot load model" in capsys.readouterr().err
    assert main(["predict", "--model", str(tmp_path / "missing.npz")]) == 2
    assert "cannot load model" in capsys.readouterr().err


def test_predict_bad_window_args_rejected(tmp_path, capsys):
    assert main(["predict", "--model", str(tmp_path / "m.npz"),
                 "--window-size", "0"]) == 2
    assert main(["predict", "--model", str(tmp_path / "m.npz"),
                 "--sample-interval", "-1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_train_then_predict_end_to_end(tmp_path, capsys):
    """The tentpole's CLI story: train once (model cached and saved to
    npz), rerun warm (zero trainings, identical model file), then score
    a run with the saved model in a fresh process-level entry point."""
    import numpy as np

    model_a = tmp_path / "a.npz"
    model_b = tmp_path / "b.npz"
    common = ["--fast", "--cache-dir", str(tmp_path / "runs"),
              "--dataset-dir", str(tmp_path / "windows"),
              "--model-cache-dir", str(tmp_path / "models")]
    assert main(["train", "--model-out", str(model_a), *common]) == 0
    cold_out = capsys.readouterr().out
    assert "wrote" in cold_out
    assert model_a.exists()

    assert main(["train", "--model-out", str(model_b), *common]) == 0
    warm_out = capsys.readouterr().out
    assert "trained 0 restart(s)" in warm_out  # pure cache recall
    # Nothing simulated or labelled: one read of the sweep's window entry.
    assert "dataset: stored=0 hits=1 misses=0 runs_executed=0" in warm_out
    with np.load(model_a) as a, np.load(model_b) as b:
        assert a.files == b.files
        assert all(np.array_equal(a[k], b[k]) for k in a.files)

    assert main(["predict", "--model", str(model_a), "--fast"]) == 0
    out = capsys.readouterr().out
    assert "window" in out
    assert "2 classes" in out


# -- serve --------------------------------------------------------------------


def test_serve_bad_args_rejected(capsys):
    assert main(["serve", "--tenants", "0"]) == 2
    assert main(["serve", "--windows", "-1"]) == 2
    assert main(["serve", "--think", "-0.5"]) == 2
    assert main(["serve", "--queue-depth", "0"]) == 2  # ServeConfig check
    assert "error:" in capsys.readouterr().err


def test_serve_bad_chaos_spec_rejected(capsys):
    assert main(["serve", "--chaos", "floods=0.2"]) == 2
    assert "bad --chaos spec" in capsys.readouterr().err
    assert main(["serve", "--chaos", "flood=lots"]) == 2
    assert "not a number" in capsys.readouterr().err


def test_serve_rejects_bad_model(tmp_path, capsys):
    missing = tmp_path / "missing.npz"
    assert main(["serve", "--model", str(missing), "--tenants", "2"]) == 2
    assert "cannot load model" in capsys.readouterr().err


def test_serve_end_to_end_with_saved_model(tmp_path, capsys):
    """A saved model served to a small chaotic tenant population through
    the real CLI: clean exit, accounted report, obs section, artifacts."""
    import json

    import numpy as np

    from repro.core.dataset import Dataset
    from repro.core.labeling import BINARY_THRESHOLDS
    from repro.core.nn.train import TrainConfig
    from repro.core.predictor import InterferencePredictor

    rng = np.random.default_rng(0)
    X = rng.normal(0, 0.5, size=(80, 3, 5))
    y = (X[:, :, 0].sum(axis=1) > 0).astype(int)
    ds = Dataset(X, y, feature_names=("a", "b", "c", "d", "e"))
    model = tmp_path / "model.npz"
    InterferencePredictor.train(
        ds, BINARY_THRESHOLDS, config=TrainConfig(epochs=4, seed=0),
        restarts=1).save(model)

    report = tmp_path / "soak.json"
    metrics = tmp_path / "metrics.json"
    assert main(["serve", "--model", str(model), "--tenants", "6",
                 "--windows", "4",
                 "--chaos", "flood=0.3,dup=0.3,reorder=0.3,seed=1",
                 "--report-out", str(report),
                 "--metrics-out", str(metrics)]) == 0
    out = capsys.readouterr().out
    assert "terminal:" in out
    assert "ladder:" in out
    assert "wrote" in out
    doc = json.loads(report.read_text())
    assert doc["errors"] == []
    assert doc["n_tenants"] == 6
    assert sum(doc["terminal"].values()) == 6
    assert metrics.exists()


def test_shards_zero_rejected(capsys):
    """Runs are never split across processes: the old flag is an
    unknown argument, not a silently ignored one."""
    with pytest.raises(SystemExit) as exc:
        main(["table2", "--shards", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --shards 0" in capsys.readouterr().err


def test_window_policy_requires_shards(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table2", "--window-policy", "fixed"])
    assert exc.value.code == 2
    assert ("unrecognized arguments: --window-policy fixed"
            in capsys.readouterr().err)


def test_non_finite_fault_value_rejected(capsys):
    """An infinite abort time would never abort and never return; a seed
    beyond the float range used to escape as OverflowError."""
    assert main(["table2", "--faults", "abort=1,abort_after=inf"]) == 2
    err = capsys.readouterr().err
    assert "bad --faults spec" in err
    assert "run_abort_after must be finite" in err
    assert main(["table2", "--faults", "seed=1" + "0" * 400]) == 2
    assert "bad --faults spec: seed must be finite" in \
        capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    # inf overflowed the watchdog's wait; nan made the sweep busy-poll.
    ["table2", "--run-timeout", "inf"],
    ["table2", "--run-timeout", "nan"],
    # A nan deadline never expires; an infinite think time hangs.
    ["serve", "--deadline", "nan"],
    ["serve", "--deadline", "inf"],
    ["serve", "--think", "inf"],
    ["serve", "--think", "nan"],
    # nan raised a traceback; inf scored one window labelled [nans, nans).
    ["predict", "--model", "m.npz", "--window-size", "nan"],
    ["predict", "--model", "m.npz", "--window-size", "inf"],
    ["predict", "--model", "m.npz", "--sample-interval", "nan"],
    ["predict", "--model", "m.npz", "--sample-interval", "inf"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}")
def test_non_finite_flag_rejected(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "finite" in err


def test_serve_non_finite_chaos_value_rejected(capsys):
    assert main(["serve", "--chaos", "slow_s=nan"]) == 2
    err = capsys.readouterr().err
    assert "bad --chaos spec" in err
    assert "slow_batch_seconds must be finite" in err
    assert main(["serve", "--chaos", "seed=1" + "0" * 400]) == 2
    assert "bad --chaos spec: seed must be finite" in \
        capsys.readouterr().err
