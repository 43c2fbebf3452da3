"""What one benchmark pass sets up, runs and checks.

``run.py`` starts every pass as a fresh interpreter running this file, so
each one is cold: no run, model or dataset cache, the default event
backend and ``n_jobs=1``.  The pass prints one JSON record (timings,
counts, checks) as its last line of output.

Layers are measured from outside: stage spans are taken around public
calls (``collect_windows``, ``bank_to_dataset``,
``InterferencePredictor.train``, ``DeployedPredictor.predict``), counts
are deltas of the process-wide metrics registry, and traced passes fold
a cProfile run by module (``layers.py``) or wrap the service's forward
call.
"""

from __future__ import annotations

import asyncio
import cProfile
import hashlib
import json
import pathlib
import pstats
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import repro
from repro.common.rng import derive_rng
from repro.core.dataset import Dataset, Normalizer, train_test_split
from repro.core.metrics import evaluate
from repro.core.nn.kernelnet import KernelInterferenceNet
from repro.core.nn.train import TrainConfig
from repro.core.predictor import InterferencePredictor
from repro.experiments import datagen
from repro.experiments.datagen import (
    bank_to_dataset,
    collect_windows,
    standard_scenarios,
)
from repro.experiments.runner import ExperimentConfig
from repro.monitor.schema import VECTOR_FEATURES
from repro.obs.metrics import REGISTRY
from repro.serve.service import PredictionService, ServeConfig
from repro.serve.tenants import tenant_windows
from repro.workloads.io500 import IO500_TASKS, make_io500_task

import layers
import openloop

#: Digests the outputs must reproduce (see README.md).
PINS = json.loads((pathlib.Path(__file__).parent / "pins.json").read_text())

#: Macro-F1 the paper claims for binary prediction (F1 > 0.9).
F1_CLAIM = 0.9

#: Seed of the 80/20 split and of training, fixed as the paper-figure
#: pipeline fixes it (``repro.experiments.fig3.evaluate_bank``): ``--seed``
#: makes the inputs, not the model's initialisation.
MODEL_SEED = 0

#: train-synth trains exactly this many epochs per restart (patience is
#: never reached), so the work of a run does not follow the seed: with
#: early stopping the epoch count moved 90-102 over ten seeds.
SYNTH_EPOCHS = 32

N_SERVERS = 7  #: servers of the experiment cluster (the model's input rows)

#: serve-open: 1 000 tenants, one window each per 0.25 s monitoring
#: window, so 4 000 windows/s offered.
SERVE_TENANTS = 1000
SERVE_RATE = 4000.0
#: Distinct vectors per tenant stream; windows cycle through them.
SERVE_STREAM = 8
#: Every this many requests one fresh answer is re-scored alone.
SERVE_CHECK_EVERY = 97


class Stages:
    """Wall seconds of named stages, taken around public calls."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = time.perf_counter() - t0


def params_digest(predictor: InterferencePredictor) -> str:
    h = hashlib.blake2b(digest_size=16)
    for param in predictor.model.params():
        h.update(np.ascontiguousarray(param.value).tobytes())
    return h.hexdigest()


def synthetic_dataset(seed: int, n: int, stream: str) -> Dataset:
    """Windows shaped like the real ones (7 servers x 40 features) with a
    learnable label, generated like ``repro.bench.bench_train_dataset``."""
    rng = derive_rng(seed, stream)
    X = rng.normal(size=(n, N_SERVERS, len(VECTOR_FEATURES)))
    y = (X[:, :, :3].mean(axis=(1, 2))
         + 0.3 * rng.normal(size=n) > 0).astype(int)
    X[y == 1, :, :3] += 0.5
    return Dataset(X, y)


def registry_values(*names: str) -> dict[str, float]:
    return {name: REGISTRY.counter(name).value for name in names}


def fold_record(profiler: cProfile.Profile) -> dict:
    """A finished profile folded into the repository's layers."""
    fold = layers.fold(pstats.Stats(profiler).stats,
                       pathlib.Path(repro.__file__).parent)
    return {"total_s": fold.total_s, "self_s": fold.self_s,
            "coverage": fold.coverage, "counts": fold.counts,
            "cumulative_s": fold.cumulative_s}


def train_and_predict(train: Dataset, test: Dataset,
                      config: TrainConfig | None, stages: Stages):
    """Train (3 restarts), then score the held-out windows through the
    deployed fused predictor."""
    with stages("train"):
        predictor = InterferencePredictor.train(train, config=config,
                                                seed=MODEL_SEED)
    with stages("predict"):
        deployed = predictor.deploy()
        preds = deployed.predict(test.X)
    return predictor, preds


def model_checks(workload: str, pinned: bool, predictor, test: Dataset,
                 preds: np.ndarray) -> tuple[float, dict[str, bool]]:
    """The paper's F1 claim, fused-vs-unfused agreement and, when the
    inputs are the pinned ones, the trained parameters' digest."""
    f1 = evaluate(test.y, preds, n_classes=predictor.n_classes).macro_f1
    checks = {
        "f1_claim": f1 >= F1_CLAIM,
        "deployed_matches_unfused": bool(
            np.array_equal(preds, predictor.predict(test.X))),
    }
    if pinned:
        checks["params_digest"] = (params_digest(predictor)
                                   == PINS[workload]["params_digest"])
    return f1, checks


@dataclass(frozen=True)
class Grid:
    """Seven IO500 targets under one family of IO500 noise."""

    name: str
    target_scale: float
    noise_tasks: tuple[str, ...]
    max_level: int
    noise_ranks: int

    def setup(self, seed: int):
        config = ExperimentConfig(window_size=0.25, sample_interval=0.125,
                                  warmup=1.0, seed=seed)
        targets = [make_io500_task(task, ranks=4, scale=self.target_scale)
                   for task in IO500_TASKS]
        scenarios = standard_scenarios(max_level=self.max_level,
                                       tasks=self.noise_tasks,
                                       ranks=self.noise_ranks, scale=0.25)
        return targets, scenarios, config

    def run(self, state, seed: int, mode: str, hold_s: float) -> dict:
        targets, scenarios, config = state
        stages = Stages()
        before = registry_values("datagen.pairs_skipped", "train.epochs",
                                 "monitor.server_samples")
        profiler = cProfile.Profile() if mode == "traced" else None
        labelled = [0, 0]  # windows assembled, windows kept
        select = datagen.select_labelled
        if profiler is not None:
            def counting_select(window_ids, levels):
                kept = select(window_ids, levels)
                labelled[0] += len(window_ids)
                labelled[1] += len(kept)
                return kept
            datagen.select_labelled = counting_select
        try:
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            if profiler is not None:
                profiler.enable()
            with stages("collect"):
                bank = collect_windows(targets, scenarios, config)
            with stages("dataset"):
                dataset = bank_to_dataset(bank)
                train, test = train_test_split(dataset, 0.2,
                                               seed=MODEL_SEED)
            predictor, preds = train_and_predict(train, test, None, stages)
            if profiler is not None:
                profiler.disable()
            job_s = time.perf_counter() - t0
            cpu_s = time.process_time() - cpu0
        finally:
            datagen.select_labelled = select
        after = registry_values(*before)
        delta = {k: int(after[k] - before[k]) for k in before}
        # IOR and mdtest draw no random numbers, so the grid's dataset and
        # model are the same for every seed and are checked on every run.
        f1, checks = model_checks(self.name, True, predictor, test, preds)
        digest = dataset.content_digest()
        checks["dataset_digest"] = (digest
                                    == PINS[self.name]["dataset_digest"])
        pairs = len(targets) * len(scenarios)
        record = {
            "job_s": job_s, "cpu_s": cpu_s, "latency_ms": 1e3 * job_s,
            "stages": stages.seconds, "macro_f1": f1, "checks": checks,
            "digests": {"dataset": digest,
                        "params": params_digest(predictor)},
            "attempted": pairs, "failed": delta["datagen.pairs_skipped"],
            "counts": {"collect.windows": len(dataset),
                       "train.epochs": delta["train.epochs"],
                       "monitor.server_samples":
                           delta["monitor.server_samples"]},
            "predict_us_per_window": 1e6 * stages.seconds["predict"]
            / len(test),
        }
        if profiler is not None:
            record["fold"] = fold_record(profiler)
            record["label_kept_ratio"] = (labelled[1] / labelled[0]
                                          if labelled[0] else 0.0)
        return record


@dataclass(frozen=True)
class TrainSynth:
    """The training stack alone on synthetic windows: no simulator."""

    name: str
    windows: int

    def setup(self, seed: int):
        dataset = synthetic_dataset(seed, self.windows, self.name)
        return train_test_split(dataset, 0.2, seed=MODEL_SEED)

    def run(self, state, seed: int, mode: str, hold_s: float) -> dict:
        train, test = state
        stages = Stages()
        config = TrainConfig(epochs=SYNTH_EPOCHS, patience=SYNTH_EPOCHS,
                             seed=MODEL_SEED)
        epochs0 = REGISTRY.counter("train.epochs").value
        profiler = cProfile.Profile() if mode == "traced" else None
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        predictor, preds = train_and_predict(train, test, config, stages)
        if profiler is not None:
            profiler.disable()
        job_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
        # The synthetic windows follow the seed; seed 0's model is pinned.
        f1, checks = model_checks(self.name, seed == 0, predictor, test,
                                  preds)
        record = {
            "job_s": job_s, "cpu_s": cpu_s, "latency_ms": 1e3 * job_s,
            "stages": stages.seconds, "macro_f1": f1, "checks": checks,
            "digests": {"params": params_digest(predictor)},
            "attempted": 0, "failed": 0,
            "counts": {"train.epochs":
                       int(REGISTRY.counter("train.epochs").value - epochs0)},
            "predict_us_per_window": 1e6 * stages.seconds["predict"]
            / len(test),
        }
        if profiler is not None:
            record["fold"] = fold_record(profiler)
        return record


class TimedForward:
    """Times the service's fused forward call from outside."""

    def __init__(self, forward) -> None:
        self.forward = forward
        self.seconds = 0.0
        self.calls = 0
        self.rows = 0

    def __call__(self, X):
        t0 = time.perf_counter()
        out = self.forward(X)
        self.seconds += time.perf_counter() - t0
        self.calls += 1
        self.rows += len(X)
        return out


@dataclass(frozen=True)
class ServeOpen:
    """Open-loop tenants against one in-process prediction service."""

    name: str

    def setup(self, seed: int):
        # The served model has the trained model's shapes but seeded
        # initial weights: serving cost does not depend on the weights,
        # and training it here made set-up time bimodal (0.6 or 1.7 s,
        # from OpenBLAS thread wake-ups on tiny matrices).
        dataset = synthetic_dataset(seed, 2000, self.name)
        predictor = InterferencePredictor(
            model=KernelInterferenceNet(n_servers=N_SERVERS,
                                        n_features=len(VECTOR_FEATURES),
                                        n_classes=2, seed=seed),
            normalizer=Normalizer().fit(dataset.X))
        streams = [tenant_windows(seed, f"tenant{i:04d}", SERVE_STREAM,
                                  N_SERVERS, len(VECTOR_FEATURES))
                   for i in range(SERVE_TENANTS)]
        return predictor.deploy(), streams

    def run(self, state, seed: int, mode: str, hold_s: float) -> dict:
        scorer, streams = state
        timed = None
        if mode == "traced":
            timed = TimedForward(scorer.predict_proba_rows)
            scorer.predict_proba_rows = timed

        async def session():
            service = PredictionService(scorer, ServeConfig())
            await service.start()
            try:
                tenants = [service.connect(f"tenant{i:04d}")
                           for i in range(SERVE_TENANTS)]

                def submit(tenant: int, window: int):
                    vector = streams[tenant][window % SERVE_STREAM]
                    return tenants[tenant].submit(window, vector)

                cursor = [0] * SERVE_TENANTS
                t0 = time.perf_counter()
                hold = await openloop.run_phase(
                    submit, SERVE_TENANTS, SERVE_RATE, hold_s, cursor,
                    sample_every=SERVE_CHECK_EVERY)
                wall = time.perf_counter() - t0
                ladder = None
                if mode == "base":
                    ladder = await openloop.run_ladder(
                        submit, SERVE_TENANTS, SERVE_RATE, cursor)
            finally:
                await service.stop()
            return hold, wall, ladder

        hold, wall, ladder = asyncio.run(session())
        if timed is not None:
            scorer.predict_proba_rows = timed.forward
        mismatches = 0
        checked = 0
        for tenant, window, result in hold.samples:
            if result is None or result.status != "fresh":
                continue
            alone = scorer.predict_proba_rows(
                streams[tenant][window % SERVE_STREAM][None])[0]
            checked += 1
            mismatches += tuple(float(p) for p in alone) \
                != result.probabilities
        p50 = hold.latency_quantile(50)
        p99 = hold.latency_quantile(99)
        record = {
            "job_s": wall, "cpu_s": hold.cpu_s, "latency_ms": p50,
            "serve": {"p50_ms": p50, "p99_ms": p99,
                      "gen_late_p99_ms": hold.lateness_quantile(99),
                      "requests": hold.attempted, "backlog": hold.backlog},
            "checks": {"bit_identical_to_batch_of_one":
                       checked > 0 and mismatches == 0},
            "attempted": hold.attempted, "failed": hold.failed,
            "counts": {},
        }
        if ladder is not None:
            record["serve"]["max_wps"] = ladder[0]
            record["serve"]["ladder"] = [
                {"rate": s.rate, "p99_ms": s.latency_quantile(99),
                 "failed": s.failed, "backlog": s.backlog}
                for s in ladder[1]]
        if timed is not None:
            record["forward"] = {"seconds": timed.seconds,
                                 "calls": timed.calls, "rows": timed.rows}
            record["predict_us_per_window"] = (1e6 * timed.seconds
                                               / max(1, timed.rows))
        return record


# Both grids keep all seven IO500 targets (the paper's Table I axes).
# Their noise levels and target scales keep a traced run near one minute,
# and under two even when the shared 2-core box runs 1.6x slow, as it did
# for minutes at a time while the baseline was measured.
WORKLOADS = {
    "grid-bulk": Grid("grid-bulk", target_scale=0.8,
                      noise_tasks=("ior-easy-write", "ior-easy-read",
                                   "ior-hard-write"),
                      max_level=2, noise_ranks=3),
    "grid-meta": Grid("grid-meta", target_scale=0.2,
                      noise_tasks=("mdt-hard-write", "mdt-easy-write"),
                      max_level=2, noise_ranks=2),
    "train-synth": TrainSynth("train-synth", windows=20_000),
    "serve-open": ServeOpen("serve-open"),
}


def main(argv: list[str]) -> int:
    """One pass in a fresh interpreter: set up, maybe run, print a record.

    ``argv`` is ``workload seed mode hold_s t_spawn``; ``mode`` is
    ``setup``, ``pass``, ``base`` (an untraced pass for a traced run) or
    ``traced``.  ``t_spawn`` is the parent's ``perf_counter()`` just
    before it started this process (the clock is system-wide on Linux),
    so ``setup_s`` covers interpreter start, imports and building the
    inputs.  The record is the last line of standard output.
    """
    workload, seed, mode, hold_s, t_spawn = argv
    spec = WORKLOADS[workload]
    state = spec.setup(int(seed))
    record = {"setup_s": time.perf_counter() - float(t_spawn)}
    if mode != "setup":
        record.update(spec.run(state, int(seed), mode, float(hold_s)))
    record["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
