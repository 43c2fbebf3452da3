"""Training executor with content-addressed model caching.

The experiments train many independent models — one recipe per figure
panel, seed repetitions, grid cells of an ablation.  :class:`TrainExecutor`
is the one path they all train through.  It adds two layers in front of
the restart loop in
:meth:`repro.core.predictor.InterferencePredictor.train`:

1. **Deduplication** — jobs are keyed by :func:`repro.parallel.cachekey.
   train_key` (dataset content digest + complete training recipe);
   identical trainings execute once per batch.
2. **Caching** — with a :class:`~repro.parallel.modelcache.ModelCache`
   attached, trained predictors persist on disk; a warm rerun of an
   experiment executes **zero** trainings.

Jobs train one after another.  Inside a job,
:meth:`~repro.core.predictor.InterferencePredictor.train` runs the
restarts side by side, one supervised child process each, when a second
core is free, and in the calling process otherwise; the models are the
same bits either way.  Each restart's epoch loop runs on one OpenBLAS
thread, so a lone serial loop leaves every other core idle; DESIGN.md
§10 keeps the numbers.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.core.dataset import Dataset
from repro.core.labeling import BINARY_THRESHOLDS
from repro.core.nn.train import TrainConfig
from repro.core.predictor import InterferencePredictor
from repro.obs import distributed as _dist
from repro.obs import profile as _profile
from repro.obs import trace as _trace
from repro.obs.distributed import WALL_CLOCK
from repro.obs.log import get_logger
from repro.obs.metrics import REGISTRY
from repro.parallel.cachekey import train_key, train_key_material
from repro.parallel.modelcache import ModelCache

__all__ = ["TrainJob", "TrainExecutor"]

logger = get_logger("parallel.trainer")


@dataclass
class TrainJob:
    """One model-training request (the executor's unit of work)."""

    dataset: Dataset
    thresholds: tuple[float, ...] = BINARY_THRESHOLDS
    config: TrainConfig | None = None
    kernel_hidden: tuple[int, ...] = (64, 32)
    head_hidden: tuple[int, ...] = (32,)
    seed: int = 0
    restarts: int = 3

    def effective_config(self) -> TrainConfig:
        """The config training actually uses (mirrors the serial loop's
        ``config or TrainConfig(seed=seed)`` default)."""
        return self.config or TrainConfig(seed=self.seed)


class TrainExecutor:
    """Runs batches of model trainings: deduplicated and cached.

    Parameters
    ----------
    cache:
        A :class:`ModelCache`, a directory path to open one in, or
        ``None`` for no persistent cache (in-batch deduplication still
        applies).
    salt:
        Extra cache-key salt, appended to the code-version salt.
    """

    def __init__(self, cache: ModelCache | str | os.PathLike | None = None,
                 salt: str = "") -> None:
        if cache is not None and not isinstance(cache, ModelCache):
            cache = ModelCache(cache)
        self.cache = cache
        self.salt = salt
        self.trainings_executed = 0
        self.jobs_deduplicated = 0

    # -- keys -------------------------------------------------------------

    def key_for(self, job: TrainJob) -> str:
        return train_key(job.dataset.content_digest(), job.thresholds,
                         job.effective_config(), job.kernel_hidden,
                         job.head_hidden, job.seed, job.restarts,
                         salt=self.salt)

    def _material(self, job: TrainJob) -> dict:
        return train_key_material(job.dataset.content_digest(),
                                  job.thresholds, job.effective_config(),
                                  job.kernel_hidden, job.head_hidden,
                                  job.seed, job.restarts, salt=self.salt)

    # -- execution --------------------------------------------------------

    def train_predictor(self, dataset: Dataset, **kwargs
                        ) -> InterferencePredictor:
        """Train (or recall) one predictor; kwargs mirror ``TrainJob``."""
        return self.train_predictors([TrainJob(dataset, **kwargs)])[0]

    def train_predictors(self, jobs: list[TrainJob]
                         ) -> list[InterferencePredictor]:
        """Train ``jobs`` and return predictors in submission order.

        Jobs with equal keys train once and share one result object.
        """
        REGISTRY.counter("parallel.train.requested").inc(len(jobs))
        exec_counter = REGISTRY.counter("parallel.train.executed")
        dedup_counter = REGISTRY.counter("parallel.train.deduplicated")
        tracer = _trace.get()

        with _profile.phase("train", jobs=len(jobs)):
            with _profile.phase("plan"):
                keys = []
                for job in jobs:
                    InterferencePredictor.check_train_inputs(
                        job.dataset, job.thresholds, job.restarts)
                    keys.append(self.key_for(job))
            results: dict[str, InterferencePredictor] = {}
            pending: dict[str, TrainJob] = {}
            deduplicated = 0
            with _profile.phase("cache-probe"):
                for job, key in zip(jobs, keys):
                    if key in results or key in pending:
                        deduplicated += 1
                        dedup_counter.inc()
                        continue
                    cached = None
                    if self.cache is not None:
                        probe = (tracer.start("cache.probe",
                                              _dist.wall_now(tracer),
                                              clock=WALL_CLOCK, key=key[:12],
                                              cache="model")
                                 if tracer is not None else None)
                        cached = self.cache.get(key)
                        if probe is not None:
                            tracer.finish(probe, _dist.wall_now(tracer),
                                          hit=cached is not None)
                    if cached is not None:
                        results[key] = cached
                    else:
                        pending[key] = job
            self.jobs_deduplicated += deduplicated

            n_restarts = sum(job.restarts for job in pending.values())
            unique = len(jobs) - deduplicated
            logger.info(
                "training batch: %d jobs -> %d unique, %d cache hits, "
                "%d to train (%d restarts)",
                len(jobs), unique, unique - len(pending), len(pending),
                n_restarts,
            )
            if pending:
                self.trainings_executed += n_restarts
                exec_counter.inc(n_restarts)
                with _profile.phase("execute", restarts=n_restarts):
                    self._train(pending, results)

        return [results[key] for key in keys]

    def _train(self, pending: dict[str, TrainJob],
               results: dict[str, InterferencePredictor]) -> None:
        """``InterferencePredictor.train`` once per pending job."""
        wall_hist = REGISTRY.histogram("parallel.train.seconds")
        for key, job in pending.items():
            start = time.perf_counter()
            predictor = InterferencePredictor.train(
                job.dataset, job.thresholds, job.config,
                kernel_hidden=job.kernel_hidden,
                head_hidden=job.head_hidden,
                seed=job.seed, restarts=job.restarts,
            )
            wall_hist.observe(time.perf_counter() - start)
            if self.cache is not None:
                self.cache.put(key, predictor, material=self._material(job))
            results[key] = predictor

    # -- reporting --------------------------------------------------------

    def stats(self) -> dict:
        """Executor + cache counters, manifest-ready."""
        return {
            "trainings_executed": self.trainings_executed,
            "jobs_deduplicated": self.jobs_deduplicated,
            "cache": self.cache.stats() if self.cache is not None else None,
        }
