"""Warm starts: one noise warm-up per process, every run forked from it.

A run's first phase (:func:`repro.experiments.runner.warm_up`: cluster,
monitor, noise launches and ``ExperimentConfig.warmup`` seconds of
noise) depends on the noise scenario alone — the interference specs,
the config and the seed salt — never on the target.  A sweep of targets
× scenarios would simulate it once per run, bit for bit the same each
time.  Here the process that runs a scenario's runs simulates it once,
holds it still as a :class:`WarmState`, and runs each target in a
``fork`` of it: the child runs the target phase
(:func:`~repro.experiments.runner.run_target`) and sends back its
:class:`~repro.monitor.aggregator.MonitoredRun`, trace shipment and
metric delta over a pipe.  Generators cannot be copied or pickled, so a
fork is the only way to copy a simulation in flight; the warm state
itself never advances.

The rule (:func:`shared_warmups`): a run forks from a warm state only
when its batch holds another pending run with the same warm-up
(:func:`warm_key`: the run-key material without the target) and the
platform has :func:`os.fork`; every other run is a fresh
:func:`~repro.experiments.runner.execute_run`.  A forked run is that
run: the same records, samples, duration and metadata, the same
sim-time spans and kernel counters, the same metrics.  That holds
because the warm-up records into a tracer and a metric set of its own
(:meth:`~repro.obs.metrics.MetricsRegistry.swapped`), and each fork
carries on recording into its copies of both; the monitor's handles,
resolved during the warm-up, point into that set.

A fork never outlives the process that forked it.  It asks the kernel
for ``SIGKILL`` when its parent dies (``PR_SET_PDEATHSIG`` on Linux), so
a pool slot that the watchdog kills takes its fork down with it, and
the parent kills and reaps the fork when waiting for it is interrupted.
"""

from __future__ import annotations

import functools
import os
import pickle
import signal
import sys
from collections import Counter
from typing import Any

from repro.experiments.runner import run_target, warm_up
from repro.monitor.aggregator import MonitoredRun
from repro.obs import distributed as _dist
from repro.obs import trace as _trace
from repro.obs.metrics import REGISTRY
from repro.parallel.cachekey import run_key_material, stable_hash

__all__ = ["WarmState", "WarmStarts", "shared_warmups", "warm_key"]

#: ``prctl`` option: the signal this process gets when its parent dies.
_PR_SET_PDEATHSIG = 1


def warm_key(job) -> str | None:
    """Key of the warm-up a :class:`~repro.parallel.RunJob` simulates:
    its run-key material without the target.  ``None`` for a run that
    simulates none (no noise, or a zero warm-up)."""
    if not job.interference or job.config.warmup <= 0:
        return None
    material = run_key_material(job.target, job.interference, job.config,
                                seed_salt=job.seed_salt)
    del material["target"]
    return stable_hash(material)


def shared_warmups(jobs: dict[str, Any]) -> dict[str, str]:
    """Run key → warm key of the ``jobs`` (run key → job) whose warm-up
    another of them shares; empty where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return {}
    keys = {key: warm_key(job) for key, job in jobs.items()}
    counts = Counter(wkey for wkey in keys.values() if wkey is not None)
    return {key: wkey for key, wkey in keys.items()
            if wkey is not None and counts[wkey] >= 2}


@functools.cache
def _prctl():
    """libc's ``prctl``, or ``None`` off Linux.  Loaded by the process
    that holds warm states, so its forks find it loaded."""
    if not sys.platform.startswith("linux"):
        return None
    import ctypes

    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    return prctl


def _die_with(parent: int) -> None:
    """Have the kernel ``SIGKILL`` this process when ``parent`` dies;
    exit now if it already has (the fork raced its death)."""
    prctl = _prctl()
    if prctl is not None:
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)


class WarmState:
    """One noise scenario's warm-up, simulated and held still.

    Built from any run of the scenario (its target is not used), under
    the batch's trace context ``trace_id`` (``None`` when not tracing,
    as for :func:`repro.obs.distributed.attach`).  :attr:`tracer` and
    :attr:`metrics` hold what the warm-up recorded.  :meth:`run` forks a
    run from it; the state itself never advances.
    """

    def __init__(self, job, trace_id: str | None) -> None:
        caller = _trace.get()
        self.tracer = _dist.attach(trace_id)
        try:
            with REGISTRY.swapped() as metrics:
                self.warm = warm_up(list(job.interference), job.config,
                                    seed_salt=job.seed_salt)
        finally:
            _trace.TRACER = caller
        self.metrics = metrics
        _prctl()

    def run(self, target, abort_at: float | None = None
            ) -> tuple[MonitoredRun, dict | None]:
        """Run ``target`` in a fork, as ``run_target`` would on a fresh
        warm-up of this scenario.

        Returns the run and its trace shipment (``None`` when not
        tracing), and merges the run's metric delta into
        :data:`~repro.obs.metrics.REGISTRY`.  A target phase that raises
        raises here too, after the merge; a fork that dies without
        answering raises ``RuntimeError``.
        """
        parent = os.getpid()
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            os.close(read_fd)
            self._child(write_fd, parent, target, abort_at)
        reaped = False
        try:
            os.close(write_fd)
            with open(read_fd, "rb") as pipe:
                reply = pipe.read()
            _, status = os.waitpid(pid, 0)
            reaped = True
        finally:
            if not reaped:  # interrupted: the fork goes with the wait
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        if not reply:
            raise RuntimeError(
                f"forked run of {target.name} died without answering "
                f"(exit code {os.waitstatus_to_exitcode(status)})")
        ok, payload, shipment, delta = pickle.loads(reply)
        REGISTRY.merge_snapshot(delta)
        if not ok:
            raise payload
        return payload, shipment

    def _child(self, write_fd: int, parent: int, target,
               abort_at: float | None) -> None:
        """Fork body: run the target phase, answer over ``write_fd`` and
        exit, never returning into the parent's stack."""
        code = 1
        try:
            _die_with(parent)
            _trace.TRACER = self.tracer
            with REGISTRY.swapped(self.metrics):
                try:
                    reply = (True, run_target(self.warm, target, abort_at))
                except Exception as exc:  # noqa: BLE001 — re-raised by the parent
                    reply = (False, exc)
                delta = REGISTRY.snapshot()
            reply += (_dist.ship(self.tracer), delta)
            try:
                data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
            except Exception as exc:  # noqa: BLE001 — an unpicklable error
                data = pickle.dumps((False, RuntimeError(
                    f"unpicklable reply: {type(exc).__name__}: {exc}"),
                    None, delta))
            with open(write_fd, "wb") as pipe:
                pipe.write(data)
            code = 0
        finally:
            os._exit(code)


class WarmStarts:
    """One batch's warm states, built where its items run.

    ``jobs`` maps the batch's run keys to their jobs.  Bound into the
    batch's worker, so every pool child starts with none built and
    builds each scenario's at most once; in-process, the caller does.
    """

    def __init__(self, jobs: dict[str, Any]) -> None:
        self.shared = shared_warmups(jobs)
        self.states: dict[str, WarmState] = {}

    def run(self, key: str, job, trace_id: str | None,
            abort_at: float | None = None
            ) -> tuple[MonitoredRun, dict | None] | None:
        """Run ``job`` (keyed ``key``) forked from its scenario's warm
        state, built first if need be; ``None`` if no other run of the
        batch shares its warm-up."""
        wkey = self.shared.get(key)
        if wkey is None:
            return None
        state = self.states.get(wkey)
        if state is None:
            state = self.states[wkey] = WarmState(job, trace_id)
        return state.run(job.target, abort_at)
