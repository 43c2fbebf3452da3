"""Warm starts: a run forked from its scenario's shared warm-up is the run.

A sweep simulates each noise scenario's warm-up once per process and
forks every run of the scenario from it (``repro.parallel.warmstart``).
These tests pin that a forked run equals a fresh ``execute_run`` bit for
bit — records, samples, duration, metadata, spans, kernel counters and
metrics — under every noise family, traced or not, and when a fault plan
aborts it after the fork; that the rule picks only warm-ups two pending
runs share; and that no fork outlives its sweep.
"""

import os
import pathlib
import signal
import sys
import threading
import time

import pytest

from repro.common.units import MIB
from repro.experiments.runner import InterferenceSpec, execute_run
from repro.faults.plan import FaultPlan
from repro.obs import distributed as obs_dist
from repro.obs import trace as obs_trace
from repro.obs.metrics import REGISTRY
from repro.parallel import RunJob, SweepExecutor, warmstart
from repro.parallel.warmstart import WarmState, shared_warmups, warm_key
from repro.workloads.base import Workload
from repro.workloads.dlio import DLIOConfig, DLIOWorkload
from repro.workloads.io500 import make_io500_task

from tests.sim.test_golden_digests import (
    BULK,
    GOLDEN,
    META,
    RUN_CASES,
    run_digest,
    small_config,
)

linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="fork and PR_SET_PDEATHSIG")


@pytest.fixture(autouse=True)
def _isolate_obs_state():
    previous = obs_trace.TRACER
    obs_trace.TRACER = None
    REGISTRY.reset()
    yield
    obs_trace.TRACER = previous
    REGISTRY.reset()


def fresh(target, noise, config, seed_salt="", abort_at=None,
          trace_id=None):
    """A fresh run, its trace shipment and its metric delta."""
    REGISTRY.reset()
    tracer = obs_dist.attach(trace_id)
    try:
        run = execute_run(target, list(noise), config, seed_salt=seed_salt,
                          abort_at=abort_at)
    finally:
        obs_trace.TRACER = None
    return run, obs_dist.ship(tracer), REGISTRY.snapshot()


def forked(state, target, abort_at=None):
    """A run forked from ``state``, its trace shipment and metric delta."""
    REGISTRY.reset()
    run, shipment = state.run(target, abort_at)
    return run, shipment, REGISTRY.snapshot()


def warm(noise, config, seed_salt="", trace_id=None) -> WarmState:
    # The target of the job a state is built from is never launched.
    job = RunJob(make_io500_task("ior-easy-write", ranks=1, scale=0.01),
                 tuple(noise), config, seed_salt)
    return WarmState(job, trace_id)


def assert_same(one, other):
    """Two (run, shipment, delta) triples are the same run."""
    run, shipment, delta = one
    twin, twin_shipment, twin_delta = other
    assert (run_digest(run.records, run.server_samples)
            == run_digest(twin.records, twin.server_samples))
    assert run.job == twin.job
    assert run.duration == twin.duration
    assert run.metadata == twin.metadata
    assert run.servers == twin.servers
    assert shipment == twin_shipment
    assert delta == twin_delta
    assert delta["monitor.server_samples"]["value"] == len(run.server_samples)


# -- a forked run is the run ------------------------------------------------------


@pytest.fixture(scope="module")
def golden_states():
    return {BULK: warm(BULK, small_config()), META: warm(META, small_config())}


@pytest.mark.parametrize("case,make_target,noise", RUN_CASES,
                         ids=[c[0] for c in RUN_CASES])
def test_forked_run_reproduces_the_golden_digest(golden_states, case,
                                                  make_target, noise):
    """The digests were pinned on fresh runs; every case, forked from its
    noise's one shared warm-up, reproduces its own and is the fresh run
    in every other field."""
    run, shipment, delta = forked(golden_states[noise], make_target())
    assert run_digest(run.records, run.server_samples) == GOLDEN[case]
    assert_same((run, shipment, delta),
                fresh(make_target(), noise, small_config()))


def tiny_dlio():
    return DLIOWorkload(DLIOConfig(
        model="unet3d", ranks=2, epochs=1, steps_per_epoch=3,
        sample_bytes=MIB, checkpoint_bytes=2 * MIB, compute_time=0.01))


#: One target of each family the experiments run: IOR, mdtest and DLIO.
TARGETS = [lambda: make_io500_task("ior-hard-read", ranks=2, scale=0.1),
           lambda: make_io500_task("mdt-easy-write", ranks=2, scale=0.1),
           tiny_dlio]

#: Every IO500 noise family: IOR easy/hard and mdtest easy/hard.
NOISE = ["ior-easy-write", "ior-hard-write", "mdt-easy-write",
         "mdt-hard-write"]


@pytest.mark.parametrize("task", NOISE)
def test_forked_runs_are_fresh_runs_under_every_noise_family(task):
    noise = (InterferenceSpec(task, instances=2, ranks=2, scale=0.1),)
    config = small_config(seed=3)
    state = warm(noise, config, seed_salt=task)
    for make_target in TARGETS:
        assert_same(forked(state, make_target()),
                    fresh(make_target(), noise, config, seed_salt=task))


def test_traced_forks_ship_the_fresh_runs_spans():
    """The warm-up records into a tracer of its own; each fork carries on
    from a copy of it, so a forked run ships the fresh run's sim spans,
    ``events_fired`` and ``processes_spawned``."""
    config = small_config()
    state = warm(META, config, trace_id="warm")
    for make_target in TARGETS:
        run = forked(state, make_target())
        assert run[1]["spans"] and run[1]["events_fired"] > 0
        assert_same(run, fresh(make_target(), META, config,
                               trace_id="warm"))
    assert obs_trace.TRACER is None


def test_the_warm_state_never_advances():
    state = warm(BULK, small_config())
    now = state.warm.cluster.env.now
    samples = len(state.warm.monitor.samples)
    for make_target in TARGETS:
        forked(state, make_target())
    assert now == small_config().warmup
    assert state.warm.cluster.env.now == now
    assert len(state.warm.monitor.samples) == samples


def test_a_run_a_fault_plan_aborts_after_the_fork():
    """The golden ``abort`` case cuts its run at 0.6 s, after the 0.5 s
    warm-up the fork starts from."""
    target = make_io500_task("ior-easy-write", ranks=2, scale=0.4)
    plan = FaultPlan(run_abort_rate=1.0, run_abort_after=0.6)
    abort_at = plan.run_abort_time(target.name, "abort")
    assert abort_at > small_config().warmup
    state = warm(BULK, small_config(), seed_salt="abort")
    run = forked(state, target, abort_at)
    assert run[0].metadata["aborted"] is True
    assert run_digest(run[0].records, run[0].server_samples) == GOLDEN["abort"]
    assert_same(run, fresh(target, BULK, small_config(), seed_salt="abort",
                           abort_at=abort_at))


def test_a_failing_target_raises_in_the_parent():
    class Broken(Workload):
        name = "broken"
        ranks = 1

        def rank_body(self, session, rank, rng, instance=0):
            raise RuntimeError("simulator bug")
            yield  # pragma: no cover

    state = warm(BULK, small_config())
    with pytest.raises(RuntimeError, match="^simulator bug$"):
        state.run(Broken())
    # The delta of the failed run reached the registry all the same.
    assert REGISTRY.counter("monitor.server_samples").value > 0


# -- the rule ----------------------------------------------------------------------


def job(task="ior-easy-write", noise=BULK, salt="x", **config):
    return RunJob(make_io500_task(task, ranks=2, scale=0.1), tuple(noise),
                  small_config(**config), seed_salt=salt)


def test_warm_key_is_the_run_key_material_without_the_target():
    assert warm_key(job("ior-easy-write")) == warm_key(job("mdt-hard-read"))
    assert warm_key(job(salt="x")) != warm_key(job(salt="y"))
    assert warm_key(job(noise=BULK)) != warm_key(job(noise=META))
    assert warm_key(job(seed=0)) != warm_key(job(seed=1))
    assert warm_key(job(noise=())) is None
    assert warm_key(job(warmup=0.0)) is None


def test_only_warm_ups_two_pending_runs_share_are_kept():
    jobs = {"a": job("ior-easy-write"), "b": job("mdt-hard-read"),
            "c": job("ior-easy-write", salt="lone"),
            "d": job("ior-easy-write", noise=()),
            "e": job("mdt-hard-read", noise=())}
    assert shared_warmups(jobs) == {"a": warm_key(jobs["a"]),
                                    "b": warm_key(jobs["a"])}


def test_no_warm_starts_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert shared_warmups({"a": job("ior-easy-write"),
                           "b": job("mdt-hard-read")}) == {}


def grid():
    """Two targets under two noise scenarios, as ``run_pairs`` submits
    them: each scenario's warm-up is shared by two interfered runs."""
    config = small_config(warmup=0.25)
    return [RunJob(make_io500_task(task, ranks=2, scale=0.1),
                   (InterferenceSpec(noise, instances=1, ranks=2,
                                     scale=0.1),), config, seed_salt=noise)
            for task in ("ior-easy-read", "mdt-hard-write")
            for noise in ("ior-easy-write", "mdt-hard-write")]


def sweep(n_jobs, monkeypatch, share=True, fault_plan=None):
    """A traced sweep of :func:`grid`'s pairs; returns its runs, sim spans
    and counters, and how many warm-ups this process simulated."""
    calls = []
    warm_up = warmstart.warm_up

    def counting(*args, **kwargs):
        calls.append(args)
        return warm_up(*args, **kwargs)

    monkeypatch.setattr(warmstart, "warm_up", counting)
    if not share:
        monkeypatch.setattr(warmstart, "shared_warmups", lambda jobs: {})
    REGISTRY.reset()
    tracer = obs_trace.install(obs_trace.Tracer(trace_id="grid"))
    try:
        pairs = SweepExecutor(n_jobs=n_jobs,
                              fault_plan=fault_plan).run_pairs(grid())
    finally:
        obs_trace.uninstall()
        monkeypatch.undo()
    spans = [s.to_dict() for s in tracer.spans
             if s.attrs.get("clock") != obs_dist.WALL_CLOCK]
    counters = {name: doc["value"] for name, doc in REGISTRY.snapshot().items()
                if doc["kind"] == "counter"
                and not name.startswith("parallel.worker_busy")}
    runs = [(run_digest(r.records, r.server_samples), r.duration, r.metadata)
            for p in pairs for r in (p.baseline, p.interfered)]
    return runs, spans, counters, len(calls)


def test_an_in_process_sweep_warms_each_scenario_up_once(monkeypatch):
    shared = sweep(1, monkeypatch)
    cold = sweep(1, monkeypatch, share=False)
    assert shared[3] == 2  # one per scenario, not one per run
    assert cold[3] == 0  # execute_run calls the runner's own warm_up
    assert shared[:3] == cold[:3]
    assert shared[2]["monitor.server_samples"] > 0


def test_a_pooled_sweep_forks_the_same_runs(monkeypatch):
    assert sweep(2, monkeypatch)[:3] == sweep(1, monkeypatch,
                                               share=False)[:3]


def test_an_aborting_fault_plan_sweep_forks_the_same_runs(monkeypatch):
    plan = FaultPlan(run_abort_rate=1.0, run_abort_after=0.3)
    shared = sweep(1, monkeypatch, fault_plan=plan)
    assert shared[:3] == sweep(1, monkeypatch, share=False,
                               fault_plan=plan)[:3]
    # The plan cuts the ior-easy-read runs; the mdt-hard-write ones end
    # before 0.3 s.
    assert [meta.get("aborted", False) for _, _, meta in shared[0][1::2]] \
        == [True, True, False, False]


# -- no process outlives its sweep ----------------------------------------------------


def descendants(root: int) -> set[int]:
    """Pids of ``root``'s descendants, zombies included, from ``/proc``."""
    parents = {}
    for entry in pathlib.Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            parents[int(entry.name)] = int(stat.rpartition(")")[2].split()[1])
    found, frontier = set(), {root}
    while frontier:
        frontier = {pid for pid, ppid in parents.items()
                    if ppid in frontier} - found
        found |= frontier
    return found


def running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def gone(pid: int, within: float = 5.0) -> bool:
    deadline = time.monotonic() + within
    while running(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


class Sleeper(Workload):
    """A target that writes the pid running it to ``pid_file`` when it
    is launched, then sleeps a minute of wall time."""

    def __init__(self, name: str, pid_file: pathlib.Path) -> None:
        self.name = name
        self.pid_file = str(pid_file)

    @property
    def ranks(self) -> int:
        return 1

    def prepare(self, cluster, rng) -> None:
        pathlib.Path(self.pid_file).write_text(str(os.getpid()))
        time.sleep(60)

    def rank_body(self, session, rank, rng, instance=0):
        return
        yield  # pragma: no cover


def sleepers(tmp_path):
    config = small_config(warmup=0.25)
    noise = (InterferenceSpec("ior-easy-write", instances=1, ranks=1,
                              scale=0.05),)
    return [RunJob(Sleeper(f"sleeper{i}", tmp_path / f"{i}.pid"), noise,
                   config, seed_salt="shared") for i in range(2)]


def fork_pids(tmp_path) -> list[int]:
    return [int(path.read_text()) for path in sorted(tmp_path.glob("*.pid"))]


@linux_only
def test_a_slot_the_watchdog_kills_takes_its_fork_down(tmp_path):
    before = descendants(os.getpid())
    executor = SweepExecutor(n_jobs=2, run_timeout=3.0)
    assert executor.run_many(sleepers(tmp_path)) == [None, None]
    assert executor.timeouts == 2
    pids = fork_pids(tmp_path)
    assert len(pids) == 2 and os.getpid() not in pids
    assert all(gone(pid) for pid in pids)
    assert descendants(os.getpid()) <= before


class Interrupted(BaseException):
    """Raised by the test's signal handler, like a ``KeyboardInterrupt``."""


@linux_only
def test_an_interrupted_in_process_sweep_takes_its_fork_down(tmp_path):
    before = descendants(os.getpid())
    main = threading.main_thread().ident

    def interrupt_once_forked():
        deadline = time.monotonic() + 30
        while not list(tmp_path.glob("*.pid")):
            if time.monotonic() > deadline:
                return
            time.sleep(0.02)
        signal.pthread_kill(main, signal.SIGUSR1)

    def handler(signum, frame):
        raise Interrupted

    previous = signal.signal(signal.SIGUSR1, handler)
    thread = threading.Thread(target=interrupt_once_forked)
    try:
        thread.start()
        with pytest.raises(Interrupted):
            SweepExecutor(n_jobs=1).run_many(sleepers(tmp_path))
    finally:
        thread.join()
        signal.signal(signal.SIGUSR1, previous)
    (pid,) = fork_pids(tmp_path)
    assert pid != os.getpid()
    assert not running(pid)
    assert descendants(os.getpid()) <= before
