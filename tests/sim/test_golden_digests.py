"""Golden run digests: the simulator's outputs, pinned per workload family.

Every label the pipeline produces comes from per-op client timings and
server samples, so the request path that times RPCs decides them all.
Each case below runs one small simulation and hashes its ``records`` and
``server_samples`` (exact float reprs, not approximations). The pinned
values were taken before the simulator was collapsed onto its single
callback-chain request path, so any change to same-instant event order
anywhere in client, network, OST, cache, QoS or MDS service shows up
here as a digest mismatch.

Refreshing a digest is a behaviour change: do it only together with a
deliberate change to the simulated physics, and say so in the commit.
"""

import hashlib

import pytest

from repro.common.units import MIB
from repro.experiments.runner import (
    ExperimentConfig,
    InterferenceSpec,
    execute_run,
)
from repro.faults.plan import FaultPlan
from repro.monitor.server_monitor import ServerMonitor
from repro.sim.cluster import Cluster
from repro.workloads.apps import (
    AmrexConfig,
    AmrexWorkload,
    EnzoConfig,
    EnzoWorkload,
    OpenPMDConfig,
    OpenPMDWorkload,
)
from repro.workloads.base import launch, launch_interference
from repro.workloads.dlio import DLIOConfig, DLIOWorkload
from repro.workloads.io500 import make_io500_task


def run_digest(records, samples) -> str:
    """Exact digest of a run's DXT records and server samples."""
    h = hashlib.blake2b(digest_size=12)
    for r in records:
        h.update(repr((r.job, r.rank, r.op_id, r.op.value, r.path, r.offset,
                       r.size, tuple(str(s) for s in r.servers),
                       r.start, r.end)).encode())
    for t, server, metrics in samples:
        h.update(repr((t, str(server), sorted(metrics.items()))).encode())
    return h.hexdigest()


def small_config(**overrides) -> ExperimentConfig:
    fields = dict(window_size=0.25, sample_interval=0.125, warmup=0.5, seed=0)
    fields.update(overrides)
    return ExperimentConfig(**fields)


BULK = (InterferenceSpec("ior-easy-write", instances=2, ranks=2, scale=0.1),)
META = (InterferenceSpec("mdt-hard-write", instances=2, ranks=2, scale=0.1),)


def digest_of(target, noise=(), **kwargs) -> str:
    run = execute_run(target, list(noise), small_config(), **kwargs)
    return run_digest(run.records, run.server_samples)


def io500(task):
    return lambda: make_io500_task(task, ranks=2, scale=0.1)


def dlio(model):
    return lambda: DLIOWorkload(DLIOConfig(
        model=model, ranks=2, epochs=1, steps_per_epoch=4, sample_bytes=MIB,
        batch_read_bytes=256 * 1024, checkpoint_bytes=2 * MIB,
        compute_time=0.01))


#: (case id, target factory, noise specs).
RUN_CASES = [
    ("ior-easy-write-bulk-noise", io500("ior-easy-write"), BULK),
    ("ior-easy-write-meta-noise", io500("ior-easy-write"), META),
    ("ior-hard-read-bulk-noise", io500("ior-hard-read"), BULK),
    ("ior-hard-read-meta-noise", io500("ior-hard-read"), META),
    ("mdt-hard-write-bulk-noise", io500("mdt-hard-write"), BULK),
    ("mdt-hard-write-meta-noise", io500("mdt-hard-write"), META),
    ("dlio-unet3d", dlio("unet3d"), BULK),
    ("dlio-bert", dlio("bert"), BULK),
    ("amrex", lambda: AmrexWorkload(AmrexConfig(ranks=2, steps=1)), BULK),
    ("enzo", lambda: EnzoWorkload(EnzoConfig(ranks=2, cycles=2)), META),
    ("openpmd", lambda: OpenPMDWorkload(OpenPMDConfig(ranks=2, iterations=2)),
     BULK),
]

GOLDEN = {
    "ior-easy-write-bulk-noise": "d49f895fcd43f2d718abf2e8",
    "ior-easy-write-meta-noise": "9d81ba16a6f5d9d4a50b9909",
    "ior-hard-read-bulk-noise": "be8d41ebb2871a0e44b354d0",
    "ior-hard-read-meta-noise": "6cfb164bc4876a415773a6f8",
    "mdt-hard-write-bulk-noise": "972f08a22ab19f990b7e4119",
    "mdt-hard-write-meta-noise": "7383a0856b3f2684ccbfd1eb",
    "dlio-unet3d": "8aaca72616727d44f1a42b25",
    "dlio-bert": "0d12481d4c8a33ed6eab58a3",
    "amrex": "dc17a270e8f9d526b1cc8c7f",
    "enzo": "1e2fdaa30bb61799581b8c45",
    "openpmd": "142b5985a3fc3aa4767eed8f",
    "abort": "d1122f35bd1e9f701ab4bf36",
    "grid-meta:mdt-easy-write/mdt-hard-write-x1": "e08b606c0ca5e29cd120fb65",
    "qos-limited": "7201d656890391fbaeac3b7f",
}


@pytest.mark.parametrize("case,make_target,noise", RUN_CASES,
                         ids=[c[0] for c in RUN_CASES])
def test_run_digest(case, make_target, noise):
    assert digest_of(make_target(), noise) == GOLDEN[case]


def test_fault_plan_abort_digest():
    """A FaultPlan-aborted run truncates at the same instant, same state."""
    target = make_io500_task("ior-easy-write", ranks=2, scale=0.4)
    plan = FaultPlan(run_abort_rate=1.0, run_abort_after=0.6)
    abort_at = plan.run_abort_time(target.name, "abort")
    run = execute_run(target, list(BULK), small_config(), seed_salt="abort",
                      abort_at=abort_at)
    assert run.metadata["aborted"] is True
    assert run_digest(run.records, run.server_samples) == GOLDEN["abort"]


def test_grid_meta_tie_order_pair_digest():
    """The grid-meta pair whose target ``close`` once raced a noise
    ``create`` for the last MDS service thread: the MDS must grant
    same-instant requests in the order they arrived."""
    target = make_io500_task("mdt-easy-write", ranks=4, scale=0.2)
    noise = [InterferenceSpec("mdt-hard-write", instances=1, ranks=2,
                              scale=0.25)]
    config = ExperimentConfig(window_size=0.25, sample_interval=0.125,
                              warmup=1.0, seed=0)
    run = execute_run(target, noise, config, seed_salt="mdt-hard-write-x1")
    assert (run_digest(run.records, run.server_samples)
            == GOLDEN["grid-meta:mdt-easy-write/mdt-hard-write-x1"])


def test_qos_limited_digest():
    """Noise rate-limited on every OST for part of the run (the static
    mitigation policy's mechanism), then released mid-run."""
    config = small_config()
    cluster = Cluster(config.cluster)
    env = cluster.env
    monitor = ServerMonitor(cluster, sample_interval=config.sample_interval)
    monitor.start()
    noise_jobs = []
    for copy in range(2):
        workload = make_io500_task("ior-easy-write", name=f"noise-{copy}",
                                   ranks=2, scale=0.1)
        noise_jobs.append(workload.name)
        launch_interference(cluster, workload, list(config.noise_nodes),
                            seed=copy, record=False)
    for ost in cluster.osts:
        for job in noise_jobs:
            ost.qos.limit(job, rate=24 * MIB, burst=2 * MIB)

    def release(_ev):
        for ost in cluster.osts:
            for job in noise_jobs:
                ost.qos.clear(job)

    env.after(1.0, release)
    env.run(until=config.warmup)
    target = make_io500_task("ior-easy-write", ranks=2, scale=0.1)
    handle = launch(cluster, target, list(config.target_nodes), seed=0)
    env.run(until=handle.done)
    assert (run_digest(cluster.collector.records, monitor.samples)
            == GOLDEN["qos-limited"])
