"""Workload abstraction and launch helpers.

A :class:`Workload` is a deterministic generator of I/O operations: given
a session (which ties ops to a job/rank and records the trace) and a
seeded RNG, :meth:`Workload.rank_body` yields simulator events. The same
(workload, seed) pair always issues the same operation sequence — only
completion *times* depend on cluster contention. This mirrors the paper's
setup where a *target workload* runs identically with and without
*interference workloads* (§III-D).

Launching:

* :func:`launch` starts one finite instance and returns a handle whose
  ``done`` event fires when every rank finished.
* :func:`launch_interference` starts an instance that restarts itself
  forever (the paper keeps 3 concurrent interference instances active for
  the entire measurement); it is simply abandoned when the measured run
  ends.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.common.rng import LazyRng, derive_rng
from repro.sim.cluster import Cluster
from repro.sim.client import ClientSession
from repro.sim.engine import AllOf, Process

__all__ = ["Workload", "WorkloadHandle", "launch", "launch_interference"]


class Workload(abc.ABC):
    """Base class for all workload generators."""

    #: Job name used to tag trace records; instance-specific.
    name: str

    @property
    @abc.abstractmethod
    def ranks(self) -> int:
        """Number of MPI-style ranks this workload runs with."""

    def prepare(self, cluster: Cluster, rng: np.random.Generator) -> None:
        """Create pre-existing namespace state (input files for read
        workloads). Costs no simulated time, like data staged before the
        measured run."""

    @abc.abstractmethod
    def rank_body(self, session: ClientSession, rank: int,
                  rng: np.random.Generator, instance: int = 0):
        """Generator issuing this rank's operations via ``yield from``.

        ``instance`` distinguishes repeated executions of the same rank
        when the workload runs as looping interference: write workloads
        should namespace their output by it so each iteration produces
        fresh (cache-cold) data, while read workloads re-read the files
        staged by :meth:`prepare`.
        """


@dataclass
class WorkloadHandle:
    """A launched workload instance."""

    workload: Workload
    processes: list[Process]
    done: object = field(default=None)  # AllOf event over rank processes


def _node_for_rank(rank: int, nodes: list[int]) -> int:
    return nodes[rank % len(nodes)]


def launch(cluster: Cluster, workload: Workload, nodes: list[int],
           seed: int) -> WorkloadHandle:
    """Start one finite instance of ``workload`` on the given nodes.

    Ranks are assigned to ``nodes`` round-robin. Returns a handle whose
    ``done`` event fires when all ranks complete.
    """
    if not nodes:
        raise ValueError("launch needs at least one node")
    workload.prepare(cluster, derive_rng(seed, workload.name, "prepare"))
    procs = []
    for rank in range(workload.ranks):
        session = cluster.session(workload.name, rank, _node_for_rank(rank, nodes))
        rng = derive_rng(seed, workload.name, rank)
        procs.append(cluster.env.process(workload.rank_body(session, rank, rng)))
    return WorkloadHandle(workload, procs, AllOf(cluster.env, procs))


def launch_interference(cluster: Cluster, workload: Workload, nodes: list[int],
                        seed: int, record: bool = True) -> WorkloadHandle:
    """Start ``workload`` restarting itself indefinitely on ``nodes``.

    Each rank loops its body forever with a fresh RNG stream per
    iteration, built only if the iteration draws from it; the processes
    never terminate and are abandoned when the measured run's
    ``env.run(until=...)`` returns. With ``record=False``
    the noise ops are not traced (their records are never consumed, and
    long noise loops otherwise dominate trace memory).
    """
    if not nodes:
        raise ValueError("launch_interference needs at least one node")
    workload.prepare(cluster, derive_rng(seed, workload.name, "prepare"))
    from repro.sim.client import NullCollector

    collector = cluster.collector if record else NullCollector()

    def forever(rank: int, node: int):
        iteration = 0
        while True:
            session = cluster.session(workload.name, rank, node)
            session.collector = collector
            rng = LazyRng(seed, workload.name, rank, iteration)
            yield from workload.rank_body(session, rank, rng, instance=iteration)
            iteration += 1

    procs = [
        cluster.env.process(forever(rank, _node_for_rank(rank, nodes)))
        for rank in range(workload.ranks)
    ]
    return WorkloadHandle(workload, procs, None)
