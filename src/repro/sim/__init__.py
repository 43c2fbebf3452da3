"""Discrete-event Lustre-like parallel file system simulator.

This subpackage is the substrate substitute for the paper's 11-node Lustre
2.12.8 cluster (see DESIGN.md §2). It provides:

* :mod:`repro.sim.engine` — a minimal SimPy-like coroutine event kernel
  with deterministic ordering;
* :mod:`repro.sim.resources` — a counting semaphore with FIFO wake-ups
  built on the kernel;
* :mod:`repro.sim.netmodel` — a max-min fair-share fluid-flow network;
* :mod:`repro.sim.disk` — a rotational-disk service model plus
  ``/proc/diskstats``-style counters;
* :mod:`repro.sim.scheduler` — an elevator/merging block scheduler;
* :mod:`repro.sim.cache` — an OSS write-back page cache with dirty
  throttling;
* :mod:`repro.sim.ost` / :mod:`repro.sim.mds` — object storage targets and
  the metadata server;
* :mod:`repro.sim.qos` — per-job token-bucket rate limiting at the OSTs
  (Lustre TBF);
* :mod:`repro.sim.filesystem` — namespace and striping;
* :mod:`repro.sim.client` — the Lustre-like client (striped RPCs, RPC
  windows, metadata calls);
* :mod:`repro.sim.batch` — the request path: each client op's RPC-window
  grants, network flows and OST or MDS service as one callback chain;
* :mod:`repro.sim.cluster` — configuration and wiring of a full cluster.

One run is one :class:`Environment`: every client NIC, server and the
fabric share a single event schedule and one global max-min network.
"""

from repro.sim.engine import Environment, Event, Process, Timeout, AllOf
from repro.sim.cluster import Cluster, ClusterConfig

__all__ = [
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "AllOf",
    "Cluster",
    "ClusterConfig",
]
