"""Cluster configuration and wiring.

Builds the full simulated testbed: client nodes with NICs, OSS nodes (each
NIC shared by its OSTs), the MDS/MDT, the fair-share network fabric, the
shared namespace and the trace collector. Defaults replicate the paper's
evaluation cluster: 7 Lustre clients, 3 OSS x 2 OST, one combined MGS/MDS,
1 GB/s links and 7200 RPM SATA disks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.records import ServerId, ServerKind
from repro.common.units import MIB
from repro.sim.cache import CacheParams
from repro.sim.client import ClientNode, ClientParams, ClientSession, TraceCollector
from repro.sim.disk import DiskParams, FlashParams
from repro.sim.engine import Environment
from repro.sim.filesystem import FileSystem
from repro.sim.mds import MDS, MDSParams
from repro.sim.netmodel import FlowNetwork, Link
from repro.sim.ost import OST

__all__ = ["ClusterConfig", "Cluster"]


@dataclass(frozen=True)
class ClusterConfig:
    """Shape and speeds of the simulated cluster (defaults = the paper's)."""

    n_client_nodes: int = 7
    n_oss: int = 3
    osts_per_oss: int = 2
    #: NIC bandwidth in bytes/s ("1 GB/s network interface").
    net_bandwidth: float = 1e9
    #: Aggregate fabric capacity in bytes/s, or None for a non-blocking
    #: switch. When set, every client<->server flow also traverses a
    #: shared core link — the oversubscribed-fabric contention that
    #: Bhatele et al. identified as a dominant variability source and the
    #: paper lists among interference root causes.
    core_bandwidth: float | None = None
    disk: "DiskParams | FlashParams" = field(default_factory=DiskParams)
    cache: CacheParams = field(default_factory=CacheParams)
    mds: MDSParams = field(default_factory=MDSParams)
    client: ClientParams = field(default_factory=ClientParams)
    default_stripe_size: int = 1 * MIB

    def __post_init__(self) -> None:
        if self.n_client_nodes < 1 or self.n_oss < 1 or self.osts_per_oss < 1:
            raise ValueError("cluster needs >= 1 client node, OSS and OST")
        if self.net_bandwidth <= 0:
            raise ValueError("net_bandwidth must be positive")
        if self.core_bandwidth is not None and self.core_bandwidth <= 0:
            raise ValueError("core_bandwidth must be positive (or None)")

    @property
    def n_osts(self) -> int:
        return self.n_oss * self.osts_per_oss


class Cluster:
    """A fully wired simulated PFS deployment."""

    def __init__(self, config: ClusterConfig | None = None,
                 env: Environment | None = None) -> None:
        self.config = config or ClusterConfig()
        self.env = env or Environment()
        self.net = FlowNetwork(self.env)
        cfg = self.config

        self.client_links = [
            Link(f"client{i}", cfg.net_bandwidth) for i in range(cfg.n_client_nodes)
        ]
        self.oss_links = [Link(f"oss{i}", cfg.net_bandwidth) for i in range(cfg.n_oss)]
        self.mds_link = Link("mds", cfg.net_bandwidth)
        self.core_link = (Link("core", cfg.core_bandwidth)
                          if cfg.core_bandwidth is not None else None)

        self.osts: list[OST] = []
        for ost_index in range(cfg.n_osts):
            oss_index = ost_index // cfg.osts_per_oss
            self.osts.append(
                OST(
                    self.env,
                    ost_index,
                    self.oss_links[oss_index],
                    disk_params=cfg.disk,
                    cache_params=cfg.cache,
                )
            )
        self.mds = MDS(self.env, self.mds_link, params=cfg.mds, disk_params=cfg.disk)
        self.fs = FileSystem(cfg.n_osts, default_stripe_size=cfg.default_stripe_size)
        self.collector = TraceCollector()
        self.nodes = [
            ClientNode(self, i, self.client_links[i], cfg.client)
            for i in range(cfg.n_client_nodes)
        ]

    # -- topology helpers -----------------------------------------------------

    @property
    def servers(self) -> list[ServerId]:
        """All PFS server targets in stable order: OSTs then the MDT."""
        ids = [ost.server_id for ost in self.osts]
        ids.append(self.mds.server_id)
        return ids

    def session(self, job: str, rank: int, node_index: int) -> ClientSession:
        """Open a session for one workload rank on one compute node."""
        node = self.nodes[node_index % len(self.nodes)]
        return ClientSession(node, job, rank, self.collector)

    def route(self, client_link: Link, server_link: Link) -> tuple[Link, ...]:
        """Link path of a bulk transfer between a client and a server."""
        if self.core_link is None:
            return (client_link, server_link)
        return (client_link, self.core_link, server_link)

    # -- monitoring hooks --------------------------------------------------------

    def server_counters(self, server: ServerId) -> dict[str, float]:
        """Cumulative counters for one server at the current sim time.

        These mirror what the paper's server-side monitor pulls once a
        second (Table II): diskstats counters plus instantaneous queue
        depth.
        """
        now = self.env.now
        if server.kind is ServerKind.OST:
            ost = self.osts[server.index]
            snap = ost.device.stats.snapshot(now)
            snap["queue_depth"] = float(ost.queue_depth())
            snap["cache_dirty_bytes"] = float(ost.cache.dirty_bytes)
            snap["mds_ops_completed"] = 0.0
            return snap
        snap = self.mds.device.stats.snapshot(now)
        snap["queue_depth"] = float(self.mds.queue_depth())
        snap["cache_dirty_bytes"] = 0.0
        snap["mds_ops_completed"] = float(self.mds.ops_completed)
        return snap
