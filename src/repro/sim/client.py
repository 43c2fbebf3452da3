"""Lustre-like client: striped data RPCs, RPC windows, metadata calls.

Each compute node owns a :class:`ClientNode` (one NIC link plus per-OST
RPC credit windows mirroring ``max_rpcs_in_flight``). Workload ranks talk
through a :class:`ClientSession`, which tags every completed operation
with the job name, rank and a deterministic per-rank sequence number and
appends a DXT-style :class:`~repro.common.records.IORecord` to the run's
trace — this is the simulated counterpart of the paper's modified-Darshan
client-side monitor.

All session methods are generators meant to be driven with ``yield from``
inside a rank process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.records import IORecord, OpType, ServerId
from repro.common.units import MIB
from repro.obs import trace as _trace
from repro.sim.batch import BatchRequest, _DataOpDriver
from repro.sim.engine import Event
from repro.sim.netmodel import Link
from repro.sim.resources import Semaphore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.cluster import Cluster

__all__ = ["ClientParams", "ClientNode", "ClientSession", "TraceCollector"]


@dataclass(frozen=True)
class ClientParams:
    """Client-side RPC behaviour (Lustre OSC/MDC tunables)."""

    max_rpc_bytes: int = 1 * MIB
    max_rpcs_in_flight: int = 8
    #: Fixed per-RPC overhead covering the request message and the ack.
    rpc_latency: float = 200e-6

    def __post_init__(self) -> None:
        if self.max_rpc_bytes <= 0 or self.max_rpcs_in_flight <= 0:
            raise ValueError("RPC size and window must be positive")
        if self.rpc_latency < 0:
            raise ValueError("rpc_latency must be non-negative")


class TraceCollector:
    """Accumulates the DXT-style records of one simulated run."""

    #: Whether added records are retained. Sessions skip building
    #: IORecords entirely for collectors that discard them.
    keeps_records = True

    def __init__(self) -> None:
        self.records: list[IORecord] = []

    def add(self, record: IORecord) -> None:
        self.records.append(record)

    def for_job(self, job: str) -> list[IORecord]:
        return [r for r in self.records if r.job == job]

    def __len__(self) -> int:
        return len(self.records)


class NullCollector(TraceCollector):
    """Discards records. Used for interference jobs whose traces nobody
    reads (the monitors only consume the target application's records);
    long noise loops would otherwise accumulate hundreds of thousands of
    dead records per run."""

    keeps_records = False

    def add(self, record: IORecord) -> None:
        pass


class ClientNode:
    """One compute node: a NIC plus per-OST RPC credit windows."""

    def __init__(self, cluster: "Cluster", index: int, link: Link,
                 params: ClientParams) -> None:
        self.cluster = cluster
        self.index = index
        self.link = link
        self.params = params
        self._rpc_slots: dict[int, Semaphore] = {}
        self._mds_slots = Semaphore(cluster.env, params.max_rpcs_in_flight)

    def rpc_window(self, ost_index: int) -> Semaphore:
        slot = self._rpc_slots.get(ost_index)
        if slot is None:
            slot = Semaphore(self.cluster.env, self.params.max_rpcs_in_flight)
            self._rpc_slots[ost_index] = slot
        return slot


class ClientSession:
    """Per-(job, rank) handle issuing I/O and recording its trace."""

    def __init__(self, node: ClientNode, job: str, rank: int,
                 collector: TraceCollector) -> None:
        self.node = node
        self.job = job
        self.rank = rank
        self.collector = collector
        self._op_id = 0

    # -- internal helpers ----------------------------------------------------

    @property
    def env(self):
        return self.node.cluster.env

    def _next_op_id(self) -> int:
        self._op_id += 1
        return self._op_id

    def _record(self, op: OpType, path: str, offset: int, size: int,
                start: float, servers: tuple[ServerId, ...]) -> IORecord:
        rec = IORecord(
            job=self.job,
            rank=self.rank,
            op_id=self._next_op_id(),
            op=op,
            path=path,
            offset=offset,
            size=size,
            start=start,
            end=self.env.now,
            servers=servers,
        )
        self.collector.add(rec)
        return rec

    def _data_op(self, op: OpType, path: str, offset: int, size: int):
        """Run one data op through the callback chain (repro.sim.batch);
        resumes the rank when its last piece completes."""
        f = self.node.cluster.fs.lookup(path)
        start = self.env.now
        tracer = _trace.TRACER
        span = tracer.start(
            f"client.{op.value}", start, job=self.job, rank=self.rank,
            path=path, offset=offset, size=size,
        ) if tracer is not None else None
        req = BatchRequest.from_extent(f, op, path, offset, size,
                                       self.node.params.max_rpc_bytes)
        done = Event(self.env)
        _DataOpDriver(self, req, f, start, done, span).begin()
        yield done

    def _meta_op(self, op: OpType, path: str, parent: str):
        """One metadata RPC: the node's MDS slot, the RPC latency, then
        MDS service. Each step waits on its own event, so ops meeting at
        the same instant reach the MDS in the order they were issued."""
        node = self.node
        mds = node.cluster.mds
        start = self.env.now
        tracer = _trace.TRACER
        span = tracer.start(
            f"client.{op.value}", start, job=self.job, rank=self.rank,
            path=path,
        ) if tracer is not None else None
        yield node._mds_slots.acquire()
        yield self.env.timeout(node.params.rpc_latency)
        yield mds.handle(op, parent, parent_span=span)
        node._mds_slots.release()
        if self.collector.keeps_records or span is not None:
            rec = self._record(op, path, 0, 0, start, (mds.server_id,))
            if span is not None:
                tracer.finish(span, self.env.now, op_id=rec.op_id)
        else:
            self._op_id += 1

    # -- public generator API ---------------------------------------------------

    def create(self, path: str, stripe_count: int = 1,
               stripe_size: int | None = None):
        """Create a file: MDS transaction plus layout assignment."""
        cluster = self.node.cluster
        if path not in cluster.fs:
            cluster.fs.create(path, stripe_count=stripe_count, stripe_size=stripe_size)
        f = cluster.fs.lookup(path)
        yield from self._meta_op(OpType.CREATE, path, f.parent)

    def _parent_of(self, path: str) -> str:
        """Parent directory; falls back to string parsing for paths not in
        the namespace — a lookup of a missing or directory path is still a
        real MDS round-trip (ENOENT costs the same trip as success)."""
        import posixpath

        cluster = self.node.cluster
        if path in cluster.fs:
            return cluster.fs.lookup(path).parent
        return posixpath.dirname(path) or "/"

    def open(self, path: str):
        yield from self._meta_op(OpType.OPEN, path, self._parent_of(path))

    def close(self, path: str):
        yield from self._meta_op(OpType.CLOSE, path, self._parent_of(path))

    def stat(self, path: str):
        yield from self._meta_op(OpType.STAT, path, self._parent_of(path))

    def unlink(self, path: str):
        cluster = self.node.cluster
        yield from self._meta_op(OpType.UNLINK, path, self._parent_of(path))
        if path in cluster.fs:
            cluster.fs.unlink(path)

    def mkdir(self, path: str):
        import posixpath

        parent = posixpath.dirname(path) or "/"
        yield from self._meta_op(OpType.MKDIR, path, parent)

    def write(self, path: str, offset: int, size: int):
        """Write ``size`` bytes at ``offset``; striped, windowed RPCs."""
        yield from self._data_op(OpType.WRITE, path, offset, size)

    def read(self, path: str, offset: int, size: int):
        """Read ``size`` bytes at ``offset``; striped, windowed RPCs."""
        yield from self._data_op(OpType.READ, path, offset, size)
