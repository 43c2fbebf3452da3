"""Lustre-like client: striped data RPCs, RPC windows, metadata calls.

Each compute node owns a :class:`ClientNode` (one NIC link plus per-OST
RPC credit windows mirroring ``max_rpcs_in_flight``). Workload ranks talk
through a :class:`ClientSession`, which tags every completed operation
with the job name, rank and a deterministic per-rank sequence number and
appends a DXT-style :class:`~repro.common.records.IORecord` to the run's
trace — this is the simulated counterpart of the paper's modified-Darshan
client-side monitor.

All session methods are generators meant to be driven with ``yield from``
inside a rank process. Each runs its operation on the callback chain in
:mod:`repro.sim.batch` and resumes the rank once, when the op completes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.records import IORecord, OpType, ServerId
from repro.common.units import MIB
from repro.obs import trace as _trace
from repro.sim.batch import BatchRequest, _DataOpDriver, _MetaOpDriver
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
        self.env = node.cluster.env
        self.job = job
        self.rank = rank
        self.collector = collector
        self._op_id = 0

    # -- internal helpers ----------------------------------------------------

    def _next_op_id(self) -> int:
        self._op_id += 1
        return self._op_id

    def _finish_op(self, op: OpType, path: str, offset: int, size: int,
                   start: float, servers: tuple[ServerId, ...],
                   span) -> None:
        """Record one completed op and close its span. With a collector
        that discards records and no span, only the op id advances."""
        if not (self.collector.keeps_records or span is not None):
            self._op_id += 1
            return
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
        if span is not None:
            tracer = _trace.TRACER
            if tracer is not None:
                tracer.finish(span, self.env.now, op_id=rec.op_id)

    def _data_op(self, op: OpType, path: str, offset: int,
                 size: int) -> Event:
        """Start one data op on the callback chain (repro.sim.batch);
        returns the event that fires when its last piece completes."""
        f = self.node.cluster.fs.lookup(path)
        req = BatchRequest.from_extent(f, op, path, offset, size,
                                       self.node.params.max_rpc_bytes)
        start = self.env.now
        tracer = _trace.TRACER
        span = tracer.start(
            f"client.{op.value}", start, job=self.job, rank=self.rank,
            path=path, offset=offset, size=size,
        ) if tracer is not None else None
        done = Event(self.env)
        _DataOpDriver(self, req, f, start, done, span).begin()
        return done

    def _meta_op(self, op: OpType, path: str, parent: str) -> Event:
        """Start one metadata RPC on the callback chain (repro.sim.batch):
        the node's MDS slot, the RPC latency, then MDS service. Returns
        the event that fires when the MDS completes it."""
        start = self.env.now
        tracer = _trace.TRACER
        span = tracer.start(
            f"client.{op.value}", start, job=self.job, rank=self.rank,
            path=path,
        ) if tracer is not None else None
        done = Event(self.env)
        _MetaOpDriver(self, op, path, parent, start, done, span).begin()
        return done

    # -- public generator API ---------------------------------------------------

    def create(self, path: str, stripe_count: int = 1,
               stripe_size: int | None = None):
        """Create a file: MDS transaction plus layout assignment."""
        fs = self.node.cluster.fs
        if path in fs:
            f = fs.lookup(path)
        else:
            f = fs.create(path, stripe_count=stripe_count,
                          stripe_size=stripe_size)
        yield self._meta_op(OpType.CREATE, path, f.parent)

    def open(self, path: str):
        yield self._meta_op(OpType.OPEN, path,
                            self.node.cluster.fs.parent_of(path))

    def close(self, path: str):
        yield self._meta_op(OpType.CLOSE, path,
                            self.node.cluster.fs.parent_of(path))

    def stat(self, path: str):
        yield self._meta_op(OpType.STAT, path,
                            self.node.cluster.fs.parent_of(path))

    def unlink(self, path: str):
        fs = self.node.cluster.fs
        yield self._meta_op(OpType.UNLINK, path, fs.parent_of(path))
        if path in fs:
            fs.unlink(path)

    def mkdir(self, path: str):
        yield self._meta_op(OpType.MKDIR, path,
                            self.node.cluster.fs.parent_of(path))

    def write(self, path: str, offset: int, size: int):
        """Write ``size`` bytes at ``offset``; striped, windowed RPCs."""
        yield self._data_op(OpType.WRITE, path, offset, size)

    def read(self, path: str, offset: int, size: int):
        """Read ``size`` bytes at ``offset``; striped, windowed RPCs."""
        yield self._data_op(OpType.READ, path, offset, size)
