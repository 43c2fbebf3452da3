"""Node-local burst buffer tier (the paper's §V mitigation substrate).

The related work the paper positions against includes burst-buffer
orchestration (Trio, Kougkas et al.): absorb an application's write
bursts into fast node-local storage and drain them to the PFS in the
background, so the application never waits on a contended OST. This
module implements that tier:

* :class:`BurstBuffer` — one node-local staging device (NVMe-class write
  bandwidth, bounded capacity) with a background drainer that replays
  buffered extents to the PFS through a hidden (untraced) client session,
  so drain traffic exercises the full striping/RPC/QoS path and *does*
  contend like any other writer;
* :class:`BurstBufferedSession` — wraps a normal
  :class:`~repro.sim.client.ClientSession`: writes complete at burst
  buffer speed (and are recorded with that latency, which is exactly the
  interference-shielding effect), reads of still-buffered extents are
  served locally, everything else passes through.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.common.units import GIB, MIB
from repro.sim.client import ClientSession, NullCollector
from repro.sim.engine import Environment, Event

__all__ = ["BurstBufferParams", "BurstBuffer", "BurstBufferedSession"]


@dataclass(frozen=True)
class BurstBufferParams:
    """One node-local staging device."""

    capacity_bytes: int = 4 * GIB
    #: Local absorb bandwidth (NVMe-class).
    write_bandwidth: float = 2 * GIB
    #: Local read-back bandwidth for buffered data.
    read_bandwidth: float = 3 * GIB
    #: Fixed per-operation latency of the local device.
    op_latency: float = 30e-6

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        if self.write_bandwidth <= 0 or self.read_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")


class BurstBuffer:
    """Staging space plus a background drainer to the PFS."""

    def __init__(self, env: Environment, drain_session: ClientSession,
                 params: BurstBufferParams | None = None) -> None:
        self.env = env
        self.params = params or BurstBufferParams()
        self._drain_session = drain_session
        self.level = 0  # bytes buffered, not yet drained
        self.absorbed_bytes = 0
        self.drained_bytes = 0
        self._pending: deque[tuple[str, int, int]] = deque()
        self._waiters: deque[tuple[Event, int]] = deque()
        #: (path, chunk_index) extents currently resident, for read-back.
        self._resident: dict[tuple[str, int], int] = {}
        self._chunk = 1 * MIB
        self._drainer_running = False

    # -- residency tracking ---------------------------------------------------

    def _chunks(self, path: str, offset: int, size: int):
        first = offset // self._chunk
        last = (offset + max(1, size) - 1) // self._chunk
        return ((path, c) for c in range(first, last + 1))

    def holds(self, path: str, offset: int, size: int) -> bool:
        return all(self._resident.get(key, 0) > 0
                   for key in self._chunks(path, offset, size))

    # -- write path --------------------------------------------------------------

    def write(self, path: str, offset: int, size: int):
        """Absorb a write locally; returns when it is safe in the buffer."""
        if size <= 0:
            raise ValueError(f"write size must be positive, got {size}")
        if size > self.params.capacity_bytes:
            raise ValueError("write larger than the whole burst buffer")
        while self.level + size > self.params.capacity_bytes:
            gate = Event(self.env)
            self._waiters.append((gate, size))
            self._kick_drainer()
            yield gate
        self.level += size
        self.absorbed_bytes += size
        yield self.env.timeout(
            self.params.op_latency + size / self.params.write_bandwidth
        )
        for key in self._chunks(path, offset, size):
            self._resident[key] = self._resident.get(key, 0) + 1
        self._pending.append((path, offset, size))
        self._kick_drainer()

    def read_local(self, size: int):
        """Serve a read from the local device."""
        yield self.env.timeout(
            self.params.op_latency + size / self.params.read_bandwidth
        )

    # -- drainer -------------------------------------------------------------------

    def _kick_drainer(self) -> None:
        if not self._drainer_running and self._pending:
            self._drainer_running = True
            self.env.process(self._drain_loop())

    def _drain_loop(self):
        session = self._drain_session
        while self._pending:
            path, offset, size = self._pending.popleft()
            yield from session.write(path, offset, size)
            self.level -= size
            self.drained_bytes += size
            for key in self._chunks(path, offset, size):
                remaining = self._resident.get(key, 0) - 1
                if remaining <= 0:
                    self._resident.pop(key, None)
                else:
                    self._resident[key] = remaining
            while self._waiters:
                gate, need = self._waiters[0]
                if self.level + need > self.params.capacity_bytes:
                    break
                self._waiters.popleft()
                gate.succeed()
        self._drainer_running = False


class BurstBufferedSession:
    """A ClientSession whose writes are absorbed by a burst buffer.

    Mirrors the generator API of :class:`ClientSession`; construct with
    :meth:`attach`, which wires the hidden drain session on the same
    compute node.
    """

    def __init__(self, inner: ClientSession, buffer: BurstBuffer) -> None:
        self.inner = inner
        self.buffer = buffer

    @classmethod
    def attach(cls, session: ClientSession,
               params: BurstBufferParams | None = None) -> "BurstBufferedSession":
        """Wrap ``session`` with a node-local burst buffer.

        The hidden drain session comes from the cluster's session
        factory, so drain traffic takes the same request path and
        contends for the same NIC as the node's other sessions.
        """
        node = session.node
        drain = node.cluster.session(f"{session.job}-bbdrain",
                                     session.rank, node.index)
        drain.collector = NullCollector()
        return cls(session, BurstBuffer(session.env, drain, params))

    # -- delegated namespace/metadata ops ------------------------------------------

    def create(self, path: str, stripe_count: int = 1,
               stripe_size: int | None = None):
        yield from self.inner.create(path, stripe_count, stripe_size)

    def open(self, path: str):
        yield from self.inner.open(path)

    def close(self, path: str):
        yield from self.inner.close(path)

    def stat(self, path: str):
        yield from self.inner.stat(path)

    def unlink(self, path: str):
        yield from self.inner.unlink(path)

    def mkdir(self, path: str):
        yield from self.inner.mkdir(path)

    # -- buffered data path -----------------------------------------------------------

    def write(self, path: str, offset: int, size: int):
        """Absorb locally; recorded with the local (fast) latency."""
        from repro.common.records import IORecord, OpType

        start = self.inner.env.now
        yield self.inner.env.process(self.buffer.write(path, offset, size))
        f = self.inner.node.cluster.fs.lookup(path)
        f.size = max(f.size, offset + size)
        rec = IORecord(
            job=self.inner.job,
            rank=self.inner.rank,
            op_id=self.inner._next_op_id(),
            op=OpType.WRITE,
            path=path,
            offset=offset,
            size=size,
            start=start,
            end=self.inner.env.now,
            servers=tuple(),  # absorbed locally; no PFS server touched yet
        )
        self.inner.collector.add(rec)

    def read(self, path: str, offset: int, size: int):
        """Serve from the buffer when resident, else from the PFS."""
        if self.buffer.holds(path, offset, size):
            from repro.common.records import IORecord, OpType

            start = self.inner.env.now
            yield self.inner.env.process(self.buffer.read_local(size))
            rec = IORecord(
                job=self.inner.job, rank=self.inner.rank,
                op_id=self.inner._next_op_id(), op=OpType.READ, path=path,
                offset=offset, size=size, start=start,
                end=self.inner.env.now, servers=tuple(),
            )
            self.inner.collector.add(rec)
        else:
            yield from self.inner.read(path, offset, size)
