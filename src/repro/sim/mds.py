"""Metadata server: service threads, directory locks and a journal device.

Models the Lustre MDS/MDT pair on the testbed's combined MGS/MDS node.
Each metadata operation occupies one of a fixed pool of service threads
for an op-type-specific CPU time; namespace mutations additionally
acquire their parent directory's lock (serialising shared-directory
creates, the ``mdtest-hard`` pain point) and commit a small journal write
to the MDT block device, which is what couples metadata latency to MDT
disk load.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.records import OpType, ServerId, ServerKind
from repro.common.units import KIB
from repro.obs import trace as _trace
from repro.sim.disk import DiskParams, FlashParams, make_disk_model
from repro.sim.engine import Environment, Event
from repro.sim.netmodel import Link
from repro.sim.resources import Semaphore
from repro.sim.scheduler import BlockDevice

__all__ = ["MDSParams", "MDS"]


@dataclass(frozen=True)
class MDSParams:
    """Service characteristics of the metadata server."""

    service_threads: int = 8
    #: Per-op CPU service time in seconds.
    service_times: dict[OpType, float] = field(
        default_factory=lambda: {
            OpType.CREATE: 300e-6,
            OpType.OPEN: 150e-6,
            OpType.CLOSE: 50e-6,
            OpType.STAT: 100e-6,
            OpType.UNLINK: 250e-6,
            OpType.MKDIR: 300e-6,
        }
    )
    journal_write_bytes: int = 4 * KIB
    #: Transaction-commit latency paid by mutating ops while holding their
    #: service thread (jbd2-style commit wait). This is what couples heavy
    #: create storms to *all* metadata latency: committing creates pin
    #: service threads, and unrelated stats/opens queue behind them.
    journal_commit_time: float = 400e-6

    def service_time(self, op: OpType) -> float:
        try:
            return self.service_times[op]
        except KeyError:
            raise ValueError(f"{op} is not a metadata operation") from None


#: Metadata ops that mutate the namespace (need the parent-dir lock and a
#: journal commit).
_MUTATING = frozenset({OpType.CREATE, OpType.UNLINK, OpType.MKDIR})


class MDS:
    """The metadata server plus its MDT block device."""

    def __init__(
        self,
        env: Environment,
        link: Link,
        params: MDSParams | None = None,
        disk_params: "DiskParams | FlashParams | None" = None,
    ) -> None:
        self.env = env
        self.link = link
        self.params = params or MDSParams()
        self.server_id = ServerId(ServerKind.MDT, 0)
        self.device = BlockDevice(
            env, make_disk_model(disk_params or DiskParams()),
            name=str(self.server_id)
        )
        self._threads = Semaphore(env, self.params.service_threads)
        self._dir_locks: dict[str, Semaphore] = {}
        self._journal_offset = 0
        #: ``op -> (service time, mutating)``, looked up once per request.
        self._costs = {op: (self.params.service_time(op), op in _MUTATING)
                       for op in self.params.service_times}
        #: Completed metadata ops, for monitors/tests.
        self.ops_completed = 0

    def _dir_lock(self, parent: str) -> Semaphore:
        lock = self._dir_locks.get(parent)
        if lock is None:
            lock = Semaphore(self.env, 1)
            self._dir_locks[parent] = lock
        return lock

    def _journal_extent(self) -> int:
        """Sequential journal writes: bump offset, wrap at 128 MiB."""
        off = self._journal_offset
        self._journal_offset += self.params.journal_write_bytes
        if self._journal_offset >= 128 * 1024 * KIB:
            self._journal_offset = 0
        return off

    def handle(self, op: OpType, parent_dir: str, parent_span=None,
               done: Event | None = None) -> Event:
        """Serve one metadata op; ``done`` (a fresh event by default) is
        succeeded at completion and returned.

        A callback chain whose ticks match the order in which concurrent
        requests are granted: the op starts one tick after the call, and
        the parent-dir lock and the service thread are each taken through
        their own :meth:`Semaphore.acquire` grant event. A request that
        arrived first therefore reaches the thread pool first, even when
        a later one at the same instant would find a thread free.
        """
        try:
            service, mutating = self._costs[op]
        except KeyError:
            raise ValueError(f"{op} is not a metadata operation") from None
        if done is None:
            done = Event(self.env)
        self.env.defer(
            _MDSRequest(self, op, parent_dir, service, mutating, parent_span,
                        done)._start)
        return done

    def queue_depth(self) -> int:
        return self._threads.queued + (self._threads.capacity - self._threads.available)


class _MDSRequest:
    """One metadata op in service: the links of :meth:`MDS.handle`'s
    chain (start, dir lock, service thread, service time, journal write
    and commit) as methods of one object."""

    __slots__ = ("mds", "op", "parent_dir", "service", "mutating",
                 "parent_span", "done", "lock", "span")

    def __init__(self, mds: MDS, op: OpType, parent_dir: str, service: float,
                 mutating: bool, parent_span, done: Event) -> None:
        self.mds = mds
        self.op = op
        self.parent_dir = parent_dir
        self.service = service
        self.mutating = mutating
        self.parent_span = parent_span
        self.done = done
        self.lock = None
        self.span = None

    def _start(self, _ev) -> None:
        mds = self.mds
        tracer = _trace.TRACER
        if tracer is not None:
            self.span = tracer.start(
                "mds.op", mds.env.now, parent=self.parent_span,
                server=str(mds.server_id), op=self.op.value,
                dir=self.parent_dir,
            )
        if self.mutating:
            lock = self.lock = mds._dir_lock(self.parent_dir)
            lock.acquire().callbacks.append(self._locked)
        else:
            self._locked(None)

    def _locked(self, _ev) -> None:
        self.mds._threads.acquire().callbacks.append(self._threaded)

    def _threaded(self, _ev) -> None:
        self.mds.env.after(self.service, self._serviced)

    def _serviced(self, _ev) -> None:
        if not self.mutating:
            self._finish(None)
            return
        mds = self.mds
        mds.device.submit_bytes(
            mds._journal_extent(), mds.params.journal_write_bytes,
            is_write=True,
        ).callbacks.append(self._journaled)

    def _journaled(self, _ev) -> None:
        self.mds.env.after(self.mds.params.journal_commit_time, self._finish)

    def _finish(self, _ev) -> None:
        mds = self.mds
        mds._threads.release()
        if self.lock is not None:
            self.lock.release()
        mds.ops_completed += 1
        if self.span is not None:
            tracer = _trace.TRACER
            if tracer is not None:
                tracer.finish(self.span, mds.env.now)
        self.done.succeed()
