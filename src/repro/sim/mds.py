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

    def handle(self, op: OpType, parent_dir: str, parent_span=None) -> Event:
        """Serve one metadata op; the returned event fires at completion.

        A callback chain whose ticks match the order in which concurrent
        requests are granted: the op starts one tick after the call, and
        the parent-dir lock and the service thread are each taken through
        their own :meth:`Semaphore.acquire` grant event. A request that
        arrived first therefore reaches the thread pool first, even when
        a later one at the same instant would find a thread free.
        """
        env = self.env
        service = self.params.service_time(op)
        mutating = op in _MUTATING
        done = Event(env)

        def start(_ev) -> None:
            tracer = _trace.TRACER
            span = tracer.start(
                "mds.op", env.now, parent=parent_span,
                server=str(self.server_id), op=op.value, dir=parent_dir,
            ) if tracer is not None else None
            lock = self._dir_lock(parent_dir) if mutating else None

            def locked(_ev=None) -> None:
                self._threads.acquire().callbacks.append(
                    lambda _ev: env.after(service, serviced)
                )

            def serviced(_ev) -> None:
                if mutating:
                    self.device.submit_bytes(
                        self._journal_extent(),
                        self.params.journal_write_bytes,
                        is_write=True,
                    ).callbacks.append(
                        lambda _ev: env.after(
                            self.params.journal_commit_time, finish
                        )
                    )
                else:
                    finish(None)

            def finish(_ev) -> None:
                self._threads.release()
                if lock is not None:
                    lock.release()
                self.ops_completed += 1
                if span is not None:
                    tracer.finish(span, env.now)
                done.succeed()

            if lock is None:
                locked()
            else:
                lock.acquire().callbacks.append(locked)

        env.defer(start)
        return done

    def queue_depth(self) -> int:
        return self._threads.queued + (self._threads.capacity - self._threads.available)
