"""Block-layer I/O scheduler: elevator ordering plus request merging.

Sits between the OST/MDT logic and the :class:`~repro.sim.disk.DiskModel`.
Pending requests wait in a queue; the dispatcher picks the next request in
C-LOOK elevator order (smallest LBA at or beyond the head, wrapping to the
lowest LBA), merges queued requests that are contiguous with it (same
direction), and serves the merged extent in one disk operation. Merges and
queue occupancy feed the :class:`~repro.sim.disk.DiskStats` counters that
the paper's Table II metrics are sampled from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.units import SECTOR_SIZE
from repro.obs import trace as _trace
from repro.sim.disk import DiskModel, DiskStats
from repro.sim.engine import Environment, Event

__all__ = ["BlockRequest", "BlockDevice"]


@dataclass(slots=True)
class BlockRequest:
    """One request queued at the block layer.

    ``done`` is an :class:`Event` succeeded at completion
    (:meth:`BlockDevice.submit`) or a no-argument callable invoked
    directly at the completion tick (:meth:`BlockDevice.submit_batch`).
    """

    lba: int
    sectors: int
    is_write: bool
    done: "Event | object"
    enqueue_time: float = field(default=0.0)


class BlockDevice:
    """A disk with an elevator/merging scheduler and diskstats counters."""

    #: Largest merged extent dispatched as one disk op (sectors). Mirrors
    #: typical ``max_sectors_kb`` of 1280 KiB.
    MAX_MERGED_SECTORS = 2560

    #: Consecutive read batches dispatched before a pending write gets a
    #: turn — the deadline scheduler's ``writes_starved`` policy. This is
    #: what keeps synchronous reads nearly immune to background writeback
    #: (the paper's Table I: ``ior-easy-read`` slows 1.004x under
    #: ``ior-easy-write`` interference). Higher than the kernel default of
    #: 2 because our dispatch units are coarse merged extents (~1.25 MiB,
    #: ~10 ms each), so one write turn costs a reader proportionally more
    #: than one request-sized turn does on real hardware.
    WRITES_STARVED_LIMIT = 5

    def __init__(self, env: Environment, model: DiskModel, name: str = "disk") -> None:
        self.env = env
        self.model = model
        self.name = name
        self.stats = DiskStats()
        self._queue: list[BlockRequest] = []
        self._busy = False
        self._in_service = 0
        self._writes_starved = 0
        #: Fail-slow fault injection: every service time is multiplied by
        #: this factor (Perseus-style device degradation; see
        #: repro.experiments.failslow).
        self.slowdown_factor = 1.0

    def inject_slowdown(self, factor: float) -> None:
        """Degrade (or restore) the device: service times scale by
        ``factor`` from now on. ``1.0`` restores nominal speed."""
        if factor <= 0:
            raise ValueError(f"slowdown factor must be positive, got {factor}")
        self.slowdown_factor = factor

    # -- public API --------------------------------------------------------

    def submit(self, lba: int, sectors: int, is_write: bool) -> Event:
        """Queue a request; the returned event fires at completion."""
        if sectors <= 0:
            raise ValueError(f"block request needs >= 1 sector, got {sectors}")
        req = BlockRequest(lba, sectors, is_write, Event(self.env), self.env.now)
        self.stats.on_enqueue(self.env.now)
        self._queue.append(req)
        self._kick()
        return req.done

    def submit_batch(self, extents, is_write: bool, on_all_done) -> int:
        """Queue many same-direction requests arriving at one instant.

        ``extents`` is an iterable of ``(lba, sectors)``;
        ``on_all_done()`` runs at the tick the last one completes, with
        no per-request Event.
        Returns the number of requests queued.
        """
        now = self.env.now
        pending = [0]

        def _one_done() -> None:
            pending[0] -= 1
            if pending[0] == 0:
                on_all_done()

        n = 0
        for lba, sectors in extents:
            if sectors <= 0:
                raise ValueError(f"block request needs >= 1 sector, got {sectors}")
            self._queue.append(BlockRequest(lba, sectors, is_write, _one_done, now))
            n += 1
        # Counters and the dispatch kick happen after the whole batch is
        # queued; dispatch itself is deferred a tick, so no completion can
        # race the pending count.
        pending[0] = n
        if n:
            self.stats.on_enqueue_batch(now, n)
            self._kick()
        return n

    def submit_bytes(self, byte_offset: int, nbytes: int, is_write: bool) -> Event:
        """Convenience wrapper converting a byte extent to sectors."""
        lba = byte_offset // SECTOR_SIZE
        end = -(-(byte_offset + max(1, nbytes)) // SECTOR_SIZE)
        return self.submit(lba, end - lba, is_write)

    def submit_bytes_batch(self, extents, is_write: bool, on_all_done) -> int:
        """Byte-extent counterpart of :meth:`submit_batch`."""
        def _sectors():
            for byte_offset, nbytes in extents:
                lba = byte_offset // SECTOR_SIZE
                end = -(-(byte_offset + max(1, nbytes)) // SECTOR_SIZE)
                yield lba, end - lba
        return self.submit_batch(_sectors(), is_write, on_all_done)

    @property
    def queue_depth(self) -> int:
        """Requests waiting in queue plus requests being serviced."""
        return len(self._queue) + self._in_service

    # -- scheduling core -----------------------------------------------------

    def _pick_next(self) -> BlockRequest:
        """Read-priority C-LOOK elevator.

        Reads are dispatched ahead of writes (deadline-scheduler
        behaviour) unless writes have been starved ``WRITES_STARVED_LIMIT``
        times; within the chosen direction pool, pick the lowest LBA at or
        beyond the head, wrapping to the lowest LBA overall. Ties go to
        the earliest enqueue time, then to queue order.
        """
        queue = self._queue
        head = self.model.head_lba
        # One pass; both lists are indexed by direction (is_write False/
        # True as 0/1). Keys end in the queue index, so the first of equal
        # (lba, enqueue_time) requests wins, as min() over the pool would.
        lowest: list = [None, None]
        ahead: list = [None, None]
        for i, req in enumerate(queue):
            key = (req.lba, req.enqueue_time, i)
            direction = req.is_write
            best = lowest[direction]
            if best is None or key < best:
                lowest[direction] = key
            if req.lba >= head:
                best = ahead[direction]
                if best is None or key < best:
                    ahead[direction] = key
        has_reads = lowest[0] is not None
        has_writes = lowest[1] is not None
        if has_reads and (not has_writes
                          or self._writes_starved < self.WRITES_STARVED_LIMIT):
            direction = 0
            if has_writes:
                self._writes_starved += 1
        else:
            direction = 1 if has_writes else 0
            self._writes_starved = 0
        chosen = ahead[direction] or lowest[direction]
        return queue.pop(chosen[2])

    def _collect_merges(self, first: BlockRequest
                        ) -> tuple[list[BlockRequest], int, int]:
        """Pull queued requests contiguous with ``first`` (front and back).

        Returns the batch and its extent ``[lo, hi)``: every merge
        extends one end, so the batch covers exactly that range.
        """
        batch = [first]
        lo = first.lba
        hi = lo + first.sectors
        queue = self._queue
        is_write = first.is_write
        budget = self.MAX_MERGED_SECTORS - first.sectors
        progress = bool(queue)
        while progress and budget > 0:
            progress = False
            i = 0
            while i < len(queue):
                req = queue[i]
                if req.is_write != is_write or req.sectors > budget:
                    i += 1
                    continue
                if req.lba == hi:
                    hi = req.lba + req.sectors
                elif req.lba + req.sectors == lo:
                    lo = req.lba
                else:
                    i += 1
                    continue
                del queue[i]
                batch.append(req)
                self.stats.on_merge(is_write)
                budget -= req.sectors
                progress = True
        return batch, lo, hi

    def _kick(self) -> None:
        """Start the dispatcher if idle.

        The first look at the queue is deferred one tick (like the old
        dispatch Process's init event), so every same-instant submission
        is visible to the elevator before anything is picked.
        """
        if not self._busy:
            self._busy = True
            self.env.defer(self._dispatch_step)

    def _dispatch_step(self, _ev=None) -> None:
        """Pick/merge/serve one extent; chains itself until the queue drains."""
        if not self._queue:
            self._busy = False
            return
        first = self._pick_next()
        batch, lo, hi = self._collect_merges(first)
        sectors = hi - lo
        service = self.model.service_time(lo, sectors) * self.slowdown_factor
        tracer = _trace.TRACER
        span = tracer.start(
            "disk.io", self.env.now, device=self.name, lba=lo,
            sectors=sectors, write=first.is_write, merged=len(batch),
        ) if tracer is not None else None
        self._in_service = len(batch)
        self.env.after(
            service,
            lambda _ev: self._complete(batch, first.is_write, sectors, service, span),
        )

    def _complete(self, batch, is_write: bool, sectors: int, service: float,
                  span) -> None:
        self._in_service = 0
        if span is not None:
            tracer = _trace.TRACER
            if tracer is not None:
                tracer.finish(span, self.env.now)
        self.stats.on_complete(
            self.env.now, is_write, sectors, service, nrequests=len(batch)
        )
        for req in batch:
            done = req.done
            if type(done) is Event:
                done.succeed()
            else:
                done()
        self._dispatch_step()
