"""OSS write-back page cache with dirty throttling and readahead.

This single component produces the asymmetry at the heart of the paper's
Table I: *reads* must reach the rotational disk and therefore interfere
with each other through seeks and queueing, while *writes* complete into
server memory and only become disk-bound once dirty pages exceed the
throttle limit — at which point writers block behind the background
flusher and small writers (e.g. ``mdtest-hard``) can be crushed by bulk
write interference.

The model mirrors Linux semantics loosely: a background flusher drains
dirty extents to the block device whenever any exist; writers are
throttled (blocked) while dirty bytes exceed ``dirty_limit_fraction`` of
the cache. Reads consult a chunk-granular LRU of cached data and extend
misses by a readahead window.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable

from repro.common.units import KIB, MIB
from repro.sim.engine import Environment, Event
from repro.sim.scheduler import BlockDevice

__all__ = ["CacheParams", "PageCache"]


@dataclass(frozen=True)
class CacheParams:
    """Sizing and speed of one server's page cache."""

    capacity_bytes: int = 1024 * MIB
    #: Writers block while dirty bytes exceed this fraction of capacity.
    dirty_limit_fraction: float = 0.4
    #: Cache/page-copy bandwidth (memory speed), bytes/s.
    memcpy_bandwidth: float = 5 * 1024 * MIB
    #: Granularity of the cached-chunk LRU.
    chunk_bytes: int = 256 * KIB
    #: Extra bytes fetched past a *sequential* read miss. Generous, like
    #: Lustre's per-file readahead (tens of MiB): large sequential reads
    #: must amortise the seeks that competing streams and writeback turns
    #: force on them, or every big read degrades ~2x under any write
    #: noise, which Table I rules out. Random reads get no readahead —
    #: sequentiality is detected per object, as Linux/Lustre do.
    readahead_bytes: int = 4 * MIB
    #: Largest extent handed to the block layer per flush I/O.
    flush_extent_bytes: int = 1 * MIB

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or self.chunk_bytes <= 0:
            raise ValueError("cache capacity and chunk size must be positive")
        if not 0.0 < self.dirty_limit_fraction <= 1.0:
            raise ValueError("dirty_limit_fraction must be in (0, 1]")

    @property
    def dirty_limit_bytes(self) -> int:
        return int(self.capacity_bytes * self.dirty_limit_fraction)


class PageCache:
    """Write-back cache in front of one :class:`BlockDevice`.

    ``resolve`` maps a logical ``(object_id, offset, size)`` extent to a
    list of ``(device_byte_offset, nbytes)`` segments (supplied by the OST,
    which owns the extent allocator).
    """

    def __init__(
        self,
        env: Environment,
        device: BlockDevice,
        params: CacheParams,
        resolve: Callable[[int, int, int], list[tuple[int, int]]],
    ) -> None:
        self.env = env
        self.device = device
        self.params = params
        self.resolve = resolve
        self.dirty_bytes = 0
        #: (object_id, offset, size) extents awaiting flush, FIFO.
        self._dirty_extents: deque[tuple[int, int, int]] = deque()
        self._throttled: deque[tuple[Event, int]] = deque()
        self._flusher_running = False
        # Cached chunks, split by dirtiness so eviction never scans
        # unevictable (dirty) entries: the clean side is an LRU
        # (OrderedDict, oldest first), the dirty side a plain set-like
        # dict. A chunk lives in exactly one of the two.
        self._clean: OrderedDict[tuple[int, int], None] = OrderedDict()
        self._dirty_chunks: dict[tuple[int, int], None] = {}
        #: Per-object next expected sequential offset (readahead gating).
        self._next_offset: dict[int, int] = {}
        # Eviction threshold, fixed at construction (params are frozen).
        self._max_chunks = max(1, params.capacity_bytes // params.chunk_bytes)
        # Counters for tests and monitors.
        self.read_hits = 0
        self.read_misses = 0
        self.throttle_events = 0

    @property
    def cached_chunk_count(self) -> int:
        return len(self._clean) + len(self._dirty_chunks)

    @property
    def dirty_chunk_count(self) -> int:
        return len(self._dirty_chunks)

    # -- helpers -------------------------------------------------------------

    def _chunk_range(self, object_id: int, offset: int, size: int):
        cb = self.params.chunk_bytes
        first = offset // cb
        last = (offset + max(1, size) - 1) // cb
        return ((object_id, c) for c in range(first, last + 1))

    def _touch_chunks(self, object_id: int, offset: int, size: int, dirty: bool) -> None:
        # The chunk loop is inlined (no _chunk_range generator): this runs
        # once per cache access and the generator frames were measurable.
        cb = self.params.chunk_bytes
        clean = self._clean
        dirty_chunks = self._dirty_chunks
        first = offset // cb
        last = (offset + max(1, size) - 1) // cb
        for c in range(first, last + 1):
            key = (object_id, c)
            if key in dirty_chunks:
                continue  # dirty dominates; stays until flushed
            clean.pop(key, None)
            if dirty:
                dirty_chunks[key] = None
            else:
                clean[key] = None  # move to MRU end
        self._evict()

    def _mark_clean(self, object_id: int, offset: int, size: int) -> None:
        """Clear the dirty flag after a flush (keeps chunks cached)."""
        cb = self.params.chunk_bytes
        first = offset // cb
        last = (offset + max(1, size) - 1) // cb
        for c in range(first, last + 1):
            key = (object_id, c)
            if self._dirty_chunks.pop(key, False) is None:
                self._clean[key] = None
        self._evict()

    def _evict(self) -> None:
        max_chunks = self._max_chunks
        clean = self._clean
        dirty_count = len(self._dirty_chunks)
        while clean and dirty_count + len(clean) > max_chunks:
            clean.popitem(last=False)  # oldest clean chunk

    def _cached(self, object_id: int, offset: int, size: int) -> bool:
        return all(
            key in self._clean or key in self._dirty_chunks
            for key in self._chunk_range(object_id, offset, size)
        )

    def _memcpy_delay(self, size: int) -> float:
        return size / self.params.memcpy_bandwidth

    def prefill(self, object_id: int, offset: int, size: int) -> None:
        """Mark an extent resident (clean) without simulated I/O.

        Used when staging pre-existing data that would realistically be
        server-cache-warm at measurement start — e.g. the tiny files of
        ``mdtest-hard-read``, whose write phase immediately precedes the
        read phase in a real IO500 run. Subject to normal LRU eviction.
        """
        if size <= 0:
            raise ValueError(f"prefill size must be positive, got {size}")
        self._touch_chunks(object_id, offset, size, dirty=False)

    # -- write path ------------------------------------------------------------

    def write(self, object_id: int, offset: int, size: int, on_done) -> None:
        """Complete a write into the cache; ``on_done()`` runs at the tick
        the payload copy completes.

        Blocks while the cache is over its dirty limit (dirty throttling),
        then copies the payload and queues it for background flush.
        """
        if size <= 0:
            raise ValueError(f"write size must be positive, got {size}")
        if size > self.params.dirty_limit_bytes:
            raise ValueError(
                f"single write of {size} B exceeds the dirty limit "
                f"({self.params.dirty_limit_bytes} B); split at the RPC layer"
            )
        # Admission is strictly FIFO: once any writer is throttled, later
        # writers queue behind it even if they would fit in the remaining
        # slack. This mirrors balance_dirty_pages(), which pauses every
        # writer above the dirty limit regardless of write size — and it
        # is what lets bulk write noise crush small writers (the paper's
        # 26x/41x mdt-hard-write cells in Table I).
        if self._throttled or self.dirty_bytes + size > self.params.dirty_limit_bytes:
            self.throttle_events += 1
            gate = Event(self.env)
            self._throttled.append((gate, size))
            self._kick_flusher()
            gate.callbacks.append(
                lambda _ev: self.env.after(
                    self._memcpy_delay(size),
                    lambda _ev: self._write_commit(object_id, offset, size, on_done),
                )
            )
        else:
            self.dirty_bytes += size
            self.env.after(
                self._memcpy_delay(size),
                lambda _ev: self._write_commit(object_id, offset, size, on_done),
            )

    def _write_commit(self, object_id: int, offset: int, size: int, on_done) -> None:
        self._dirty_extents.append((object_id, offset, size))
        self._touch_chunks(object_id, offset, size, dirty=True)
        self._kick_flusher()
        on_done()

    # -- read path --------------------------------------------------------------

    def _sequential(self, object_id: int, offset: int) -> bool:
        """Does this read continue the object's detected stream?

        Readahead only arms once a stream is established (second access
        onwards), so single-shot small-file reads (mdtest-hard) never
        trigger it. The forward window is generous because a client's
        concurrent RPCs land slightly out of order, and strided-but-
        monotonic scans (ior-hard) legitimately benefit from readahead.
        """
        expected = self._next_offset.get(object_id)
        if expected is None:
            return False
        lo = expected - self.params.chunk_bytes
        hi = expected + 2 * self.params.readahead_bytes
        return lo <= offset <= hi

    def read(self, object_id: int, offset: int, size: int, on_done) -> None:
        """Complete a read, from cache or disk; ``on_done()`` runs at the
        tick the payload copy completes."""
        if size <= 0:
            raise ValueError(f"read size must be positive, got {size}")
        sequential = self._sequential(object_id, offset)
        self._next_offset[object_id] = offset + size
        if self._cached(object_id, offset, size):
            self.read_hits += 1
            self._touch_chunks(object_id, offset, size, dirty=False)
            self.env.after(self._memcpy_delay(size), lambda _ev: on_done())
            return
        self.read_misses += 1
        readahead = self.params.readahead_bytes if sequential else 0
        fetch_size = size + readahead
        segments = self.resolve(object_id, offset, fetch_size)

        def _fetched() -> None:
            self._touch_chunks(object_id, offset, fetch_size, dirty=False)
            self.env.after(self._memcpy_delay(size), lambda _ev: on_done())

        self.device.submit_bytes_batch(segments, False, _fetched)

    # -- flusher -----------------------------------------------------------------

    def _kick_flusher(self) -> None:
        # Deferred a tick like the old flush Process's init event, so
        # every same-instant dirty append is visible to the first gather.
        if not self._flusher_running and (self._dirty_extents or self._throttled):
            self._flusher_running = True
            self.env.defer(self._flush_step)

    #: Flush I/Os kept in flight concurrently. Writeback keeps the device
    #: queue populated so contiguous dirty extents can merge at the block
    #: layer (and the elevator can order them) — one-at-a-time flushing
    #: would serialise writeback at zero queue depth, which no real
    #: flusher does.
    FLUSH_INFLIGHT = 4

    def _flush_units(self, object_id: int, offset: int, size: int):
        """Bounded flush extents of one dirty record."""
        flushed = 0
        while flushed < size:
            nbytes = min(self.params.flush_extent_bytes, size - flushed)
            yield (object_id, offset + flushed, nbytes)
            flushed += nbytes

    def _flush_step(self, _ev=None) -> None:
        """Gather/submit one writeback round; chains itself until clean.

        Callback twin of the old generator flush loop: the round's
        bookkeeping runs at the tick its last block I/O completes (the
        generator resumed via an ``AllOf`` one tick later at the same
        timestamp), and the next gather happens at that same instant.
        """
        if not self._dirty_extents:
            self._flusher_running = False
            return
        # Gather up to FLUSH_INFLIGHT flush units across dirty extents.
        batch: list[tuple[int, int, int]] = []
        records: list[tuple[int, int, int]] = []
        while self._dirty_extents and len(batch) < self.FLUSH_INFLIGHT:
            record = self._dirty_extents.popleft()
            records.append(record)
            batch.extend(self._flush_units(*record))
        extents = [
            seg
            for object_id, unit_offset, nbytes in batch
            for seg in self.resolve(object_id, unit_offset, nbytes)
        ]

        def _flushed() -> None:
            for _object_id, _unit_offset, nbytes in batch:
                self.dirty_bytes -= nbytes
            for record in records:
                self._mark_clean(*record)
            self._release_throttled()
            self._flush_step()

        self.device.submit_bytes_batch(extents, True, _flushed)

    def _release_throttled(self) -> None:
        while self._throttled:
            gate, size = self._throttled[0]
            if self.dirty_bytes + size > self.params.dirty_limit_bytes:
                break
            self._throttled.popleft()
            # Reserve on the waiter's behalf so admission stays atomic and
            # strictly FIFO.
            self.dirty_bytes += size
            gate.succeed()
