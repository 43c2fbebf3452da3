"""Object Storage Target: extent allocation, cache and block device.

An OST stores *objects* (one per file stripe). Device space is handed out
by a first-touch bump allocator at a fixed chunk granularity, so an object
accessed sequentially occupies contiguous device extents while
interleaved streams from concurrent jobs end up interleaved on disk —
which is precisely the mechanism behind the read/read seek interference
the paper measures.
"""

from __future__ import annotations

from repro.common.records import ServerId, ServerKind
from repro.common.units import MIB
from repro.sim.cache import CacheParams, PageCache
from repro.sim.disk import DiskParams, FlashParams, make_disk_model
from repro.sim.engine import Environment
from repro.sim.netmodel import Link
from repro.sim.scheduler import BlockDevice

__all__ = ["ExtentAllocator", "OST"]


class ExtentAllocator:
    """First-touch bump allocator mapping (object, chunk) -> device offset."""

    def __init__(self, chunk_bytes: int = 1 * MIB, capacity_bytes: int | None = None):
        if chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        self.chunk_bytes = chunk_bytes
        self.capacity_bytes = capacity_bytes
        self._map: dict[tuple[int, int], int] = {}
        self._next_offset = 0

    def _chunk_offset(self, object_id: int, chunk: int) -> int:
        key = (object_id, chunk)
        dev = self._map.get(key)
        if dev is None:
            dev = self._next_offset
            self._next_offset += self.chunk_bytes
            if self.capacity_bytes is not None and self._next_offset > self.capacity_bytes:
                raise RuntimeError("OST device is full")
            self._map[key] = dev
        return dev

    def resolve(self, object_id: int, offset: int, size: int) -> list[tuple[int, int]]:
        """Device segments covering a logical extent, coalescing contiguity."""
        if offset < 0 or size <= 0:
            raise ValueError(f"bad extent: offset={offset} size={size}")
        cb = self.chunk_bytes
        segments: list[tuple[int, int]] = []
        pos = offset
        end = offset + size
        while pos < end:
            chunk = pos // cb
            within = pos - chunk * cb
            nbytes = min(cb - within, end - pos)
            dev_off = self._chunk_offset(object_id, chunk) + within
            if segments and segments[-1][0] + segments[-1][1] == dev_off:
                prev_off, prev_len = segments[-1]
                segments[-1] = (prev_off, prev_len + nbytes)
            else:
                segments.append((dev_off, nbytes))
            pos += nbytes
        return segments


class OST:
    """One object storage target: allocator + page cache + block device."""

    def __init__(
        self,
        env: Environment,
        index: int,
        oss_link: Link,
        disk_params: "DiskParams | FlashParams | None" = None,
        cache_params: CacheParams | None = None,
    ) -> None:
        self.env = env
        self.server_id = ServerId(ServerKind.OST, index)
        self.oss_link = oss_link
        disk_params = disk_params or DiskParams()
        cache_params = cache_params or CacheParams()
        self.device = BlockDevice(env, make_disk_model(disk_params),
                                  name=str(self.server_id))
        self.allocator = ExtentAllocator(capacity_bytes=disk_params.capacity_bytes)
        self.cache = PageCache(env, self.device, cache_params, self.allocator.resolve)
        from repro.sim.qos import QoSPolicy

        #: Per-job token-bucket admission (Lustre-TBF-style NRS policy).
        self.qos = QoSPolicy(env)

    def serve(self, object_id: int, offset: int, size: int,
              job: str | None, is_write: bool, on_done) -> None:
        """Serve one RPC: QoS admission, then the cache write (payload
        already received) or read (data ready to send back).
        ``on_done()`` runs at completion."""
        if is_write:
            self.qos.admit_one(
                job, size,
                lambda: self.cache.write(object_id, offset, size, on_done),
            )
        else:
            self.qos.admit_one(
                job, size,
                lambda: self.cache.read(object_id, offset, size, on_done),
            )

    def service_batch(self, object_ids, offsets, sizes, job: str | None,
                      is_write: bool, on_done) -> None:
        """Serve a homogeneous burst arriving at one instant.

        Pieces are admitted in array order (QoS grant times via the
        closed-form cumulative sum when the job is rate-limited) and
        ``on_done(i)`` fires at piece *i*'s completion tick.
        """
        cache = self.cache
        if is_write:
            def _admit(i: int) -> None:
                cache.write(object_ids[i], offsets[i], sizes[i],
                                 lambda: on_done(i))
        else:
            def _admit(i: int) -> None:
                cache.read(object_ids[i], offsets[i], sizes[i],
                                lambda: on_done(i))
        self.qos.admit_batch(job, sizes, _admit)

    def queue_depth(self) -> int:
        return self.device.queue_depth
