"""Rotational disk service model and ``/proc/diskstats``-style counters.

The paper's storage servers use 7200 RPM SATA3 disks, and its Table II
server metrics are the classic block-layer counters: completed I/Os,
sectors read/written, merged requests, queue insertions and queue wait
times. :class:`DiskModel` computes per-request service times from seek,
rotational and transfer components; :class:`DiskStats` mirrors the
diskstats fields so the server-side monitor can sample them exactly as a
real deployment samples ``/proc/diskstats``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.units import MIB, SECTOR_SIZE

__all__ = ["DiskParams", "DiskModel", "FlashParams", "FlashModel",
           "DiskStats", "make_disk_model"]


@dataclass(frozen=True)
class DiskParams:
    """Mechanical characteristics of a rotational disk.

    Defaults approximate a 1 TB 7200 RPM SATA3 drive like the testbed's:
    ~150 MB/s sequential streaming, ~8.5 ms average seek, 4.17 ms average
    rotational latency (half a revolution at 7200 RPM).
    """

    capacity_bytes: int = 1000 * 1000 * MIB
    sequential_bandwidth: float = 150 * MIB  # bytes/s
    seek_min: float = 0.5e-3  # track-to-track seek, seconds
    seek_avg: float = 8.5e-3  # average (third-stroke) seek, seconds
    rpm: float = 7200.0

    @property
    def total_sectors(self) -> int:
        return self.capacity_bytes // SECTOR_SIZE

    @property
    def rotational_latency_avg(self) -> float:
        """Average rotational latency: half a revolution."""
        return 0.5 * 60.0 / self.rpm


class DiskModel:
    """Computes service times for block requests against one disk.

    The model keeps the head position (last LBA touched); a request
    contiguous with the previous one streams at full sequential bandwidth,
    anything else pays a distance-scaled seek plus average rotational
    latency. This is what makes competing sequential read streams slow
    each other down dramatically (the paper's Table I read-read cells)
    while a single stream runs at full speed.
    """

    def __init__(self, params: DiskParams) -> None:
        self.params = params
        self._head_lba = 0

    @property
    def head_lba(self) -> int:
        return self._head_lba

    def service_time(self, lba: int, sectors: int) -> float:
        """Seconds to serve ``sectors`` starting at ``lba``; moves the head."""
        if sectors <= 0:
            raise ValueError(f"request must cover >= 1 sector, got {sectors}")
        if lba < 0:
            raise ValueError(f"negative LBA: {lba}")
        p = self.params
        positioning = 0.0
        if lba != self._head_lba:
            distance = abs(lba - self._head_lba)
            # Seek time grows sub-linearly with distance; a linear ramp
            # between min and ~2x avg at full stroke is a standard simple fit.
            frac = min(1.0, distance / max(1, p.total_sectors))
            positioning = p.seek_min + frac * (2.0 * p.seek_avg - p.seek_min)
            positioning += p.rotational_latency_avg
        transfer = sectors * SECTOR_SIZE / p.sequential_bandwidth
        self._head_lba = lba + sectors
        return positioning + transfer


@dataclass(frozen=True)
class FlashParams:
    """Characteristics of a SATA/NVMe flash device (no mechanical parts).

    Used by the device ablation: on flash, the seek-amplification that
    drives the paper's extreme read/read interference disappears, leaving
    only bandwidth sharing — a qualitatively different Table I.
    """

    capacity_bytes: int = 1000 * 1000 * MIB
    read_bandwidth: float = 500 * MIB
    write_bandwidth: float = 450 * MIB
    #: Fixed per-command latency (FTL + interface).
    command_latency: float = 80e-6

    @property
    def total_sectors(self) -> int:
        return self.capacity_bytes // SECTOR_SIZE


class FlashModel:
    """Service-time model for a flash device: latency + transfer, no seeks.

    Interface-compatible with :class:`DiskModel` (``service_time`` moves a
    nominal head so the elevator still has an ordering key, but position
    carries no cost).
    """

    def __init__(self, params: FlashParams) -> None:
        self.params = params
        self._head_lba = 0

    @property
    def head_lba(self) -> int:
        return self._head_lba

    def service_time(self, lba: int, sectors: int) -> float:
        if sectors <= 0:
            raise ValueError(f"request must cover >= 1 sector, got {sectors}")
        if lba < 0:
            raise ValueError(f"negative LBA: {lba}")
        self._head_lba = lba + sectors
        # Reads and writes differ little at this abstraction level; use
        # the slower (write) bandwidth as the conservative bound.
        bandwidth = min(self.params.read_bandwidth, self.params.write_bandwidth)
        return self.params.command_latency + sectors * SECTOR_SIZE / bandwidth


def make_disk_model(params: "DiskParams | FlashParams"):
    """Factory: build the right service model for a device parameter set."""
    if isinstance(params, FlashParams):
        return FlashModel(params)
    if isinstance(params, DiskParams):
        return DiskModel(params)
    raise TypeError(f"unknown device parameters: {type(params)!r}")


@dataclass
class DiskStats:
    """Cumulative block-device counters (``/proc/diskstats`` semantics).

    Time-like gauges (``io_ticks``, ``weighted_time``) accumulate lazily:
    call :meth:`observe` with the current simulated time before reading
    them, exactly as the kernel updates these fields on access.
    """

    reads_completed: int = 0
    reads_merged: int = 0
    sectors_read: int = 0
    time_reading: float = 0.0
    writes_completed: int = 0
    writes_merged: int = 0
    sectors_written: int = 0
    time_writing: float = 0.0
    queue_insertions: int = 0
    in_flight: int = 0
    io_ticks: float = 0.0  # total time the device had I/O in flight
    weighted_time: float = 0.0  # sum over requests of their time in queue+service

    _last_observed: float = field(default=0.0, repr=False)

    def observe(self, now: float) -> None:
        """Accumulate time-weighted gauges up to ``now``."""
        dt = now - self._last_observed
        if dt < 0:
            raise ValueError(f"time went backwards: {self._last_observed} -> {now}")
        if self.in_flight > 0:
            self.io_ticks += dt
            self.weighted_time += self.in_flight * dt
        self._last_observed = now

    def on_enqueue(self, now: float) -> None:
        self.observe(now)
        self.queue_insertions += 1
        self.in_flight += 1

    def on_enqueue_batch(self, now: float, n: int) -> None:
        """N simultaneous insertions: one ``observe`` then bulk counters —
        identical to N :meth:`on_enqueue` calls at the same instant
        (repeat observes see ``dt == 0``)."""
        self.observe(now)
        self.queue_insertions += n
        self.in_flight += n

    def on_merge(self, is_write: bool) -> None:
        if is_write:
            self.writes_merged += 1
        else:
            self.reads_merged += 1

    def on_complete(self, now: float, is_write: bool, sectors: int, service: float,
                    nrequests: int = 1) -> None:
        """Record completion of a dispatched request covering ``nrequests``
        original (possibly merged) queue entries."""
        self.observe(now)
        if self.in_flight < nrequests:
            raise RuntimeError("completing more requests than are in flight")
        self.in_flight -= nrequests
        if is_write:
            self.writes_completed += nrequests
            self.sectors_written += sectors
            self.time_writing += service
        else:
            self.reads_completed += nrequests
            self.sectors_read += sectors
            self.time_reading += service

    def snapshot(self, now: float) -> dict[str, float]:
        """A plain-dict view of all counters at time ``now``."""
        self.observe(now)
        return {
            "reads_completed": float(self.reads_completed),
            "reads_merged": float(self.reads_merged),
            "sectors_read": float(self.sectors_read),
            "time_reading": self.time_reading,
            "writes_completed": float(self.writes_completed),
            "writes_merged": float(self.writes_merged),
            "sectors_written": float(self.sectors_written),
            "time_writing": self.time_writing,
            "queue_insertions": float(self.queue_insertions),
            "in_flight": float(self.in_flight),
            "io_ticks": self.io_ticks,
            "weighted_time": self.weighted_time,
        }
