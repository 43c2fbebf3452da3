"""Post-hoc fault injection into monitored runs.

The transforms here corrupt a :class:`~repro.monitor.aggregator.
MonitoredRun`'s *telemetry* — the server sample stream and the client
trace — without touching the simulation that produced it.  That split is
what makes the robustness sweep cheap: one clean (cached) simulation
serves every point of a drop-rate × blank-rate grid, because faults are
re-applied deterministically from the :class:`~repro.faults.plan.
FaultPlan` at analysis time.

Two faults are injected, the gaps LASSi-style monitoring leaves: lost
server samples (:func:`inject_sample_faults`) and client windows whose
records never reach aggregation (:func:`blank_client_windows`).  The
stream keeps its sample order, since a dropped sample leaves no trace
and the survivors arrive as they were taken.

Every transform is pure (inputs are never mutated) and bit-reproducible:
the random draws come from the plan's seed plus a caller-supplied scope
string (normally the run's job name), so the same plan applied to the
same run twice yields identical output.  Injection counts land both on
the returned :class:`FaultStats` and in the ``faults.*`` metrics of
:data:`repro.obs.metrics.REGISTRY`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.common.records import IORecord, ServerId
from repro.common.windows import window_index
from repro.faults.plan import FaultPlan
from repro.monitor.aggregator import MonitoredRun
from repro.obs.log import get_logger
from repro.obs.metrics import REGISTRY

__all__ = ["FaultStats", "inject_sample_faults", "blank_client_windows",
           "apply_faults"]

logger = get_logger("faults.inject")


@dataclass
class FaultStats:
    """What one injection pass actually did (manifest-ready)."""

    samples_in: int = 0
    samples_dropped: int = 0
    windows_blanked: int = 0
    records_blanked: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    def merge(self, other: "FaultStats") -> "FaultStats":
        for name, value in asdict(other).items():
            setattr(self, name, getattr(self, name) + value)
        return self


def inject_sample_faults(
    samples: list[tuple[float, ServerId, dict[str, float]]],
    plan: FaultPlan,
    scope: str,
) -> tuple[list[tuple[float, ServerId, dict[str, float]]], FaultStats]:
    """Drop server samples at ``plan.sample_drop_rate``.

    Returns the surviving samples in their original order plus the
    injection stats.
    """
    stats = FaultStats(samples_in=len(samples))
    # The plan's stream is laid out four uniforms per sample and the
    # first decides the drop.  The layout is pinned
    # (tests/faults/test_inject.py): another would change which samples
    # every existing seed drops.
    u_drop = plan.rng("samples", scope).random((len(samples), 4))[:, 0]
    kept = [row for row, u in zip(samples, u_drop)
            if u >= plan.sample_drop_rate]
    stats.samples_dropped = len(samples) - len(kept)
    return kept, stats


def blank_client_windows(
    records: list[IORecord],
    plan: FaultPlan,
    scope: str,
    job: str,
    window_size: float,
    duration: float,
) -> tuple[list[IORecord], FaultStats]:
    """Erase the target job's records from deterministically-chosen windows.

    Models a client monitor losing whole aggregation windows (SHM buffer
    overrun, flush failure).  Other jobs' records are untouched.
    """
    if window_size <= 0:
        raise ValueError(f"window_size must be positive, got {window_size}")
    stats = FaultStats()
    if plan.window_blank_rate <= 0 or not records:
        return list(records), stats
    n_windows = max(1, int(-(-duration // window_size)))
    blanked = {
        w for w in range(n_windows)
        if plan.rng("blank", scope, w).random() < plan.window_blank_rate
    }
    stats.windows_blanked = len(blanked)
    kept: list[IORecord] = []
    for rec in records:
        if rec.job == job and window_index(rec.end, window_size) in blanked:
            stats.records_blanked += 1
            continue
        kept.append(rec)
    return kept, stats


def apply_faults(
    run: MonitoredRun, plan: FaultPlan, window_size: float = 1.0
) -> MonitoredRun:
    """A faulted copy of ``run`` (telemetry faults only; run untouched).

    The returned run carries the injection stats in
    ``metadata["faults"]`` and the originating plan's digest, and the
    pass increments the ``faults.*`` registry counters.
    """
    samples, stats = inject_sample_faults(run.server_samples, plan, run.job)
    records, blank_stats = blank_client_windows(
        run.records, plan, run.job, run.job, window_size, run.duration
    )
    stats.merge(blank_stats)
    for name, value in stats.to_dict().items():
        if name != "samples_in" and value:
            REGISTRY.counter(f"faults.{name}").inc(value)
    if stats.samples_dropped or stats.windows_blanked:
        logger.info(
            "faults applied to %s: dropped %d/%d samples, blanked %d windows",
            run.job, stats.samples_dropped, stats.samples_in,
            stats.windows_blanked,
        )
    metadata = dict(run.metadata)
    metadata["faults"] = {"plan": plan.digest(), **stats.to_dict()}
    return MonitoredRun(
        job=run.job,
        records=records,
        server_samples=samples,
        servers=list(run.servers),
        duration=run.duration,
        metadata=metadata,
    )
