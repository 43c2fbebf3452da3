"""Deterministic tenant-level chaos for the prediction service.

:class:`repro.faults.FaultPlan` describes what goes wrong *inside* one
run — lost samples, killed workers.  A long-lived multi-tenant service
faces a different weather system: whole tenants misbehave.  They flood
(burst far past their nominal window rate), stall mid-stream, disconnect
and never come back, deliver windows out of order or twice — and the
service itself can wedge (a slow model stalls the batcher while arrivals
pile up).  :class:`ServiceFaultPlan` describes one such regime as data,
with every decision derived from :func:`repro.common.rng.derive_rng`
over the plan seed plus a stable path, exactly like its sibling: the
same plan against the same tenant population injects the bit-identical
chaos schedule on every soak.

Chaos is decided **per tenant** (:meth:`ServiceFaultPlan.tenant_profile`
returns the full misbehaviour profile of one tenant id) and **per
batch** for service-side stalls, so the harness can drive thousands of
concurrent tenants without any shared mutable fault state.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

from repro.common.rng import derive_rng
from repro.faults.plan import check_fields, parse_spec

__all__ = [
    "ServiceFaultPlan",
    "TenantProfile",
    "SERVICE_FAULT_SPEC_FIELDS",
    "parse_service_fault_spec",
]

_RATE_FIELDS = (
    "flood_rate", "stall_rate", "disconnect_rate", "reorder_rate",
    "duplicate_rate", "slow_batch_rate",
)
_POSITIVE_FIELDS = ("flood_factor",)
_NONNEG_FIELDS = ("stall_windows", "reorder_depth", "slow_batch_seconds")


@dataclass(frozen=True)
class TenantProfile:
    """One tenant's resolved misbehaviour (all decided at admission).

    ``reorder_plan`` / ``duplicate_plan`` are decided lazily per window
    via the plan's RNG; this frozen part is what shapes the tenant's
    traffic envelope.
    """

    tenant: str
    floods: bool = False
    flood_factor: float = 1.0
    stalls_at: int | None = None  #: window index before which it stalls
    stall_windows: int = 0
    disconnects_at: int | None = None  #: window index at which it vanishes
    reorders: bool = False
    duplicates: bool = False

    @property
    def chaotic(self) -> bool:
        return (self.floods or self.stalls_at is not None
                or self.disconnects_at is not None or self.reorders
                or self.duplicates)


@dataclass(frozen=True)
class ServiceFaultPlan:
    """One deterministic tenant-chaos regime (rates in ``[0, 1]``)."""

    seed: int = 0

    # -- tenant-traffic chaos ----------------------------------------------
    #: Fraction of tenants that flood: their inter-window think time is
    #: divided by ``flood_factor``, bursting the admission path.
    flood_rate: float = 0.0
    flood_factor: float = 8.0
    #: Fraction of tenants that stall mid-stream (stop sending for
    #: ``stall_windows`` windows' worth of time, then resume).
    stall_rate: float = 0.0
    stall_windows: int = 4
    #: Fraction of tenants that disconnect mid-stream and never finish.
    disconnect_rate: float = 0.0
    #: Fraction of tenants whose windows are delivered out of order
    #: (shuffled within a bounded distance of ``reorder_depth``).
    reorder_rate: float = 0.0
    reorder_depth: int = 2
    #: Fraction of a chaotic tenant's windows that are delivered twice.
    duplicate_rate: float = 0.0

    # -- service-side chaos ------------------------------------------------
    #: Probability that one micro-batch's forward pass stalls.
    slow_batch_rate: float = 0.0
    #: Wall-clock seconds an injected model stall sleeps.
    slow_batch_seconds: float = 0.05

    def __post_init__(self) -> None:
        check_fields(self, rates=_RATE_FIELDS, positive=_POSITIVE_FIELDS,
                     nonnegative=_NONNEG_FIELDS)

    # -- deterministic decisions ------------------------------------------

    def rng(self, *path: str | int):
        """A generator bound to this plan and a stable decision path."""
        return derive_rng(self.seed, "serve-faults", *path)

    def _hit(self, rate: float, *path: str | int) -> bool:
        return rate > 0.0 and self.rng(*path).random() < rate

    def tenant_profile(self, tenant: str, n_windows: int) -> TenantProfile:
        """The full chaos profile of one tenant over its window stream.

        Stall and disconnect points are drawn from the *interior* of the
        stream (never window 0) so a misbehaving tenant always shows the
        service some healthy traffic first — the regime the circuit
        breaker has to recognise.
        """
        floods = self._hit(self.flood_rate, "flood", tenant)
        stalls_at = None
        if n_windows > 1 and self._hit(self.stall_rate, "stall", tenant):
            stalls_at = 1 + int(self.rng("stall-at", tenant)
                                .integers(0, n_windows - 1))
        disconnects_at = None
        if n_windows > 1 and self._hit(self.disconnect_rate, "disc", tenant):
            disconnects_at = 1 + int(self.rng("disc-at", tenant)
                                     .integers(0, n_windows - 1))
        return TenantProfile(
            tenant=tenant,
            floods=floods,
            flood_factor=self.flood_factor if floods else 1.0,
            stalls_at=stalls_at,
            stall_windows=self.stall_windows,
            disconnects_at=disconnects_at,
            reorders=self._hit(self.reorder_rate, "reorder", tenant),
            duplicates=self._hit(self.duplicate_rate, "dup-tenant", tenant),
        )

    def delivery_order(self, profile: TenantProfile,
                       n_windows: int) -> list[int]:
        """The (possibly shuffled) order this tenant sends its windows.

        A reordering tenant's stream is permuted so no window moves more
        than ``reorder_depth`` positions from its in-order slot — the
        bounded-displacement regime a reorder buffer of that depth can
        fully absorb.  Each window draws a delay in
        ``[0, reorder_depth]`` and the stream is stable-sorted by
        ``window + delay``: any two windows more than ``reorder_depth``
        apart keep their relative order, which bounds every window's
        displacement (in both directions) by ``reorder_depth``.
        """
        order = list(range(n_windows))
        if not profile.reorders or self.reorder_depth == 0:
            return order
        delays = self.rng("order", profile.tenant).integers(
            0, self.reorder_depth + 1, size=n_windows)
        order.sort(key=lambda w: (w + int(delays[w]), w))
        return order

    def duplicates_window(self, profile: TenantProfile, window: int) -> bool:
        """Whether this tenant delivers ``window`` twice."""
        return (profile.duplicates
                and self._hit(self.duplicate_rate, "dup",
                              profile.tenant, window))

    def batch_stall(self, batch_index: int) -> float:
        """Injected model-stall seconds before scoring batch N (0 = none)."""
        if self._hit(self.slow_batch_rate, "slow-batch", batch_index):
            return self.slow_batch_seconds
        return 0.0

    # -- classification / serialisation -----------------------------------

    @property
    def has_tenant_faults(self) -> bool:
        return any(getattr(self, f) > 0 for f in (
            "flood_rate", "stall_rate", "disconnect_rate", "reorder_rate",
            "duplicate_rate",
        ))

    @property
    def has_service_faults(self) -> bool:
        return self.slow_batch_rate > 0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def digest(self) -> str:
        """Stable short hash identifying the whole plan."""
        payload = json.dumps(self.to_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.blake2b(payload.encode(), digest_size=8).hexdigest()


#: CLI spec shorthand -> dataclass field (``--chaos flood=0.1,stall=0.05``).
SERVICE_FAULT_SPEC_FIELDS: dict[str, str] = {
    "seed": "seed",
    "flood": "flood_rate",
    "flood_x": "flood_factor",
    "stall": "stall_rate",
    "stall_w": "stall_windows",
    "disconnect": "disconnect_rate",
    "reorder": "reorder_rate",
    "reorder_depth": "reorder_depth",
    "dup": "duplicate_rate",
    "slow": "slow_batch_rate",
    "slow_s": "slow_batch_seconds",
}


def parse_service_fault_spec(spec: str) -> ServiceFaultPlan:
    """Parse ``key=value`` pairs (see :data:`SERVICE_FAULT_SPEC_FIELDS`).

    Example: ``"flood=0.1,stall=0.05,disconnect=0.05,dup=0.2,seed=3"``.
    Raises :class:`ValueError` on unknown keys or unparseable values;
    range checks come from :class:`ServiceFaultPlan` itself.
    """
    return parse_spec(spec, ServiceFaultPlan, SERVICE_FAULT_SPEC_FIELDS,
                      "chaos")
