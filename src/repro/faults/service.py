"""Deterministic tenant-level chaos for the prediction service.

:class:`repro.faults.FaultPlan` describes what goes wrong *inside* one
run — lost samples, killed workers.  A long-lived multi-tenant service
faces a different weather system: whole tenants misbehave.  They flood
(burst far past their nominal window rate), stall mid-stream, or
disconnect and never come back — and the service itself can wedge (a
slow model stalls the batcher while arrivals pile up).  A tenant still
sends each of its windows once, in order, as a monitor produces them.
:class:`ServiceFaultPlan` describes one such regime as data, with every
decision derived from :func:`repro.common.rng.derive_rng` over the plan
seed plus a stable path, exactly like its sibling: the same plan
against the same tenant population injects the bit-identical chaos
schedule on every soak.

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

_RATE_FIELDS = ("flood_rate", "stall_rate", "disconnect_rate",
                "slow_batch_rate")
_POSITIVE_FIELDS = ("flood_factor",)
_NONNEG_FIELDS = ("stall_windows", "slow_batch_seconds")


@dataclass(frozen=True)
class TenantProfile:
    """One tenant's resolved misbehaviour (all decided at admission)."""

    tenant: str
    floods: bool = False
    flood_factor: float = 1.0
    stalls_at: int | None = None  #: window index before which it stalls
    stall_windows: int = 0
    disconnects_at: int | None = None  #: window index at which it vanishes

    @property
    def chaotic(self) -> bool:
        return (self.floods or self.stalls_at is not None
                or self.disconnects_at is not None)


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
        )

    def batch_stall(self, batch_index: int) -> float:
        """Injected model-stall seconds before scoring batch N (0 = none)."""
        if self._hit(self.slow_batch_rate, "slow-batch", batch_index):
            return self.slow_batch_seconds
        return 0.0

    # -- serialisation ----------------------------------------------------

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
    "slow": "slow_batch_rate",
    "slow_s": "slow_batch_seconds",
}


def parse_service_fault_spec(spec: str) -> ServiceFaultPlan:
    """Parse ``key=value`` pairs (see :data:`SERVICE_FAULT_SPEC_FIELDS`).

    Example: ``"flood=0.1,stall=0.05,disconnect=0.05,slow=0.02,seed=3"``.
    Raises :class:`ValueError` on unknown keys or unparseable values;
    range checks come from :class:`ServiceFaultPlan` itself.
    """
    return parse_spec(spec, ServiceFaultPlan, SERVICE_FAULT_SPEC_FIELDS,
                      "chaos")
