"""Deterministic fault plans.

Production telemetry is gappy: LASSi-style monitor pipelines lose
samples, client monitors blank whole aggregation windows, and
shared-cluster sweep workers die or wedge.  A :class:`FaultPlan`
describes one such fault regime as data — a frozen, serialisable
dataclass whose every decision ("is this sample dropped?", "does this
worker crash?") derives from :func:`repro.common.rng.derive_rng` over
the plan seed plus a stable string path.  Replaying the same plan
against the same run therefore injects the bit-identical fault
sequence, in-process or across worker processes.

Three fault domains, with deliberately different cache semantics:

* **telemetry** (drop server samples, blank client windows) corrupts
  the *view* of a run, never the run itself.  It is applied to the
  collected stream, after the simulator (:func:`repro.faults.
  apply_faults`), so clean runs stay cacheable and one cached sweep
  serves a whole fault grid.  These two kinds are the gaps the
  ``robustness`` experiment sweeps; late, duplicated or clock-skewed
  samples are not faults the program injects.
* **simulation** (abort a run at a chosen simulated time) changes the
  run's content and therefore participates in the run-cache key
  (:meth:`FaultPlan.sim_material`).
* **worker** (kill / flake / stall sweep workers) perturbs *execution*
  only; a retried run produces the identical result, so these never
  enter the cache key.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from repro.common.rng import derive_rng

__all__ = ["FaultPlan", "parse_fault_spec", "FAULT_SPEC_FIELDS",
           "check_fields", "parse_spec"]

_RATE_FIELDS = (
    "sample_drop_rate", "window_blank_rate", "run_abort_rate",
    "worker_kill_rate", "worker_flaky_rate", "worker_stall_rate",
)
_NONNEG_FIELDS = ("run_abort_after", "worker_stall_seconds")


def check_fields(plan, rates: tuple[str, ...] = (),
                 positive: tuple[str, ...] = (),
                 nonnegative: tuple[str, ...] = ()) -> None:
    """Validate a plan dataclass's fields, raising :class:`ValueError`.

    Every field must be finite: nan and inf slip through the ordered
    comparisons below (an infinite ``run_abort_after`` never aborts and
    never returns), and an integer too large for a float is refused
    too.  Then ``rates`` must lie in ``[0, 1]``, ``positive`` above 0
    and ``nonnegative`` at or above 0.
    """
    for f in dataclasses.fields(plan):
        value = getattr(plan, f.name)
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise ValueError(f"{f.name} must be finite, got {value}")
    for name in rates:
        value = getattr(plan, name)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    for name in positive:
        value = getattr(plan, name)
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")
    for name in nonnegative:
        value = getattr(plan, name)
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic fault regime (all rates in ``[0, 1]``)."""

    seed: int = 0

    # -- telemetry faults (view-level; cache-neutral) ----------------------
    #: Fraction of server-monitor samples silently lost.
    sample_drop_rate: float = 0.0
    #: Fraction of client windows whose records never reach aggregation.
    window_blank_rate: float = 0.0

    # -- simulation faults (content-level; enter the cache key) ------------
    #: Fraction of simulated runs killed mid-flight.
    run_abort_rate: float = 0.0
    #: Simulated seconds after which an aborted run is cut off.
    run_abort_after: float = 1.0

    # -- worker faults (execution-level; cache-neutral) --------------------
    #: Fraction of runs whose worker dies on *every* attempt (poisoned).
    worker_kill_rate: float = 0.0
    #: Fraction of (run, attempt) pairs that fail transiently.
    worker_flaky_rate: float = 0.0
    #: Fraction of (run, attempt) pairs that stall before executing.
    worker_stall_rate: float = 0.0
    #: Wall-clock seconds an injected stall sleeps.
    worker_stall_seconds: float = 0.5

    def __post_init__(self) -> None:
        check_fields(self, rates=_RATE_FIELDS, nonnegative=_NONNEG_FIELDS)

    # -- deterministic decisions ------------------------------------------

    def rng(self, *path: str | int) -> np.random.Generator:
        """A generator bound to this plan and a stable decision path."""
        return derive_rng(self.seed, "faults", *path)

    def _hit(self, rate: float, *path: str | int) -> bool:
        return rate > 0.0 and self.rng(*path).random() < rate

    def run_abort_time(self, job: str, seed_salt: str = "") -> float | None:
        """Simulated time this run is killed at, or ``None`` (spared)."""
        if self._hit(self.run_abort_rate, "abort", job, seed_salt):
            return self.run_abort_after
        return None

    def kills_worker(self, key: str) -> bool:
        """Persistent poison: the run identified by ``key`` always dies."""
        return self._hit(self.worker_kill_rate, "kill", key)

    def worker_is_flaky(self, key: str, attempt: int) -> bool:
        """Transient failure: this (run, attempt) dies, a retry may live."""
        return self._hit(self.worker_flaky_rate, "flaky", key, attempt)

    def worker_stall(self, key: str, attempt: int) -> float:
        """Seconds this (run, attempt) sleeps before executing (0 = none)."""
        if self._hit(self.worker_stall_rate, "stall", key, attempt):
            return self.worker_stall_seconds
        return 0.0

    # -- classification ----------------------------------------------------

    @property
    def affects_simulation(self) -> bool:
        return self.run_abort_rate > 0

    @property
    def has_worker_faults(self) -> bool:
        return any(getattr(self, f) > 0 for f in (
            "worker_kill_rate", "worker_flaky_rate", "worker_stall_rate",
        ))

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def sim_material(self) -> dict:
        """The fields that change *run content* — the cache-key payload."""
        return {
            "seed": self.seed,
            "run_abort_rate": self.run_abort_rate,
            "run_abort_after": self.run_abort_after,
        }

    def digest(self) -> str:
        """Stable short hash identifying the whole plan."""
        payload = json.dumps(self.to_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.blake2b(payload.encode(), digest_size=8).hexdigest()


#: Spec shorthand → dataclass field (``abort=0.2,kill=0.5``), for the
#: faults a sweep applies: simulation and worker faults.  Telemetry
#: faults have no keys; the ``robustness`` experiment builds its
#: drop/blank plans in code.
FAULT_SPEC_FIELDS: dict[str, str] = {
    "seed": "seed",
    "abort": "run_abort_rate",
    "abort_after": "run_abort_after",
    "kill": "worker_kill_rate",
    "flaky": "worker_flaky_rate",
    "stall": "worker_stall_rate",
    "stall_s": "worker_stall_seconds",
}


def parse_spec(spec: str, plan_cls, fields: dict[str, str], label: str):
    """Build a ``plan_cls`` from comma-separated ``key=value`` pairs.

    ``fields`` maps each spec key to a dataclass field; a value is
    parsed with the type of its field's default (``int`` or ``float``),
    and ``label`` names the spec in error messages.  Raises
    :class:`ValueError` on unknown keys, items that are not
    ``key=value`` and unparseable values; range checks come from the
    plan itself.
    """
    converters = {f.name: type(f.default)
                  for f in dataclasses.fields(plan_cls)}
    kwargs: dict[str, float | int] = {}
    for part in filter(None, (p.strip() for p in spec.split(","))):
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"{label} spec item {part!r} is not key=value")
        field = fields.get(key.strip())
        if field is None:
            raise ValueError(
                f"unknown {label} spec key {key.strip()!r} "
                f"(known: {', '.join(sorted(fields))})"
            )
        try:
            kwargs[field] = converters[field](value)
        except ValueError:
            raise ValueError(
                f"{label} spec {key.strip()}={value!r}: not a number"
            ) from None
    return plan_cls(**kwargs)


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse ``key=value`` pairs (see :data:`FAULT_SPEC_FIELDS`).

    Example: ``"abort=0.2,abort_after=0.5,kill=0.5,seed=3"``.  Raises
    :class:`ValueError` on unknown keys or unparseable values; field
    range checks come from :class:`FaultPlan` itself.
    """
    return parse_spec(spec, FaultPlan, FAULT_SPEC_FIELDS, "fault")
