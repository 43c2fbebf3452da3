"""``repro.faults`` — deterministic fault injection and its bookkeeping.

Production telemetry pipelines lose samples and whole client windows;
sweep workers crash and wedge.  This package makes those failure modes a
first-class, *seeded* part of the reproduction so the degradation
machinery (gap policies in the aggregator, the executor's
retry/quarantine loop, the service's degradation ladder) can be
exercised bit-reproducibly:

* :mod:`repro.faults.plan` — :class:`FaultPlan`, the serialisable fault
  regime whose every decision derives from ``repro.common.rng``;
* :mod:`repro.faults.inject` — pure post-hoc transforms that drop a
  monitored run's server samples and blank its client windows
  (cache-friendly: clean simulations are cached, faults are re-applied
  per grid point);
* :mod:`repro.faults.service` — :class:`ServiceFaultPlan`, the
  tenant-level chaos regime (floods, stalls, disconnects, slow-model
  stalls) the prediction service's soak harness
  (:func:`repro.serve.run_soak`) injects.

Telemetry faults are applied only after collection, by
:func:`apply_faults` on a :class:`~repro.monitor.aggregator.MonitoredRun`:
lost samples and blanked windows are a property of the collected metric
stream, not of the monitor that sampled it, and the ``robustness``
experiment is the one caller.  The live injection point is the
:class:`~repro.parallel.executor.SweepExecutor`, which consults the plan
for worker kills/stalls and simulated-run aborts.
"""

from repro.faults.inject import (
    FaultStats,
    apply_faults,
    blank_client_windows,
    inject_sample_faults,
)
from repro.faults.plan import FAULT_SPEC_FIELDS, FaultPlan, parse_fault_spec
from repro.faults.service import (
    SERVICE_FAULT_SPEC_FIELDS,
    ServiceFaultPlan,
    TenantProfile,
    parse_service_fault_spec,
)

__all__ = [
    "FaultPlan",
    "FaultStats",
    "FAULT_SPEC_FIELDS",
    "SERVICE_FAULT_SPEC_FIELDS",
    "ServiceFaultPlan",
    "TenantProfile",
    "parse_fault_spec",
    "parse_service_fault_spec",
    "apply_faults",
    "inject_sample_faults",
    "blank_client_windows",
]
