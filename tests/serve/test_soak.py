"""The chaos soak: accounting, determinism, bit-identity, reporting.

This is the acceptance harness for the service: hundreds of concurrent
tenants — many misbehaving — must run to completion with zero unhandled
exceptions, every tenant in an accounted terminal state, and the
fault-free tenants receiving exactly the bits a private scorer would
have produced.
"""

import numpy as np
import pytest

from repro.faults import ServiceFaultPlan, TenantProfile
from repro.obs.metrics import REGISTRY
from repro.obs.report import service_health
from repro.serve import ServeConfig, WindowResult, run_soak, tenant_windows
from repro.serve.tenants import TERMINAL_STATES, SoakReport, TenantOutcome

CHAOS = ServiceFaultPlan(seed=3, flood_rate=0.2, stall_rate=0.1,
                         disconnect_rate=0.1, slow_batch_rate=0.05,
                         slow_batch_seconds=0.02)


def outcome_key(outcome):
    return (outcome.tenant, outcome.terminal, outcome.completed,
            [(r.window, r.status, r.probabilities)
             for r in outcome.results])


def test_run_soak_validates_arguments(scorer):
    with pytest.raises(ValueError):
        run_soak(scorer, n_tenants=0)
    with pytest.raises(ValueError):
        run_soak(scorer, n_tenants=1, n_windows=0)
    with pytest.raises(ValueError):
        run_soak(scorer, n_tenants=1, think=-0.1)
    # An infinite think time never submits again; nan slips past ``< 0``.
    for think in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="think must be finite"):
            run_soak(scorer, n_tenants=1, think=think)


def test_clean_soak_all_served_and_bit_identical(scorer):
    REGISTRY.reset()
    report = run_soak(scorer, n_tenants=16, n_windows=5, seed=11)
    assert report.errors == []
    assert report.terminal_counts == {"served": 16, "degraded": 0,
                                      "shed": 0, "error": 0}
    assert report.status_totals == {"fresh": 16 * 5}
    assert report.windows_served == 80
    assert report.throughput > 0
    for outcome in report.outcomes:
        W = tenant_windows(11, outcome.tenant, 5, scorer.n_servers,
                           scorer.n_features)
        assert [r.window for r in outcome.results] == list(range(5))
        for w, res in enumerate(outcome.results):
            want = tuple(scorer.predict_proba_rows(W[w:w + 1])[0].tolist())
            assert res.probabilities == want


def test_chaos_soak_256_tenants_fully_accounted(scorer):
    """The headline acceptance criterion: 256 tenants under floods,
    stalls, disconnects and model stalls — zero unhandled exceptions,
    total terminal-state accounting, and bit-identical answers for
    every fault-free tenant."""
    REGISTRY.reset()
    n, windows = 256, 8
    report = run_soak(scorer, n_tenants=n, n_windows=windows, plan=CHAOS,
                      seed=7)
    assert report.errors == []
    counts = report.terminal_counts
    assert sum(counts.values()) == n
    assert counts["error"] == 0
    for outcome in report.outcomes:
        assert outcome.terminal in TERMINAL_STATES
    assert report.plan_digest == CHAOS.digest()

    # The chaos really happened: the population is not all clean.
    chaotic = [o for o in report.outcomes if o.profile.chaotic]
    clean = [o for o in report.outcomes if not o.profile.chaotic]
    assert chaotic and clean
    disconnected = [o for o in report.outcomes if not o.completed]
    assert disconnected, "disconnect_rate=0.1 must fell some tenants"

    # Fault-free tenants: full in-order stream, all fresh, exact bits.
    for outcome in clean:
        assert outcome.terminal == "served"
        assert outcome.completed
        assert [r.window for r in outcome.results] == list(range(windows))
        assert all(r.status == "fresh" for r in outcome.results)
        W = tenant_windows(7, outcome.tenant, windows, scorer.n_servers,
                           scorer.n_features)
        for w, res in enumerate(outcome.results):
            want = tuple(scorer.predict_proba_rows(W[w:w + 1])[0].tolist())
            assert res.probabilities == want

    # Bounded-memory invariant: after the drain nothing is left queued.
    snapshot = REGISTRY.snapshot()
    assert snapshot["serve.backlog"]["value"] == 0
    # Every submission either resolved to exactly one terminal status or
    # was refused outright with backpressure (and never queued).
    resolved = sum(snapshot[f"serve.{s}"]["value"]
                   for s in ("fresh", "stale", "masked", "shed"))
    backpressure = snapshot.get("serve.backpressure", {}).get("value", 0)
    assert resolved + backpressure == snapshot["serve.submitted"]["value"]


def test_chaos_soak_replays_bit_identically(scorer):
    """Same plan + same seed => the same soak, result for result."""
    REGISTRY.reset()
    first = run_soak(scorer, n_tenants=48, n_windows=6, plan=CHAOS, seed=5)
    REGISTRY.reset()
    second = run_soak(scorer, n_tenants=48, n_windows=6, plan=CHAOS,
                      seed=5)
    assert first.errors == second.errors == []
    assert first.terminal_counts == second.terminal_counts
    assert [outcome_key(o) for o in first.outcomes] == \
        [outcome_key(o) for o in second.outcomes]


def test_soak_respects_admission_cap(scorer):
    REGISTRY.reset()
    report = run_soak(scorer, n_tenants=8, n_windows=3,
                      config=ServeConfig(max_tenants=5), seed=1)
    assert report.errors == []
    counts = report.terminal_counts
    assert counts["shed"] == 3  # the three tenants past the cap
    assert counts["served"] == 5
    rejected = [o for o in report.outcomes if not o.admitted]
    assert len(rejected) == 3
    assert all(o.results == [] for o in rejected)


def test_soak_report_to_dict_and_service_health(scorer):
    REGISTRY.reset()
    report = run_soak(scorer, n_tenants=12, n_windows=4, plan=CHAOS,
                      seed=2)
    doc = report.to_dict()
    assert doc["n_tenants"] == 12
    assert doc["windows_resolved"] == report.windows_served
    assert doc["errors"] == []
    assert set(doc["terminal"]) == set(TERMINAL_STATES)
    assert doc["latency_p50_seconds"] <= doc["latency_p99_seconds"]

    lines = service_health(REGISTRY.snapshot())
    text = "\n".join(lines)
    assert "windows submitted" in text
    assert "ladder:" in text
    assert "fresh" in text
    assert "tenants:" in text and "admitted" in text
    assert "batches:" in text
    assert "latency:" in text


def test_soak_report_percentiles_are_exact():
    """p50/p99 are quantiles of the measured per-window latencies, not
    latency-histogram bucket edges."""
    REGISTRY.reset()
    latencies = [0.001 * (i + 1) for i in range(100)]  # 1..100 ms
    outcome = TenantOutcome(
        tenant="t0", profile=TenantProfile(tenant="t0"), admitted=True,
        results=[WindowResult(window=i, status="fresh", severity=0,
                              probabilities=(1.0, 0.0), latency=latency)
                 for i, latency in enumerate(latencies)])
    doc = SoakReport(n_tenants=1, n_windows=100, plan_digest=None,
                     elapsed=1.0, outcomes=[outcome]).to_dict()
    assert doc["latency_p50_seconds"] == np.percentile(latencies, 50)
    assert doc["latency_p99_seconds"] == np.percentile(latencies, 99)


def test_service_health_silent_without_serve_metrics():
    assert service_health({}) == []
    assert service_health({"engine.events": {"value": 3}}) == []
