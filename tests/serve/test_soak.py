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
from repro.serve import WindowResult, run_soak, tenant_windows
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
    assert report.statuses == {"fresh": 16 * 5}
    assert report.windows_resolved == 80
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


def test_soak_respects_admission_cap(scorer, envelope):
    REGISTRY.reset()
    envelope(MAX_TENANTS=5)
    report = run_soak(scorer, n_tenants=8, n_windows=3, seed=1)
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
    assert doc["windows_resolved"] == report.windows_resolved
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


def test_soak_report_counts_what_the_service_answered(scorer):
    """A flooding tenant that disconnects abandons its pending
    submissions, but the windows of them already queued are still
    scored: the report counts every window the service resolved, as its
    ``serve.<status>`` counters do, not only those tenants received."""
    REGISTRY.reset()
    report = run_soak(scorer, n_tenants=12, n_windows=4, plan=CHAOS,
                      seed=2)
    doc = report.to_dict()
    snapshot = REGISTRY.snapshot()
    ladder = {s: int(snapshot[f"serve.{s}"]["value"])
              for s in ("fresh", "stale", "masked", "shed")
              if snapshot[f"serve.{s}"]["value"]}
    received = sum(len(o.results) for o in report.outcomes)
    assert received < sum(ladder.values())  # the abandoned, answered ones
    assert doc["statuses"] == ladder
    assert doc["windows_resolved"] == sum(ladder.values())


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


def test_service_health_ladder_shares_are_of_resolved_windows():
    """A submission refused with backpressure is submitted but never
    resolved: the queue-depth-1 flood soak resolved all 32 windows
    fresh after 20 refusals, which is 100 % fresh, not 62 %."""
    counter = lambda value: {"kind": "counter", "value": value}  # noqa: E731
    snapshot = {"serve.submitted": counter(52), "serve.fresh": counter(32),
                "serve.backpressure": counter(20)}
    lines = service_health(snapshot)
    assert "windows submitted: 52" in lines
    assert ("ladder: fresh 32 (100%), stale 0 (0%), masked 0 (0%), "
            "shed 0 (0%)") in lines
    snapshot.update({"serve.stale": counter(8), "serve.shed": counter(8)})
    assert ("ladder: fresh 32 (67%), stale 8 (17%), masked 0 (0%), "
            "shed 8 (17%)") in service_health(snapshot)


def test_service_health_silent_without_serve_metrics():
    assert service_health({}) == []
    assert service_health({"engine.events": {"value": 3}}) == []
