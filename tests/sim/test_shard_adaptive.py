"""The adaptive window policy: byte-identity and the λ-safety invariant.

``WindowPolicy("adaptive")`` (the default) elides coordinator barriers
two ways — root-quiet widened spans and guarded domain-ahead rounds
(:mod:`repro.sim.shard` module docs) — while the run's records, server
samples, duration and metadata stay byte-identical to the fixed-λ
protocol at every shard count, on data and metadata workloads, including
the fault/abort path.  These tests pin that contract, the λ-safety
invariant of every widened span (no cross-domain effect may land before a span's
reached end), the policy spec parsing, and the ``n_domains == 1``
bypass.
"""

import dataclasses

import pytest

from repro.experiments.runner import ExperimentConfig, experiment_cluster
from repro.obs.metrics import REGISTRY
from repro.sim.shard import WindowPolicy, execute_run_sharded

from tests.sim.test_shard_equivalence import (
    assert_runs_identical,
    config_for,
    noise,
    target,
)


# -- policy spec parsing ------------------------------------------------------


def test_parse_fixed_and_adaptive():
    assert WindowPolicy.parse("fixed").mode == "fixed"
    assert not WindowPolicy.parse("fixed").adaptive
    assert WindowPolicy.parse("adaptive").adaptive
    assert WindowPolicy.parse("adaptive").cap is None


def test_parse_adaptive_cap():
    policy = WindowPolicy.parse("adaptive:cap=0.01")
    assert policy.adaptive and policy.cap == 0.01


@pytest.mark.parametrize("spec", [
    "", "bogus", "adaptive:cap=", "adaptive:cap=zero", "adaptive:cap=-1",
    "adaptive:cap=0", "fixed:cap=0.01", "adaptive:x=1",
])
def test_parse_rejects_bad_specs(spec):
    with pytest.raises(ValueError):
        WindowPolicy.parse(spec)


def test_resolve_passthrough_and_default():
    policy = WindowPolicy(mode="fixed")
    assert WindowPolicy.resolve(policy) is policy
    assert WindowPolicy.resolve(None).adaptive
    assert WindowPolicy.resolve("fixed").mode == "fixed"


def test_cap_must_clear_sample_interval():
    cfg = config_for()
    with pytest.raises(ValueError, match="sample_interval"):
        execute_run_sharded(target(), noise(), cfg,
                            window_policy=f"adaptive:cap={cfg.sample_interval}")


# -- byte-identity ------------------------------------------------------------


@pytest.mark.parametrize("path", ["batch", "event"])
def test_adaptive_matches_fixed_across_shard_counts(path):
    """fixed/shards=1 is the reference; adaptive reproduces it exactly
    at every shard count, on data-op and metadata-op workloads."""
    cfg = config_for()
    ref = execute_run_sharded(target(path), noise(path), cfg, shards=1,
                              window_policy="fixed")
    for shards in (1, 2, 3):
        run = execute_run_sharded(target(path), noise(path), cfg,
                                  shards=shards, window_policy="adaptive")
        assert_runs_identical(ref, run)


def test_adaptive_pays_fewer_windows():
    cfg = config_for()
    REGISTRY.reset()
    execute_run_sharded(target(), noise(), cfg, window_policy="fixed")
    fixed = REGISTRY.counter("shard.windows").value
    REGISTRY.reset()
    execute_run_sharded(target(), noise(), cfg, window_policy="adaptive")
    adaptive = REGISTRY.counter("shard.windows").value
    elided = REGISTRY.counter("shard.windows_elided").value
    assert adaptive < fixed
    assert elided > 0
    # Every elided sub-window is a barrier the fixed policy paid: the
    # two counts must close the books against the fixed total.
    assert adaptive + elided <= fixed


def test_adaptive_abort_path_identical():
    """Fault injection under adaptive windows truncates identically."""
    cfg = config_for()
    ref = execute_run_sharded(target(), noise(), cfg, shards=1,
                              abort_at=0.7, window_policy="fixed")
    run = execute_run_sharded(target(), noise(), cfg, shards=3,
                              abort_at=0.7, window_policy="adaptive")
    assert ref.metadata["aborted"] is True
    assert_runs_identical(ref, run)


def test_adaptive_capped_still_identical():
    """A tiny cap only shrinks spans, never changes output."""
    cfg = config_for()
    ref = execute_run_sharded(target(), noise(), cfg, window_policy="fixed")
    run = execute_run_sharded(target(), noise(), cfg,
                              window_policy="adaptive:cap=0.001")
    assert_runs_identical(ref, run)


# -- λ-safety invariant (property test over the audit stream) ----------------


def test_widened_spans_respect_lambda_safety():
    """Every widened span proves no cross-domain effect precedes its end.

    The audit hook records, after each span, the earliest undelivered
    message effect and both sides' next event times.  λ-safety means no
    effect time < the span's reached end: for root-quiet spans the
    domains were untouched and must still clear the end; for guarded
    rounds the root ran to the end, so its posts' effects must all land
    at or past it.
    """
    cfg = config_for()
    audit: list = []
    execute_run_sharded(target(), noise(), cfg,
                        window_policy=WindowPolicy(mode="adaptive",
                                                   audit=audit))
    assert audit, "adaptive run elided no spans"
    kinds = {entry["kind"] for entry in audit}
    assert kinds <= {"root", "guarded"}
    for entry in audit:
        begin, end = entry["begin"], entry["end"]
        assert begin < end <= entry["planned"]
        assert end - begin <= cfg.sample_interval + 1e-12
        # No undelivered effect may precede the span end.
        assert entry["min_effect"] >= end
        if entry["kind"] == "root":
            # Root-quiet: domains untouched, their horizon cleared the
            # span and still clears its reached end.
            assert entry["domain_next"] >= end
        else:
            # Guarded round: the root was frozen during the domain
            # lockstep and then ran to the end; any reaction it posted
            # lands at or past it (asserted via min_effect above), and
            # its own queue cleared the span.
            assert entry["root_next"] >= end
            assert entry["subwindows"] >= 0
            if entry["completions"]:
                # The first-completion guard: a completing round stops
                # within λ of its first completion, so the whole span
                # past the completion sub-window start is ≤ λ wide.
                assert end <= entry["planned"]
    # Both elision mechanisms must actually engage on this workload.
    assert "root" in kinds and "guarded" in kinds


# -- n_domains == 1 bypass ----------------------------------------------------


def single_domain_config() -> ExperimentConfig:
    cluster = dataclasses.replace(experiment_cluster(), n_oss=1,
                                  osts_per_oss=2)
    return ExperimentConfig(cluster=cluster, window_size=0.25,
                            sample_interval=0.125, warmup=0.5, seed=0)


def test_single_domain_bypass_equivalence():
    """One OSS domain: the bookkeeping bypass changes nothing observable,
    at either shard count or policy."""
    cfg = single_domain_config()
    assert cfg.cluster.n_domains == 1
    ref = execute_run_sharded(target(), noise(), cfg, shards=1,
                              window_policy="fixed")
    for shards, policy in ((1, "adaptive"), (2, "adaptive"), (2, "fixed")):
        run = execute_run_sharded(target(), noise(), cfg, shards=shards,
                                  window_policy=policy)
        assert_runs_identical(ref, run)


def test_single_domain_adaptive_elides():
    cfg = single_domain_config()
    REGISTRY.reset()
    execute_run_sharded(target(), noise(), cfg, window_policy="fixed")
    fixed = REGISTRY.counter("shard.windows").value
    REGISTRY.reset()
    execute_run_sharded(target(), noise(), cfg, window_policy="adaptive")
    adaptive = REGISTRY.counter("shard.windows").value
    assert adaptive < fixed
