"""ServiceFaultPlan: determinism, validation, spec parsing."""

import pytest

from repro.faults import (
    SERVICE_FAULT_SPEC_FIELDS,
    ServiceFaultPlan,
    TenantProfile,
    parse_service_fault_spec,
)

CHAOS = ServiceFaultPlan(seed=3, flood_rate=0.3, stall_rate=0.2,
                         disconnect_rate=0.2, reorder_rate=0.3,
                         duplicate_rate=0.3, slow_batch_rate=0.1)


@pytest.mark.parametrize("kw", [
    dict(flood_rate=-0.1), dict(stall_rate=1.5), dict(disconnect_rate=2.0),
    dict(reorder_rate=-1.0), dict(duplicate_rate=1.01),
    dict(slow_batch_rate=-0.5), dict(flood_factor=0.0),
    dict(stall_windows=-1), dict(reorder_depth=-2),
    dict(slow_batch_seconds=-0.1),
])
def test_plan_validation(kw):
    with pytest.raises(ValueError):
        ServiceFaultPlan(**kw)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", sorted(SERVICE_FAULT_SPEC_FIELDS))
def test_non_finite_value_rejected(key, value):
    field = SERVICE_FAULT_SPEC_FIELDS[key]
    with pytest.raises(ValueError, match=field):
        ServiceFaultPlan(**{field: float(value)})
    with pytest.raises(ValueError):
        parse_service_fault_spec(f"{key}={value}")


def test_profiles_and_orders_replay_bit_identically():
    tenants = [f"tenant{i:04d}" for i in range(64)]
    a = [CHAOS.tenant_profile(t, 8) for t in tenants]
    b = [ServiceFaultPlan(**CHAOS.to_dict()).tenant_profile(t, 8)
         for t in tenants]
    assert a == b
    for profile in a:
        assert CHAOS.delivery_order(profile, 8) == \
            CHAOS.delivery_order(profile, 8)
    assert [CHAOS.batch_stall(i) for i in range(50)] == \
        [CHAOS.batch_stall(i) for i in range(50)]
    # A different seed is a different regime.
    other = ServiceFaultPlan(**{**CHAOS.to_dict(), "seed": 4})
    assert [other.tenant_profile(t, 8) for t in tenants] != a
    assert other.digest() != CHAOS.digest()
    assert ServiceFaultPlan(**CHAOS.to_dict()).digest() == CHAOS.digest()


def test_chaos_actually_fires():
    profiles = [CHAOS.tenant_profile(f"tenant{i:04d}", 8)
                for i in range(128)]
    assert any(p.floods for p in profiles)
    assert any(p.stalls_at is not None for p in profiles)
    assert any(p.disconnects_at is not None for p in profiles)
    assert any(p.reorders for p in profiles)
    assert any(p.duplicates for p in profiles)
    assert any(not p.chaotic for p in profiles), \
        "some tenants must stay clean — they anchor the bit-identity check"
    # Interior-only fault points: window 0 always flows.
    for p in profiles:
        if p.stalls_at is not None:
            assert 1 <= p.stalls_at < 8
        if p.disconnects_at is not None:
            assert 1 <= p.disconnects_at < 8


def test_delivery_order_is_a_bounded_permutation():
    n = 32
    shuffled = 0
    for i in range(64):
        profile = CHAOS.tenant_profile(f"tenant{i:04d}", n)
        order = CHAOS.delivery_order(profile, n)
        assert sorted(order) == list(range(n))  # a permutation, always
        if not profile.reorders:
            assert order == list(range(n))
            continue
        if order != list(range(n)):
            shuffled += 1
        for pos, window in enumerate(order):
            assert abs(pos - window) <= CHAOS.reorder_depth
    assert shuffled, "reordering tenants must actually shuffle"


def test_fault_classification():
    assert not ServiceFaultPlan().has_tenant_faults
    assert not ServiceFaultPlan().has_service_faults
    assert ServiceFaultPlan(duplicate_rate=0.1).has_tenant_faults
    assert ServiceFaultPlan(slow_batch_rate=0.1).has_service_faults
    assert TenantProfile(tenant="x").chaotic is False
    assert TenantProfile(tenant="x", reorders=True).chaotic is True


def test_parse_spec_round_trip():
    plan = parse_service_fault_spec(
        "flood=0.2, stall=0.1, disconnect=0.05, reorder=0.2, "
        "reorder_depth=3, dup=0.15, slow=0.02, slow_s=0.03, "
        "flood_x=4, stall_w=2, seed=9")
    assert plan == ServiceFaultPlan(
        seed=9, flood_rate=0.2, flood_factor=4.0, stall_rate=0.1,
        stall_windows=2, disconnect_rate=0.05, reorder_rate=0.2,
        reorder_depth=3, duplicate_rate=0.15, slow_batch_rate=0.02,
        slow_batch_seconds=0.03)
    assert parse_service_fault_spec("") == ServiceFaultPlan()
    # Every advertised spec key maps to a real dataclass field.
    fields = set(ServiceFaultPlan.__dataclass_fields__)
    assert set(SERVICE_FAULT_SPEC_FIELDS.values()) == fields


def test_parse_spec_errors():
    with pytest.raises(ValueError, match="unknown chaos spec key"):
        parse_service_fault_spec("floods=0.2")
    with pytest.raises(ValueError, match="not a number"):
        parse_service_fault_spec("flood=lots")
    with pytest.raises(ValueError, match="key=value"):
        parse_service_fault_spec("flood")
    with pytest.raises(ValueError, match="flood_rate"):
        parse_service_fault_spec("flood=1.5")  # range check from the plan
