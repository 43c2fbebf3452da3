"""Tests for FaultPlan: validation, determinism, serialisation, and the
``key=value`` spec parser shared with ServiceFaultPlan."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.faults import (
    FAULT_SPEC_FIELDS,
    SERVICE_FAULT_SPEC_FIELDS,
    FaultPlan,
    ServiceFaultPlan,
    parse_fault_spec,
    parse_service_fault_spec,
)


class TestValidation:
    def test_defaults_are_fault_free(self):
        plan = FaultPlan()
        assert not plan.affects_simulation
        assert not plan.has_worker_faults

    @pytest.mark.parametrize("field", [
        "sample_drop_rate", "window_blank_rate", "run_abort_rate",
        "worker_kill_rate", "worker_flaky_rate", "worker_stall_rate",
    ])
    def test_rates_bounded(self, field):
        with pytest.raises(ValueError, match=field):
            FaultPlan(**{field: 1.5})
        with pytest.raises(ValueError, match=field):
            FaultPlan(**{field: -0.1})
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            FaultPlan(**{field: float("nan")})
        FaultPlan(**{field: 1.0})  # bounds themselves are legal

    @pytest.mark.parametrize("field", [
        "run_abort_after", "worker_stall_seconds",
    ])
    def test_nonnegatives(self, field):
        with pytest.raises(ValueError, match=field):
            FaultPlan(**{field: -1.0})

    def test_domain_classification(self):
        assert FaultPlan(run_abort_rate=0.1).affects_simulation
        assert FaultPlan(worker_kill_rate=0.1).has_worker_faults
        assert not FaultPlan(sample_drop_rate=0.1).affects_simulation
        assert not FaultPlan(sample_drop_rate=0.1).has_worker_faults


class TestDeterminism:
    def test_decisions_replay_bit_identically(self):
        plan = FaultPlan(seed=7, worker_kill_rate=0.4,
                         worker_flaky_rate=0.3, run_abort_rate=0.5)
        replay = FaultPlan(seed=7, worker_kill_rate=0.4,
                           worker_flaky_rate=0.3, run_abort_rate=0.5)
        keys = [f"key-{i}" for i in range(50)]
        assert [plan.kills_worker(k) for k in keys] == \
               [replay.kills_worker(k) for k in keys]
        assert [plan.worker_is_flaky(k, 1) for k in keys] == \
               [replay.worker_is_flaky(k, 1) for k in keys]
        assert [plan.run_abort_time(k) for k in keys] == \
               [replay.run_abort_time(k) for k in keys]

    def test_seed_changes_decisions(self):
        keys = [f"key-{i}" for i in range(200)]
        a = [FaultPlan(seed=1, worker_kill_rate=0.5).kills_worker(k)
             for k in keys]
        b = [FaultPlan(seed=2, worker_kill_rate=0.5).kills_worker(k)
             for k in keys]
        assert a != b

    def test_attempts_are_independent_for_flaky(self):
        plan = FaultPlan(seed=3, worker_flaky_rate=0.5)
        outcomes = {plan.worker_is_flaky("k", a) for a in range(30)}
        assert outcomes == {True, False}

    def test_kill_is_attempt_independent(self):
        plan = FaultPlan(seed=3, worker_kill_rate=0.5)
        killed = [k for k in (f"key-{i}" for i in range(40))
                  if plan.kills_worker(k)]
        assert killed  # rate 0.5 over 40 keys: some die
        for k in killed:  # and they die every time they are asked
            assert plan.kills_worker(k)

    def test_rate_extremes(self):
        assert not FaultPlan(worker_kill_rate=0.0).kills_worker("k")
        assert FaultPlan(worker_kill_rate=1.0).kills_worker("k")
        assert FaultPlan(run_abort_rate=1.0,
                         run_abort_after=2.5).run_abort_time("j") == 2.5
        assert FaultPlan().run_abort_time("j") is None

    def test_stall_returns_configured_seconds(self):
        plan = FaultPlan(worker_stall_rate=1.0, worker_stall_seconds=0.25)
        assert plan.worker_stall("k", 0) == 0.25
        assert FaultPlan().worker_stall("k", 0) == 0.0


class TestSerialisation:
    def test_digest_stable_and_sensitive(self):
        a = FaultPlan(seed=1, sample_drop_rate=0.2)
        assert a.digest() == FaultPlan(seed=1, sample_drop_rate=0.2).digest()
        assert a.digest() != FaultPlan(seed=1, sample_drop_rate=0.3).digest()

    def test_sim_material_excludes_other_domains(self):
        plan = FaultPlan(seed=5, run_abort_rate=0.3, sample_drop_rate=0.9,
                         worker_kill_rate=0.9)
        material = plan.sim_material()
        assert material == {"seed": 5, "run_abort_rate": 0.3,
                            "run_abort_after": 1.0}

    def test_round_trips_through_dict_and_pickle(self):
        plan = FaultPlan(seed=9, sample_drop_rate=0.1, worker_kill_rate=0.2)
        assert FaultPlan(**plan.to_dict()) == plan
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestSpecParsing:
    def test_parse_round_trip(self):
        plan = parse_fault_spec("abort=0.2, kill=0.5, seed=3")
        assert plan.run_abort_rate == 0.2
        assert plan.worker_kill_rate == 0.5
        assert plan.seed == 3

    def test_every_shorthand_maps_to_a_field(self):
        fields = {f for f in FaultPlan.__dataclass_fields__}
        assert set(FAULT_SPEC_FIELDS.values()) <= fields

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown fault spec key"):
            parse_fault_spec("nosuchthing=1")
        # Sweeps apply no telemetry faults, so they have no spec keys.
        for key in ("drop", "blank"):
            with pytest.raises(ValueError,
                               match=f"unknown fault spec key '{key}'"):
                parse_fault_spec(f"{key}=0.5")

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="not a number"):
            parse_fault_spec("kill=lots")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_fault_spec("kill")

    def test_out_of_range_value_rejected(self):
        with pytest.raises(ValueError, match="worker_kill_rate"):
            parse_fault_spec("kill=2.0")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", sorted(FAULT_SPEC_FIELDS))
    def test_non_finite_value_rejected(self, key, value):
        field = FAULT_SPEC_FIELDS[key]
        with pytest.raises(ValueError, match=field):
            FaultPlan(**{field: float(value)})
        with pytest.raises(ValueError):
            parse_fault_spec(f"{key}={value}")

    def test_empty_spec_is_fault_free(self):
        assert parse_fault_spec("") == FaultPlan()

    @pytest.mark.parametrize("parse", [parse_fault_spec,
                                       parse_service_fault_spec])
    def test_seed_beyond_float_range_rejected(self, parse):
        """An integer too large for a float used to escape the finite
        check as OverflowError."""
        with pytest.raises(ValueError, match="seed"):
            parse("seed=1" + "0" * 400)
        with pytest.raises(ValueError, match="seed"):
            FaultPlan(seed=10 ** 400)
        with pytest.raises(ValueError, match="seed"):
            ServiceFaultPlan(seed=10 ** 400)


# -- properties of the key=value spec, for both plan kinds --------------------

_rate = st.floats(min_value=0.0, max_value=1.0)
_nonneg = st.floats(min_value=0.0, max_value=1e300)
_seed = st.integers(min_value=-2 ** 64, max_value=2 ** 64)

_FAULT_PLANS = st.builds(
    FaultPlan, seed=_seed,
    **{field: _rate if field.endswith("_rate") else _nonneg
       for field in FAULT_SPEC_FIELDS.values() if field != "seed"})
_SERVICE_PLANS = st.builds(
    ServiceFaultPlan, seed=_seed,
    flood_factor=st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
    stall_windows=st.integers(min_value=0, max_value=10 ** 6),
    slow_batch_seconds=_nonneg,
    **{field: _rate for field in SERVICE_FAULT_SPEC_FIELDS.values()
       if field.endswith("_rate")})

_KINDS = {
    "fault": (_FAULT_PLANS, FAULT_SPEC_FIELDS, parse_fault_spec),
    "chaos": (_SERVICE_PLANS, SERVICE_FAULT_SPEC_FIELDS,
              parse_service_fault_spec),
}


def render(plan, fields, keys):
    """The plan as a ``key=value`` spec, fields in ``keys`` order."""
    return ", ".join(f"{key}={getattr(plan, fields[key])!r}" for key in keys)


@pytest.mark.parametrize("kind", sorted(_KINDS))
@given(data=st.data())
def test_valid_plans_round_trip_through_their_spec(kind, data):
    plans, fields, parse = _KINDS[kind]
    plan = data.draw(plans)
    keys = data.draw(st.permutations(sorted(fields)))
    assert parse(render(plan, fields, keys)) == plan


_NUMBERS = st.one_of(
    st.floats().map(repr),
    st.integers(min_value=-10 ** 400, max_value=10 ** 400).map(str))


@pytest.mark.parametrize("kind", sorted(_KINDS))
@given(data=st.data())
def test_any_text_parses_or_raises_value_error(kind, data):
    """Arbitrary text is either a plan or a ValueError — never another
    exception (such as the OverflowError an integer beyond the float
    range used to raise)."""
    _, fields, parse = _KINDS[kind]
    items = data.draw(st.lists(st.tuples(
        st.one_of(st.sampled_from(sorted(fields)), st.text(max_size=8)),
        st.one_of(_NUMBERS, st.text(max_size=12))), max_size=4))
    spec = ",".join(f"{key}={value}" for key, value in items)
    for text in (spec, data.draw(st.text())):
        try:
            parse(text)
        except ValueError:
            pass
