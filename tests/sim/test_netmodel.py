"""Tests for the max-min fair-share flow network."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Environment
from repro.sim.netmodel import FlowNetwork, Link


def run_transfers(specs, capacities):
    """Run transfers (size, link_indices, start_delay); return finish times."""
    env = Environment()
    net = FlowNetwork(env)
    links = [Link(f"l{i}", c) for i, c in enumerate(capacities)]
    finishes = {}

    def start(i, size, link_idx):
        net.transfer_batch([(size, tuple(links[j] for j in link_idx),
                             lambda: finishes.__setitem__(i, env.now))])

    for i, (size, link_idx, delay) in enumerate(specs):
        env.after(delay, lambda _ev, i=i, size=size, link_idx=link_idx:
                  start(i, size, link_idx))
    env.run()
    assert len(finishes) == len(specs)
    return finishes, net


def test_single_flow_full_bandwidth():
    finishes, _ = run_transfers([(1000.0, (0,), 0.0)], [100.0])
    assert finishes[0] == pytest.approx(10.0)


def test_two_flows_share_one_link_equally():
    finishes, _ = run_transfers(
        [(1000.0, (0,), 0.0), (1000.0, (0,), 0.0)], [100.0]
    )
    # Both progress at 50 B/s until both finish at t=20.
    assert finishes[0] == pytest.approx(20.0)
    assert finishes[1] == pytest.approx(20.0)


def test_short_flow_finishes_then_long_flow_speeds_up():
    finishes, _ = run_transfers(
        [(500.0, (0,), 0.0), (1500.0, (0,), 0.0)], [100.0]
    )
    # Equal share 50 B/s: flow0 done at 10. Flow1 has 1000 left, now 100 B/s.
    assert finishes[0] == pytest.approx(10.0)
    assert finishes[1] == pytest.approx(20.0)


def test_bottleneck_is_the_slowest_link_on_path():
    finishes, _ = run_transfers([(1000.0, (0, 1), 0.0)], [100.0, 10.0])
    assert finishes[0] == pytest.approx(100.0)


def test_max_min_allocation_across_links():
    # f0 on links (0,1); f1 on link 1 only; link0 cap 100, link1 cap 30.
    # Max-min: both flows bottlenecked on link1 at 15 B/s each.
    finishes, _ = run_transfers(
        [(150.0, (0, 1), 0.0), (150.0, (1,), 0.0)], [100.0, 30.0]
    )
    assert finishes[0] == pytest.approx(10.0)
    assert finishes[1] == pytest.approx(10.0)


def test_unbottlenecked_flow_gets_leftover():
    # f0 on (0,); f1 on (0,1). link0=100, link1=20.
    # f1 limited to 20 by link1; f0 gets the remaining 80.
    finishes, _ = run_transfers(
        [(800.0, (0,), 0.0), (200.0, (0, 1), 0.0)], [100.0, 20.0]
    )
    assert finishes[0] == pytest.approx(10.0)
    assert finishes[1] == pytest.approx(10.0)


def test_staggered_arrival_reallocates():
    # Flow0 alone for 5s (500 done), then shares with flow1.
    finishes, _ = run_transfers(
        [(1000.0, (0,), 0.0), (250.0, (0,), 5.0)], [100.0]
    )
    # From t=5: 50 B/s each. Flow1 done at t=10; flow0 then has 250 left
    # at 100 B/s -> t=12.5.
    assert finishes[1] == pytest.approx(10.0)
    assert finishes[0] == pytest.approx(12.5)


def test_zero_size_transfer_completes_immediately():
    finishes, _ = run_transfers([(0.0, (0,), 1.0)], [100.0])
    assert finishes[0] == pytest.approx(1.0)


def test_negative_size_rejected():
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 100.0)
    with pytest.raises(ValueError):
        net.transfer_batch([(-1.0, (link,), lambda: None)])


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
def test_bad_size_rejects_the_whole_batch(bad):
    """A bad size anywhere in a batch starts none of it: an earlier good
    flow used to stay attached at rate 0 with no timer, forever."""
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 100.0)
    with pytest.raises(ValueError, match="finite"):
        net.transfer_batch([(100.0, (link,), lambda: None),
                            (bad, (link,), lambda: None)])
    assert net.active_flows == 0
    assert not link.flows
    assert env.pending == 0


def test_link_requires_positive_capacity():
    with pytest.raises(ValueError):
        Link("bad", 0.0)


def test_no_flows_remain_after_all_complete():
    finishes, net = run_transfers(
        [(100.0, (0,), 0.0), (100.0, (0,), 0.5)], [100.0]
    )
    assert net.active_flows == 0


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=8),
    cap=st.floats(min_value=1.0, max_value=1e6),
)
def test_conservation_and_capacity_bound(sizes, cap):
    """Total delivered bytes equal total offered; single link never exceeds
    capacity (finish no earlier than total/capacity)."""
    specs = [(s, (0,), 0.0) for s in sizes]
    finishes, net = run_transfers(specs, [cap])
    total = sum(sizes)
    latest = max(finishes.values())
    assert latest >= total / cap * (1 - 1e-6)
    assert net.bytes_delivered == pytest.approx(total, rel=1e-6)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=1.0, max_value=1e5),  # size
            st.integers(min_value=0, max_value=2),  # client link
            st.integers(min_value=3, max_value=4),  # server link
            st.floats(min_value=0.0, max_value=5.0),  # start delay
        ),
        min_size=1,
        max_size=10,
    )
)
def test_multilink_flows_all_complete(flows):
    specs = [(size, (c, s), d) for size, c, s, d in flows]
    finishes, net = run_transfers(specs, [100.0] * 5)
    assert len(finishes) == len(specs)
    assert net.active_flows == 0
