"""Coverage for corners the main suites skim over."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.records import OpType
from repro.common.units import KIB, MIB
from repro.sim.cluster import Cluster, ClusterConfig
from repro.sim.engine import AllOf, Environment
from repro.sim.netmodel import FlowNetwork, Link


class TestLinkUtilization:
    def test_zero_when_idle(self):
        link = Link("l", 100.0)
        assert link.utilization == 0.0

    def test_full_under_saturating_flow(self):
        env = Environment()
        net = FlowNetwork(env)
        link = Link("l", 100.0)
        net.transfer_batch([(1000.0, (link,), lambda: None)])
        env.run(until=1.0)
        assert link.utilization == pytest.approx(1.0)

    def test_shared_flows_sum_to_capacity(self):
        env = Environment()
        net = FlowNetwork(env)
        link = Link("l", 100.0)
        for _ in range(4):
            net.transfer_batch([(10_000.0, (link,), lambda: None)])
        env.run(until=1.0)
        assert link.utilization == pytest.approx(1.0)


class TestMDSJournal:
    def test_journal_offset_wraps(self):
        from repro.sim.mds import MDS, MDSParams

        cluster = Cluster()
        mds = cluster.mds
        wrap = 128 * 1024 * KIB
        mds._journal_offset = wrap - mds.params.journal_write_bytes
        first = mds._journal_extent()
        assert first == wrap - mds.params.journal_write_bytes
        assert mds._journal_offset == 0  # wrapped
        assert mds._journal_extent() == 0


class TestStripeSizeOverride:
    def test_custom_stripe_size_applied(self):
        cluster = Cluster()
        f = cluster.fs.create("/f", stripe_count=2, stripe_size=4 * MIB)
        assert f.layout.stripe_size == 4 * MIB
        pieces = f.layout.map_extent(0, 8 * MIB)
        assert pieces[0][3] == 4 * MIB  # first piece fills one stripe

    def test_session_create_passes_stripe_size(self):
        cluster = Cluster()
        sess = cluster.session("j", 0, 0)

        def body():
            yield from sess.create("/g", stripe_count=2, stripe_size=2 * MIB)

        cluster.env.run(until=cluster.env.process(body()))
        assert cluster.fs.lookup("/g").layout.stripe_size == 2 * MIB


class TestRpcWindows:
    def test_windows_are_per_ost(self):
        cluster = Cluster()
        node = cluster.nodes[0]
        w0 = node.rpc_window(0)
        w1 = node.rpc_window(1)
        assert w0 is not w1
        assert node.rpc_window(0) is w0  # cached

    def test_mds_window_limits_metadata_concurrency(self):
        cfg = ClusterConfig()
        cluster = Cluster(cfg)
        env = cluster.env
        n = 64

        def one(i):
            sess = cluster.session("j", i, 0)  # all on node 0
            yield from sess.mkdir(f"/d{i}")

        procs = [env.process(one(i)) for i in range(n)]
        env.run(until=AllOf(env, procs))
        # All completed despite the shared per-node MDS window.
        meta = [r for r in cluster.collector.records if r.op is OpType.MKDIR]
        assert len(meta) == n


class TestClusterValidation:
    def test_bad_topologies_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(n_client_nodes=0)
        with pytest.raises(ValueError):
            ClusterConfig(n_oss=0)
        with pytest.raises(ValueError):
            ClusterConfig(net_bandwidth=0)

    def test_session_node_index_wraps(self):
        cluster = Cluster()
        sess = cluster.session("j", 0, node_index=100)
        assert sess.node in cluster.nodes


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(min_value=0.001, max_value=2.0), min_size=1,
                max_size=20))
def test_engine_time_is_monotone(delays):
    """Observed times across arbitrary concurrent timeouts never regress."""
    env = Environment()
    observed = []

    def proc(delay):
        yield env.timeout(delay)
        observed.append(env.now)

    for d in delays:
        env.process(proc(d))
    env.run()
    assert observed == sorted(observed)
    assert env.now == pytest.approx(max(delays))
