"""Integration tests: client sessions against a full cluster."""

import pytest

from repro.common.records import OpType, ServerId, ServerKind
from repro.common.units import MIB
from repro.sim.cluster import Cluster, ClusterConfig
from repro.sim.engine import AllOf


def run_ranks(cluster, bodies):
    env = cluster.env
    procs = [env.process(body) for body in bodies]
    env.run(until=AllOf(env, procs))


def test_default_config_matches_paper_testbed():
    cfg = ClusterConfig()
    assert cfg.n_client_nodes == 7
    assert cfg.n_osts == 6
    assert len(Cluster(cfg).servers) == 7  # 6 OSTs + 1 MDT


def test_write_records_trace_with_servers():
    cluster = Cluster()
    sess = cluster.session("job", 0, 0)

    def body():
        yield from sess.create("/f")
        yield from sess.write("/f", 0, 2 * MIB)

    run_ranks(cluster, [body()])
    recs = cluster.collector.records
    assert [r.op for r in recs] == [OpType.CREATE, OpType.WRITE]
    create, write = recs
    assert create.servers == (ServerId(ServerKind.MDT, 0),)
    assert write.size == 2 * MIB
    assert all(s.kind is ServerKind.OST for s in write.servers)
    assert write.duration > 0


def test_op_ids_are_sequential_per_rank():
    cluster = Cluster()
    sess = cluster.session("job", 3, 1)

    def body():
        yield from sess.create("/g")
        for i in range(3):
            yield from sess.write("/g", i * MIB, MIB)

    run_ranks(cluster, [body()])
    ids = [r.op_id for r in cluster.collector.records]
    assert ids == [1, 2, 3, 4]


def test_striped_file_touches_multiple_osts():
    cluster = Cluster()
    sess = cluster.session("job", 0, 0)

    def body():
        yield from sess.create("/wide", stripe_count=-1)
        yield from sess.write("/wide", 0, 6 * MIB)

    run_ranks(cluster, [body()])
    write = cluster.collector.records[-1]
    assert len(write.servers) == 6


def test_read_of_missing_file_raises():
    cluster = Cluster()
    sess = cluster.session("job", 0, 0)

    def body():
        yield from sess.read("/nope", 0, MIB)

    with pytest.raises(FileNotFoundError):
        run_ranks(cluster, [body()])


def test_metadata_ops_complete_and_record():
    cluster = Cluster()
    sess = cluster.session("job", 0, 0)

    def body():
        yield from sess.mkdir("/d")
        yield from sess.create("/d/f")
        yield from sess.open("/d/f")
        yield from sess.stat("/d/f")
        yield from sess.close("/d/f")
        yield from sess.unlink("/d/f")

    run_ranks(cluster, [body()])
    ops = [r.op for r in cluster.collector.records]
    assert ops == [OpType.MKDIR, OpType.CREATE, OpType.OPEN, OpType.STAT,
                   OpType.CLOSE, OpType.UNLINK]
    assert "/d/f" not in cluster.fs


@pytest.mark.parametrize("op", ["create", "open", "stat", "close",
                                "unlink", "mkdir"])
def test_metadata_op_resumes_the_rank_once(op):
    """A metadata op runs on the callback chain: the rank waits on one
    completion event, and the slot release and the record happen before
    it resumes."""
    cluster = Cluster()
    env = cluster.env
    sess = cluster.session("job", 0, 0)
    cluster.fs.create("/d/f")
    call = getattr(sess, op)("/d/f")
    done = next(call)
    env.run(until=done)
    assert (sess.node._mds_slots.available
            == sess.node.params.max_rpcs_in_flight)
    assert [r.op.value for r in cluster.collector.records] == [op]
    with pytest.raises(StopIteration):
        call.send(None)


def test_rpc_window_limits_inflight_rpcs():
    """A single large write is split into max_rpc_bytes RPCs gated by the
    per-OST window; the op must take at least ceil(n/window) network
    serialisation rounds."""
    cfg = ClusterConfig()
    cluster = Cluster(cfg)
    sess = cluster.session("job", 0, 0)
    size = 32 * MIB  # 32 RPCs of 1 MiB through a window of 8

    def body():
        yield from sess.create("/big")
        yield from sess.write("/big", 0, size)

    run_ranks(cluster, [body()])
    write = cluster.collector.records[-1]
    # Client NIC is 1 GB/s: 32 MiB takes >= 33 ms regardless of windows.
    assert write.duration >= size / cfg.net_bandwidth * 0.99


def test_deterministic_replay_same_seedless_workload():
    """The same workload on a fresh cluster produces identical traces."""

    def run_once():
        cluster = Cluster()
        sess = cluster.session("job", 0, 0)

        def body():
            yield from sess.create("/f")
            for i in range(4):
                yield from sess.write("/f", i * MIB, MIB)
            for i in range(4):
                yield from sess.read("/f", i * MIB, MIB)

        run_ranks(cluster, [body()])
        return [(r.op_id, r.op, r.start, r.end) for r in cluster.collector.records]

    assert run_once() == run_once()


def test_concurrent_jobs_interfere_in_time():
    """Cold reads of co-located files slow down when another job reads the
    same OSTs — the basic interference effect end-to-end."""

    def run_case(with_noise):
        cluster = Cluster()
        n_files = 18  # 3 files per OST
        for i in range(n_files):
            cluster.fs.ensure(f"/data/f{i}", 32 * MIB)

        def reader(sess, path):
            for i in range(32):
                yield from sess.read(path, i * MIB, MIB)

        bodies = []
        target = cluster.session("target", 0, 0)
        bodies.append(reader(target, "/data/f0"))
        if with_noise:
            for i in range(1, n_files):
                sess = cluster.session("noise", i, i % 7)
                bodies.append(reader(sess, f"/data/f{i}"))
        run_ranks(cluster, bodies)
        recs = cluster.collector.for_job("target")
        return sum(r.duration for r in recs) / len(recs)

    alone = run_case(False)
    noisy = run_case(True)
    assert noisy > 1.5 * alone


def test_server_counters_uniform_keys():
    cluster = Cluster()
    keysets = {frozenset(cluster.server_counters(s)) for s in cluster.servers}
    assert len(keysets) == 1
