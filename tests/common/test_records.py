"""Tests for IORecord and op-type semantics."""

import copy
import pickle

import pytest

from repro.common.records import IORecord, OpType, ServerId, ServerKind
from repro.experiments.runner import execute_run

from tests.sim.test_golden_digests import (
    BULK,
    GOLDEN,
    io500,
    run_digest,
    small_config,
)


def make_record(**kwargs):
    defaults = dict(
        job="job",
        rank=0,
        op_id=1,
        op=OpType.READ,
        path="/f",
        offset=0,
        size=1024,
        start=1.0,
        end=2.0,
        servers=(ServerId(ServerKind.OST, 0),),
    )
    defaults.update(kwargs)
    return IORecord(**defaults)


def test_op_families():
    assert OpType.READ.family == "read"
    assert OpType.WRITE.family == "write"
    for op in (OpType.OPEN, OpType.CLOSE, OpType.STAT, OpType.CREATE,
               OpType.UNLINK, OpType.MKDIR):
        assert op.family == "meta"
        assert op.is_metadata
        assert not op.is_data
    assert OpType.READ.is_data and OpType.WRITE.is_data


def test_record_duration_and_key():
    rec = make_record()
    assert rec.duration == pytest.approx(1.0)
    assert rec.key == ("job", 0, 1)


def test_record_rejects_negative_duration():
    with pytest.raises(ValueError):
        make_record(start=2.0, end=1.0)


def test_record_rejects_negative_extent():
    with pytest.raises(ValueError):
        make_record(size=-1)


def test_server_id_ordering_is_stable():
    ids = [ServerId(ServerKind.MDT, 0), ServerId(ServerKind.OST, 1),
           ServerId(ServerKind.OST, 0)]
    ordered = sorted(ids)
    assert ordered == [ServerId(ServerKind.MDT, 0), ServerId(ServerKind.OST, 0),
                       ServerId(ServerKind.OST, 1)]


def test_server_id_is_hashable_and_str():
    s = ServerId(ServerKind.OST, 3)
    assert str(s) == "ost3"
    assert {s: 1}[ServerId(ServerKind.OST, 3)] == 1


# -- pickling: records cross process pipes as their ten fields ------------------


@pytest.mark.parametrize("servers", [
    (), (ServerId(ServerKind.OST, 0), ServerId(ServerKind.OST, 3)),
], ids=["no-servers", "two-servers"])
def test_record_round_trips_through_pickle_and_copy(servers):
    rec = make_record(op=OpType.WRITE, offset=4096, servers=servers)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        twin = pickle.loads(pickle.dumps(rec, protocol))
        assert twin == rec and type(twin) is IORecord
        assert twin.op is OpType.WRITE
    assert copy.copy(rec) == rec and copy.copy(rec) is not rec
    assert copy.deepcopy(rec) == rec


def test_record_pickles_as_its_fields_not_a_state_dict():
    data = pickle.dumps(make_record(), pickle.HIGHEST_PROTOCOL)
    for name in ("op_id", "offset", "servers"):
        assert name.encode() not in data


def test_a_pickled_record_is_checked_on_load():
    rec = make_record(start=1.0, end=2.0)
    rec.end = 0.5  # a plain dataclass: assignment skips __post_init__
    data = pickle.dumps(rec)
    with pytest.raises(ValueError, match="ends before it starts"):
        pickle.loads(data)


def test_a_golden_run_keeps_its_digest_through_two_pickle_hops():
    """A forked run crosses two pipes (fork to pool slot, slot to
    caller); its records and samples arrive as they left."""
    run = execute_run(io500("ior-hard-read")(), list(BULK), small_config())
    for _ in range(2):
        run = pickle.loads(pickle.dumps(run, pickle.HIGHEST_PROTOCOL))
    assert run_digest(run.records, run.server_samples) \
        == GOLDEN["ior-hard-read-bulk-noise"]
