"""Tests for the block-layer elevator/merging scheduler."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.units import SECTOR_SIZE
from repro.sim.disk import DiskModel, DiskParams
from repro.sim.engine import AllOf, Environment
from repro.sim.scheduler import BlockDevice, BlockRequest


def make_device(env=None):
    env = env or Environment()
    return env, BlockDevice(env, DiskModel(DiskParams()))


def test_single_request_completes_with_service_time():
    env, dev = make_device()

    def proc():
        yield dev.submit(0, 2048, is_write=False)
        return env.now

    t = env.run(until=env.process(proc()))
    assert t == pytest.approx(2048 * SECTOR_SIZE / DiskParams().sequential_bandwidth)
    assert dev.stats.reads_completed == 1
    assert dev.stats.sectors_read == 2048


def test_contiguous_requests_merge():
    env, dev = make_device()

    def proc():
        evs = [dev.submit(i * 64, 64, is_write=True) for i in range(8)]
        yield AllOf(env, evs)

    env.run(until=env.process(proc()))
    assert dev.stats.writes_completed == 8
    # First request dispatches alone (device idle); the remaining 7 merge.
    assert dev.stats.writes_merged >= 6
    assert dev.stats.sectors_written == 8 * 64


def test_reads_and_writes_do_not_merge_together():
    env, dev = make_device()

    def proc():
        a = dev.submit(0, 64, is_write=True)
        b = dev.submit(64, 64, is_write=False)
        yield AllOf(env, [a, b])

    env.run(until=env.process(proc()))
    assert dev.stats.writes_merged == 0
    assert dev.stats.reads_merged == 0


def test_elevator_orders_by_lba():
    """Out-of-order submissions are served in ascending LBA order."""
    env, dev = make_device()
    completions = []
    lbas = [500_000, 100_000, 300_000]

    def submit_all():
        # Occupy the device so all three wait in queue together.
        first = dev.submit(0, 8, is_write=False)
        evs = []
        for lba in lbas:
            ev = dev.submit(lba, 8, is_write=False)
            ev.callbacks.append(lambda _e, lba=lba: completions.append(lba))
            evs.append(ev)
        yield AllOf(env, [first, *evs])

    env.run(until=env.process(submit_all()))
    assert completions == sorted(lbas)


def test_reads_prioritised_over_writes():
    env, dev = make_device()
    order = []

    def proc():
        busy = dev.submit(0, 2048, is_write=False)
        w = dev.submit(10_000_000, 64, is_write=True)
        w.callbacks.append(lambda _e: order.append("write"))
        r = dev.submit(20_000_000, 64, is_write=False)
        r.callbacks.append(lambda _e: order.append("read"))
        yield AllOf(env, [busy, w, r])

    env.run(until=env.process(proc()))
    assert order == ["read", "write"]


def test_writes_not_starved_forever():
    """A steady read stream must still let queued writes through."""
    env, dev = make_device()
    done = {"write": None}

    def reader():
        for i in range(20):
            yield dev.submit(i * 64, 64, is_write=False)

    def writer():
        yield env.timeout(1e-4)
        yield dev.submit(50_000_000, 64, is_write=True)
        done["write"] = env.now

    r = env.process(reader())
    w = env.process(writer())
    env.run(until=AllOf(env, [r, w]))
    reader_finish = env.now
    assert done["write"] is not None
    # The write completed before the whole read stream drained.
    assert done["write"] <= reader_finish


def test_submit_bytes_sector_math():
    env, dev = make_device()

    def proc():
        yield dev.submit_bytes(100, 1000, is_write=False)  # crosses sectors

    env.run(until=env.process(proc()))
    # Bytes 100..1100 span sectors 0..2 inclusive -> 3 sectors.
    assert dev.stats.sectors_read == 3


def test_bad_request_rejected():
    _, dev = make_device()
    with pytest.raises(ValueError):
        dev.submit(0, 0, is_write=False)


def test_queue_depth_tracks_outstanding():
    env, dev = make_device()
    depths = []

    def proc():
        evs = [dev.submit(i * 1_000_000, 8, is_write=False) for i in range(4)]
        depths.append(dev.queue_depth)
        yield AllOf(env, evs)
        depths.append(dev.queue_depth)

    env.run(until=env.process(proc()))
    assert depths[0] == 4
    assert depths[-1] == 0


# -- the single-pass elevator against the list-pass version it replaced ----


def reference_pick_next(dev):
    """The list-pass elevator: split by direction, filter by head, min()."""
    reads = [r for r in dev._queue if not r.is_write]
    writes = [r for r in dev._queue if r.is_write]
    if reads and (not writes or dev._writes_starved < dev.WRITES_STARVED_LIMIT):
        pool = reads
        if writes:
            dev._writes_starved += 1
    else:
        pool = writes if writes else reads
        dev._writes_starved = 0
    head = dev.model.head_lba
    ahead = [r for r in pool if r.lba >= head]
    pool = ahead if ahead else pool
    chosen = min(pool, key=lambda r: (r.lba, r.enqueue_time))
    dev._queue.remove(chosen)
    return chosen


def reference_collect_merges(dev, first):
    """The copy-per-pass merge loop, with the batch extent from min/max."""
    batch = [first]
    lo, hi = first.lba, first.lba + first.sectors
    budget = dev.MAX_MERGED_SECTORS - first.sectors
    progress = True
    while progress and budget > 0:
        progress = False
        for req in list(dev._queue):
            if req.is_write != first.is_write or req.sectors > budget:
                continue
            if req.lba == hi:
                batch.append(req)
                hi = req.lba + req.sectors
            elif req.lba + req.sectors == lo:
                batch.append(req)
                lo = req.lba
            else:
                continue
            # Delete this very request: list.remove() takes the first
            # *equal* one, and for duplicates (one shared completion) that
            # moves the survivor to the merged copy's place in the queue.
            dev._queue.pop(next(i for i, queued in enumerate(dev._queue)
                                if queued is req))
            dev.stats.on_merge(req.is_write)
            budget -= req.sectors
            progress = True
    return (batch, min(r.lba for r in batch),
            max(r.lba + r.sectors for r in batch))


#: Small LBA/sector grids so contiguity, ties and equal requests (one
#: shared completion, as submit_batch queues them) are common.
QUEUES = st.lists(
    st.tuples(st.integers(0, 12).map(lambda k: 64 * k),
              st.sampled_from((64, 128, 1280, 2560)), st.booleans(),
              st.sampled_from((0.0, 0.5, 1.0)), st.booleans()),
    min_size=1, max_size=10)


@settings(max_examples=300, deadline=None)
@given(queue=QUEUES, head=st.integers(0, 13).map(lambda k: 64 * k),
       starved=st.integers(0, BlockDevice.WRITES_STARVED_LIMIT + 1))
# Duplicates around a merge: the second copy of (448, 64) is merged behind
# (320, 128), and the first copy must keep its place ahead of (0, 64).
@example(queue=[(192, 128, True, 0.0, False), (448, 64, True, 0.5, True),
                (0, 64, True, 0.0, False), (320, 128, True, 0.0, False),
                (448, 64, True, 0.5, True)],
         head=192, starved=0)
def test_single_pass_elevator_matches_list_passes(queue, head, starved):
    shared = object()
    requests = [BlockRequest(lba, sectors, is_write,
                             shared if same_done else object(), enqueued)
                for lba, sectors, is_write, enqueued, same_done in queue]
    devices = []
    for _ in range(2):
        _, dev = make_device()
        dev._queue = list(requests)
        dev.model._head_lba = head
        dev._writes_starved = starved
        devices.append(dev)
    new, ref = devices
    while new._queue:
        first = new._pick_next()
        assert first == reference_pick_next(ref)
        assert new._writes_starved == ref._writes_starved
        assert new._collect_merges(first) == reference_collect_merges(
            ref, first)
        assert new._queue == ref._queue
        assert new.stats.reads_merged == ref.stats.reads_merged
        assert new.stats.writes_merged == ref.stats.writes_merged
    assert not ref._queue
