"""Tests for the namespace and striping layout."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.units import MIB
from repro.sim.filesystem import FileSystem, StripeLayout


def test_create_assigns_round_robin_targets():
    fs = FileSystem(n_osts=4)
    files = [fs.create(f"/f{i}") for i in range(8)]
    targets = [f.layout.osts[0] for f in files]
    assert targets == [0, 1, 2, 3, 0, 1, 2, 3]


def test_create_duplicate_raises():
    fs = FileSystem(n_osts=2)
    fs.create("/f")
    with pytest.raises(FileExistsError):
        fs.create("/f")


def test_lookup_missing_raises():
    with pytest.raises(FileNotFoundError):
        FileSystem(n_osts=2).lookup("/missing")


def test_unlink_removes():
    fs = FileSystem(n_osts=2)
    fs.create("/f")
    fs.unlink("/f")
    assert "/f" not in fs
    with pytest.raises(FileNotFoundError):
        fs.unlink("/f")


def test_stripe_count_all_osts():
    fs = FileSystem(n_osts=6)
    f = fs.create("/wide", stripe_count=-1)
    assert sorted(f.layout.osts) == list(range(6))


def test_stripe_count_clamped_to_osts():
    fs = FileSystem(n_osts=3)
    f = fs.create("/wide", stripe_count=10)
    assert f.layout.stripe_count == 3


def test_ensure_is_idempotent():
    fs = FileSystem(n_osts=2)
    a = fs.ensure("/data", 10 * MIB)
    b = fs.ensure("/data", 5 * MIB)
    assert a is b
    assert b.size == 10 * MIB


def test_files_of_one_directory_share_one_parent_string():
    """Records are slotted and keep one parent string per directory: a
    looping create-only noise job keeps tens of thousands of them."""
    fs = FileSystem(n_osts=2)
    files = [fs.create(f"/job/it0/shared/f.{i}") for i in range(3)]
    other = fs.create("/job/it1/shared/f.0")
    assert {f.parent for f in files} == {"/job/it0/shared"}
    assert files[0].parent is files[1].parent is files[2].parent
    assert other.parent == "/job/it1/shared"
    assert fs.create("/top").parent == "/"
    for record in (files[0], files[0].layout):
        assert not hasattr(record, "__dict__")


def test_parent_of_missing_or_directory_path_is_parsed():
    fs = FileSystem(n_osts=2)
    f = fs.create("/d/f")
    assert fs.parent_of("/d/f") is f.parent
    assert fs.parent_of("/d/missing") == "/d"
    assert fs.parent_of("/d") == "/"


def test_object_ids_unique():
    fs = FileSystem(n_osts=3)
    f1 = fs.create("/a", stripe_count=3)
    f2 = fs.create("/b", stripe_count=3)
    ids = set(f1.layout.objects) | set(f2.layout.objects)
    assert len(ids) == 6


class TestStripeMapping:
    def layout(self, stripe_count=3, stripe_size=MIB):
        return StripeLayout(
            stripe_size=stripe_size,
            osts=tuple(range(stripe_count)),
            objects=tuple(100 + i for i in range(stripe_count)),
        )

    def test_single_stripe_extent(self):
        pieces = self.layout().map_extent(0, 1000)
        assert pieces == [(0, 100, 0, 1000)]

    def test_extent_spanning_stripes(self):
        pieces = self.layout().map_extent(MIB - 10, 20)
        assert pieces == [(0, 100, MIB - 10, 10), (1, 101, 0, 10)]

    def test_second_stripe_round(self):
        # Offset 3 MiB with 3 stripes wraps to OST 0, object offset 1 MiB.
        pieces = self.layout().map_extent(3 * MIB, 100)
        assert pieces == [(0, 100, MIB, 100)]

    def test_bad_extent_rejected(self):
        with pytest.raises(ValueError):
            self.layout().map_extent(-1, 10)
        with pytest.raises(ValueError):
            self.layout().map_extent(0, 0)

    @settings(max_examples=100, deadline=None)
    @given(
        offset=st.integers(min_value=0, max_value=64 * MIB),
        size=st.integers(min_value=1, max_value=16 * MIB),
        stripe_count=st.integers(min_value=1, max_value=6),
    )
    def test_mapping_is_a_partition(self, offset, size, stripe_count):
        """Mapped pieces exactly cover the extent, with no overlap, and each
        piece stays inside one stripe."""
        layout = self.layout(stripe_count=stripe_count)
        pieces = layout.map_extent(offset, size)
        assert sum(p[3] for p in pieces) == size
        # Pieces are contiguous in file order.
        pos = offset
        for ost, obj, obj_off, nbytes in pieces:
            stripe_no = pos // layout.stripe_size
            assert ost == layout.osts[stripe_no % stripe_count]
            assert obj == layout.objects[stripe_no % stripe_count]
            expected_obj_off = (stripe_no // stripe_count) * layout.stripe_size + (
                pos - stripe_no * layout.stripe_size
            )
            assert obj_off == expected_obj_off
            # A piece never crosses a stripe boundary.
            assert (pos % layout.stripe_size) + nbytes <= layout.stripe_size
            pos += nbytes
        assert pos == offset + size


def test_layout_validation():
    with pytest.raises(ValueError):
        StripeLayout(stripe_size=0, osts=(0,), objects=(1,))
    with pytest.raises(ValueError):
        StripeLayout(stripe_size=MIB, osts=(0, 1), objects=(1,))
    with pytest.raises(ValueError):
        StripeLayout(stripe_size=MIB, osts=(), objects=())
