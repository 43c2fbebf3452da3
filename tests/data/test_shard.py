"""Tests for the on-disk format of a WindowCache entry.

Writes round-trip bit-exactly; malformed banks are refused on write;
and every malformed file reads as an ordinary cache miss: it is
deleted, counted in ``errors`` and never returned as data.
"""

import json
import logging

import numpy as np
import pytest

from repro.experiments.datagen import WindowBank
from repro.parallel import DATASET_FORMAT, WindowCache

KEY = "ab" + "0" * 38


def make_bank(n=5, servers=3, feats=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, servers, feats))
    levels = rng.uniform(1.0, 6.0, size=n)
    return WindowBank(X, levels, sources=["target:scenario"] * n)


def round_trip(tmp_path, bank):
    cache = WindowCache(tmp_path / "windows")
    cache.put(KEY, bank)
    return WindowCache(tmp_path / "windows").get(KEY)


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        bank = make_bank()
        back = round_trip(tmp_path, bank)
        assert np.array_equal(back.X, bank.X)
        assert back.X.dtype == np.float64
        assert np.array_equal(back.levels, bank.levels)
        assert back.sources == bank.sources
        assert len(back) == len(bank)
        with np.load(WindowCache(tmp_path / "windows").path_for(KEY)
                     / "windows.npz", allow_pickle=False) as data:
            meta = json.loads(str(data["meta"][()]))
        assert meta == {"kind": "repro-window-bank",
                        "format": DATASET_FORMAT, "n_windows": len(bank)}

    def test_fortran_order_input_round_trips(self, tmp_path):
        bank = make_bank()
        fortran = WindowBank(np.asfortranarray(bank.X), bank.levels,
                             sources=bank.sources)
        assert np.array_equal(round_trip(tmp_path, fortran).X, bank.X)

    def test_empty_shard(self, tmp_path):
        back = round_trip(tmp_path,
                          WindowBank(np.empty((0, 3, 4)), np.empty(0)))
        assert len(back) == 0
        assert back.X.shape == (0, 3, 4)


def write_entry(cache, **arrays):
    """Put raw ``arrays`` where the cache keeps KEY's windows.npz."""
    path = cache.path_for(KEY) / "windows.npz"
    path.parent.mkdir(parents=True)
    with open(path, "wb") as fp:
        np.savez_compressed(fp, **arrays)
    return path


def meta(**doc):
    return np.array(json.dumps({"kind": "repro-window-bank",
                                "format": DATASET_FORMAT, **doc}))


def one_window():
    return {"X": np.zeros((1, 1, 1)), "levels": np.zeros(1),
            "sources": np.array(["s"], dtype=np.str_)}


def assert_rejected(cache, path, caplog, reason=None):
    """``get`` treats the file as a miss: logged, counted, deleted."""
    with caplog.at_level(logging.WARNING, logger="repro"):
        assert cache.get(KEY) is None
    assert cache.stats()["errors"] == 1
    assert cache.stats()["misses"] == 1
    assert not path.exists()
    assert KEY not in cache
    if reason is not None:
        assert reason in caplog.text


class TestValidation:
    def test_write_rejects_non_3d(self, tmp_path):
        cache = WindowCache(tmp_path / "windows")
        with pytest.raises(ValueError, match="windows, servers, features"):
            cache.put(KEY, WindowBank(np.zeros((4, 5)), np.zeros(4),
                                      sources=["a"] * 4))
        assert KEY not in cache

    def test_write_rejects_length_mismatch(self, tmp_path):
        cache = WindowCache(tmp_path / "windows")
        short_levels = make_bank(n=4)
        short_levels.levels = np.zeros(3)
        short_sources = make_bank(n=4)
        short_sources.sources = ["a"] * 2
        for bank in (short_levels, short_sources):
            with pytest.raises(ValueError, match="inconsistent lengths"):
                cache.put(KEY, bank)
        assert KEY not in cache
        assert not list((tmp_path / "windows").glob(".tmp-*"))

    def test_read_rejects_garbage_bytes(self, tmp_path, caplog):
        cache = WindowCache(tmp_path / "windows")
        path = cache.path_for(KEY) / "windows.npz"
        path.parent.mkdir(parents=True)
        path.write_bytes(b"this is not an npz archive")
        assert_rejected(cache, path, caplog)

    def test_read_rejects_foreign_npz(self, tmp_path, caplog):
        cache = WindowCache(tmp_path / "windows")
        path = write_entry(cache, X=np.zeros(3))
        assert_rejected(cache, path, caplog, "no meta")

    def test_read_rejects_wrong_kind(self, tmp_path, caplog):
        cache = WindowCache(tmp_path / "windows")
        path = write_entry(cache, meta=meta(kind="something-else"),
                           **one_window())
        assert_rejected(cache, path, caplog, "unexpected kind")

    def test_read_rejects_future_format(self, tmp_path, caplog):
        cache = WindowCache(tmp_path / "windows")
        path = write_entry(cache, meta=meta(format=DATASET_FORMAT + 1,
                                            n_windows=1), **one_window())
        assert_rejected(cache, path, caplog, f"format {DATASET_FORMAT + 1}")

    def test_read_rejects_window_count_mismatch(self, tmp_path, caplog):
        cache = WindowCache(tmp_path / "windows")
        path = write_entry(cache, meta=meta(n_windows=7), **one_window())
        assert_rejected(cache, path, caplog, "meta says 7")
