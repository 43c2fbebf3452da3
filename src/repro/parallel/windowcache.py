"""Content-addressed on-disk cache of labelled window banks.

The dataset-side sibling of :class:`repro.parallel.cache.RunCache` and
:class:`repro.parallel.modelcache.ModelCache`, built on the same
:class:`~repro.parallel.cache.ContentCache`.  Each entry holds one
``windows.npz`` under ``<key[:2]>/<key>/``: the float64 per-server
vectors ``X``, the raw slowdown ``levels`` and the unicode per-window
``sources`` of a :class:`~repro.experiments.datagen.WindowBank`, plus a
kind/format meta document.  Like a ``WindowBank`` it stores raw levels,
never class labels, so the binary and 3-class datasets re-bin one entry.

:func:`~repro.experiments.datagen.collect_windows` keeps two kinds of
entry: one per (target, scenario) pair, keyed by
:func:`~repro.parallel.cachekey.dataset_shard_key`, and one per sweep,
keyed by :func:`~repro.parallel.cachekey.dataset_sweep_key` over its
ordered pair keys.  Entries load with ``allow_pickle=False`` and are
checked for kind, format, shape and length; anything else reads as an
ordinary cache miss (deleted and recomputed).  Counters land in the
metrics registry under ``parallel.windowcache.*``.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.experiments.datagen import WindowBank
from repro.parallel.cache import ContentCache
from repro.parallel.cachekey import DATASET_FORMAT

__all__ = ["WindowCache"]

_KIND = "repro-window-bank"


def _check(X: np.ndarray, levels: np.ndarray, sources: list) -> None:
    if X.ndim != 3:
        raise ValueError(f"X must be (windows, servers, features), "
                         f"got shape {X.shape}")
    if not len(X) == len(levels) == len(sources):
        raise ValueError(f"inconsistent lengths: X={len(X)} "
                         f"levels={len(levels)} sources={len(sources)}")


class WindowCache(ContentCache):
    """Persist and recall :class:`WindowBank`s by content key."""

    entry = "windows.npz"
    namespace = "parallel.windowcache"

    def _save(self, bank: WindowBank, path: pathlib.Path) -> None:
        # float64, C order: the loaded bytes, and so the dataset's
        # content_digest, equal the in-memory bank's.
        X = np.ascontiguousarray(bank.X, dtype=float)
        levels = np.ascontiguousarray(bank.levels, dtype=float)
        _check(X, levels, bank.sources)
        meta = {"kind": _KIND, "format": DATASET_FORMAT, "n_windows": len(X)}
        with open(path, "wb") as fp:
            np.savez_compressed(fp, meta=np.array(json.dumps(meta)), X=X,
                                levels=levels,
                                sources=np.array(bank.sources, dtype=np.str_))

    def _load(self, path: pathlib.Path) -> WindowBank:
        with np.load(path, allow_pickle=False) as data:
            if "meta" not in data:
                raise ValueError("not a window bank (no meta)")
            meta = json.loads(str(data["meta"][()]))
            if meta.get("kind") != _KIND:
                raise ValueError(f"unexpected kind {meta.get('kind')!r}")
            if meta.get("format") != DATASET_FORMAT:
                raise ValueError(f"format {meta.get('format')!r}, expected "
                                 f"{DATASET_FORMAT}")
            X = np.asarray(data["X"], dtype=float)
            levels = np.asarray(data["levels"], dtype=float)
            sources = [str(s) for s in data["sources"]]
        _check(X, levels, sources)
        if len(X) != meta.get("n_windows"):
            raise ValueError(f"meta says {meta.get('n_windows')} windows, "
                             f"file holds {len(X)}")
        return WindowBank(X, levels, sources=sources)
