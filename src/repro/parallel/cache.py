"""Content-addressed on-disk caches of simulation runs and trained models.

Layout (fan-out on the first two key hex digits keeps directories small
even for very large sweeps)::

    <cache_dir>/
      <key[:2]>/<key>/
        spec.json   # the key material, for humans and debugging
        run/        # RunCache: repro.monitor.persist.save_run output
        model.npz   # ModelCache: InterferencePredictor.save output

:class:`ContentCache` holds the mechanics both caches share.  Entries
are written atomically: a value is first persisted into a private
temporary directory and then renamed into place, so concurrent sweeps
(multiple processes, multiple invocations) can share one cache directory
without locking — whoever renames first wins, later writers discard
their copy.  A corrupted entry (truncated file, schema mismatch, bad
JSON) is treated as a miss: it is deleted and the value recomputed,
never allowed to crash or poison a sweep.

Hit/miss/store/error counts land both on the instance (:meth:`stats`)
and in the process-wide metrics registry (``parallel.cache.*`` for runs,
``parallel.modelcache.*`` for models), from where they flow into every
run manifest.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
from typing import Any

from repro.monitor.aggregator import MonitoredRun
from repro.monitor.persist import load_run, save_run
from repro.obs.log import get_logger
from repro.obs.metrics import REGISTRY

__all__ = ["ContentCache", "RunCache"]

_SPEC_FILE = "spec.json"


class ContentCache:
    """Persist and recall values by content key, one directory per entry.

    Subclasses name the entry inside ``<key[:2]>/<key>/`` (:attr:`entry`),
    the metric and logger namespace (:attr:`namespace`), and how a value
    is saved to and loaded from that path.
    """

    #: File or directory holding the value inside an entry.
    entry: str
    #: Metrics-registry prefix and logger name.
    namespace: str

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.errors = 0
        self._hit_counter = REGISTRY.counter(f"{self.namespace}.hits")
        self._miss_counter = REGISTRY.counter(f"{self.namespace}.misses")
        self._store_counter = REGISTRY.counter(f"{self.namespace}.stores")
        self._error_counter = REGISTRY.counter(f"{self.namespace}.errors")

    def _save(self, value: Any, path: pathlib.Path) -> None:
        raise NotImplementedError

    def _load(self, path: pathlib.Path) -> Any:
        raise NotImplementedError

    def path_for(self, key: str) -> pathlib.Path:
        """Directory an entry with ``key`` lives in (existing or not)."""
        if len(key) < 3:
            raise ValueError(f"implausibly short cache key: {key!r}")
        return self.directory / key[:2] / key

    def __contains__(self, key: str) -> bool:
        return (self.path_for(key) / self.entry).exists()

    def get(self, key: str) -> Any | None:
        """The cached value for ``key``, or ``None`` (miss / corrupt entry)."""
        entry = self.path_for(key)
        path = entry / self.entry
        if not path.exists():
            self.misses += 1
            self._miss_counter.inc()
            return None
        try:
            value = self._load(path)
        except Exception as exc:  # any corruption: recompute, never crash
            self.errors += 1
            self.misses += 1
            self._error_counter.inc()
            self._miss_counter.inc()
            get_logger(self.namespace).warning(
                "dropping corrupt %s entry %s (%s: %s)",
                type(self).__name__, key, type(exc).__name__, exc)
            shutil.rmtree(entry, ignore_errors=True)
            return None
        self.hits += 1
        self._hit_counter.inc()
        return value

    def put(self, key: str, value: Any,
            material: dict[str, Any] | None = None) -> None:
        """Store ``value`` under ``key`` (no-op when already present)."""
        entry = self.path_for(key)
        if (entry / self.entry).exists():
            return
        tmp = self.directory / f".tmp-{os.getpid()}-{key[:16]}"
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.mkdir(parents=True)
            self._save(value, tmp / self.entry)
            if material is not None:
                (tmp / _SPEC_FILE).write_text(
                    json.dumps(material, indent=2, sort_keys=True) + "\n")
            entry.parent.mkdir(parents=True, exist_ok=True)
            try:
                tmp.rename(entry)
            except OSError:
                # Lost the race against a concurrent writer; theirs is
                # byte-equivalent (same key), keep it.
                shutil.rmtree(tmp, ignore_errors=True)
                return
        except Exception:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        self.stores += 1
        self._store_counter.inc()

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob(f"??/*/{self.entry}"))

    def stats(self) -> dict[str, Any]:
        """Counters for manifests: hits/misses/stores/errors this process."""
        return {
            "directory": str(self.directory),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "errors": self.errors,
        }


class RunCache(ContentCache):
    """Persist and recall :class:`MonitoredRun` records by content key."""

    entry = "run"
    namespace = "parallel.cache"

    def _save(self, run: MonitoredRun, path: pathlib.Path) -> None:
        save_run(run, path)

    def _load(self, path: pathlib.Path) -> MonitoredRun:
        return load_run(path)
