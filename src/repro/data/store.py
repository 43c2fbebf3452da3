"""Incremental, content-addressed, out-of-core dataset store.

:class:`DatasetStore` is the columnar ETL layer between the sweep engine
and the trainer.  It persists each (target, scenario) pair's labelled
windows as fixed-size columnar shards (:mod:`repro.data.shard`), keyed
by :func:`repro.parallel.cachekey.dataset_shard_key` — the pair's full
run-key material plus the post-processing knobs — and records them in an
on-disk manifest.  ``build_bank``/``build`` then:

1. **simulate only missing pairs** — pairs whose key is already in the
   manifest reuse their shards untouched, so a warm rebuild executes
   zero simulations and zero re-aggregations (the counters prove it);
2. **append** new pairs' windows as shards (bounded by
   ``max_windows_per_shard``, so append cost scales with *new* windows,
   never with what is already ingested);
3. **assemble** the requested pairs, in sweep order, into a single
   memmap-backed array (``np.lib.format.open_memmap``) cached under a
   key derived from the ordered shard list — so even the shard scan runs
   at most once per distinct sweep composition.

The assembled :class:`~repro.experiments.datagen.WindowBank` /
:class:`~repro.core.dataset.Dataset` is **bit-identical** to the
in-memory :func:`~repro.experiments.datagen.collect_windows` path — same
:func:`~repro.experiments.datagen.label_pair` post-processing, same
sweep order, float64 round-tripped exactly — so
:meth:`~repro.core.dataset.Dataset.content_digest` and therefore every
warm :class:`~repro.parallel.modelcache.ModelCache` key survives the
migration.  Only the backing storage changes: ``X`` is a read-only
memmap, keeping peak RSS bounded by shard size instead of dataset size.

Layout under ``directory``::

    manifest.json                      # pair key -> entry (atomic rename)
    shards/<key[:2]>/<key>-NNN.npz     # columnar window shards
    shards/<key[:2]>/<key>.spec.json   # the key's raw material
    assemblies/<akey>.npy              # memmap-backed assembled X
    assemblies/<akey>.meta.npz         # levels + sources of the assembly
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.labeling import BINARY_THRESHOLDS, DegradationLabeller
from repro.obs import profile as _profile
from repro.obs.log import get_logger
from repro.obs.metrics import REGISTRY
from repro.parallel.cachekey import (
    DATASET_FORMAT,
    dataset_shard_key_material,
    stable_hash,
)
from repro.data.shard import read_shard, write_shard

if TYPE_CHECKING:
    from repro.core.dataset import Dataset
    from repro.experiments.datagen import Scenario, WindowBank
    from repro.experiments.runner import ExperimentConfig
    from repro.parallel import SweepExecutor
    from repro.workloads.base import Workload

__all__ = ["DatasetStore"]

logger = get_logger("data.store")

_STORE_KIND = "repro-dataset-store"
_MANIFEST = "manifest.json"
_SHARD_DIR = "shards"
_ASSEMBLY_DIR = "assemblies"


class DatasetStore:
    """On-disk incremental dataset of labelled interference windows.

    ``max_windows_per_shard`` bounds both shard file size and the
    working set of the append/assembly loops — it is the knob that keeps
    peak RSS flat as the store grows.
    """

    def __init__(self, directory: str | pathlib.Path,
                 max_windows_per_shard: int = 4096) -> None:
        if max_windows_per_shard < 1:
            raise ValueError("max_windows_per_shard must be >= 1")
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_windows_per_shard = int(max_windows_per_shard)
        self.pairs_appended = 0
        self.pairs_reused = 0
        self.pairs_skipped = 0
        self.windows_appended = 0
        self.shards_written = 0
        self.shards_scanned = 0
        self.assembly_hits = 0
        self.assembly_misses = 0
        self.errors = 0
        self.last_build: dict[str, Any] | None = None

    # -- manifest ---------------------------------------------------------

    @property
    def manifest_path(self) -> pathlib.Path:
        return self.directory / _MANIFEST

    def _fresh_manifest(self) -> dict[str, Any]:
        return {"kind": _STORE_KIND, "format": DATASET_FORMAT, "seq": 0,
                "entries": {}}

    def load_manifest(self) -> dict[str, Any]:
        """The current manifest document (fresh/empty if none or stale)."""
        path = self.manifest_path
        if not path.exists():
            return self._fresh_manifest()
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            self._error("unreadable manifest %s (%s); starting fresh",
                        path, exc)
            return self._fresh_manifest()
        if doc.get("kind") != _STORE_KIND:
            raise ValueError(
                f"{path} is not a dataset-store manifest "
                f"(kind={doc.get('kind')!r})")
        if doc.get("format") != DATASET_FORMAT:
            # A format bump re-keys every shard anyway; old entries can
            # never be referenced again, so the store restarts cleanly.
            logger.warning("manifest %s has format %r, current is %r; "
                           "starting fresh", path, doc.get("format"),
                           DATASET_FORMAT)
            return self._fresh_manifest()
        doc.setdefault("seq", 0)
        doc.setdefault("entries", {})
        return doc

    def _write_manifest(self, doc: dict[str, Any]) -> None:
        tmp = self.manifest_path.with_name(
            f"{_MANIFEST}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(doc, indent=1, sort_keys=False))
        os.replace(tmp, self.manifest_path)

    def _error(self, msg: str, *args: Any) -> None:
        self.errors += 1
        REGISTRY.counter("data.store.errors").inc()
        logger.warning(msg, *args)

    # -- paths ------------------------------------------------------------

    def _shard_path(self, key: str, index: int) -> pathlib.Path:
        return self.directory / _SHARD_DIR / key[:2] / f"{key}-{index:03d}.npz"

    def _stem_path(self, stem: str) -> pathlib.Path:
        return self.directory / _SHARD_DIR / stem[:2] / f"{stem}.npz"

    def _spec_path(self, key: str) -> pathlib.Path:
        return self.directory / _SHARD_DIR / key[:2] / f"{key}.spec.json"

    def _entry_complete(self, entry: dict[str, Any]) -> bool:
        """All shard files of an entry are still present on disk."""
        return all(self._stem_path(stem).exists() for stem in entry["shards"])

    # -- append -----------------------------------------------------------

    def _append_pair(self, manifest: dict[str, Any], key: str,
                     material: dict[str, Any], target: "Workload",
                     scenario: "Scenario", part: "WindowBank | None",
                     baseline_key: str, run_key: str) -> None:
        """Write one pair's windows as shards and record the entry.

        ``part is None`` (a pair that produced no labelled windows) is
        recorded too — with zero shards — so a warm rebuild skips the
        pair instead of re-simulating it just to relearn it was empty.
        """
        stems: list[str] = []
        n_bytes = 0
        shape = None
        if part is not None:
            shape = (int(part.X.shape[1]), int(part.X.shape[2]))
            step = self.max_windows_per_shard
            for index, start in enumerate(range(0, len(part), step)):
                stop = start + step
                path = self._shard_path(key, index)
                with _profile.phase("shard-write"):
                    write_shard(
                        path,
                        part.X[start:stop],
                        part.levels[start:stop],
                        part.sources[start:stop],
                        meta={
                            "key": key,
                            "shard_index": index,
                            "target": target.name,
                            "scenario": scenario.name,
                            "baseline_run_key": baseline_key,
                            "interfered_run_key": run_key,
                        },
                    )
                stems.append(path.name[:-len(".npz")])
                n_bytes += path.stat().st_size
                self.shards_written += 1
                REGISTRY.counter("data.store.shards_written").inc()
        spec = self._spec_path(key)
        spec.parent.mkdir(parents=True, exist_ok=True)
        spec.write_text(json.dumps(material, indent=1, sort_keys=True))
        manifest["entries"][key] = {
            "seq": manifest["seq"],
            "target": target.name,
            "scenario": scenario.name,
            "source": f"{target.name}:{scenario.name}",
            "windows": 0 if part is None else len(part),
            "shards": stems,
            "bytes": n_bytes,
            **({"n_servers": shape[0], "n_features": shape[1]}
               if shape else {}),
            "baseline_run_key": baseline_key,
            "interfered_run_key": run_key,
        }
        manifest["seq"] += 1
        self.pairs_appended += 1
        self.windows_appended += 0 if part is None else len(part)
        REGISTRY.counter("data.store.pairs_appended").inc()
        REGISTRY.counter("data.store.windows_appended").inc(
            0 if part is None else len(part))

    def _evict(self, manifest: dict[str, Any], key: str) -> None:
        """Drop an entry and its files (corrupt or incomplete)."""
        entry = manifest["entries"].pop(key, None)
        if entry is None:
            return
        for stem in entry["shards"]:
            try:
                self._stem_path(stem).unlink(missing_ok=True)
            except OSError:
                pass
        try:
            self._spec_path(key).unlink(missing_ok=True)
        except OSError:
            pass
        self._write_manifest(manifest)

    # -- assembly ---------------------------------------------------------

    def _assembly_key(self, ordered_stems: list[str]) -> str:
        return stable_hash({"kind": "dataset-assembly",
                            "format": DATASET_FORMAT,
                            "shards": ordered_stems})

    def _load_assembly(self, akey: str) -> "tuple[np.ndarray, np.ndarray, list[str]] | None":
        base = self.directory / _ASSEMBLY_DIR
        x_path, meta_path = base / f"{akey}.npy", base / f"{akey}.meta.npz"
        if not (x_path.exists() and meta_path.exists()):
            return None
        try:
            X = np.lib.format.open_memmap(x_path, mode="r")
            with np.load(meta_path, allow_pickle=False) as meta:
                levels = np.asarray(meta["levels"], dtype=float)
                sources = [str(s) for s in meta["sources"]]
            if X.ndim != 3 or not (len(X) == len(levels) == len(sources)):
                raise ValueError(f"assembly {akey} is inconsistent")
        except (OSError, ValueError) as exc:
            self._error("corrupt assembly %s (%s); rebuilding from shards",
                        akey, exc)
            return None
        return X, levels, sources

    def _assemble(self, manifest: dict[str, Any],
                  ordered_keys: list[str]) -> "WindowBank":
        """Assemble the keys' shards, in order, into a memmap-backed bank."""
        from repro.experiments.datagen import WindowBank

        entries = [manifest["entries"][k] for k in ordered_keys]
        ordered_stems = [stem for e in entries for stem in e["shards"]]
        total = sum(e["windows"] for e in entries)
        if total == 0:
            raise RuntimeError("no labelled windows were produced")
        akey = self._assembly_key(ordered_stems)
        cached = self._load_assembly(akey)
        if cached is not None:
            self.assembly_hits += 1
            REGISTRY.counter("data.store.assembly_hits").inc()
            X, levels, sources = cached
            return WindowBank(X, levels, sources=sources)

        self.assembly_misses += 1
        REGISTRY.counter("data.store.assembly_misses").inc()
        base = self.directory / _ASSEMBLY_DIR
        base.mkdir(parents=True, exist_ok=True)
        tmp_x = base / f"{akey}.{os.getpid()}.tmp.npy"
        tmp_meta = base / f"{akey}.{os.getpid()}.tmp.meta.npz"
        levels = np.empty(total, dtype=float)
        sources: list[str] = []
        X = None
        row = 0
        with _profile.phase("shard-scan", shards=len(ordered_stems)):
            for stem in ordered_stems:
                try:
                    shard = read_shard(self._stem_path(stem))
                except (OSError, ValueError) as exc:
                    # Content-addressed stores treat corruption as loss,
                    # never as data: evict the owning entry so the next
                    # build re-simulates just that pair.
                    key = stem.rsplit("-", 1)[0]
                    self._error("corrupt shard %s (%s); evicting entry %s",
                                stem, exc, key)
                    self._evict(manifest, key)
                    try:
                        tmp_x.unlink(missing_ok=True)
                    except OSError:
                        pass
                    raise RuntimeError(
                        f"shard {stem} was corrupt; its entry has been "
                        f"evicted — re-run the build to regenerate it"
                    ) from exc
                if X is None:
                    X = np.lib.format.open_memmap(
                        tmp_x, mode="w+", dtype=np.float64,
                        shape=(total, shard.X.shape[1], shard.X.shape[2]))
                n = len(shard)
                X[row:row + n] = shard.X
                levels[row:row + n] = shard.levels
                sources.extend(shard.sources)
                row += n
                self.shards_scanned += 1
                REGISTRY.counter("data.store.shards_scanned").inc()
        if row != total or X is None:
            raise RuntimeError(
                f"assembly mismatch: manifest promises {total} windows, "
                f"shards held {row}")
        with _profile.phase("shard-assemble", windows=total):
            X.flush()
            del X
            with open(tmp_meta, "wb") as fp:
                np.savez_compressed(
                    fp, levels=levels,
                    sources=np.array(sources, dtype=np.str_))
            os.replace(tmp_meta, base / f"{akey}.meta.npz")
            os.replace(tmp_x, base / f"{akey}.npy")
        X = np.lib.format.open_memmap(base / f"{akey}.npy", mode="r")
        return WindowBank(X, levels, sources=sources)

    # -- build ------------------------------------------------------------

    def build_bank(
        self,
        targets: "list[Workload]",
        scenarios: "list[Scenario]",
        config: "ExperimentConfig",
        include_quiet_windows: bool = True,
        executor: "SweepExecutor | None" = None,
    ) -> "WindowBank":
        """Incrementally build the sweep's window bank, out-of-core.

        Simulates only pairs missing from the store (via the executor,
        which itself dedups and caches *runs*), appends their shards,
        and returns a bank whose ``X`` is a read-only memmap.  The bank
        is bit-identical to :func:`~repro.experiments.datagen.
        collect_windows` over the same arguments.
        """
        from repro.experiments.datagen import (
            _skip_pair,
            label_pair,
            sweep_pairs,
        )
        from repro.parallel import PairJob, RunJob, SweepExecutor

        executor = executor or SweepExecutor()
        manifest = self.load_manifest()
        sweep = sweep_pairs(targets, scenarios, include_quiet_windows)
        pair_jobs = [
            PairJob(target, tuple(scenario.interference), config,
                    seed_salt=scenario.name)
            for target, scenario in sweep
        ]
        keys = [executor.shard_key_for(job) for job in pair_jobs]
        for key in keys:
            entry = manifest["entries"].get(key)
            if entry is not None and not self._entry_complete(entry):
                self._error("entry %s is missing shard files; evicting", key)
                self._evict(manifest, key)
        missing: list[int] = []
        seen: set[str] = set()
        for i, key in enumerate(keys):
            if key in manifest["entries"]:
                continue
            if key in seen:
                continue  # same pair requested twice: append once
            seen.add(key)
            missing.append(i)
        reused = len([k for k in keys if k in manifest["entries"]])
        self.pairs_reused += reused
        REGISTRY.counter("data.store.pairs_reused").inc(reused)

        t0 = time.monotonic()
        if missing:
            with _profile.phase("dataset-sweep", pairs=len(missing)):
                paired = executor.run_pairs([pair_jobs[i] for i in missing])
            labeller = DegradationLabeller(window_size=config.window_size)
            with _profile.phase("dataset-label"):
                for i, pair in zip(missing, paired):
                    target, scenario = sweep[i]
                    if pair is None:
                        _skip_pair(target, scenario)
                        self.pairs_skipped += 1
                        REGISTRY.counter("data.store.pairs_skipped").inc()
                        continue
                    part = label_pair(labeller, target, scenario, pair,
                                      config)
                    self._append_pair(
                        manifest, keys[i],
                        dataset_shard_key_material(
                            target, tuple(scenario.interference), config,
                            seed_salt=scenario.name, salt=executor.salt,
                            faults=executor._fault_material()),
                        target, scenario, part,
                        baseline_key=executor.key_for(
                            RunJob(target, (), config, seed_salt="")),
                        run_key=executor.key_for(
                            RunJob(target, tuple(scenario.interference),
                                   config, seed_salt=scenario.name)),
                    )
            self._write_manifest(manifest)
        append_seconds = time.monotonic() - t0

        t1 = time.monotonic()
        ordered = [k for k in keys if k in manifest["entries"]]
        bank = self._assemble(manifest, ordered)
        self.last_build = {
            "pairs": len(sweep),
            "missing_pairs": len(missing),
            "reused_pairs": reused,
            "windows": len(bank),
            "append_seconds": append_seconds,
            "assemble_seconds": time.monotonic() - t1,
        }
        return bank

    def build(
        self,
        targets: "list[Workload]",
        scenarios: "list[Scenario]",
        config: "ExperimentConfig",
        thresholds: tuple[float, ...] = BINARY_THRESHOLDS,
        include_quiet_windows: bool = True,
        source: str = "",
        executor: "SweepExecutor | None" = None,
    ) -> "Dataset":
        """Build (incrementally) and bin the sweep's dataset.

        ``content_digest()`` of the result equals the in-memory
        :func:`~repro.experiments.datagen.generate_dataset` digest for
        the same arguments — pinned by tests — so warm model-cache keys
        survive switching to the store.
        """
        from repro.experiments.datagen import bank_to_dataset

        bank = self.build_bank(targets, scenarios, config,
                               include_quiet_windows=include_quiet_windows,
                               executor=executor)
        return bank_to_dataset(bank, thresholds, source=source)

    # -- stats ------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Store counters + on-disk totals, manifest-ready."""
        manifest = self.load_manifest()
        entries = manifest["entries"]
        return {
            "directory": str(self.directory),
            "entries": len(entries),
            "windows": sum(e["windows"] for e in entries.values()),
            "shards": sum(len(e["shards"]) for e in entries.values()),
            "bytes": sum(e["bytes"] for e in entries.values()),
            "max_windows_per_shard": self.max_windows_per_shard,
            "pairs_appended": self.pairs_appended,
            "pairs_reused": self.pairs_reused,
            "pairs_skipped": self.pairs_skipped,
            "windows_appended": self.windows_appended,
            "shards_written": self.shards_written,
            "shards_scanned": self.shards_scanned,
            "assembly_hits": self.assembly_hits,
            "assembly_misses": self.assembly_misses,
            "errors": self.errors,
            "last_build": self.last_build,
        }
