"""Fold a cProfile run's self time into the repository's layers.

Every ``repro`` module belongs to exactly one layer (:data:`LAYERS`); a
``repro`` module the table does not cover is an error, so a new module
cannot silently fall out of the attribution.  Time spent outside
``repro`` -- numpy's Python wrappers, C builtins, the standard library --
is charged to the ``repro`` code that called it, split across callers in
proportion to the time each call edge accounts for in the profile.  What
no ``repro`` frame called (the benchmark harness itself) lands in
``other``.

The fold only reads a finished profile; nothing is instrumented inside
the program.
"""

from __future__ import annotations

import pathlib
from collections import defaultdict
from dataclasses import dataclass

#: ``(module prefix, layer)``; the longest matching prefix wins.
LAYERS: tuple[tuple[str, str], ...] = (
    ("repro.sim.engine", "sim.engine"),
    ("repro.sim.client", "sim.client"),
    ("repro.sim.scheduler", "sim.client"),
    ("repro.sim.resources", "sim.client"),
    ("repro.sim.batch", "sim.client"),
    ("repro.common.records", "sim.client"),
    ("repro.workloads", "sim.workload"),
    ("repro.sim.netmodel", "sim.netmodel"),
    ("repro.sim.ost", "sim.storage"),
    ("repro.sim.cache", "sim.storage"),
    ("repro.sim.disk", "sim.storage"),
    ("repro.sim.qos", "sim.storage"),
    ("repro.sim.burstbuffer", "sim.storage"),
    ("repro.sim.mds", "sim.mds"),
    ("repro.sim.filesystem", "sim.mds"),
    ("repro.sim", "sim.cluster"),
    ("repro.faults", "sim.cluster"),
    ("repro.monitor", "monitor"),
    ("repro.core.labeling", "label"),
    ("repro.common.windows", "label"),
    ("repro.core.nn", "nn"),
    ("repro.core", "predictor"),
    ("repro.serve", "serve"),
    ("repro.experiments", "orchestration"),
    ("repro.parallel", "orchestration"),
    ("repro.data", "orchestration"),
    ("repro.obs", "obs"),
    ("repro.common", "other"),
    ("repro.bench", "other"),
    ("repro.__main__", "other"),
    ("repro", "other"),
)

#: Call counts read from the profile: metric -> ``(module, function)``s
#: whose primitive call counts are summed.
COUNTS: dict[str, tuple[tuple[str, str], ...]] = {
    "sim.engine.events": (("repro.sim.engine", "_step"),),
    "sim.netmodel.recomputes": (("repro.sim.netmodel", "_recompute_rates"),),
    "sim.mds.requests": (("repro.sim.mds", "handle"),
                         ("repro.sim.mds", "handle_fast")),
}

#: Cumulative (inclusive) times read from the profile.
CUMULATIVE: dict[str, tuple[str, str]] = {
    "monitor.aggregate": ("repro.monitor.aggregator", "assemble_vectors"),
    "label.levels": ("repro.core.labeling", "window_levels"),
}

Key = tuple[str, int, str]


def layer_of_module(module: str) -> str:
    """The layer a ``repro`` module belongs to; raises for an unmapped one."""
    best = None
    for prefix, layer in LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, layer)
    if best is None:
        raise ValueError(f"repro module {module!r} is not mapped to a layer")
    return best[1]


def module_of(filename: str, package_dir: pathlib.Path) -> str | None:
    """Dotted module name of a file inside the ``repro`` package, else None."""
    if filename.startswith("~") or filename.startswith("<"):
        return None
    try:
        rel = pathlib.Path(filename).resolve().relative_to(package_dir)
    except ValueError:
        return None
    parts = list(rel.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join([package_dir.name, *parts])


@dataclass
class Fold:
    """Self seconds per layer plus the profile's own counts."""

    total_s: float
    self_s: dict[str, float]
    counts: dict[str, int]
    cumulative_s: dict[str, float]

    @property
    def coverage(self) -> float:
        """Share of profiled time attributed to a layer other than
        ``other``."""
        if self.total_s <= 0:
            return 0.0
        attributed = sum(self.self_s.values()) - self.self_s.get("other", 0.0)
        return attributed / self.total_s


def fold(stats: dict, package_dir: pathlib.Path) -> Fold:
    """Fold ``pstats.Stats(...).stats`` into layers.

    ``stats`` maps ``(filename, line, function)`` to ``(primitive calls,
    calls, self time, cumulative time, callers)``, where ``callers`` maps
    each caller's key to the same four numbers for that one call edge.
    """
    package_dir = pathlib.Path(package_dir).resolve()
    modules = {key: module_of(key[0], package_dir) for key in stats}
    owner: dict[Key, str | None] = {
        key: None if module is None else layer_of_module(module)
        for key, module in modules.items()}

    shares: dict[Key, dict[str, float]] = {}
    visiting: set[Key] = set()

    def layers_of(key: Key) -> tuple[dict[str, float], bool]:
        """How a frame's time splits over layers, and whether the split
        is final.

        Repro code is its own layer; other frames split like their
        callers, weighted by each call edge's cumulative time.  A caller
        already on the walk (a recursion cycle, as in nested imports)
        is skipped; a split that skipped one is not cached.
        """
        layer = owner.get(key)
        if layer is not None:
            return {layer: 1.0}, True
        if key in shares:
            return shares[key], True
        callers = stats[key][4] if key in stats else {}
        if not callers:
            return {"other": 1.0}, True
        final = True
        parts = []
        visiting.add(key)
        for caller, edge in callers.items():
            if caller in visiting:
                final = False
                continue
            split, caller_final = layers_of(caller)
            final = final and caller_final
            if split:
                parts.append((edge[3], edge[1], split))
        visiting.discard(key)
        # Weight by cumulative time; by call count if no edge has any.
        by_time = sum(ct for ct, _, _ in parts) > 0
        weights = [ct if by_time else float(nc) for ct, nc, _ in parts]
        total = sum(weights)
        combined: dict[str, float] = defaultdict(float)
        for weight, (_, _, split) in zip(weights, parts):
            for layer, part in split.items():
                combined[layer] += part * weight / total
        if final:
            shares[key] = dict(combined)
        return dict(combined), final

    self_s: dict[str, float] = defaultdict(float)
    total_s = 0.0
    for key, (_, _, tt, _, callers) in stats.items():
        total_s += tt
        layer = owner[key]
        if layer is not None:
            self_s[layer] += tt
            continue
        charged = 0.0
        visiting.add(key)
        for caller, edge in callers.items():
            split, _ = layers_of(caller)
            for layer, part in (split or {"other": 1.0}).items():
                self_s[layer] += edge[2] * part
            charged += edge[2]
        visiting.discard(key)
        # Self time not carried by any call edge (a root frame).
        if tt > charged:
            self_s["other"] += tt - charged

    by_function: dict[tuple[str, str], list[Key]] = defaultdict(list)
    for key, module in modules.items():
        if module is not None:
            by_function[(module, key[2])].append(key)
    counts = {
        name: sum(stats[k][0] for fn in fns for k in by_function.get(fn, ()))
        for name, fns in COUNTS.items()
    }
    cumulative_s = {
        name: sum(stats[k][3] for k in by_function.get(fn, ()))
        for name, fn in CUMULATIVE.items()
    }
    return Fold(total_s=total_s, self_s=dict(self_s), counts=counts,
                cumulative_s=cumulative_s)
