"""Process-wide metrics registry: counters, gauges and fixed-bucket histograms.

The paper's methodology is built on counter deltas (Table II's diskstats
fields); this module gives our *own* stack the same discipline.  Every
tier registers named metrics in a shared :class:`MetricsRegistry` —
simulator monitors count samples, the training loop records epoch wall
times and gradient norms, the online predictor times its inference path
— and a single :meth:`~MetricsRegistry.snapshot` drops the whole state
into a run manifest.

Histograms use **fixed bucket boundaries** chosen at registration, never
adapted to the data, so aggregates are deterministic and two snapshots
are comparable bucket-for-bucket.  Bucket semantics follow Prometheus:
``counts[i]`` is the number of observations ``v <= boundaries[i]`` that
fell past ``boundaries[i-1]``, with one overflow bucket at the end.

Metric objects are plain attribute-bumping classes; resolve them once
(``c = registry.counter("x")``) and hot loops pay a single attribute
increment per event.
"""

from __future__ import annotations

import bisect
import math
from contextlib import contextmanager
from typing import Iterable, Iterator

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "REGISTRY",
    "registry", "DEFAULT_TIME_BUCKETS",
]

#: Default boundaries for time-like histograms (seconds): 100 µs .. 100 s,
#: roughly logarithmic.  Fixed here so every run buckets identically.
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0, 30.0, 100.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: cannot decrease ({amount})")
        self.value += amount

    def to_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """An instantaneous value that can move both ways."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def to_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """Fixed-boundary histogram with sum/count/min/max.

    ``boundaries`` must be strictly increasing; observations land in the
    first bucket whose upper edge is ``>= v`` (``bisect_left``), with one
    unbounded overflow bucket appended.
    """

    __slots__ = ("name", "boundaries", "counts", "total", "count", "min", "max")
    kind = "histogram"

    def __init__(self, name: str,
                 boundaries: Iterable[float] = DEFAULT_TIME_BUCKETS) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            raise ValueError(f"histogram {name}: needs at least one boundary")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram {name}: boundaries must be increasing")
        self.name = name
        self.boundaries = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(self.boundaries, value)] += 1
        self.total += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Named metrics, created on first use and snapshot in sorted order."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, cls, *args):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, *args)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested {cls.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str,
                  boundaries: Iterable[float] = DEFAULT_TIME_BUCKETS) -> Histogram:
        hist = self._get(name, Histogram, boundaries)
        if hist.boundaries != tuple(float(b) for b in boundaries):
            raise ValueError(
                f"histogram {name!r} re-registered with different boundaries"
            )
        return hist

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def snapshot(self) -> dict[str, dict]:
        """JSON-ready dump of every metric, keys sorted for stable diffs."""
        return {name: self._metrics[name].to_dict()
                for name in sorted(self._metrics)}

    def merge_snapshot(self, snapshot: dict[str, dict]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Used by :func:`repro.parallel.supervise.run_supervised`: a child
        process ships its registry delta with each finished item, and the
        parent merges the deltas in submission order, so its registry
        ends as if it had run every item itself.  The merge is
        **type-aware**:

        * **counters** sum;
        * **histograms** merge bucket-wise (plus sum/count/min/max);
        * **gauges** are instantaneous, so there is no meaningful sum:
          the merged value overwrites (last delivery wins — an explicit,
          documented reduce, only safe when snapshots arrive in a
          meaningful order, as submission order is).
        """
        for name in sorted(snapshot):
            doc = snapshot[name]
            kind = doc.get("kind")
            if kind == Counter.kind:
                self.counter(name).inc(doc["value"])
            elif kind == Gauge.kind:
                self.gauge(name).set(doc["value"])
            elif kind == Histogram.kind:
                hist = self.histogram(name, doc["boundaries"])
                counts = doc["counts"]
                if len(counts) != len(hist.counts):
                    raise ValueError(
                        f"histogram {name!r}: snapshot bucket count mismatch"
                    )
                for i, c in enumerate(counts):
                    hist.counts[i] += c
                hist.total += doc["sum"]
                hist.count += doc["count"]
                if doc["count"]:
                    hist.min = min(hist.min, doc["min"])
                    hist.max = max(hist.max, doc["max"])
            else:
                raise ValueError(f"metric {name!r}: unknown kind {kind!r}")

    def reset(self) -> None:
        """Forget every metric (used between runs and in tests)."""
        self._metrics.clear()

    @contextmanager
    def swapped(self, metrics: dict | None = None
                ) -> Iterator[dict[str, Counter | Gauge | Histogram]]:
        """Record a block into ``metrics`` instead of this registry's own.

        ``metrics`` is what an earlier ``swapped()`` block yielded, or
        ``None`` for an empty set.  The block's metrics — and every
        handle resolved inside it — live in the yielded dict, and the
        registry's own metrics, with every handle held on them, are back
        when the block ends.  :mod:`repro.parallel.warmstart` records a
        warm-up this way, so a run forked from it carries on counting
        into the warm-up's metrics and ships exactly the delta a fresh
        run would.
        """
        saved = self._metrics
        self._metrics = {} if metrics is None else metrics
        try:
            yield self._metrics
        finally:
            self._metrics = saved


#: The process-wide registry. Unlike tracing, always on: bumping a counter
#: is too cheap to gate.
REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return REGISTRY
