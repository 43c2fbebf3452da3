"""Server-side monitor: 1 Hz counter sampling plus window aggregation.

The paper's server-side monitor runs as an independent process on every
PFS server, pulling the Table II statistics once per second and shipping
window aggregates (sum / mean / std over the seconds of each window) to
the training server (§III-B). Here a simulator process samples every
server's cumulative counters at a fixed interval and converts counters to
per-interval deltas (gauges stay instantaneous);
:func:`window_feature_arrays` is the one window aggregation, shared by
offline vector assembly and the streaming predictor.
"""

from __future__ import annotations

import numpy as np

from repro.common.records import ServerId
from repro.common.windows import window_indices
from repro.monitor.schema import SERVER_METRICS, SERVER_STATS
from repro.obs.metrics import REGISTRY
from repro.sim.cluster import Cluster

__all__ = ["ServerMonitor", "window_feature_arrays"]

#: Maps schema metric names to the cluster counter keys they derive from.
_COUNTER_SOURCES: dict[str, tuple[str, ...]] = {
    "ios_completed": ("reads_completed", "writes_completed"),
    "sectors_read": ("sectors_read",),
    "sectors_written": ("sectors_written",),
    "queue_insertions": ("queue_insertions",),
    "requests_merged": ("reads_merged", "writes_merged"),
    "io_ticks": ("io_ticks",),
    "weighted_time": ("weighted_time",),
    "mds_ops_completed": ("mds_ops_completed",),
}

_GAUGE_SOURCES: dict[str, str] = {
    "queue_depth": "queue_depth",
    "cache_dirty_bytes": "cache_dirty_bytes",
}


class ServerMonitor:
    """Samples every server's counters at a fixed interval.

    Call :meth:`start` before running the simulation; samples accumulate
    in :attr:`samples` as ``(time, server, metrics-dict)`` rows, in
    sample-time order, one row per server every ``sample_interval``.
    The monitor never loses or reorders a sample: telemetry faults
    (dropped samples, blanked client windows) are a property of the
    collected stream and are applied after collection, by
    :func:`repro.faults.apply_faults`.
    """

    def __init__(self, cluster: Cluster,
                 sample_interval: float = 0.25) -> None:
        if sample_interval <= 0:
            raise ValueError(
                f"sample_interval must be positive, got {sample_interval}"
            )
        self.cluster = cluster
        self.sample_interval = sample_interval
        self.samples: list[tuple[float, ServerId, dict[str, float]]] = []
        self._last_counters: dict[ServerId, dict[str, float]] = {}
        self._started = False

    def start(self) -> None:
        """Arm the sampling process on the cluster's environment."""
        if self._started:
            raise RuntimeError("monitor already started")
        self._started = True
        for server in self.cluster.servers:
            self._last_counters[server] = self.cluster.server_counters(server)
        self.cluster.env.process(self._loop())

    def _loop(self):
        env = self.cluster.env
        # Resolve metric handles once; the loop then pays one attribute
        # bump per sample row.
        sample_counter = REGISTRY.counter("monitor.server_samples")
        tick_counter = REGISTRY.counter("monitor.sample_ticks")
        last_sample = REGISTRY.gauge("monitor.last_sample_sim_time")
        while True:
            yield env.timeout(self.sample_interval)
            t = env.now
            tick_counter.inc()
            last_sample.set(t)
            sample_counter.inc(len(self.cluster.servers))
            for server in self.cluster.servers:
                counters = self.cluster.server_counters(server)
                prev = self._last_counters[server]
                metrics: dict[str, float] = {}
                for name, sources in _COUNTER_SOURCES.items():
                    metrics[name] = sum(
                        counters[s] - prev[s] for s in sources
                    )
                for name, source in _GAUGE_SOURCES.items():
                    metrics[name] = counters[source]
                self._last_counters[server] = counters
                self.samples.append((t, server, metrics))


def window_feature_arrays(
    samples: list[tuple[float, ServerId, dict[str, float]]],
    window_size: float,
    sample_interval: float,
) -> tuple[list[tuple[int, ServerId]], np.ndarray]:
    """Aggregate ``(time, server, metrics)`` samples per (window, server)
    as sum/mean/std.

    A sample taken at time ``t`` summarises the preceding interval, so
    it belongs to the window containing ``t - sample_interval/2``.

    Returns ``(keys, features)`` where row ``i`` of the
    ``(n_groups, len(SERVER_FEATURES))`` array holds the aggregates for
    ``keys[i]`` in :data:`~repro.monitor.schema.SERVER_FEATURES` order,
    keys sorted by window.  The group-by runs vectorised over all
    samples at once (``np.bincount`` per metric column), and each
    group's statistics depend only on its own samples in their arrival
    order, so one window's rows aggregate to the same bits alone as
    inside a whole run.
    """
    if window_size <= 0:
        raise ValueError(f"window_size must be positive, got {window_size}")
    if not samples:
        return [], np.zeros((0, len(SERVER_METRICS) * len(SERVER_STATS)))
    n = len(samples)
    times = np.fromiter((t for t, _, _ in samples), dtype=np.float64,
                        count=n)
    values = np.array(
        [[row[m] for m in SERVER_METRICS] for _, _, row in samples],
        dtype=np.float64,
    )
    wins = window_indices(
        np.maximum(0.0, times - sample_interval / 2), window_size
    )
    # Dense server ids in first-seen order; group = (window, server).
    server_ids: dict[ServerId, int] = {}
    servers: list[ServerId] = []
    sidx = np.empty(n, dtype=np.int64)
    for i, (_, server, _) in enumerate(samples):
        j = server_ids.get(server)
        if j is None:
            j = server_ids[server] = len(servers)
            servers.append(server)
        sidx[i] = j
    codes = wins * len(servers) + sidx
    uniq, inverse = np.unique(codes, return_inverse=True)
    counts = np.bincount(inverse, minlength=len(uniq)).astype(np.float64)
    n_metrics = len(SERVER_METRICS)
    sums = np.empty((len(uniq), n_metrics))
    for c in range(n_metrics):
        sums[:, c] = np.bincount(inverse, weights=values[:, c],
                                 minlength=len(uniq))
    means = sums / counts[:, None]
    sq_dev = (values - means[inverse]) ** 2
    var = np.empty_like(sums)
    for c in range(n_metrics):
        var[:, c] = np.bincount(inverse, weights=sq_dev[:, c],
                                minlength=len(uniq))
    stds = np.sqrt(var / counts[:, None])
    stacked = np.stack([sums, means, stds], axis=2)  # (g, metric, stat)
    features = stacked.reshape(len(uniq), n_metrics * len(SERVER_STATS))
    keys = [(int(code // len(servers)), servers[int(code % len(servers))])
            for code in uniq]
    return keys, features
