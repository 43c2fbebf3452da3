"""Client-side monitor: windowed aggregation of an application's records.

The paper's client-side monitor is a modified Darshan that buffers
per-request records in shared memory and periodically aggregates them per
time window (§III-A). Here the simulator's trace collector plays the role
of the SHM buffer; this module performs the aggregation: for a chosen
application (*target workload*), it attributes each completed operation to
the window containing its completion time and to the servers it touched,
producing one client-feature dict per (window, server).

Attribution rules (documented behaviour, exercised by tests):

* counts and bytes go to the window of the op's *end* time (an op is only
  knowable to the monitor once it completed);
* data bytes are split evenly across the stripe targets the op touched
  (striping spreads an extent uniformly for all practical patterns here);
* metadata ops count fully against the MDT;
* ``io_time`` is the op duration, split across touched servers like bytes.
"""

from __future__ import annotations

from collections import defaultdict

from repro.common.records import IORecord, ServerId
from repro.common.windows import window_index
from repro.monitor.schema import CLIENT_FEATURES

__all__ = ["ClientWindowAggregator"]


def _empty_features() -> dict[str, float]:
    return {name: 0.0 for name in CLIENT_FEATURES}


class ClientWindowAggregator:
    """Aggregates one application's I/O records into windowed features."""

    def __init__(self, window_size: float = 1.0) -> None:
        if window_size <= 0:
            raise ValueError(f"window_size must be positive, got {window_size}")
        self.window_size = window_size

    def aggregate(
        self, records: list[IORecord], job: str
    ) -> dict[tuple[int, ServerId], dict[str, float]]:
        """Per-(window, server) client features for ``job``'s records."""
        out: dict[tuple[int, ServerId], dict[str, float]] = defaultdict(
            _empty_features
        )
        for rec in records:
            if rec.job != job:
                continue
            if not rec.servers:
                continue
            win = window_index(rec.end, self.window_size)
            share = 1.0 / len(rec.servers)
            for server in rec.servers:
                feats = out[(win, server)]
                feats["n_total"] += share
                feats[f"n_{rec.op.family}"] += share
                if rec.op.family == "read":
                    feats["bytes_read"] += rec.size * share
                elif rec.op.family == "write":
                    feats["bytes_written"] += rec.size * share
                feats["io_time"] += rec.duration * share
        for feats in out.values():
            feats["bytes_total"] = feats["bytes_read"] + feats["bytes_written"]
            feats["throughput"] = feats["bytes_total"] / self.window_size
            feats["iops"] = feats["n_total"] / self.window_size
        return dict(out)
