"""Vector assembly: the training server's input format.

The training server fills the periodically collected metrics into a set of
*per-server vectors* — one vector per storage server per window, holding
one window of client-side metrics targeting that server followed by the
server's own metrics (§III-C). :func:`assemble_vectors` produces exactly
that: an ``(n_windows, n_servers, n_features)`` array plus the window ids,
with missing (idle) cells zero-filled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.records import IORecord, ServerId
from repro.monitor.client_monitor import ClientWindowAggregator
from repro.monitor.schema import CLIENT_FEATURES, SERVER_FEATURES
from repro.monitor.server_monitor import window_feature_arrays
from repro.obs.metrics import REGISTRY

__all__ = ["MonitoredRun", "assemble_vectors", "select_labelled",
           "GAP_POLICIES", "assert_finite"]

#: Missing-data policies for (window, server) cells with no server
#: samples: ``zero`` keeps the historical zero fill, ``mean`` imputes
#: the server's mean over its observed windows, ``carry`` carries the
#: last observed window forward.
GAP_POLICIES: tuple[str, ...] = ("zero", "mean", "carry")


def assert_finite(X: np.ndarray, context: str = "") -> np.ndarray:
    """Raise :class:`ValueError` if ``X`` holds NaN/inf; returns ``X``.

    The guard every assembled feature array passes before it reaches
    training or inference — missing data must be masked and imputed
    explicitly, never smuggled through as NaN.
    """
    X = np.asarray(X)
    if X.size and not np.isfinite(X).all():
        bad = int(X.size - np.isfinite(X).sum())
        where = np.argwhere(~np.isfinite(X))[:3].tolist()
        raise ValueError(
            f"non-finite feature values{f' in {context}' if context else ''}: "
            f"{bad} bad entries, first at indices {where}"
        )
    return X


@dataclass
class MonitoredRun:
    """Everything one monitored execution produced.

    Attributes
    ----------
    job:
        The target workload's job name.
    records:
        Full DXT-style trace (all jobs; filtering happens at aggregation).
    server_samples:
        Per-second server metric rows from the :class:`ServerMonitor`.
    servers:
        All server targets of the cluster, in stable order.
    duration:
        Simulated seconds the measured run took.
    """

    job: str
    records: list[IORecord]
    server_samples: list[tuple[float, ServerId, dict[str, float]]]
    servers: list[ServerId]
    duration: float
    metadata: dict = field(default_factory=dict)


def select_labelled(window_ids: list[int], levels: dict[int, float]) -> list[int]:
    """Window ids (of :func:`assemble_vectors`) that carry a label.

    Order-preserving and duplicate-keeping, so the labelled rows of an
    assembled vector array keep their window order.
    """
    return [w for w in window_ids if w in levels]


def assemble_vectors(
    run: MonitoredRun,
    window_size: float = 1.0,
    sample_interval: float = 0.25,
    gap_policy: str = "zero",
    return_mask: bool = False,
):
    """Build per-server vectors for every window of a monitored run.

    Returns ``(X, window_ids)`` where ``X`` has shape
    ``(n_windows, n_servers, n_features)`` with the feature layout of
    :data:`repro.monitor.schema.VECTOR_FEATURES`, and ``window_ids`` are
    the corresponding window indices. Windows beyond the run duration are
    not emitted; windows with no activity at all still appear (all-zero
    except gauges), because "idle" is a state the model must recognise.

    Missing data is handled explicitly, never as NaN: a (window, server)
    cell that received *no server samples at all* (a telemetry gap, e.g.
    injected by :mod:`repro.faults`) is imputed per ``gap_policy`` (see
    :data:`GAP_POLICIES`); ``return_mask=True`` additionally returns the
    ``(n_windows, n_servers)`` boolean mask of cells that *did* have
    samples.  Gap counts land in the ``monitor.gap_cells`` counter and
    the ``monitor.gap_fraction`` gauge.  The assembled array is asserted
    finite before it is returned.
    """
    if gap_policy not in GAP_POLICIES:
        raise ValueError(
            f"unknown gap_policy {gap_policy!r} (choose from {GAP_POLICIES})"
        )
    client = ClientWindowAggregator(window_size).aggregate(run.records, run.job)
    server_keys, server_feats = window_feature_arrays(
        run.server_samples, window_size, sample_interval
    )
    n_windows = max(1, int(np.ceil(run.duration / window_size)))
    servers = run.servers
    server_pos = {sid: si for si, sid in enumerate(servers)}
    base = len(CLIENT_FEATURES)
    X = np.zeros((n_windows, len(servers), base + len(SERVER_FEATURES)),
                 dtype=float)
    mask = np.zeros((n_windows, len(servers)), dtype=bool)
    # Fill only the active (window, server) cells; idle cells stay zero.
    for (w, sid), cf in client.items():
        si = server_pos.get(sid)
        if si is not None and 0 <= w < n_windows:
            X[w, si, :base] = [cf[name] for name in CLIENT_FEATURES]
    for (w, sid), row in zip(server_keys, server_feats):
        si = server_pos.get(sid)
        if si is not None and 0 <= w < n_windows:
            X[w, si, base:] = row
            mask[w, si] = True
    _impute_gaps(X, mask, base, gap_policy)
    gaps = int(mask.size - mask.sum())
    if gaps:
        REGISTRY.counter("monitor.gap_cells").inc(gaps)
    REGISTRY.gauge("monitor.gap_fraction").set(
        gaps / mask.size if mask.size else 0.0
    )
    assert_finite(X, context=f"assemble_vectors({run.job})")
    if return_mask:
        return X, list(range(n_windows)), mask
    return X, list(range(n_windows))


def _impute_gaps(X: np.ndarray, mask: np.ndarray, base: int,
                 gap_policy: str) -> None:
    """Fill server-feature blocks of gap cells in place per policy.

    ``zero`` is a no-op (cells already zero); ``mean`` uses the server's
    mean over observed windows; ``carry`` repeats the last observed
    window.  A server with no observed windows at all stays zero under
    every policy — there is nothing to impute from.
    """
    if gap_policy == "zero" or mask.all():
        return
    n_windows, n_servers = mask.shape
    for si in range(n_servers):
        observed = mask[:, si]
        if not observed.any():
            continue
        if gap_policy == "mean":
            fill = X[observed, si, base:].mean(axis=0)
            X[~observed, si, base:] = fill
        elif gap_policy == "carry":
            last: np.ndarray | None = None
            for w in range(n_windows):
                if observed[w]:
                    last = X[w, si, base:]
                elif last is not None:
                    X[w, si, base:] = last

