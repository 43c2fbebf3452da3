"""Online prediction during a live run (the paper's deployment mode).

After offline training, the paper's model runs on the training server and
"receives time window metrics from both the server-side and client-side
monitors in the same per-server vector format at runtime" (§III-C). This
module implements that loop inside the simulator: a
:class:`StreamingPredictor` is attached to a live cluster and, every time
a window closes, assembles that window's per-server vector from the
records and samples accumulated *so far* and emits a severity prediction
— while the target application is still running.

The streaming vector assembly is incremental (cursor over the trace and
sample streams) and produces bit-identical vectors to the offline
:func:`repro.monitor.aggregator.assemble_vectors`, which the integration
tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.common.records import IORecord, ServerId
from repro.monitor.client_monitor import ClientWindowAggregator
from repro.monitor.schema import CLIENT_FEATURES, SERVER_FEATURES
from repro.monitor.server_monitor import ServerMonitor
from repro.core.predictor import InterferencePredictor
from repro.obs.log import get_logger
from repro.obs.metrics import REGISTRY
from repro.sim.cluster import Cluster

logger = get_logger("core.online")

__all__ = ["WindowPrediction", "StreamingPredictor"]


@dataclass(frozen=True)
class WindowPrediction:
    """One runtime prediction: emitted as soon as the window closed.

    ``completeness`` is the fraction of expected server samples that had
    arrived when the prediction was made; ``stale`` marks a fallback
    emission — the window's telemetry was too gappy, so the last good
    prediction was repeated instead of trusting a half-blind vector.
    """

    window: int
    severity: int
    probabilities: tuple[float, ...]
    emitted_at: float  #: simulated time the prediction was produced
    completeness: float = 1.0
    stale: bool = False


@dataclass
class StreamingPredictor:
    """Drives a trained predictor against a live simulated run."""

    predictor: InterferencePredictor
    cluster: Cluster
    monitor: ServerMonitor
    job: str
    window_size: float = 0.5
    #: Called with each WindowPrediction as it is emitted (optional).
    on_prediction: Callable[[WindowPrediction], None] | None = None
    #: Bounded reorder buffer: window ``w`` is predicted at
    #: ``(w + 1 + reorder_windows) * window_size``, giving late /
    #: out-of-order samples that many windows to arrive.
    reorder_windows: int = 0
    #: Minimum fraction of expected server samples a window needs before
    #: its vector is trusted; below it, fall back to the last good
    #: prediction with ``stale=True``.  0 disables the fallback.
    min_completeness: float = 0.0

    predictions: list[WindowPrediction] = field(default_factory=list)
    _record_cursor: int = field(default=0, repr=False)
    _sample_cursor: int = field(default=0, repr=False)
    _window_records: dict[int, list[IORecord]] = field(default_factory=dict,
                                                       repr=False)
    _window_samples: dict[tuple[int, ServerId], list[dict]] = field(
        default_factory=dict, repr=False)
    _started: bool = field(default=False, repr=False)
    _scorer: object = field(default=None, repr=False)
    _last_good: WindowPrediction | None = field(default=None, repr=False)
    _emitted_through: int = field(default=-1, repr=False)

    def start(self) -> None:
        """Arm the per-window prediction loop on the cluster's engine."""
        if self._started:
            raise RuntimeError("streaming predictor already started")
        if self.window_size <= 0:
            raise ValueError("window_size must be positive")
        if self.reorder_windows < 0:
            raise ValueError("reorder_windows must be >= 0")
        if not 0.0 <= self.min_completeness <= 1.0:
            raise ValueError("min_completeness must be in [0, 1]")
        self._started = True
        # Score through the fused deployment path: the normaliser is
        # folded into the first kernel layer and every forward pass runs
        # in preallocated buffers, so the per-window hot path does no
        # normalisation pass and no allocation.  Equal to the unfused
        # path up to float rounding.
        self._scorer = self.predictor.deploy()
        self.cluster.env.process(self._loop())

    # -- incremental ingestion --------------------------------------------------

    def _ingest(self) -> None:
        from repro.common.windows import window_index

        records = self.cluster.collector.records
        while self._record_cursor < len(records):
            rec = records[self._record_cursor]
            self._record_cursor += 1
            if rec.job != self.job:
                continue
            w = window_index(rec.end, self.window_size)
            if w <= self._emitted_through:
                continue
            self._window_records.setdefault(w, []).append(rec)
        samples = self.monitor.samples
        half = self.monitor.sample_interval / 2
        late_counter = REGISTRY.counter("online.late_samples")
        while self._sample_cursor < len(samples):
            t, server, metrics = samples[self._sample_cursor]
            self._sample_cursor += 1
            w = window_index(max(0.0, t - half), self.window_size)
            if w <= self._emitted_through:
                # The sample arrived after its window was already
                # predicted; it can no longer influence the output, so
                # count it and drop it instead of buffering it forever —
                # a long-lived stream (one tenant session of the
                # prediction service) must hold only windows that can
                # still be emitted.
                late_counter.inc()
                continue
            self._window_samples.setdefault((w, server), []).append(metrics)

    def _evict(self, window: int) -> None:
        """Release the buffers of an emitted window.

        Emitted windows are never revisited (late arrivals are dropped
        in :meth:`_ingest`), so holding their records/samples would be a
        per-window memory leak over an unbounded stream.
        """
        self._window_records.pop(window, None)
        for sid in self.cluster.servers:
            self._window_samples.pop((window, sid), None)

    def _completeness(self, window: int) -> float:
        """Fraction of expected server samples present for ``window``."""
        expected = max(1, round(self.window_size /
                                self.monitor.sample_interval))
        servers = self.cluster.servers
        if not servers:
            return 1.0
        have = 0.0
        for sid in servers:
            rows = self._window_samples.get((window, sid))
            if rows:
                have += min(1.0, len(rows) / expected)
        return have / len(servers)

    def _vector_for(self, window: int) -> np.ndarray:
        """Per-server vector of one closed window (offline-identical)."""
        aggregator = ClientWindowAggregator(self.window_size)
        client = aggregator.aggregate(self._window_records.get(window, []),
                                      self.job)
        servers = self.cluster.servers
        n_client = len(CLIENT_FEATURES)
        X = np.zeros((1, len(servers), n_client + len(SERVER_FEATURES)))
        for si, sid in enumerate(servers):
            cf = client.get((window, sid))
            if cf is not None:
                X[0, si, :n_client] = [cf[name] for name in CLIENT_FEATURES]
            rows = self._window_samples.get((window, sid))
            if rows:
                X[0, si, n_client:] = self._aggregate_samples(rows)
        return X

    @staticmethod
    def _aggregate_samples(rows: list[dict]) -> np.ndarray:
        """Flat server-feature row in ``SERVER_FEATURES`` order.

        One (samples, metrics) matrix and three axis-0 reductions instead
        of a python loop with a fresh array per metric. Window sample
        counts are far below numpy's pairwise-summation block (128), so
        the column statistics are bit-identical to the per-metric arrays
        the offline aggregator builds.
        """
        from repro.monitor.schema import SERVER_METRICS

        M = np.array([[row[m] for m in SERVER_METRICS] for row in rows],
                     dtype=float)
        out = np.empty(3 * M.shape[1])
        out[0::3] = M.sum(axis=0)
        out[1::3] = M.mean(axis=0)
        out[2::3] = M.std(axis=0)
        return out

    # -- the loop -----------------------------------------------------------------

    def _loop(self):
        import time

        env = self.cluster.env
        window = 0
        emit_counter = REGISTRY.counter("online.predictions")
        stale_counter = REGISTRY.counter("online.stale_predictions")
        latency_hist = REGISTRY.histogram("online.predict_latency_seconds")
        while True:
            # Wake just after the window boundary (plus the reorder
            # allowance) so the boundary sample — and any straggler the
            # reorder buffer is willing to wait for — has been recorded.
            target_time = ((window + 1 + self.reorder_windows)
                           * self.window_size + 1e-9)
            yield env.timeout(max(0.0, target_time - env.now))
            self._ingest()
            completeness = self._completeness(window)
            stale = (self.min_completeness > 0
                     and completeness < self.min_completeness)
            t0 = time.perf_counter()
            if stale and self._last_good is not None:
                # Too blind to trust the vector: repeat the last good
                # prediction rather than classify mostly-zeros as idle.
                probs = self._last_good.probabilities
            else:
                X = self._vector_for(window)
                # The fused scorer returns a view into its own buffer;
                # the tuple() copy below is the hand-off.
                probs = tuple(
                    float(p) for p in self._scorer.predict_proba(X)[0]
                )
            latency_hist.observe(time.perf_counter() - t0)
            emit_counter.inc()
            if stale:
                stale_counter.inc()
            pred = WindowPrediction(
                window=window,
                severity=int(np.argmax(probs)),
                probabilities=tuple(probs),
                emitted_at=env.now,
                completeness=completeness,
                stale=stale,
            )
            self.predictions.append(pred)
            self._emitted_through = window
            self._evict(window)
            if not stale:
                self._last_good = pred
            if self.on_prediction is not None:
                self.on_prediction(pred)
            logger.debug(
                "window %d: severity=%d (p=%.3f)%s emitted at t=%.3fs",
                window, pred.severity, max(pred.probabilities),
                " [stale]" if stale else "", env.now,
            )
            window += 1
