"""Online prediction during a live run (the paper's deployment mode).

After offline training, the paper's model runs on the training server and
"receives time window metrics from both the server-side and client-side
monitors in the same per-server vector format at runtime" (§III-C). This
module implements that loop inside the simulator: a
:class:`StreamingPredictor` is attached to a live cluster and, every time
a window closes, assembles that window's per-server vector from the
records and samples accumulated *so far* and emits a severity prediction
— while the target application is still running.

Ingestion is incremental (a cursor over the trace and sample streams
buffers each row under its window), and a closed window's vector is
built by the same code offline assembly uses —
:class:`~repro.monitor.client_monitor.ClientWindowAggregator` and
:func:`~repro.monitor.server_monitor.window_feature_arrays` — so it equals
that window's row of :func:`repro.monitor.aggregator.assemble_vectors`
bit for bit.  It is scored by
:meth:`~repro.core.predictor.DeployedPredictor.predict_proba_rows`, the
forward pass the prediction service batches, so a vector gets the same
probabilities here as from ``repro serve``.

The stream it reads is the monitor's own, in sample order: telemetry
faults are applied to collected runs only (:func:`repro.faults.
apply_faults`), so the loop waits for nothing but a window's last
sample.  A sample that still arrives after its window was emitted is
counted in ``online.late_samples`` and dropped, and an emitted window's
buffers are released, so a long-lived stream holds only the windows it
can still emit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.common.records import IORecord, ServerId
from repro.monitor.client_monitor import ClientWindowAggregator
from repro.monitor.schema import CLIENT_FEATURES, SERVER_FEATURES
from repro.monitor.server_monitor import ServerMonitor, window_feature_arrays
from repro.core.predictor import InterferencePredictor
from repro.obs.log import get_logger
from repro.obs.metrics import REGISTRY
from repro.sim.cluster import Cluster

logger = get_logger("core.online")

__all__ = ["WindowPrediction", "StreamingPredictor"]


@dataclass(frozen=True)
class WindowPrediction:
    """One runtime prediction: emitted as soon as the window's last
    sample arrived."""

    window: int
    severity: int
    probabilities: tuple[float, ...]
    emitted_at: float  #: simulated time the prediction was produced


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

    predictions: list[WindowPrediction] = field(default_factory=list)
    _record_cursor: int = field(default=0, repr=False)
    _sample_cursor: int = field(default=0, repr=False)
    _window_records: dict[int, list[IORecord]] = field(default_factory=dict,
                                                       repr=False)
    _window_samples: dict[
        int, list[tuple[float, ServerId, dict[str, float]]]] = field(
        default_factory=dict, repr=False)
    _started: bool = field(default=False, repr=False)
    _scorer: object = field(default=None, repr=False)
    _emitted_through: int = field(default=-1, repr=False)

    def start(self) -> None:
        """Arm the per-window prediction loop on the cluster's engine."""
        if self._started:
            raise RuntimeError("streaming predictor already started")
        if self.window_size <= 0:
            raise ValueError("window_size must be positive")
        self._started = True
        # Score through the fused deployment path: the normaliser is
        # folded into the first kernel layer, so the per-window hot path
        # does no normalisation pass.  Equal to the unfused path up to
        # float rounding.
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
            row = samples[self._sample_cursor]
            self._sample_cursor += 1
            w = window_index(max(0.0, row[0] - half), self.window_size)
            if w <= self._emitted_through:
                # The sample arrived after its window was already
                # predicted; it can no longer influence the output, so
                # count it and drop it instead of buffering it forever —
                # a long-lived stream (one tenant session of the
                # prediction service) must hold only windows that can
                # still be emitted.
                late_counter.inc()
                continue
            self._window_samples.setdefault(w, []).append(row)

    def _evict(self, window: int) -> None:
        """Release the buffers of an emitted window.

        Emitted windows are never revisited (late arrivals are dropped
        in :meth:`_ingest`), so holding their records/samples would be a
        per-window memory leak over an unbounded stream.
        """
        self._window_records.pop(window, None)
        self._window_samples.pop(window, None)

    def _vector_for(self, window: int) -> np.ndarray:
        """Per-server vector of one closed window, aggregated by the
        offline assembly's own functions."""
        client = ClientWindowAggregator(self.window_size).aggregate(
            self._window_records.get(window, []), self.job)
        keys, features = window_feature_arrays(
            self._window_samples.get(window, []), self.window_size,
            self.monitor.sample_interval)
        servers = self.cluster.servers
        n_client = len(CLIENT_FEATURES)
        X = np.zeros((1, len(servers), n_client + len(SERVER_FEATURES)))
        for si, sid in enumerate(servers):
            cf = client.get((window, sid))
            if cf is not None:
                X[0, si, :n_client] = [cf[name] for name in CLIENT_FEATURES]
        position = {sid: si for si, sid in enumerate(servers)}
        for (_, sid), row in zip(keys, features):
            si = position.get(sid)
            if si is not None:
                X[0, si, n_client:] = row
        return X

    # -- the loop -----------------------------------------------------------------

    def _wake_time(self, window: int) -> float:
        """Just after ``window`` closed and its last server sample arrived.

        A sample taken at ``t`` belongs to the window holding
        ``t - sample_interval/2``, so when the window is not a multiple
        of the interval its last sample lands up to half an interval past
        the boundary (0.25 s windows, 0.15 s samples: window 0's last
        sample is taken at 0.30 s).  A multiple's last sample lands on
        the boundary itself.
        """
        interval = self.monitor.sample_interval
        boundary = (window + 1) * self.window_size
        # The small slack rounds a sample that sits on the half-interval
        # tie into this window's wait: waiting one sample longer is
        # harmless, missing one is not.
        last_sample = math.floor(boundary / interval + 0.5 + 1e-9) * interval
        return max(boundary, last_sample) + 1e-9

    def _loop(self):
        env = self.cluster.env
        window = 0
        emit_counter = REGISTRY.counter("online.predictions")
        latency_hist = REGISTRY.histogram("online.predict_latency_seconds")
        while True:
            yield env.timeout(max(0.0, self._wake_time(window) - env.now))
            self._ingest()
            t0 = time.perf_counter()
            X = self._vector_for(window)
            probs = tuple(self._scorer.predict_proba_rows(X)[0].tolist())
            latency_hist.observe(time.perf_counter() - t0)
            emit_counter.inc()
            pred = WindowPrediction(
                window=window,
                severity=int(np.argmax(probs)),
                probabilities=probs,
                emitted_at=env.now,
            )
            self.predictions.append(pred)
            self._emitted_through = window
            self._evict(window)
            if self.on_prediction is not None:
                self.on_prediction(pred)
            logger.debug(
                "window %d: severity=%d (p=%.3f) emitted at t=%.3fs",
                window, pred.severity, max(pred.probabilities), env.now,
            )
            window += 1
