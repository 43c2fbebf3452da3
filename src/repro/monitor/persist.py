"""Persistence for monitored runs.

The paper's pipeline is offline: traces and server metrics are collected
on the cluster, shipped to the training server and labelled later. This
module gives :class:`~repro.monitor.aggregator.MonitoredRun` a durable
on-disk form so collected runs can be archived, shared and re-labelled:

* ``records.dxt`` — the client trace in the DXT text format;
* ``samples.npz`` — the server metric samples as dense arrays;
* ``meta.json`` — job name, duration, server list and user metadata.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.common.records import ServerId, ServerKind
from repro.monitor.aggregator import MonitoredRun
from repro.monitor.darshan import read_dxt, write_dxt
from repro.monitor.schema import SERVER_METRICS

__all__ = ["save_run", "load_run"]

_META_FILE = "meta.json"
_RECORDS_FILE = "records.dxt"
_SAMPLES_FILE = "samples.npz"


def _server_to_str(server: ServerId) -> str:
    return f"{server.kind.value}{server.index}"


def _server_from_str(text: str) -> ServerId:
    for kind in ServerKind:
        if text.startswith(kind.value) and text[len(kind.value):].isdigit():
            return ServerId(kind, int(text[len(kind.value):]))
    raise ValueError(f"unparseable server id: {text!r}")


def save_run(run: MonitoredRun, directory: str | pathlib.Path) -> pathlib.Path:
    """Write a run to ``directory`` (created if needed); returns the path."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    with open(directory / _RECORDS_FILE, "w") as fp:
        write_dxt(run.records, fp)

    times = np.array([t for t, _, _ in run.server_samples], dtype=float)
    servers = np.array([_server_to_str(s) for _, s, _ in run.server_samples])
    metrics = np.array(
        [[row[m] for m in SERVER_METRICS] for _, _, row in run.server_samples],
        dtype=float,
    ).reshape(len(run.server_samples), len(SERVER_METRICS))
    np.savez_compressed(directory / _SAMPLES_FILE, times=times,
                        servers=servers, metrics=metrics,
                        metric_names=np.array(SERVER_METRICS))

    meta = {
        "job": run.job,
        "duration": run.duration,
        "servers": [_server_to_str(s) for s in run.servers],
        "metadata": run.metadata,
    }
    (directory / _META_FILE).write_text(json.dumps(meta, indent=2))
    return directory


def load_run(directory: str | pathlib.Path) -> MonitoredRun:
    """Read a run previously written by :func:`save_run`."""
    directory = pathlib.Path(directory)
    meta = json.loads((directory / _META_FILE).read_text())

    with open(directory / _RECORDS_FILE) as fp:
        records = read_dxt(fp)

    data = np.load(directory / _SAMPLES_FILE, allow_pickle=False)
    stored_names = [str(n) for n in data["metric_names"]]
    if stored_names != list(SERVER_METRICS):
        raise ValueError(
            "stored metric schema does not match this version: "
            f"{stored_names} vs {list(SERVER_METRICS)}"
        )
    samples = [
        (float(t), _server_from_str(str(s)),
         dict(zip(SERVER_METRICS, row.tolist())))
        for t, s, row in zip(data["times"], data["servers"], data["metrics"])
    ]

    return MonitoredRun(
        job=meta["job"],
        records=records,
        server_samples=samples,
        servers=[_server_from_str(s) for s in meta["servers"]],
        duration=float(meta["duration"]),
        metadata=meta.get("metadata", {}),
    )
