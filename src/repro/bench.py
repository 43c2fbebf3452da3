"""Two helpers kept for the pipeline benchmark and ``repro serve``.

* :func:`bench_environment` — the machine/toolchain block that
  ``benchmarks/pipeline/run.py --out`` embeds in its results file.
* :func:`bench_train_dataset` — the small synthetic window set that
  ``repro serve`` trains its default model on (when no ``--model`` is
  given) and that the pipeline benchmark's ``train-synth`` workload is
  generated like.

The performance record of the repository is the end-to-end pipeline
benchmark, ``benchmarks/pipeline`` (see its ``README.md``).
"""

from __future__ import annotations

import os
from typing import Any

import numpy as np

__all__ = ["bench_environment", "bench_train_dataset"]


def bench_environment() -> dict[str, Any]:
    """The machine/toolchain a benchmark ran on (embedded in results).

    Wall-clock numbers only transfer between like environments, so a
    results file records where it was measured.
    """
    import platform
    import resource

    from repro.obs.manifest import git_revision

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        # Commit provenance: tells "code changed" from "machine changed"
        # when wall numbers drift.
        "git_sha": git_revision(),
        # Lifetime peak RSS of the recording process (``ru_maxrss`` is
        # kilobytes on Linux): memory provenance for the wall numbers.
        "peak_rss_bytes":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
    }


def bench_train_dataset(n: int = 240, n_servers: int = 7,
                        n_features: int = 10):
    """A deterministic synthetic window set with learnable structure.

    Synthetic rather than simulated so a training run isolates the
    training stack: same class balance and separability every run,
    no simulator wall time mixed into the numbers.
    """
    from repro.common.rng import derive_rng
    from repro.core.dataset import Dataset

    rng = derive_rng(0, "bench-train-dataset")
    X = rng.normal(size=(n, n_servers, n_features))
    y = (X[:, :, :3].mean(axis=(1, 2))
         + 0.3 * rng.normal(size=n) > 0).astype(int)
    X[y == 1, :, :3] += 0.5
    names = tuple(f"f{i}" for i in range(n_features))
    return Dataset(X, y, feature_names=names)
