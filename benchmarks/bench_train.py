#!/usr/bin/env python
"""Training-stack baseline — thin wrapper over :mod:`repro.bench`.

Trains a seeds x restarts grid through the serial restart loop, then
cold and warm through :class:`repro.parallel.TrainExecutor` (the warm
pass must execute zero trainings), measures the deployed fused-inference
fast path against the unfused predictor, asserts all models are
bit-identical, and writes ``BENCH_train.json``. Equivalent to
``python -m repro bench train``.

Usage::

    PYTHONPATH=src python benchmarks/bench_train.py [--out-dir DIR]
"""

from __future__ import annotations

import sys

from repro.bench import main

if __name__ == "__main__":
    sys.exit(main(["train", *sys.argv[1:]]))
