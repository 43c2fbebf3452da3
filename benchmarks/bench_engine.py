#!/usr/bin/env python
"""Engine microbenchmark baseline — thin wrapper over :mod:`repro.bench`.

Measures raw timeout churn and callback-hop churn through the event
kernel and writes ``BENCH_engine.json``. Equivalent to
``python -m repro bench engine``.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py [--out-dir DIR]
"""

from __future__ import annotations

import sys

from repro.bench import main

if __name__ == "__main__":
    sys.exit(main(["engine", *sys.argv[1:]]))
