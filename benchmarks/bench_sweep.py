#!/usr/bin/env python
"""End-to-end sweep baseline — thin wrapper over :mod:`repro.bench`.

Runs the benchmark grid serially, then cold and warm through the
parallel executor; asserts all three window banks are bit-identical and
writes ``BENCH_sweep.json``. Equivalent to
``python -m repro bench sweep``.

Usage::

    PYTHONPATH=src python benchmarks/bench_sweep.py [--jobs N] [--out-dir DIR]
"""

from __future__ import annotations

import sys

from repro.bench import main

if __name__ == "__main__":
    sys.exit(main(["sweep", *sys.argv[1:]]))
