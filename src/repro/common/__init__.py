"""Shared primitives: units, RNG derivation, I/O records, window indices.

These are deliberately dependency-free (NumPy only) so every other
subpackage — the simulator, the workloads, the monitors and the learning
core — can build on a single vocabulary of types.
"""

from repro.common.units import KIB, MIB, GIB, SECTOR_SIZE
from repro.common.rng import derive_rng, derive_seed
from repro.common.records import IORecord, OpType, ServerId, ServerKind
from repro.common.windows import window_index

__all__ = [
    "KIB",
    "MIB",
    "GIB",
    "SECTOR_SIZE",
    "derive_rng",
    "derive_seed",
    "IORecord",
    "OpType",
    "ServerId",
    "ServerKind",
    "window_index",
]
