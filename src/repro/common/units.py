"""Byte-size and device units used throughout the simulator.

All sizes in the code base are plain integers in bytes; all times are
floats in seconds. These constants keep workload and device configs
readable (``4 * MIB`` rather than ``4194304``).
"""

from __future__ import annotations

KIB: int = 1024
MIB: int = 1024 * KIB
GIB: int = 1024 * MIB

#: Disk sector size in bytes, matching the 512-byte sectors that
#: ``/proc/diskstats`` counts (the paper's Table II "disk sectors" metrics).
SECTOR_SIZE: int = 512
