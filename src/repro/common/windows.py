"""Fixed-size time windows.

The whole framework is windowed: monitors aggregate per user-defined time
window, labels are computed per window, and the model predicts per window
(paper §III). A window ``w`` covers ``[w*size, (w+1)*size)`` seconds.
"""

from __future__ import annotations

import math

import numpy as np


def window_index(t: float, window_size: float) -> int:
    """Index of the window containing time ``t``.

    Times exactly on a boundary belong to the *later* window, consistent
    with the half-open convention.
    """
    if window_size <= 0:
        raise ValueError(f"window_size must be positive, got {window_size}")
    if not math.isfinite(t):
        raise ValueError(f"non-finite time: {t}")
    if t < 0:
        raise ValueError(f"negative time: {t}")
    idx = int(t / window_size)
    # Guard against float rounding placing a boundary time one window early.
    if t >= (idx + 1) * window_size:
        idx += 1
    return idx


def window_indices(times: np.ndarray, window_size: float) -> np.ndarray:
    """Vectorised :func:`window_index` over an array of times.

    Returns int64 indices; bit-identical to calling :func:`window_index`
    elementwise, including the boundary guard.
    """
    if window_size <= 0:
        raise ValueError(f"window_size must be positive, got {window_size}")
    times = np.asarray(times, dtype=np.float64)
    if times.size and not np.isfinite(times).all():
        raise ValueError("non-finite time in window_indices input")
    if times.size and times.min() < 0:
        raise ValueError(f"negative time: {times.min()}")
    idx = (times / window_size).astype(np.int64)
    # Same float-rounding guard as the scalar version.
    idx += times >= (idx + 1) * window_size
    return idx
