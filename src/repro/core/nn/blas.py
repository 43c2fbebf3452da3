"""Own numpy's OpenBLAS thread pool while training.

The kernel network's backward GEMMs (M·N·K around one million) are just
large enough for OpenBLAS to split them over every core. At these sizes
the hand-offs cost more than the split saves, and a core busy with
other work stalls every split GEMM (DESIGN.md §10 has the numbers).
:func:`single_blas_thread` pins OpenBLAS to one thread around a block
and restores the previous count afterwards.

The pin changes no result. OpenBLAS divides a GEMM over its M and N
dimensions, never over K, so every output element accumulates the same
products in the same order on one thread as on many.

numpy's OpenBLAS is reached through ``ctypes``. Wheel builds bundle it
as ``numpy.libs/libscipy_openblas64_*.so`` (``numpy/.dylibs`` on macOS)
and export ``scipy_openblas_{get,set}_num_threads64_``; other builds
link an OpenBLAS exporting the plain ``openblas_*`` names, found among
the libraries the process has mapped. Without an OpenBLAS the scope is
a no-op.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import pathlib

import numpy as np

__all__ = ["single_blas_thread"]

#: ``(get, set)`` thread-count symbol pairs, most specific first.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _candidates() -> list[str]:
    """Paths of the OpenBLAS numpy may have loaded: its wheel's bundled
    copy first, then any OpenBLAS the process has mapped (Linux)."""
    root = pathlib.Path(np.__file__).parent
    paths = [str(p) for p in (*sorted(root.parent.glob("numpy.libs/*openblas*")),
                              *sorted(root.glob(".dylibs/*openblas*")))]
    try:
        with open("/proc/self/maps") as maps:
            mapped = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        mapped = set()
    return paths + sorted(mapped.difference(paths))


@functools.lru_cache(maxsize=None)
def _openblas():
    """``(get, set)`` thread-count functions of numpy's OpenBLAS, or
    ``None`` when there is none. Resolved once, on first use."""
    for path in _candidates():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                return get, set_
    return None


@contextlib.contextmanager
def single_blas_thread():
    """Run the block on one OpenBLAS thread.

    The previous thread count is restored on exit, also when the block
    raises. The count is process-wide, so BLAS calls other threads make
    meanwhile run single-threaded too.
    """
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)
