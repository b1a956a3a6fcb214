"""One BLAS thread while coverkit's linear algebra runs.

coverkit's dense work is many small solves: n leave-one-out refits for
jackknife+, one factorization per trial, one bordered system per
full-conformal point. At these sizes a multithreaded OpenBLAS spends most
of its time handing work between threads, and the order in which threads
add partial sums changes the last digits of the results. coverkit
parallelizes across trials (``run_trials(workers=...)``), never inside
BLAS, so the conformal constructions and the trial worker are wrapped in
``single_threaded``: on entry each loaded OpenBLAS is set to one thread,
on exit the caller's setting comes back. The data bytes are then those of
a one-thread run whatever the caller's environment says.

The libraries are found once, on first use: on Linux, the OpenBLAS
builds mapped into the process (numpy's and scipy's wheels each ship one,
with ``scipy_`` prefixed and, for 64-bit integers, ``64_`` suffixed
symbols). On other platforms, or with no OpenBLAS loaded, the list is
empty and the scope does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import os
import sys
import threading
from dataclasses import dataclass
from typing import Callable

__all__ = ["single_threaded", "pinned_libraries"]

_MAPS = "/proc/self/maps"
_PREFIXES = ("", "scipy_")
_SUFFIXES = ("", "64_")


@dataclass(frozen=True)
class _OpenBLAS:
    path: str
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


def _thread_functions(path: str) -> _OpenBLAS | None:
    try:
        library = ctypes.CDLL(path)
    except OSError:
        return None
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            getter = getattr(library, f"{prefix}openblas_get_num_threads{suffix}", None)
            setter = getattr(library, f"{prefix}openblas_set_num_threads{suffix}", None)
            if getter is not None and setter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                setter.restype = None
                setter.argtypes = [ctypes.c_int]
                return _OpenBLAS(path, getter, setter)
    return None


def _discover() -> list[_OpenBLAS]:
    """The OpenBLAS libraries mapped into this process (Linux only)."""
    if not sys.platform.startswith("linux"):
        return []
    try:
        with open(_MAPS, encoding="utf-8", errors="replace") as handle:
            mapped = {
                fields[5]
                for fields in map(str.split, handle)
                if len(fields) >= 6 and "openblas" in os.path.basename(fields[5]).lower()
            }
    except OSError:
        return []
    found = (_thread_functions(path) for path in sorted(mapped))
    return [library for library in found if library is not None]


# Process-wide on purpose: an OpenBLAS thread count is one setting per
# process, so concurrent callers must share one depth count and one saved
# value, and only the outermost entry and the last exit may switch it.
_lock = threading.Lock()
_libraries: list[_OpenBLAS] | None = None
_depth = 0
_saved: list[int] = []


def _controlled() -> list[_OpenBLAS]:
    global _libraries
    if _libraries is None:
        _libraries = _discover()
    return _libraries


def _enter() -> None:
    global _depth
    with _lock:
        if _depth == 0:
            libraries = _controlled()
            _saved[:] = [library.get_threads() for library in libraries]
            for library in libraries:
                library.set_threads(1)
        _depth += 1


def _exit() -> None:
    global _depth
    with _lock:
        _depth -= 1
        if _depth == 0:
            for library, threads in zip(_controlled(), _saved):
                library.set_threads(threads)


def single_threaded(func):
    """Run ``func`` with every loaded OpenBLAS on one thread.

    Nested calls switch the thread count once, at the outermost entry, and
    the caller's counts are restored when that call returns or raises.
    """

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        _enter()
        try:
            return func(*args, **kwargs)
        finally:
            _exit()

    return wrapper


def pinned_libraries() -> list[str]:
    """File names of the OpenBLAS libraries ``single_threaded`` controls."""
    with _lock:
        return [os.path.basename(library.path) for library in _controlled()]
