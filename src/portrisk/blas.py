"""One BLAS thread for the simulation and backtest loops.

numpy's bundled OpenBLAS runs as many threads as the machine has CPUs.
On the simulate and empirical loops a second thread saves no wall time:
worker processes already spread the work over the CPUs, the extra
thread mostly spin-waits, and the thread count moves the last bits of a
floating-point result.  `single_thread` sets the library to one thread
for the length of a block and then restores the caller's count;
`pin_single_thread` sets it for good, for worker processes.

The command line goes further: imported before numpy, `portrisk.cli`
sets OPENBLAS_NUM_THREADS=1, so OpenBLAS loads with one thread and
starts no helper thread, and its pool workers inherit the setting.
Setting the count here does not stop helper threads that OpenBLAS
started at load from spin-waiting, so these functions are for the
processes that loaded numpy first: library callers and in-process
callers of `cli.main`.

The thread control is looked up with ctypes in the OpenBLAS that ships
inside numpy's own install (`numpy.libs/*openblas*`).  Where none of the
known entry points is found (numpy built against another BLAS, or a
layout this does not know), one INFO note is logged and BLAS keeps the
thread count it has.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from functools import cache
from pathlib import Path

import numpy as np

__all__ = ["blas_threads", "pin_single_thread", "single_thread"]

log = logging.getLogger(__name__)

# (setter, getter) pairs, in the order they are tried
_CONTROLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@cache
def _controls():
    """The (set, get) thread functions of numpy's OpenBLAS, or None."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for set_name, get_name in _CONTROLS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is None or getter is None:
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    log.info("no OpenBLAS thread control found under %s; BLAS keeps its thread count", libs)
    return None


def blas_threads() -> int | None:
    """numpy's current BLAS thread count, or None where it cannot be read."""
    controls = _controls()
    return None if controls is None else controls[1]()


def pin_single_thread() -> None:
    """Set numpy's BLAS to one thread for the rest of the process."""
    controls = _controls()
    if controls is not None:
        controls[0](1)


@contextmanager
def single_thread():
    """Run the block with numpy's BLAS on one thread, then restore the count."""
    controls = _controls()
    if controls is None:
        yield
        return
    set_threads, get_threads = controls
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)
