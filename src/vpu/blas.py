"""The loaded OpenBLAS's thread count, read and set through ctypes.

OpenBLAS splits a matrix product between its threads in ways that change
the last bits of the result, so `vpu.trainer.train` runs on one thread
(`one_blas_thread`) and its outputs do not depend on the thread count.
"""

from __future__ import annotations

import contextlib
import ctypes


def _openblas_threads():
    """The loaded OpenBLAS's get and set functions for its thread count;
    None where they cannot be found (no /proc/self/maps, or another BLAS)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype = ctypes.c_int
                get.argtypes = []
                set_.restype = None
                set_.argtypes = [ctypes.c_int]
                return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with OpenBLAS on one thread, then restore its thread
    count; yields whether the BLAS runs on one thread in the body."""
    calls = _openblas_threads()
    if calls is None:
        yield False
        return
    get, set_ = calls
    before = get()
    set_(1)
    try:
        yield get() == 1
    finally:
        set_(before)
