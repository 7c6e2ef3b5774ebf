"""The loaded OpenBLAS's thread count, read and set through ctypes.

OpenBLAS splits a matrix product between its threads in ways that change
the last bits of the result, so every `vpu` command runs on one thread
(`one_blas_thread`) and its outputs do not depend on the thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools

import numpy as np


@functools.cache
def _openblas_threads():
    """The loaded OpenBLAS's get and set functions for its thread count, or
    None (another BLAS); looked up on numpy's core extension, whose handle
    also searches the libraries it links, wherever they are installed."""
    core = np._core if int(np.__version__.split(".")[0]) >= 2 else np.core
    lib = ctypes.CDLL(core._multiarray_umath.__file__)
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
