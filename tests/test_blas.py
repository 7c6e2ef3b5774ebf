import builtins

import pytest

from vpu import blas

from test_golden import environment_fingerprint


def test_found_without_the_process_maps(monkeypatch):
    # the lookup used to read library paths from /proc/self/maps, which
    # breaks on a path with a space and where the file cannot be read
    fingerprint = environment_fingerprint()
    if fingerprint is None or "openblas" not in fingerprint[1]:
        pytest.skip("numpy is not built against OpenBLAS")
    real_open = builtins.open

    def no_maps(path, *args, **kw):
        if str(path) == "/proc/self/maps":
            raise OSError("no maps")
        return real_open(path, *args, **kw)

    monkeypatch.setattr(builtins, "open", no_maps)
    blas._openblas_threads.cache_clear()
    try:
        calls = blas._openblas_threads()
    finally:
        monkeypatch.undo()
        blas._openblas_threads.cache_clear()
    assert calls is not None
    get, set_ = calls
    before = get()
    with blas.one_blas_thread():
        assert get() == 1
    assert get() == before
