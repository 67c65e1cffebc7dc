"""Process-pool training workers: the BLAS thread limit of their initialiser."""

import ctypes
from concurrent.futures import ProcessPoolExecutor

import pytest

from hedgeblend import ensemble


def openblas(symbol, argtypes, restype):
    fn = ensemble._openblas_function(symbol)
    if fn is None:
        pytest.skip(f"numpy's OpenBLAS has no {symbol}")
    fn.argtypes, fn.restype = argtypes, restype
    return fn


def worker_blas_threads():
    return openblas("scipy_openblas_get_num_threads64_", [], ctypes.c_int)()


def test_pool_initialiser_leaves_each_worker_one_blas_thread():
    get_threads = openblas("scipy_openblas_get_num_threads64_", [], ctypes.c_int)
    set_threads = openblas("scipy_openblas_set_num_threads64_", [ctypes.c_int], None)
    before = get_threads()
    set_threads(2)  # a worker that kept this process's count would report 2
    try:
        with ProcessPoolExecutor(max_workers=1, initializer=ensemble._one_blas_thread) as pool:
            assert pool.submit(worker_blas_threads).result(timeout=60) == 1
    finally:
        set_threads(before)
