import pytest


@pytest.fixture
def blas_threads():
    """`linalg._blas_threads`: package name -> thread count of each
    OpenBLAS in the process.  Skips the test when none has a thread-count
    API."""
    from mpadmm.linalg import _blas_threads
    if not _blas_threads():
        pytest.skip("no OpenBLAS with a thread-count API is loaded")
    return _blas_threads
