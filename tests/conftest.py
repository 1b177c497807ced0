import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def serial_seeds(monkeypatch):
    """With no BLAS thread variable, BLAS counts as using every core, so
    seeds run in the test process, where tests can watch their calls. Tests
    of the seed pool set a variable themselves."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """A test that starts worker processes must join them before it ends."""
    yield
    assert not multiprocessing.active_children()
