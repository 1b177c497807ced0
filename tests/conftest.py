import inspect
import multiprocessing

import pytest

from funnellab import funnel

_build_config = funnel.make_funnel_config
_BUILD_SIGNATURE = inspect.signature(_build_config)
_built_configs = {}


def _shared_config(*args, **kwargs):
    """``funnel.make_funnel_config``, built once per distinct set of
    arguments (defaults filled in) in a session. A config is immutable,
    frozen with read-only weight arrays, so every test can share it."""
    bound = _BUILD_SIGNATURE.bind(*args, **kwargs)
    bound.apply_defaults()
    key = repr(sorted(bound.arguments.items()))
    if key not in _built_configs:
        _built_configs[key] = _build_config(*args, **kwargs)
    return _built_configs[key]


@pytest.fixture(scope="session", autouse=True)
def shared_config_builds():
    """Config builds take most of the fast suite's time, and its tests ask
    for far fewer distinct configs than they build; module-scoped fixtures
    share them too."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(funnel, "make_funnel_config", _shared_config)
        yield


@pytest.fixture
def uncached_config_builds(monkeypatch):
    """For tests of the build itself: they patch its helpers, count its
    calls or measure its allocations, so every call must build."""
    monkeypatch.setattr(funnel, "make_funnel_config", _build_config)


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
