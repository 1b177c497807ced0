"""Import contracts: the package re-exports nothing, and each module
imports on its own in a fresh interpreter (no import cycle)."""

import os
import pathlib
import subprocess
import sys

import pytest

from funnellab import cli

MODULES = ("autodiff", "funnel", "metrics", "models", "training", "cli")


def _fresh_python(*args):
    """Run ``python *args`` in a new interpreter that finds this source tree;
    returns its stdout."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_package_import_loads_no_submodule():
    code = ("import sys, funnellab; "
            "print(sorted(m for m in sys.modules if m.startswith('funnellab.')))")
    assert _fresh_python("-c", code).split() == ["[]"]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    code = f"import funnellab.{module}; print('ok')"
    assert _fresh_python("-W", "error", "-c", code).split() == ["ok"]
