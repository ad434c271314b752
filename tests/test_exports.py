"""Every name a module exports resolves, so `from module import *` cannot break;
importing the package loads only the scipy subpackages it computes with."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import _oracles
import fracvas
from fracvas import fbm, model, specfun, transforms


@pytest.mark.parametrize(
    "module", [fracvas, fbm, model, specfun, transforms], ids=lambda m: m.__name__
)
def test_every_export_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_no_oracle_is_a_package_export():
    defined = [
        name
        for name, value in vars(_oracles).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == "_oracles"
    ]
    assert defined
    assert [name for name in defined if hasattr(fracvas, name)] == []


def test_import_loads_no_scipy_stats_integrate_or_optimize():
    # each of these costs every process 0.2-0.5 s and tens of MiB at import,
    # and tests keep them as oracles only
    code = (
        "import sys, fracvas, fracvas.harness, fracvas.cli\n"
        "heavy = ('scipy.stats', 'scipy.integrate', 'scipy.optimize')\n"
        "print(sorted(m for m in sys.modules if m.startswith(heavy)))"
    )
    path = [str(Path(fracvas.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert result.stdout.strip() == "[]"
