"""Every name a module exports resolves, so `from module import *` cannot break;
importing the package loads only the scipy subpackages it computes with, and
a panel engine stays small in a fresh process."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import _oracles
import fracvas
from fracvas import fbm, model, transforms


@pytest.mark.parametrize("module", [fracvas, fbm, model, transforms], ids=lambda m: m.__name__)
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


def _fresh_process_stdout(code: str) -> str:
    """What `code` prints in a fresh interpreter that imports this fracvas."""
    path = [str(Path(fracvas.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return result.stdout.strip()


def test_import_loads_no_scipy_stats_integrate_or_optimize():
    # each of these costs every process 0.2-0.5 s and tens of MiB at import,
    # and tests keep them as oracles only
    code = (
        "import sys, fracvas, fracvas.harness, fracvas.cli\n"
        "heavy = ('scipy.stats', 'scipy.integrate', 'scipy.optimize')\n"
        "print(sorted(m for m in sys.modules if m.startswith(heavy)))"
    )
    assert _fresh_process_stdout(code) == "[]"


def test_building_an_engine_loads_no_scipy_linalg():
    # scipy.linalg is 43 modules and about 0.05 s per process; the engine's
    # end-cell weights are closed forms, so no path should pull it in (a
    # Gauss-Jacobi rule from scipy.special.roots_jacobi would)
    code = (
        "import sys\n"
        "from fracvas import transforms\n"
        "from fracvas.estimators import estimate_gamma\n"
        "from fracvas.fbm import SampleGrid\n"
        "from fracvas.model import ModelParams, simulate_exact\n"
        "params = ModelParams(alpha=1.0, beta=-0.5, gamma=1.0, hurst=0.7, x0=0.3)\n"
        "path = simulate_exact(params, SampleGrid(5.0, 4096), seed=1)\n"
        "transforms.PanelEngine(path.grid.n, 0.7).statistics(path.values, path.grid, 1.0)\n"
        "estimate_gamma(path, 0.7)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))"
    )
    assert _fresh_process_stdout(code) == "[]"


def test_engine_build_and_statistics_call_stay_small_in_memory():
    # building an n = 8192 engine and taking the statistics of 64 paths
    # raises the peak resident size by under 12 MiB; a stored weight
    # staircase (18 MiB) raised it by 20 MiB.  A small engine runs first,
    # so imports and FFT plans are not counted.
    code = (
        "import resource\n"
        "import numpy as np\n"
        "from fracvas.fbm import SampleGrid\n"
        "from fracvas.transforms import PanelEngine\n"
        "grid = SampleGrid(5.0, 8192)\n"
        "values = np.cumsum(np.random.default_rng(1).standard_normal((64, 8193)), axis=1)\n"
        "PanelEngine(64, 0.6).statistics(values[:1, :65], SampleGrid(5.0, 64), 1.0)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "PanelEngine(grid.n, 0.7).statistics(values, grid, 1.0)\n"
        "print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)"
    )
    assert float(_fresh_process_stdout(code)) < 12.0


def test_every_scipy_import_in_the_package_is_special_or_fft():
    # the sys.modules check above cannot see an import inside a function body
    allowed = ("scipy.special", "scipy.fft")
    found = []
    for path in sorted(Path(fracvas.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                # `from scipy import optimize` names the subpackage in the alias
                names = [node.module]
                if node.module == "scipy":
                    names = [f"scipy.{alias.name}" for alias in node.names]
            else:
                continue
            found += [(path.name, name) for name in names if name.split(".")[0] == "scipy"]
    assert found
    assert [hit for hit in found if ".".join(hit[1].split(".")[:2]) not in allowed] == []


def test_traced_benchmark_finds_every_span_name():
    # perfbench's Tracer wraps functions by name; a renamed or deleted one
    # is listed in `missing`, and a deleted class crashes `install`.  It
    # runs in a child process because `uninstall` does not restore every
    # patched attribute exactly.
    src = Path(fracvas.__file__).parents[1]
    code = (
        "from spans import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "print(tracer.missing)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(src.parent / "perfbench")])}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_traced_statistics_count_the_rows_of_the_block():
    # the benchmark's per-layer row count reads `values`, the first argument
    # of raw_panels, as the path block; the grid argument must not displace it
    perfbench = Path(fracvas.__file__).parents[2] / "perfbench"
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(perfbench)!r})\n"
        "import numpy as np\n"
        "from spans import Tracer\n"
        "from fracvas.fbm import SampleGrid\n"
        "from fracvas.transforms import PanelEngine\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "grid = SampleGrid(2.0, 512)\n"
        "values = np.cumsum(np.random.default_rng(1).standard_normal((8, grid.n + 1)), axis=1)\n"
        "PanelEngine(grid.n, 0.7).statistics(values, grid, 1.0)\n"
        "span = tracer.totals()['transforms.raw_panels']\n"
        "print(span['calls'], span['rows'])"
    )
    assert _fresh_process_stdout(code) == "1 8"
