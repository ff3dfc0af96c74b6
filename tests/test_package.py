import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mbbox

MODULES = ["mbbox"] + [f"mbbox.{m.name}" for m in pkgutil.iter_modules(mbbox.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    # a name left in __all__ after its definition is deleted breaks star imports
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing


def test_cli_import_loads_no_pool_or_logging():
    # the sweep runs on the calling thread; these modules only add start-up time
    unwanted = ["concurrent.futures", "multiprocessing", "logging", "queue"]
    code = f"import sys\nimport mbbox.cli\nprint([m for m in {unwanted!r} if m in sys.modules])"
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
