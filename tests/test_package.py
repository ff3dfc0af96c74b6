import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mbbox

MODULES = ["mbbox"] + [f"mbbox.{m.name}" for m in pkgutil.iter_modules(mbbox.__path__)]
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    # a name left in __all__ after its definition is deleted breaks star imports
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing


def _names_used(name: str) -> set:
    """Every name that module ``name``'s code imports, reads or takes as an attribute."""
    tree = ast.parse(Path(importlib.import_module(name).__file__).read_text())
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            | {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)})


def test_every_export_is_used_by_another_module_or_traced():
    # a name in a module's __all__ is used by another mbbox module, or is a
    # function that the benchmark's tracer wraps; the package's own re-exports
    # do not count, so code that only the tests call does not build up here
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = {(module, path.split(".")[0]) for module, path in tracing.TARGETS}
    modules = [m for m in MODULES if m != "mbbox"]
    used = {m: _names_used(m) for m in modules}
    unused = [(m, n) for m in modules for n in getattr(importlib.import_module(m), "__all__", ())
              if (m, n) not in traced and not any(n in used[o] for o in modules if o != m)]
    assert not unused, unused


def test_cli_import_loads_no_pool_or_logging():
    # the sweep runs on the calling thread; these modules only add start-up time
    unwanted = ["concurrent.futures", "multiprocessing", "logging", "queue"]
    code = f"import sys\nimport mbbox.cli\nprint([m for m in {unwanted!r} if m in sys.modules])"
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
