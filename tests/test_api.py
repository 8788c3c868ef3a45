"""The package exports no symbol that only its tests use, loads lazily, only
its command line sets a BLAS thread default and pauses the collector, and no
module calls BLAS."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import nmrteleport

PACKAGE = Path(nmrteleport.__file__).resolve().parent


def _exports() -> list[str]:
    return [name for names in nmrteleport._EXPORTS.values() for name in names]


def _uses(path: Path) -> set[str]:
    """Names the module reads (a bare name or an attribute), not the names it defines or imports."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_export_is_used_inside_the_package():
    exports = _exports()
    assert "run_sweep" in exports and "SweepConfig" in exports
    used = set().union(*(_uses(path) for path in PACKAGE.glob("*.py") if path.name != "__init__.py"))
    assert sorted(name for name in exports if name not in used) == []


def _child(code: str, **env: str) -> str:
    """Stdout of ``code`` in a fresh Python that imports this package, with
    ``OPENBLAS_NUM_THREADS`` unset unless ``env`` sets it."""
    base = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", code], env={**base, **env}, capture_output=True, text=True, check=True)
    return child.stdout.strip()


def test_import_loads_neither_numpy_nor_a_module():
    code = "import sys, nmrteleport; print(sorted(m for m in sys.modules if m.startswith(('numpy', 'nmrteleport.'))))"
    assert _child(code) == "[]"


def test_every_export_resolves_to_its_module():
    code = """
import importlib, nmrteleport
exports = [(module, name) for module, names in nmrteleport._EXPORTS.items() for name in names]
assert sorted(name for _, name in exports) == nmrteleport.__all__ and set(nmrteleport.__all__) <= set(dir(nmrteleport))
for module, name in exports:
    assert getattr(nmrteleport, name) is getattr(importlib.import_module(f"nmrteleport.{module}"), name), name
from nmrteleport import *
from nmrteleport import SweepConfig, cli, run_sweep
print(len(exports), run_sweep is nmrteleport.experiment.run_sweep, cli.__name__)
"""
    assert _child(code) == f"{len(_exports())} True nmrteleport.cli"


# Runs a statement, then prints the thread variable and whether the collector was
# enabled as numpy's first import saw them, and the thread variable as it is.
SPY = """
import gc, os, runpy, sys
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.append((os.environ.get("OPENBLAS_NUM_THREADS"), gc.isenabled()))
sys.meta_path.insert(0, Spy())
try:
    %s
finally:
    print(seen, os.environ.get("OPENBLAS_NUM_THREADS"))
"""
# What the ``nmrteleport`` script runs, and what ``python -m nmrteleport --help`` runs.
SCRIPT = "import nmrteleport.__main__"
MODULE = "sys.argv = ['nmrteleport', '--help']; runpy.run_module('nmrteleport', run_name='__main__')"


def test_command_line_runs_blas_on_one_thread_unless_the_user_says_otherwise():
    # The command line also pauses the collector over its imports.
    for statement in (SCRIPT, MODULE):
        assert _child(SPY % statement).splitlines()[-1] == "[('1', False)] 1", statement
        assert _child(SPY % statement, OPENBLAS_NUM_THREADS="3").splitlines()[-1] == "[('3', False)] 3", statement


def test_library_import_leaves_blas_threads_alone():
    assert _child(SPY % "import nmrteleport.cli") == "[(None, True)] None"


BLAS_PRODUCTS = {"dot", "vdot", "vecdot", "inner", "matmul", "tensordot", "multi_dot"}


def _blas_products(path: Path) -> list[str]:
    """Where a module forms a product that numpy may hand to BLAS: ``@``, a call of
    a BLAS-backed product, or an ``einsum`` told to ``optimize``.  No module may,
    the decay fit's real dot products included."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{path.name}:{node.lineno} @")
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in BLAS_PRODUCTS or (name == "einsum" and any(k.arg == "optimize" for k in node.keywords)):
                found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_complex_products_are_einsum_contractions_that_never_reach_blas():
    assert [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _blas_products(path)] == []
