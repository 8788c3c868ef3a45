"""The package exports no symbol that only its tests use."""

import ast
from pathlib import Path

import nmrteleport

PACKAGE = Path(nmrteleport.__file__).resolve().parent


def _exports() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]


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
