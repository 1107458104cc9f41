"""Every name a module of src/expflag or tests/ imports is read in it."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "expflag").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])


def unused_imports(source):
    """[(line, name)] for each imported name that is never read; names
    listed in __all__ count as read, and __future__ imports are skipped."""
    tree = ast.parse(source)
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_unread_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .hecke import HeckeElement, hecke_mul\n"
        "from .strata import iwahori_orbits_in_spherical as orbits\n"
        "__all__ = ['HeckeElement']\n"
        "def f(x: int):\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [(3, "hecke_mul"), (4, "orbits")]
