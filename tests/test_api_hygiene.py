"""Package API hygiene, checked with the standard library's ``ast``.

Every name a module lists in ``__all__`` exists, every name the package
root imports resolves to the module's own object, and no module imports a
name it never uses (a leftover of deleted code).
"""

import ast
import importlib
from pathlib import Path

import pytest

import freebdry

SRC = Path(freebdry.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"freebdry.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_root_imports_resolve():
    imports = [node for node in _tree(SRC / "__init__.py").body
               if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module("." * node.level + node.module, "freebdry")
        for alias in node.names:
            assert getattr(freebdry, alias.asname or alias.name) is getattr(module, alias.name)


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import anywhere in the module and never read."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    assert unused_imports(_tree(SRC / f"{name}.py")) == []


def test_unused_import_detector_sees_a_leftover():
    tree = ast.parse("import math\nfrom numpy import array, zeros\nx = zeros(3)\n")
    assert unused_imports(tree) == ["array", "math"]
