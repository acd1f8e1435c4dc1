"""Package API hygiene, checked with the standard library's ``ast``.

Every name a module lists in ``__all__`` exists and is wired (read by the
package itself, or imported by the acceptance tests); the package root
imports nothing, so each name is stated once, in its module; no module
imports a name it never uses; and every name a module defines at its top
level is read somewhere in the package or its tests (each a leftover of
deleted code), and so is every field of every dataclass.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import freebdry

SRC = Path(freebdry.__file__).parent
TESTS = Path(__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"freebdry.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def exported(tree: ast.Module) -> list[str]:
    """The names a module lists in ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def unwired_names(modules: dict[str, ast.Module], imported: set[str]) -> list[str]:
    """The ``__all__`` names of ``modules`` (name -> tree) that no top-level
    statement of theirs reads, the name's own definition aside, and that
    ``imported`` lacks.  An import that only re-exports a name is not a
    read, and neither is a string in ``__all__``."""
    reads = [(mod, getattr(node, "name", None), read_names([node]))
             for mod, tree in modules.items() for node in tree.body]
    return sorted(name for mod, tree in modules.items() for name in exported(tree)
                  if name not in imported
                  and not any(name in r for m, own, r in reads if (m, own) != (mod, name)))


def test_every_public_name_is_wired():
    # public API that no campaign reaches is dead weight: it goes, unless
    # the acceptance tests import it
    modules = {name: _tree(SRC / f"{name}.py") for name in MODULES}
    imported = {a.asname or a.name for node in ast.walk(_tree(TESTS / "test_acceptance.py"))
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert unwired_names(modules, imported) == []


def test_unwired_name_detector_sees_a_leftover():
    module = ast.parse(
        "__all__ = ['Field', 'check', 'flux', 'wrap', 'LIMIT']\n"
        "LIMIT = 3\n"
        "class Field:\n    def scaled(self):\n        return Field()\n"
        "def check(f):\n    return f.values < LIMIT\n"
        "def flux(f):\n    return flux(f)\n"
        "def wrap(v):\n    return Field()\n"
    )
    root = ast.parse("from .m import Field, check, flux, wrap, LIMIT\n")
    caller = ast.parse("x = m.check(1)\n")
    assert unwired_names({"__init__": root, "m": module, "c": caller}, {"LIMIT"}) == ["flux", "wrap"]


def test_package_root_loads_nothing():
    # the root re-exports no name, so importing it loads no submodule and
    # no numpy; each name is imported from the module that defines it
    probe = ("import sys; before = set(sys.modules); import freebdry; "
             "print(sorted(m for m in set(sys.modules) - before "
             "if m.split('.')[0] == 'numpy' or m.startswith('freebdry.')))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


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


def top_level_names(tree: ast.Module) -> set[str]:
    """Functions, classes and assigned names a module defines at its top
    level, dunder names such as ``__all__`` aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def read_names(trees) -> set[str]:
    """Names read as a variable or as an attribute anywhere in ``trees``; a
    re-export by import alone is not a read."""
    reads = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
    return reads


def unread_names(module: ast.Module, trees) -> list[str]:
    return sorted(top_level_names(module) - read_names(trees))


def test_every_top_level_name_is_read():
    trees = [_tree(p) for p in (*SRC.glob("*.py"), *TESTS.glob("*.py"))]
    unread = {name: unread_names(_tree(SRC / f"{name}.py"), trees) for name in MODULES}
    assert {name: names for name, names in unread.items() if names} == {}


def test_unread_name_detector_sees_a_leftover():
    module = ast.parse(
        "MIN_PARABOLA_REGION_AREA = 4.0 / 3.0\n"
        "SEGMENTS: int = 64\n"
        "def area(a):\n    return a\n"
        "class Spec:\n    pass\n"
    )
    caller = ast.parse("from m import area, Spec\nx = area(SEGMENTS)\n")
    assert unread_names(module, [module, caller]) == ["MIN_PARABOLA_REGION_AREA", "Spec"]


def dataclass_fields(tree: ast.Module) -> set[tuple[str, str]]:
    """(class, field) of every annotated field of every class the module
    decorates with ``dataclass``, called or not."""
    fields = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
            fields.update((node.name, s.target.id) for s in node.body
                          if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name))
    return fields


def attribute_reads(trees) -> set[str]:
    """Attribute names loaded anywhere in ``trees`` (``x.name``); a keyword
    argument or an assignment to the attribute is not a read."""
    return {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_fields(module: ast.Module, trees) -> list[str]:
    reads = attribute_reads(trees)
    return sorted(f"{cls}.{name}" for cls, name in dataclass_fields(module) if name not in reads)


def test_every_dataclass_field_is_read():
    trees = [_tree(p) for p in (*SRC.glob("*.py"), *TESTS.glob("*.py"))]
    unread = {name: unread_fields(_tree(SRC / f"{name}.py"), trees) for name in MODULES}
    assert {name: fields for name, fields in unread.items() if fields} == {}


def test_unread_field_detector_sees_a_leftover():
    module = ast.parse(
        "from dataclasses import dataclass\n"
        "import dataclasses\n"
        "@dataclass(frozen=True)\n"
        "class Report:\n    quotient: float\n    grad_norm: float\n    LIMIT = 3\n"
        "@dataclasses.dataclass\n"
        "class Entry:\n    level: float\n"
        "class Plain:\n    unused: int\n"
    )
    caller = ast.parse(
        "r = Report(quotient=1.0, grad_norm=2.0)\n"
        "e = Entry(0.5)\n"
        "e.level = 1.0\n"
        "print(r.quotient)\n"
    )
    assert unread_fields(module, [module, caller]) == ["Entry.level", "Report.grad_norm"]


def blas_calls(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, what) of every matrix product in a module: the ``@`` operator
    (a decorator is no operator), ``np.dot`` and ``np.linalg``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif (isinstance(node, ast.Attribute) and node.attr in ("dot", "linalg")
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found.append((node.lineno, f"np.{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize("name", ["geometry", "domains"])
def test_polygon_code_makes_no_blas_call(name):
    # a BLAS product rounds as the kernel picked for the CPU rounds, so the
    # polygon campaigns' reports would depend on the CPU
    assert blas_calls(_tree(SRC / f"{name}.py")) == []


def test_blas_call_detector_sees_a_leftover():
    tree = ast.parse(
        "@dataclass\nclass A:\n    pass\n"
        "x = a @ b\ny = np.dot(a, b)\nz = numpy.linalg.norm(a)\nw @= v\nu = a.dot\n"
    )
    assert blas_calls(tree) == [(4, "@"), (5, "np.dot"), (6, "np.linalg"), (7, "@")]


def callers(tree: ast.Module, name: str) -> list[str]:
    """The innermost function around each call of ``name``, called by its
    bare name or as an attribute; ``<module>`` for a call outside every
    function."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None)):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return sorted(found)


def test_one_admissibility_gate():
    # every campaign's hypotheses (a concave free chain, a field vanishing on
    # the fixed boundary) are checked in geometry.require_admissible alone
    gate_callers = [c for p in SRC.glob("*.py")
                    for c in callers(_tree(p), "is_concave_free_boundary")]
    assert gate_callers == ["require_admissible"]
    phrase = "does not vanish on the fixed boundary"
    assert sum(p.read_text().count(phrase) for p in SRC.glob("*.py")) == 1


def test_caller_detector_sees_a_leftover():
    tree = ast.parse(
        "def require_admissible(d):\n    return is_concave_free_boundary(d)\n"
        "class Report:\n    def check(self, d):\n"
        "        return geometry.is_concave_free_boundary(d).concave\n"
        "ok = is_concave_free_boundary(square)\n"
        "is_concave_free_boundary\n"
    )
    assert callers(tree, "is_concave_free_boundary") == ["<module>", "check", "require_admissible"]
