"""Code that only tests use belongs in tests/: every module-level function and
class of the package, and every public method of those classes, is used by the
package itself, by perfbench or by pyproject.toml.  Every name a module of the
package imports is used in it.  The version is written once, in the package."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import wignernet

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wignernet"
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def definitions(source: str) -> list[str]:
    """Names of the module-level functions and classes and of those classes' public methods."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [m.name for m in node.body
                      if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return names


def references(source: str) -> set[str]:
    """Names the code uses: loaded names, attributes, and the parts of a string that
    is a dotted name such as "oscillator.wigner_grid".  Definitions, imports and
    docstrings are no use."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings and re.fullmatch(r"[A-Za-z_][\w.]*", node.value)):
            used.update(node.value.split("."))
    return used


def unused_imports(source: str) -> list[str]:
    """Names the module imports but never loads; a name in an annotation, quoted or not, is used."""
    tree = ast.parse(source)
    imported = [alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    annotations = [getattr(node, key) for node in ast.walk(tree) for key in ("annotation", "returns")
                   if isinstance(getattr(node, key, None), ast.Constant)]
    quoted = [ast.parse(a.value, mode="eval") for a in annotations if isinstance(a.value, str)]
    used = {node.id for root in (tree, *quoted) for node in ast.walk(root) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_every_definition_has_a_user_outside_tests():
    users = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]
    used = set(IDENTIFIER.findall((ROOT / "pyproject.toml").read_text()))
    for path in users:
        used |= references(path.read_text())
    unused = [f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py"))
              for name in definitions(path.read_text()) if name not in used]
    assert not unused, "used only by tests (move to tests/ or delete): " + ", ".join(unused)


def test_a_definition_used_only_by_its_docstring_or_an_import_is_unused():
    source = '''
"""wigner_value evaluates W."""
from .oscillator import helper

def wigner_value(w, x, p):
    """wigner_value at (x, p)."""
    return wigner_grid(w, x, p)

def wigner_grid(w, x, p):
    return helper(w) + TARGETS

class Layer:
    def forward(self): ...
    def _private(self): ...

TARGETS = ("network.Layer.forward", "not a name: Layer")
'''
    used = references(source)
    assert definitions(source) == ["wigner_value", "wigner_grid", "Layer", "forward"]
    assert [name for name in definitions(source) if name not in used] == ["wigner_value"]


def test_every_import_is_used():
    unused = [f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py"))
              for name in unused_imports(path.read_text())]
    assert not unused, "imported but unused: " + ", ".join(unused)


def test_an_import_used_only_in_an_annotation_is_used():
    source = '''
from __future__ import annotations
import os.path
from itertools import chain, islice
from typing import NoReturn
from .data import Dataset as Rows

def fail(path: os.PathLike, rows: "Rows") -> NoReturn:
    """chain the rows."""
    return islice
'''
    assert unused_imports(source) == ["chain"]


def test_pyproject_takes_the_version_from_the_package():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        pyproject = tomllib.load(fh)
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "wignernet.__version__"}
    assert re.fullmatch(r"\d+\.\d+\.\d+", wignernet.__version__)
    assert wignernet.__version__ not in (ROOT / "pyproject.toml").read_text()
