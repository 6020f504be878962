"""Code that only tests use belongs in tests/: every module-level function and
class of the package, and every public method of those classes, is used by the
package itself, by perfbench or by pyproject.toml.  The version is written once,
in the package."""

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


def test_pyproject_takes_the_version_from_the_package():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        pyproject = tomllib.load(fh)
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "wignernet.__version__"}
    assert re.fullmatch(r"\d+\.\d+\.\d+", wignernet.__version__)
    assert wignernet.__version__ not in (ROOT / "pyproject.toml").read_text()
