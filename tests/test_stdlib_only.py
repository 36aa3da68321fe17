"""The runtime stays stdlib-only: every import in the package names a module
of the standard library or the package itself."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import lincyc

PACKAGE = Path(lincyc.__file__).parent


def imported_modules(tree: ast.AST):
    """The top-level name of every absolute import in tree, with its line;
    a relative import names the package itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield ("lincyc" if node.level else node.module.partition(".")[0]), node.lineno


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    allowed = sys.stdlib_module_names | {"lincyc"}
    found = [
        f"{path.name}:{line} imports {name}"
        for path in modules
        for name, line in imported_modules(ast.parse(path.read_text(), filename=str(path)))
        if name not in allowed
    ]
    assert found == []


def test_a_third_party_import_is_caught():
    tree = ast.parse("import json\nimport numpy.linalg\nfrom hypothesis import given\n"
                     "from .core import Edge\nfrom os import path\n")
    names = [name for name, _ in imported_modules(tree)]
    assert names == ["json", "numpy", "hypothesis", "lincyc", "os"]
    assert {n for n in names if n not in sys.stdlib_module_names | {"lincyc"}} == {
        "numpy", "hypothesis"}
