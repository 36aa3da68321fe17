"""Internal checks raise InvariantViolation instead of using assert, which
`python -O` strips.  This keeps any assert from creeping back into the package."""

from __future__ import annotations

import ast
from pathlib import Path

import lincyc

PACKAGE = Path(lincyc.__file__).parent


def test_package_has_no_assert_statements():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
