"""Every name a module of the package imports is used in it, so a refactor
that drops a caller leaves no stale import behind.  `__init__.py` is left
out: its imports are the package's exports."""

from __future__ import annotations

import ast
from pathlib import Path

import lincyc

PACKAGE = Path(lincyc.__file__).parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name}:{line}" for name, line in imported.items() if name not in used]


def test_package_modules_use_every_import():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = [f"{path.name}:{hit}" for path in modules
             for hit in unused_imports(path.read_text())]
    assert found == []


def test_an_unused_import_is_caught():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .errors import EmptyCore, NotFound\n"
        "raise NotFound(os.sep)\n"
    )
    assert unused_imports(source) == ["EmptyCore:3"]
