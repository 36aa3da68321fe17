"""Subgraphs are cut from a validated parent with `induced` or `edge_induced`,
never rebuilt through the validating constructor.  A rebuilt subgraph passes
`vertices=` to `LinearHypergraph(`, so no module but core.py may do that."""

from __future__ import annotations

import ast
from pathlib import Path

import lincyc

PACKAGE = Path(lincyc.__file__).parent


def _builds_with_vertex_set(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = getattr(node.func, "id", getattr(node.func, "attr", None))
    return name == "LinearHypergraph" and any(kw.arg == "vertices" for kw in node.keywords)


def test_only_core_builds_a_graph_with_a_vertex_set():
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "core.py"]
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _builds_with_vertex_set(node)
    ]
    assert found == []
