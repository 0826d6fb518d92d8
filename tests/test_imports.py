"""Every top-level import of a package module is used in that module."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "oligocat"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotation_names(node):
    """Names inside a string annotation such as -> "SetExpr"."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                    if isinstance(n, ast.Name)}
        except SyntaxError:
            return set()
    return set()


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if ann is not None:
                for sub in ast.walk(ann):
                    used |= _annotation_names(sub)
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_top_level_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in stmt.names]
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            bound += [a.asname or a.name for a in stmt.names]
    used = _used_names(tree)
    assert [name for name in bound if name not in used] == []
