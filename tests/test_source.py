"""Checks on the library source itself."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "bott").glob("*.py"))


def test_sources_found():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips assert statements, so runtime checks must raise
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at line(s) {lines}"


RATIONAL_HELPERS = {"padd", "pneg", "psub", "pscale", "pmul", "ppow", "pinteg",
                    "definite_integral", "pgcd", "squarefree_part", "_int_gcd", "_squarefree"}


def test_one_integer_root_path():
    # the rational ring operations live with the oracles in tests/conftest.py,
    # and the Sturm chain runs the package's only remainder sequence
    callers = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert not defined & RATIONAL_HELPERS, f"{path.name}: {sorted(defined & RATIONAL_HELPERS)}"
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Name) and node.id in RATIONAL_HELPERS | {"_prem"}:
                        callers.setdefault(node.id, set()).add(fn.name)
    assert callers == {"_prem": {"_sturm_chain"}}
