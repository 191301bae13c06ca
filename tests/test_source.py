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
# the Sturm isolation, now the integer and Fraction oracles in tests/conftest.py
STURM_HELPERS = {"_sturm_chain", "_variations", "_count", "isolate_roots"}


def test_one_integer_root_path():
    # the rational ring operations and the Sturm chains live with the
    # oracles in tests/conftest.py; roots are isolated by Descartes' rule of
    # signs, and the package's only remainder sequence is the squarefree
    # fallback, run when the modular test finds a repeated root
    banned = RATIONAL_HELPERS | STURM_HELPERS
    callers = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert not defined & banned, f"{path.name}: {sorted(defined & banned)}"
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Name) and node.id in banned | {"_prem"}:
                        callers.setdefault(node.id, set()).add(fn.name)
    assert callers == {"_prem": {"_divide_out_gcd"}}


def test_products_go_through_one_sweep():
    # every product is CohomologyClass.__mul__ -> _product -> _times_xs; the
    # per-ring memo of x_j m and its recursive expansion are gone
    callers: dict[str, set[str]] = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert not names & {"_times_x", "_times_x_memo"}, path.name
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Attribute) and node.attr in ("_product", "_times_xs"):
                        callers.setdefault(node.attr, set()).add(f"{path.stem}.{fn.name}")
    assert callers == {"_product": {"cohomology.__mul__", "cohomology._product"},
                       "_times_xs": {"cohomology._product"}}


def test_one_setting_per_limit():
    # each limit is read from its flag or its module constant: there is no
    # limits file, and no module reads the environment
    assert not (SOURCES[0].parent / "config.py").exists()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert not defined & {"Limits", "load_limits", "_given"}, path.name
        names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        assert not names & {"environ", "getenv"}, path.name


def test_no_indented_json_dumps():
    # json.dumps with an indent runs the pure-Python encoder; `cli.render_json`
    # prints the same text, and json.dumps(indent=2) is its test oracle
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute) and node.func.attr in ("dumps", "dump")
                 and any(kw.arg == "indent" for kw in node.keywords)]
        assert not calls, f"{path.name}: json.dumps with indent at line(s) {calls}"


# second implementations that were deleted: the closed forms of the moves,
# the argparse-only refusal class and the hand-written float encoder
DELETED = {"_fiber_inversion_rows", "_permuted", "ArgumentTooLarge", "_scalar_json",
           "_float_json", "_FLOAT_SPECIAL"}


def test_one_implementation_per_job():
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        defined |= {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                    for target in node.targets if isinstance(target, ast.Name)}
        assert not defined & DELETED, f"{path.name}: {sorted(defined & DELETED)}"


def test_moves_are_signed_permutations():
    # every generator move is one pair (sigma, flips) of apply_signed_permutation
    core = next(path for path in SOURCES if path.name == "core.py")
    tree = ast.parse(core.read_text(encoding="utf-8"), filename=str(core))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("fiber_inversion", "permutation_conjugate", "normalize_twist"):
        called = {node.func.id for node in ast.walk(functions[name])
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert "apply_signed_permutation" in called, name


def test_refusal_is_not_a_value_error():
    # argparse turns a ValueError from a type function into exit 2, and a
    # refusal must answer stage_too_large with exit 1
    from bott.core import StageTooLarge

    assert not issubclass(StageTooLarge, ValueError)
