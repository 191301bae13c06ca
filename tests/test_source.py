"""Checks on the library source itself."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "bott").glob("*.py"))


def test_sources_found():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips assert statements, so runtime checks must raise
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at line(s) {lines}"


RATIONAL_HELPERS = {"padd", "pneg", "psub", "pscale", "pmul", "ppow", "pderiv", "pinteg",
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


def test_one_root_search_per_csc_solve():
    # csc_family_solve lists the balanced root -r_plus exactly, so the one
    # search of a CSC solve runs on the deflated obstruction; the search on
    # the whole obstruction is a test oracle
    callers = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.Call)
                    and "roots_in_interval" in (getattr(node.func, "id", None),
                                                getattr(node.func, "attr", None))
                    for node in ast.walk(fn)):
                callers.add(fn.name)
    assert callers == {"csc_second_family_roots"}


def test_scripts_parse_rationals_as_the_cli_does():
    # type=Fraction expands a decimal exponent before any bound is checked;
    # cli._frac goes through admissible.parse_rational, which refuses it first
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    assert scripts
    for path in scripts:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and getattr(node.func, "attr", None) == "add_argument"
                 and any(kw.arg == "type" and getattr(kw.value, "id", None) == "Fraction"
                         for kw in node.keywords)]
        assert not lines, f"{path.name}: type=Fraction at line(s) {lines}"


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


def test_bounds_are_not_options():
    # a bound the code can count is a module constant, not a flag: the stages
    # of an orbit (core.ORBIT_STAGE_BOUND) and the steps of the root search
    # (fan.ROOT_SEARCH_BOUND); compat-enumerate alone lists the compatible towers
    from bott import cli

    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        params = {arg.arg for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs}
        assert "stage_bound" not in params, path.name
        assigned = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                    for target in node.targets if isinstance(target, ast.Name)}
        assert "DEFAULT_STAGE_BOUND" not in assigned, path.name
    commands = cli.build_parser().commands
    assert list(commands) == list(cli.COMMANDS)
    for name in commands:
        # build_parser adds exactly the table's arguments, hidden ones too
        flags = {n for names, _ in cli.COMMANDS[name][1] for n in names}
        assert not flags & {"--stage-bound", "--enumerate"}, name


# argparse's own names for what it keeps; they can change in any Python
# release, and `cli` reads its subparsers from the parser's `commands` dict
ARGPARSE_PRIVATE = {"_actions", "_option_string_actions", "_subparsers"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_argparse_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and (node.attr in ARGPARSE_PRIVATE or node.attr.startswith("_")
                  and isinstance(node.value, ast.Name) and node.value.id == "argparse")]
    lines += [node.lineno for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              and node.module == "argparse"
              and any(alias.name.startswith("_") for alias in node.names)]
    assert not lines, f"{path.name}: private argparse name at line(s) {lines}"


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
# the argparse-only refusal class, the hand-written float encoder, the
# row test of reductivity, the per-flip-set solve of W_F (test oracles
# now; W_F is solved row by row by core._flip_row) and the support and
# inversion masks of the orbit edges (a transposition applies exactly when
# its target pair is in the orbit's pair table)
DELETED = {"_fiber_inversion_rows", "_permuted", "ArgumentTooLarge", "_scalar_json",
           "_float_json", "_FLOAT_SPECIAL", "csc_obstructed", "_flip_solve", "_support",
           "_inversions"}


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


# Names that no module of src/bott or scripts/ reaches, kept because each
# states a result of the paper or is read by the benchmark's output checks
# (csc_condition, extremal_residual).  README's "Library API" section says
# what each one decides.
LIBRARY_API = {
    # core: the tower constructors, the inverse and the groupoid moves
    "stage2", "twist_one", "twist_two", "inverse",
    "fiber_inversion", "permutation_conjugate", "normalize_twist", "are_equivalent",
    # cohomology
    "coefficient", "pontrjagin_class", "is_q_trivial", "square_zero_primitives",
    # fan
    "ample_cone_is_first_orthant",
    # topology3
    "stage3_diffeomorphic", "twist1_class_count",
    # symplectic
    "hirzebruch_compat_count", "stage3_compatible_class", "growth_bounds_hold",
    "product_class_is_kahler", "twist1_compatible",
    # admissible
    "ks_data", "is_ke_ks", "is_csc_pair", "csc_second_family_polynomial", "csc_condition",
    # almostkahler
    "verify_boundary", "extremal_residual",
}


def _references(node) -> Counter:
    """How often each name is read in node: as a name, an attribute or an import."""
    out: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _definitions(node, prefix: str):
    """(qualified name, node) for each function, method and class in node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{prefix}.{child.name}", child
            yield from _definitions(child, f"{prefix}.{child.name}")
        else:
            yield from _definitions(child, prefix)


def _library_api_section() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    _, heading, rest = readme.partition("\n## Library API\n")
    assert heading, "README has no Library API section"
    return rest.split("\n## ", 1)[0]


def test_every_name_has_a_caller():
    # every function, method and class of src/bott is read by src/bott or
    # scripts/ outside its own body, wrapped by the benchmark tracer, or
    # listed as library API: oracles and inspection helpers live in tests/
    from test_tracer_hooks import tracer

    hooked = {path.split(".")[-1] for _, path, *_ in tracer.HOOKS}
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in SOURCES + sorted((ROOT / "scripts").glob("*.py"))}
    references = sum((_references(tree) for tree in trees.values()), Counter())
    unreached, defined = [], set()
    for path in SOURCES:
        for qualname, node in _definitions(trees[path], path.stem):
            defined.add(node.name)
            if node.name.startswith("__") and node.name.endswith("__"):
                continue   # Python calls these itself
            if references[node.name] > _references(node)[node.name]:
                continue
            if node.name not in hooked | LIBRARY_API:
                unreached.append(qualname)
    assert not unreached, f"only tests reach {sorted(unreached)}"
    assert LIBRARY_API <= defined, sorted(LIBRARY_API - defined)
    undocumented = LIBRARY_API - set(re.findall(r"\w+", _library_api_section()))
    assert not undocumented, f"not in README's Library API section: {sorted(undocumented)}"
