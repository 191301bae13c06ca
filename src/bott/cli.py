"""Command-line front end: JSON/CSV output for every package operation.

Exit codes: 0 on success, 1 on a domain error (precondition violated,
enumeration bound exceeded, degenerate parameters), 2 on a parse error.
Domain errors print {"error": code, "message": ...} to standard error.
Rationals are serialized as "p/q" strings and large integer coefficients
as decimal strings, so no precision is lost in transit.  `run` renders a
result as `bott` prints it: indented JSON (`render_json`) or CSV.  In a
`cone --scan-bases` payload, equal inequality rows share one dict, marked
`_Shared`, which `render_json` writes once per indentation.

Each command is one entry of `COMMANDS`, whose compute looks its library
calls up when it runs; `build_parser` and `_payload_for` read the table.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Iterator, Optional, Sequence

from . import admissible as adm
from . import almostkahler as ak
from . import cohomology as coh
from . import fan as bfan
from . import symplectic as sp
from . import topology3 as t3
from .core import (
    BottMatrix,
    StageTooLarge,
    cotwist,
    equivalence_orbit,
    twist,
)
from .polynomials import poly


DOMAIN_ERRORS = {
    StageTooLarge: "stage_too_large",
    adm.DegreeTooHigh: "degree_too_high",
    adm.SingularParameters: "singular_parameters",
    adm.SingularSystem: "singular_system",
    ak.Inconclusive: "inconclusive",
}

SCAN_RADIUS_BOUND = 7     # `bott scan` visits (2r+1)^3 towers: 3,375 at r = 7
TRAJECTORY_BOUND = 500    # `cproj --trajectory STEPS`: one transform per step
CLASSES_STAGE_BOUND = 15  # `classes c|p` print up to 2^n terms: 0.6 s at n = 15
CLASSES_ENTRY_BITS = 64   # and coefficients that grow with the entries: 1 s at n = 15
SCAN_BASES_STAGE_BOUND = 13   # `cone --scan-bases` prints 2^(n-1) cones: 0.3 s at n = 13
CSC_HEADER = ("m", "r_plus", "r_minus")


@dataclass
class CommandResult:
    payload: object
    exit_code: int
    text: Optional[str] = None   # what `bott` prints on success: indented JSON or CSV


_SCALAR_JSON = {
    str: encode_basestring_ascii,   # json's C string encoder, as ensure_ascii=True uses
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


class _Shared(dict):
    """A payload dict that the payload may hold more than once.

    `render_json` writes its text once per indentation and reuses it; a
    plain dict is rendered at every reference and never stored.
    """


def render_json(obj, pad: str = "\n") -> str:
    """json.dumps(obj, indent=2), byte for byte.

    json.dumps with an indent runs the pure-Python encoder; this one
    encodes strings with json's C encoder, joins a list of scalars of one
    type in a single call, and writes each `_Shared` dict once per
    indentation.  Any other scalar (a float, a subclass) and a non-str
    dict key are written by json itself, which raises TypeError for what
    it cannot write.  `pad` is the line break and indentation of the line
    that closes obj.
    """
    return _render(obj, pad, {})


def _render(obj, pad: str, memo: dict) -> str:
    """`render_json` with `memo`, which maps (id, pad) of each `_Shared`
    dict rendered so far in this call to its text."""
    encode = _SCALAR_JSON.get(type(obj))
    if encode:
        return encode(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        shared = type(obj) is _Shared
        if shared:
            text = memo.get((id(obj), pad))
            if text is not None:
                return text
        items = []
        for k, v in obj.items():
            encode = _SCALAR_JSON.get(type(v))
            items.append((encode_basestring_ascii(k) if isinstance(k, str)
                          else json.dumps({k: 0})[1:-4])   # json's own form of the key
                         + ": " + (encode(v) if encode else _render(v, inner, memo)))
        text = "{" + inner + ("," + inner).join(items) + pad + "}"
        if shared:
            memo[id(obj), pad] = text
        return text
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        kinds = set(map(type, obj))
        encode = _SCALAR_JSON.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(encode, obj) if encode else [_render(x, inner, memo) for x in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return json.dumps(obj)


def _frac(text: str) -> Fraction:
    try:
        return adm.parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _json_arg(raw: str):
    """Inline JSON (text starting with "{") or the path of a file holding it.

    json's decoder recurses once per nesting level, so deeply nested text
    raises RecursionError; it is bad input like any other.
    """
    if not raw.strip().startswith("{"):
        with open(raw, encoding="utf-8") as fh:
            raw = fh.read()
    try:
        return json.loads(raw)
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply") from exc


def _load_matrix(args) -> BottMatrix:
    if args.stage3 is not None and args.matrix is not None:
        raise ValueError("provide exactly one of --stage3 or --matrix")
    if args.stage3 is not None:
        return BottMatrix.stage3(*args.stage3)
    if args.matrix:
        return BottMatrix.from_json(_json_arg(args.matrix))
    raise ValueError("provide a tower via --stage3 a b c or --matrix JSON/file")


def _orbit(args):
    report = equivalence_orbit(_load_matrix(args))
    moves = []
    for edge in report.moves:
        entry = {"from": edge.source, "to": edge.target, "kind": edge.move.kind}
        if edge.move.index is not None:
            entry["index"] = edge.move.index
        if edge.move.permutation is not None:
            entry["permutation"] = list(edge.move.permutation)
        moves.append(entry)
    return {
        "representatives": [m.to_json() for m in report.representatives],
        "canonical": report.canonical.to_json(),
        "moves": moves,
    }, None


def _cone_json(rows, first_orthant: bool, inequalities: dict) -> dict:
    """Rows of `fan.kahler_cone` as inequalities coeffs . r > 0, one `_Shared` dict per row."""
    out = []
    for row in rows:
        ineq = inequalities.get(row)
        if ineq is None:
            inequalities[row] = ineq = _Shared(coeffs=[str(c) for c in row], rhs="0", strict=True)
        out.append(ineq)
    return {"inequalities": out, "first_orthant": first_orthant}


def _csv(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(str(x) for x in row) + "\n")
    return buf.getvalue()


def _cohomology(args):
    A = _load_matrix(args)
    R = coh.ring(A)
    return {
        "n": A.n,
        "alpha": [R.alpha(k).to_json() for k in range(A.n)],
        "y": [R.y(k).to_json() for k in range(A.n)],
    }, None


def _roots(args):
    A = _load_matrix(args)
    roots = bfan.demazure_roots(A)
    return {"n": A.n, "roots": sorted(list(chi) for chi in roots.roots),
            "reductive": roots.is_symmetric()}, None


def _classes(args):
    A = _load_matrix(args)
    if args.kind != "w2":
        if A.n > CLASSES_STAGE_BOUND:
            raise StageTooLarge(f"stage {A.n} exceeds bound {CLASSES_STAGE_BOUND} "
                                f"for classes {args.kind}")
        bits = max(abs(e).bit_length() for row in A.rows for e in row)
        if bits > CLASSES_ENTRY_BITS:
            raise StageTooLarge(f"entry of {bits} bits exceeds bound "
                                f"{CLASSES_ENTRY_BITS} for classes {args.kind}")
    R = coh.ring(A)
    if args.kind == "c":
        return R.chern_total().to_json(), None
    if args.kind == "p":
        return R.pontrjagin_total().to_json(), None
    w2 = R.stiefel_whitney_2()
    return {"n": w2.n,
            "monomials": [[i + 1 for i in mono] for mono in w2.monomials()]}, None


def _cone(args):
    if args.scan_bases and args.basis is not None:
        raise ValueError("provide at most one of --basis or --scan-bases")
    A = _load_matrix(args)
    if args.scan_bases:
        if A.n > SCAN_BASES_STAGE_BOUND:
            raise StageTooLarge(f"stage {A.n} exceeds bound {SCAN_BASES_STAGE_BOUND} "
                                "for cone --scan-bases")
        inequalities = {}
        return {choice: _cone_json(*cone, inequalities)
                for choice, cone in bfan.kahler_cone_scan(A).items()}, None
    basis = "u" * A.n if args.basis is None else args.basis
    return {"basis": basis, **_cone_json(*bfan.kahler_cone(A, basis), {})}, None


def _symplectic_count(args):
    n_b0, n_bne0, n_b = sp.count_compatible(args.k1, args.k2, args.k3)
    return {"N_B0": n_b0, "N_Bne0": n_bne0, "N_B": n_b}, None


def _compat_enumerate(args):
    reps = sp.enumerate_compatible(args.k1, args.k2, args.k3)
    return {"count": len(reps), "representatives": [list(t) for t in reps]}, None


def _extremal_poly(args):
    data = adm.AdmissibleData.from_json(_json_arg(args.data))
    profile = adm.extremal_polynomial(data)
    return {
        "data": data.to_json(),
        "profile": profile.to_json(),
        "csc": adm.is_csc(profile),
        "positive": adm.is_positive_on_interval(profile.F),
    }, None


def _csc_family(args):
    if (args.rplus is None) == (args.sweep is None):
        raise ValueError("provide exactly one of --rplus or --sweep")
    if args.sweep is not None:
        return None, (CSC_HEADER, csc_sweep_rows([args.m], args.sweep, args.tolerance))
    roots = adm.csc_family_solve(args.m, args.rplus, args.tolerance)
    payload = {"m": args.m, "r_plus": str(args.rplus), "roots": [str(r) for r in roots]}
    if not args.csv:
        return payload, None
    return payload, (CSC_HEADER, [(args.m, float(args.rplus), float(r)) for r in roots])


def _cproj(args):
    data = adm.AdmissibleData.from_json(_json_arg(args.data))
    if args.poly is not None:
        if not args.poly.strip():
            raise ValueError("--poly needs at least one coefficient")
        F = poly(adm.parse_rational(c) for c in args.poly.split(","))
    else:
        F = adm.extremal_polynomial(data).F
    if args.alpha is None:
        raise ValueError("provide --alpha")
    adm.check_bits(args.alpha, args.beta)
    if args.trajectory is not None:
        # (step, r1, r2) along the straight parameter path from 0 to alpha
        steps = args.trajectory
        if steps < 1:
            raise ValueError("--trajectory must be a positive integer")
        if steps > TRAJECTORY_BOUND:
            raise StageTooLarge(f"trajectory of {steps} steps exceeds bound "
                                f"{TRAJECTORY_BOUND}")
        adm.cproj_transform(F, data, 0, args.beta)   # the degree (and beta) checked once
        rows = []
        for step in range(steps + 1):
            r_now = adm.cproj_parameters(data, Fraction(step, steps) * args.alpha, args.beta)
            rows.append((step, float(r_now[0]),
                         float(r_now[1]) if len(r_now) > 1 else ""))
        return None, (("step", "r1", "r2"), rows)
    new_F, new_data = adm.cproj_transform(F, data, args.alpha, args.beta)
    return {
        "F": [str(c) for c in F],
        "F_transformed": [str(c) for c in new_F],
        "r": [str(r) for r in data.r_list()],
        "r_transformed": [str(r) for r in new_data.r_list()],
    }, None


def _ak_solve(args):
    data = ak.SquareFiberData.make(args.p0, args.p1, args.p2)
    sol = ak.solve_ak(data)
    return {
        "solution": sol.to_json(),
        "determinant": str(ak.system_determinant(data)),
        "positive": ak.check_positivity(data, sol),
        "integrable": ak.check_integrability(data, sol),
    }, None


def _scan(args):
    rows = list(stage3_rows(args.radius))
    if not args.csv:
        return rows, None
    return rows, (list(rows[0]), [list(row.values()) for row in rows])


def _arg(*names, **options):
    """One `add_argument(*names, **options)` call of a command's parser."""
    return names, options


_MATRIX_ARGS = (
    _arg("--stage3", nargs=3, type=int, metavar=("A", "B", "C"),
         help="stage-3 shorthand for the matrix entries"),
    _arg("--matrix", help='matrix as JSON {"n":..,"rows":[[..]]} or a file path'),
)
_WEIGHT_ARGS = tuple(_arg(k, type=_frac) for k in ("k1", "k2", "k3"))

# Every `bott` command, in the order of `bott -h`: name -> (its line in
# `bott -h` or None, the `_arg` calls of its parser, compute).  compute
# maps the parsed namespace to the (payload, table) pair of `_payload_for`.
# It looks each library call up when it runs, as a global or a module
# attribute, never through a reference taken at import: the benchmark
# tracer replaces those names to record its spans.
COMMANDS = {
    "twist": (None, _MATRIX_ARGS, lambda args: (twist(_load_matrix(args)), None)),
    "cotwist": (None, _MATRIX_ARGS, lambda args: (cotwist(_load_matrix(args)), None)),
    "orbit": (None, _MATRIX_ARGS, _orbit),
    "cohomology": (None, _MATRIX_ARGS, _cohomology),
    "reductive": (None, _MATRIX_ARGS, lambda args: (bfan.is_reductive(_load_matrix(args)), None)),
    "roots": (None, _MATRIX_ARGS, _roots),
    "fano": (None, _MATRIX_ARGS, lambda args: (bfan.is_fano(_load_matrix(args)), None)),
    "classes": ("characteristic classes",
                (_arg("kind", choices=["c", "p", "w2"]), *_MATRIX_ARGS), _classes),
    "classify3": ("stage-3 diffeomorphism invariants", tuple(_arg(x, type=int) for x in "abc"),
                  lambda args: (t3.stage3_invariants(args.a, args.b, args.c).to_json(), None)),
    "twist1-diffeo": (None, (_arg("--k", nargs="+", type=int, required=True),
                             _arg("--kprime", nargs="+", type=int, required=True)),
                      lambda args: (t3.twist1_diffeomorphic(args.k, args.kprime), None)),
    "cone": ("ample-cone inequalities in a divisor basis", (
        *_MATRIX_ARGS,
        _arg("--basis", help="string of u/v per stage, first must be u"),
        _arg("--scan-bases", action="store_true", help="report every generator basis"),
    ), _cone),
    "symplectic-count": (None, _WEIGHT_ARGS, _symplectic_count),
    "compat-enumerate": (None, _WEIGHT_ARGS, _compat_enumerate),
    "extremal-poly": (None, (
        _arg("--data", required=True,
             help='admissible data as JSON {"components":[{"d":..,"s":..,"r":..}]} '
                  "or a file path"),
    ), _extremal_poly),
    "csc-family": (None, (
        _arg("--m", type=int, required=True),
        _arg("--rplus", type=_frac, help="single parameter instead of a sweep"),
        _arg("--sweep", type=_frac, help="sweep step over (0, 1)"),
        _arg("--tolerance", type=_frac, default=adm.DEFAULT_CSC_TOLERANCE),
        _arg("--csv", action="store_true"),
    ), _csc_family),
    "cproj": (None, (
        _arg("--data", required=True),
        _arg("--alpha", type=_frac),
        _arg("--beta", type=_frac, default=Fraction(1)),
        _arg("--poly", help="profile coefficients, comma separated "
                            "(default: the extremal polynomial of the data)"),
        _arg("--trajectory", type=int, metavar="STEPS",
             help="emit the parameter path from 0 to alpha in STEPS steps"),
    ), _cproj),
    "ak-solve": (None, (_arg("p0", type=_frac), _arg("p1", type=int), _arg("p2", type=int)),
                 _ak_solve),
    "scan": ("stage-3 box scan of invariants",
             (_arg("--radius", type=int, required=True), _arg("--csv", action="store_true")),
             _scan),
}


def build_parser() -> argparse.ArgumentParser:
    """The `bott` parser, one subparser per COMMANDS entry; its `commands`
    attribute maps each command name to that subparser."""
    parser = argparse.ArgumentParser(prog="bott",
                                     description="Exact invariants of Bott towers")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}
    for name, (line, arguments, _) in COMMANDS.items():
        # any help keyword, None too, lists the command in `bott -h`
        p = parser.commands[name] = sub.add_parser(name, **({"help": line} if line else {}))
        for names, options in arguments:
            p.add_argument(*names, **options)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `run`, built on first use and then reused.

    Building it costs about as much as a cheap command, and parse_args
    leaves it unchanged (every call fills a new namespace).  It is not
    built at import time, so importing the module stays cheap.
    """
    return build_parser()


def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """`_parser().parse_args(argv)`, without the top level's pass when it can.

    A command line that starts with a command name goes straight to that
    command's parser, which fills the same namespace but `command`.  The
    full parser takes every other command line, and one that leaves
    arguments over, so its error text is the one printed.
    """
    parser = _parser()
    if argv:
        sub = parser.commands.get(argv[0])
        if sub is not None:
            args, extras = sub.parse_known_args(argv[1:])
            if not extras:
                args.command = argv[0]
                return args
    return parser.parse_args(argv)


def _payload_for(args):
    """(payload, table) for one parsed command line: its command's compute.

    table is None, or the (header, rows) that `run` prints as CSV.  A
    payload of None marks a result that is only a table; its payload
    becomes the CSV body lines.
    """
    *_, compute = COMMANDS[args.command]
    return compute(args)


def stage3_rows(radius: int, census: bool = False) -> Iterator[dict]:
    """Invariants of every stage-3 tower with |a|, |b|, |c| <= radius, in scan order.

    These are the rows of `bott scan`.  census=True adds the q-trivial
    type ("-" when not rationally trivial), the Kahler-Einstein status and
    the diffeomorphism key, which scripts/stage3_census.py prints as well.
    A negative radius raises ValueError, and one past SCAN_RADIUS_BOUND
    StageTooLarge, both at the first row.
    """
    if radius < 0:
        raise ValueError("radius must be a nonnegative integer")
    if radius > SCAN_RADIUS_BOUND:
        raise StageTooLarge(f"radius {radius} exceeds bound {SCAN_RADIUS_BOUND}")
    for a, b, c in itertools.product(range(-radius, radius + 1), repeat=3):
        A = BottMatrix.stage3(a, b, c)
        inv = t3.stage3_invariants(a, b, c)
        row = {
            "a": a, "b": b, "c": c,
            "twist": twist(A),
            "cotwist": cotwist(A),
            "reductive": bfan.is_reductive(A),
            "fano": bfan.is_fano(A),
            "p1": inv.p,
            "q_trivial": inv.q_trivial,
            "topological_twist": coh.topological_twist(A),
        }
        if census:
            row["q_type"] = inv.q_trivial_type or "-"
            row["ke"] = bfan.kahler_einstein_stage34(A)
            row["diffeo_key"] = "|".join(str(part) for part in inv.diffeo_key())
        yield row


def csc_sweep_rows(ms: Sequence[int], step, tolerance,
                   second_only: bool = False) -> list[tuple[int, float, float]]:
    """(m, r_plus, r_minus) rows of the CSC family sweep at each m, in order.

    These are the rows of `bott csc-family --sweep`, which
    scripts/csc_family_sweep.py prints for several m.  Each m's arguments
    are checked before its first row (admissible.csc_family_sweep), and
    every row is computed before the list is returned.
    """
    return [(m, float(rp), float(root)) for m in ms
            for rp, root in adm.csc_family_sweep(m, step, tolerance, second_only)]


def run(argv: Optional[Sequence[str]] = None) -> CommandResult:
    try:
        args = _parse_args(argv)
        payload, table = _payload_for(args)
    except tuple(DOMAIN_ERRORS) as exc:
        code = DOMAIN_ERRORS[type(exc)]
        return CommandResult({"error": code, "message": str(exc)}, 1)
    except (ValueError, ArithmeticError, OSError, KeyError) as exc:
        return CommandResult({"error": "invalid_input", "message": str(exc)}, 1)
    if table is None:
        return CommandResult(payload, 0, text=render_json(payload))
    text = _csv(*table)
    return CommandResult(text.splitlines()[1:] if payload is None else payload, 0, text=text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        result = run(argv)
    except SystemExit as exc:   # argparse reports parse errors itself
        return 2 if exc.code not in (0, None) else 0
    if result.exit_code != 0:
        print(json.dumps(result.payload), file=sys.stderr)
        return result.exit_code
    sys.stdout.write(result.text if result.text.endswith("\n") else result.text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
