"""Output checks for benchmark ops.

Every op is checked on its exit code and, for expected errors, on the
error code.  At the default seed each op's rendered output must also
match the digest recorded in digests.json.  On any seed the per-kind
invariant checks below run; none of them calls the function the op
timed.  A check returns None when the output is right and a short
reason otherwise.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from fractions import Fraction

from bott import admissible as adm
from bott import almostkahler as ak
from workloads import TRAJECTORY_STEPS, stage3_rows


def digest(exit_code: int, text: str) -> str:
    return hashlib.sha256(f"{exit_code}\n{text}".encode()).hexdigest()[:12]


def _stage3_reductive(a: int, b: int, c: int) -> bool:
    return (a == 0 and b * c < 0) or a == b == c == 0


def _twisted_rows(rows) -> int:
    return sum(1 for i, row in enumerate(rows) if any(row[:i]))


def _twisted_columns(rows) -> int:
    n = len(rows)
    return sum(1 for j in range(n) if any(rows[i][j] for i in range(j + 1, n)))


def _p1(a: int, b: int, c: int) -> int:
    return c * (2 * b - a * c)


def _abc(rows) -> tuple[int, int, int]:
    return rows[1][0], rows[2][0], rows[2][1]


def _terms(cls_json) -> dict[tuple[int, ...], int]:
    return {tuple(t["monomial"]): int(t["coeff"]) for t in cls_json["terms"]}


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()[1:]]


def _poly_at(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + Fraction(c)
    return acc


class Checker:
    """Checks op outputs and tallies counts read from them."""

    def __init__(self, digests: list[str] | None = None):
        self.digests = digests
        self.counts: Counter = Counter()
        self.tolerance = Fraction(1, 10 ** 12)     # the default Limits.csc_tolerance
        self._n_b: dict[tuple, int] = {}

    def check(self, index: int, op, exit_code: int, payload, text: str) -> str | None:
        if op.error:
            if exit_code != 1:
                return f"exit {exit_code}, expected error {op.error}"
            if payload.get("error") != op.error:
                return f"error {payload.get('error')}, expected {op.error}"
        elif exit_code != 0:
            return f"exit {exit_code}: {payload}"
        if self.digests is not None and \
                digest(exit_code, text) != self.digests[index % len(self.digests)]:
            return "output differs from the recorded digest"
        if op.error:
            return None
        # kinds without a method (fano) are checked by exit code and digest only
        return getattr(self, "_" + op.kind, lambda *_: None)(op, payload, text)

    # -- groupoid -----------------------------------------------------------

    def _orbit(self, op, payload, text):
        reps = [tuple(map(tuple, m["rows"])) for m in payload["representatives"]]
        self.counts["core.orbit_members"] += len(reps)
        if tuple(map(tuple, payload["canonical"]["rows"])) != min(reps):
            return "canonical form is not the minimal representative"
        if op.data not in reps:
            return "input tower missing from its orbit"
        return None

    def _twist(self, op, payload, text):
        return None if payload == _twisted_rows(op.data) else "wrong twist"

    def _cotwist(self, op, payload, text):
        return None if payload == _twisted_columns(op.data) else "wrong cotwist"

    # -- census -------------------------------------------------------------

    def _reductive(self, op, payload, text):
        if op.size == 3 and payload != _stage3_reductive(*_abc(op.data)):
            return "reductivity differs from the stage-3 closed form"
        return None

    def _roots(self, op, payload, text):
        rows = op.data
        n = len(rows)
        rays = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
        rays += [tuple(-rows[i][j] for i in range(n)) for j in range(n)]
        roots = [tuple(r) for r in payload["roots"]]
        self.counts["fan.roots_found"] += len(roots)
        for chi in roots:
            pairings = [sum(a * b for a, b in zip(chi, ray)) for ray in rays]
            if pairings.count(1) != 1 or any(p > 0 for p in pairings if p != 1):
                return f"{chi} is not a Demazure root"
        symmetric = set(roots) == {tuple(-c for c in chi) for chi in roots}
        if payload["reductive"] != symmetric:
            return "reductive flag disagrees with the root set"
        if n == 3 and symmetric != _stage3_reductive(*_abc(rows)):
            return "reductivity differs from the stage-3 closed form"
        return None

    def _classify3(self, op, payload, text):
        a, b, c = _abc(op.data)
        return None if payload["p"] == _p1(a, b, c) else "p != c(2b - ac)"

    def _cohomology(self, op, payload, text):
        rows = op.data
        for k in range(len(rows)):
            alpha = {(j + 1,): rows[k][j] for j in range(k) if rows[k][j]}
            if _terms(payload["alpha"][k]) != alpha:
                return f"alpha_{k + 1} does not match row {k + 1}"
            if _terms(payload["y"][k]) != {**alpha, (k + 1,): 1}:
                return f"y_{k + 1} != x_{k + 1} + alpha_{k + 1}"
        return None

    def _classes(self, op, payload, text):
        rows = op.data
        n = len(rows)
        column_sums = [sum(rows[k][j] for k in range(j + 1, n)) for j in range(n)]
        if op.argv[1] == "w2":
            odd = [[j + 1] for j in range(n) if column_sums[j] % 2]
            return None if payload["monomials"] == odd else "w2 != c1 mod 2"
        terms = _terms(payload)
        if terms.get((), 0) != 1:
            return "total class does not start with 1"
        if op.argv[1] == "c":
            c1 = {(j + 1,): 2 + column_sums[j] for j in range(n) if 2 + column_sums[j]}
            if {m: v for m, v in terms.items() if len(m) == 1} != c1:
                return "degree-2 part differs from c1"
        elif any(len(m) % 2 for m in terms):
            return "Pontrjagin class has an odd-degree term"
        return None

    def _cone(self, op, payload, text):
        n = op.size
        if len(payload) != 2 ** (n - 1) or any(not k.startswith("u") for k in payload):
            return "wrong set of generator bases"
        if any(len(v["inequalities"]) != n for v in payload.values()):
            return "wrong number of inequalities"
        return None

    def _scan(self, op, payload, text):
        r = op.data[0]
        if len(payload) != (2 * r + 1) ** 3:
            return "wrong number of scan rows"
        for row in payload:
            a, b, c = row["a"], row["b"], row["c"]
            rows = stage3_rows(a, b, c)
            if (row["reductive"] != _stage3_reductive(a, b, c) or row["p1"] != _p1(a, b, c)
                    or row["twist"] != _twisted_rows(rows)
                    or row["cotwist"] != _twisted_columns(rows)):
                return f"scan row {a},{b},{c} is wrong"
        return None

    # -- analysis -----------------------------------------------------------

    def _csc(self, op, payload, text):
        m, rp = op.data
        roots = [Fraction(r) for r in payload["roots"]]
        if -rp not in roots:
            return "-r+ is not among the roots"
        if roots != sorted(roots) or any(not -1 < r < 0 for r in roots):
            return "roots not increasing inside (-1, 0)"
        tol = self.tolerance
        for root in roots:
            if adm.csc_condition(m, rp, root) == 0:
                continue
            lo = root - tol if root - tol > -1 else (root - 1) / 2
            hi = root + tol if root + tol < 0 else root / 2
            if (adm.csc_condition(m, rp, lo) > 0) == (adm.csc_condition(m, rp, hi) > 0):
                return f"no sign change of the obstruction at {root}"
        return None

    def _sweep(self, op, payload, text):
        m, step = op.data
        rows = [(int(a), float(b), float(c)) for a, b, c in _csv_rows(text)]
        grid = [float(k * step) for k in range(1, math.ceil(1 / step))]
        for rp in grid:
            if not any(mm == m and b == rp and abs(c + rp) < 1e-9 for mm, b, c in rows):
                return f"no balanced root at r+ = {rp}"
        return None

    def _extremal(self, op, payload, text):
        F = payload["profile"]["F"]
        if _poly_at(F, Fraction(1)) or _poly_at(F, Fraction(-1)):
            return "extremal polynomial does not vanish at +-1"
        if payload["csc"] != (Fraction(payload["profile"]["A1"]) == 0):
            return "csc flag disagrees with the slope"
        return None

    def _cproj(self, op, payload, text):
        components, alpha = op.data
        moved = [(r - alpha) / (1 - alpha * r) for _, _, r in components]
        if [Fraction(r) for r in payload["r_transformed"]] != moved:
            return "transformed parameters differ from (r - a)/(1 - a r)"
        return None

    def _trajectory(self, op, payload, text):
        components, _ = op.data
        rows = _csv_rows(text)
        if len(rows) != TRAJECTORY_STEPS + 1:
            return "wrong number of trajectory rows"
        if [float(x) for x in rows[0][1:]] != [float(r) for _, _, r in components]:
            return "trajectory does not start at the data"
        return None

    def _ak(self, op, payload, text):
        data = ak.SquareFiberData.make(*op.data)
        sol = ak.AkSolution(*(Fraction(payload["solution"][k])
                              for k in ("a11", "a12", "a22", "A1", "A2", "A3")))
        return None if ak.extremal_residual(data, sol).is_zero() else "nonzero residual"

    def _scount(self, op, payload, text):
        if payload["N_B"] != payload["N_B0"] + payload["N_Bne0"]:
            return "N_B != N_B0 + N_Bne0"
        self._n_b[op.data] = payload["N_B"]
        return None

    def _cenum(self, op, payload, text):
        count = len(payload["representatives"])
        if payload["count"] != count:
            return "count differs from the enumeration"
        if self._n_b.get(op.data, count) != count:
            return "N_B differs from the length of compat-enumerate"
        return None

