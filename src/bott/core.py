"""Bott tower matrices and their groupoid of toric equivalences.

A height-n Bott tower is encoded by a lower triangular unipotent integer
matrix A.  Equivalences between towers are induced by signed permutations
of the 2n invariant divisors: the pair (sigma, flips) acts on the quotient
data and yields a new tower matrix

    A' = (P - A Q)^(-1) (A P - Q)

whenever A' is again lower triangular unipotent.  Here P and Q are the
unflipped/flipped parts of the permutation matrix.  Every toric
equivalence arises from such a pair, so the orbit of A is the set of
applicable images.

The orbit is enumerated without trying every pair.  Let F be the set of
source stages sent to flipped positions (flips[j] = [sigma[j] in F]).
For fixed F, column j of A' depends only on s = sigma[j]: it is the
forward-substitution solve v_F(s) of the column A[:,s] (s not in F) or
-e_s (s in F).  With W_F[s][t] = v_F(s)[t],

    A'[j][l] = W_F[sigma[l]][sigma[j]].

W_F is upper unitriangular (v_F(s) lives on the stages >= s and has a 1
at s), so the diagonal of A' is always 1, and the pair applies exactly
when sigma lists s before t whenever W_F[s][t] != 0: sigma is a linear
extension of that DAG.  The orbit is thus enumerated per distinct W_F by
listing the linear extensions of its DAG.

All indices in this module are 0-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

DEFAULT_STAGE_BOUND = 8

Rows = tuple[tuple[int, ...], ...]


class StageTooLarge(ValueError):
    """Raised when an enumeration is requested above the stage bound."""


@dataclass(frozen=True, order=True)
class BottMatrix:
    """Lower triangular unipotent integer matrix of a height-n tower.

    ``rows[i][j]`` is the entry in row i, column j.  The strictly lower
    part of row k lists the twisting degrees of stage k+1 over the
    earlier stages.  Ordering is row-major lexicographic, which is the
    order used for canonical orbit representatives.
    """

    rows: Rows

    def __post_init__(self):
        n = len(self.rows)
        if n < 1:
            raise ValueError("stage must be at least 1")
        for i, row in enumerate(self.rows):
            if len(row) != n:
                raise ValueError("matrix must be square")
            if not all(type(e) is int for e in row):
                raise ValueError("entries must be integers")
            if row[i] != 1:
                raise ValueError("diagonal entries must equal 1")
            if any(row[i + 1:]):
                raise ValueError("matrix must be lower triangular")

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "BottMatrix":
        if not isinstance(rows, (list, tuple)) or \
                not all(isinstance(row, (list, tuple)) for row in rows):
            raise ValueError("rows must be a list of integer lists")
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "BottMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def stage2(cls, a: int) -> "BottMatrix":
        return cls(((1, 0), (a, 1)))

    @classmethod
    def stage3(cls, a: int, b: int, c: int) -> "BottMatrix":
        return cls(((1, 0, 0), (a, 1, 0), (b, c, 1)))

    @classmethod
    def twist_one(cls, k: Sequence[int]) -> "BottMatrix":
        """Tower with a single twisted top stage of degrees k over (CP^1)^N."""
        n = len(k) + 1
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        rows[n - 1] = [*k, 1]
        return cls.from_rows(rows)

    @classmethod
    def twist_two(cls, l: Sequence[int], k: Sequence[int]) -> "BottMatrix":
        """Tower whose two top stages are twisted (Hirzebruch fiber bundle)."""
        if len(k) != len(l) + 1:
            raise ValueError("need len(k) == len(l) + 1")
        n = len(k) + 1
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        rows[n - 2] = [*l, 1, 0]
        rows[n - 1] = [*k, 1]
        return cls.from_rows(rows)

    def stage3_params(self) -> tuple[int, int, int]:
        if self.n != 3:
            raise ValueError("stage-3 tower required")
        return self.rows[1][0], self.rows[2][0], self.rows[2][1]

    def is_identity(self) -> bool:
        return all(self.rows[i][j] == 0 for i in range(self.n) for j in range(i))

    def leading_submatrix(self, m: int) -> "BottMatrix":
        """Principal m x m block: the tower of the first m stages."""
        return BottMatrix(tuple(row[:m] for row in self.rows[:m]))

    def inverse(self) -> "BottMatrix":
        """Exact integer inverse (forward substitution on the unitriangle)."""
        n = self.n
        inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i):
                inv[i][j] = -sum(self.rows[i][k] * inv[k][j] for k in range(j, i))
        return BottMatrix.from_rows(inv)

    def to_json(self) -> dict:
        return {"n": self.n, "rows": [list(row) for row in self.rows]}

    @classmethod
    def from_json(cls, obj: dict) -> "BottMatrix":
        if not isinstance(obj, dict):
            raise ValueError("matrix JSON must be an object")
        if "stage3" in obj:
            params = obj["stage3"]
            if not isinstance(params, list) or len(params) != 3:
                raise ValueError("stage3 needs three integers")
            return cls.stage3(*params)
        matrix = cls.from_rows(obj["rows"])
        if "n" in obj and (type(obj["n"]) is not int or obj["n"] != matrix.n):
            raise ValueError("n does not match number of rows")
        return matrix


@dataclass(frozen=True)
class EquivalenceMove:
    """A generator move of the tower groupoid.

    kind is "fiber_inversion" (data: stage index) or
    "permutation_conjugation" (data: permutation as a tuple of images).
    """

    kind: str
    index: Optional[int] = None
    permutation: Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class OrbitEdge:
    source: int
    target: int
    move: EquivalenceMove


@dataclass(frozen=True)
class OrbitReport:
    representatives: tuple[BottMatrix, ...]
    canonical: BottMatrix
    moves: tuple[OrbitEdge, ...]


def twist(A: BottMatrix) -> int:
    """Number of nonzero rows of A - I: the holomorphically twisted stages."""
    return sum(1 for i in range(A.n) if any(A.rows[i][j] for j in range(i)))


def cotwist(A: BottMatrix) -> int:
    """Number of nonzero columns of A - I."""
    return sum(1 for j in range(A.n) if any(A.rows[i][j] for i in range(j + 1, A.n)))


def _flip_solve(rows: Rows, flipped: Sequence[bool]) -> Rows:
    """W_F for the flipped source stages F = {s : flipped[s]}.

    Row s is v_F(s), the forward-substitution solve of column s of
    A P - Q (A[:,s], or -e_s when s is flipped) against the reordered
    P - A Q.  Entries before s vanish and entry s is 1.
    """
    n = len(rows)
    W = []
    for s in range(n):
        y = [0] * n
        for i in range(s, n):
            acc = -(i == s) if flipped[s] else rows[i][s]
            for k in range(s, i):
                if flipped[k] and y[k]:
                    acc += rows[i][k] * y[k]
            y[i] = -acc if flipped[i] else acc
        W.append(tuple(y))
    return tuple(W)


def _linear_extension_images(W: Rows) -> Iterator[Rows]:
    """Images W[sigma[l]][sigma[j]] over the linear extensions sigma of W.

    Row j of an image only reads the stages placed before it, so rows
    are built as sigma grows.
    """
    n = len(W)
    before = [0] * n          # bitmask of the stages that must precede t
    for s in range(n):
        for t in range(s + 1, n):
            if W[s][t]:
                before[t] |= 1 << s
    tails = [(1,) + (0,) * (n - j - 1) for j in range(n)]
    full = (1 << n) - 1
    order: list[int] = []
    rows: list[tuple[int, ...]] = []

    def extend(placed: int) -> Iterator[Rows]:
        if placed == full:
            yield tuple(rows)
            return
        tail = tails[len(order)]
        for t in range(n):
            bit = 1 << t
            if not placed & bit and not before[t] & ~placed:
                rows.append(tuple(W[s][t] for s in order) + tail)
                order.append(t)
                yield from extend(placed | bit)
                order.pop()
                rows.pop()

    return extend(0)


def _orbit_images(A: BottMatrix) -> Iterator[Rows]:
    """Rows of every orbit member of A, each at least once.

    Flip sets with equal W_F give equal images, so each W_F is expanded once.
    """
    seen: set[Rows] = set()
    for flipped in itertools.product((False, True), repeat=A.n):
        W = _flip_solve(A.rows, flipped)
        if W not in seen:
            seen.add(W)
            yield from _linear_extension_images(W)


def apply_signed_permutation(A: BottMatrix, sigma: Sequence[int],
                             flips: Sequence[int]) -> Optional[BottMatrix]:
    """Tower matrix induced by (sigma, flips), or None when not applicable.

    The candidate is A'[j][l] = W_F[sigma[l]][sigma[j]] with
    F = {sigma[j] : flips[j]}; it applies exactly when it is lower
    triangular (its diagonal is 1 by construction).
    """
    n = A.n
    flipped = [False] * n
    for j in range(n):
        flipped[sigma[j]] = bool(flips[j])
    W = _flip_solve(A.rows, flipped)
    if any(W[sigma[l]][sigma[j]] for j in range(n) for l in range(j + 1, n)):
        return None
    return BottMatrix(tuple(tuple(W[sl][sj] for sl in sigma) for sj in sigma))


def _fiber_inversion_rows(rows: Rows, k: int) -> Rows:
    """Closed form of the pure flip of stage k: row k negated, later rows
    reduced by their column-k entry times row k."""
    pivot = rows[k]
    out = list(rows)
    out[k] = tuple(-e for e in pivot[:k]) + pivot[k:]
    for i in range(k + 1, len(rows)):
        row = rows[i]
        if row[k]:
            out[i] = tuple(e - row[k] * p for e, p in zip(row[:k], pivot)) + row[k:]
    return tuple(out)


def _permuted(rows: Rows, sigma: Sequence[int]) -> Rows:
    """Rows of P^(-1) A P: entry (j, l) is A[sigma[j]][sigma[l]]."""
    return tuple(tuple(map(rows[a].__getitem__, sigma)) for a in sigma)


def fiber_inversion(A: BottMatrix, k: int) -> BottMatrix:
    """Invert the CP^1 fiber of stage k (always applicable)."""
    if not 0 <= k < A.n:
        raise ValueError("stage index out of range")
    return BottMatrix(_fiber_inversion_rows(A.rows, k))


def transposition(n: int, i: int, j: int) -> tuple[int, ...]:
    sigma = list(range(n))
    sigma[i], sigma[j] = sigma[j], sigma[i]
    return tuple(sigma)


def _support(rows: Rows) -> int:
    """Bitmask of the nonzero entries A[p][q], q < p, at bit p * n + q."""
    n = len(rows)
    return sum(1 << (p * n + q) for p in range(n) for q in range(p) if rows[p][q])


def _inversions(sigma: Sequence[int]) -> int:
    """Bitmask of the pairs q < p that sigma lists p first, at bit p * n + q."""
    n = len(sigma)
    return sum(1 << (sigma[j] * n + sigma[l])
               for j in range(n) for l in range(j + 1, n) if sigma[j] > sigma[l])


def permutation_conjugate(A: BottMatrix, sigma: Sequence[int]) -> Optional[BottMatrix]:
    """P^(-1) A P when lower triangular, else None.

    Entry (j, l) of P^(-1) A P is A[sigma[j]][sigma[l]], so the result is
    lower triangular iff A vanishes at every pair that sigma inverts.
    """
    if sorted(sigma) != list(range(A.n)):
        raise ValueError("not a permutation of range(n)")
    if _support(A.rows) & _inversions(sigma):
        return None
    return BottMatrix(_permuted(A.rows, sigma))


def _check_stage_bound(n: int, stage_bound: int) -> None:
    if n > stage_bound:
        raise StageTooLarge(f"stage {n} exceeds bound {stage_bound}")


def equivalence_orbit(A: BottMatrix, stage_bound: int = DEFAULT_STAGE_BOUND) -> OrbitReport:
    """All tower matrices biholomorphic to A, with generator edges.

    Members are the images over each distinct W_F and each linear
    extension of its DAG (see the module docstring), which is exactly
    the set of applicable signed-permutation images.  Edges are the
    fiber inversions and applicable transpositions of each member.
    """
    n = A.n
    _check_stage_bound(n, stage_bound)
    reps = tuple(sorted(BottMatrix(rows) for rows in set(_orbit_images(A))))
    index = {B.rows: i for i, B in enumerate(reps)}
    inversions = [EquivalenceMove("fiber_inversion", index=k) for k in range(n)]
    swaps = [(_inversions(sigma), EquivalenceMove("permutation_conjugation", permutation=sigma))
             for sigma in (transposition(n, a, b) for a in range(n) for b in range(a + 1, n))]
    edges = []
    for i, B in enumerate(reps):
        for k, move in enumerate(inversions):
            edges.append(OrbitEdge(i, index[_fiber_inversion_rows(B.rows, k)], move))
        support = _support(B.rows)
        for inverted, move in swaps:
            if not support & inverted:
                edges.append(OrbitEdge(i, index[_permuted(B.rows, move.permutation)], move))
    return OrbitReport(reps, reps[0], tuple(edges))


def canonical_form(A: BottMatrix, stage_bound: int = DEFAULT_STAGE_BOUND) -> BottMatrix:
    """Lexicographically minimal matrix in the equivalence orbit."""
    _check_stage_bound(A.n, stage_bound)
    return BottMatrix(min(_orbit_images(A)))


def are_equivalent(A: BottMatrix, B: BottMatrix,
                   stage_bound: int = DEFAULT_STAGE_BOUND) -> bool:
    if A.n != B.n:
        return False
    _check_stage_bound(A.n, stage_bound)
    return any(rows == B.rows for rows in _orbit_images(A))


def normalize_twist(A: BottMatrix) -> BottMatrix:
    """Equivalent tower whose trivial stages come first.

    Conjugates by the stable partition that lists the stages with a zero
    row of A - I first.  Each block keeps its order, and a zero row
    moved up meets only zeros, so the result is lower triangular.  The
    result has its first n - twist(A) rows trivial.
    """
    trivial = [not any(A.rows[i][:i]) for i in range(A.n)]
    order = [i for i in range(A.n) if trivial[i]] + [i for i in range(A.n) if not trivial[i]]
    return BottMatrix(_permuted(A.rows, order))
