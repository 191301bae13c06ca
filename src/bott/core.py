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

Row s of W_F reads only the flips of stages > s: flipped or not, stage s
ends as a pivot with entry 1.  So with F a bitmask (bit s set when stage
s is flipped) row s depends on F >> (s + 1) alone, W_F on F >> 1 (the
inversion of the base fiber is always an automorphism), and all 2^n W_F
are assembled from the top stage down out of 2^n - 1 row solves, one per
stage s and suffix F >> (s + 1), not n 2^n.

The generator moves act on these pairs directly.  Inverting the fiber
of stage k of the image of (F, sigma) gives the image of
(F xor {sigma[k]}, sigma), and conjugating it by the transposition of
stages a and b gives the image of (F, sigma with positions a and b
swapped), so the edges of the orbit are found without building any
matrix.

All indices in this module are 0-based.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

ORBIT_STAGE_BOUND = 8   # `orbit` lists the n! stage orders of the identity: 0.1 s at n = 8

Rows = tuple[tuple[int, ...], ...]


class StageTooLarge(Exception):
    """A well-formed input refused because answering it costs too much.

    Not a ValueError: argparse turns a ValueError from a type function
    into a parse error, and a refusal is not one.
    """


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
            if set(map(type, row)) != {int}:
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
        if "stage3" in obj and "rows" in obj:
            raise ValueError("provide exactly one of stage3 or rows")
        if "stage3" in obj:
            params = obj["stage3"]
            if not isinstance(params, list) or len(params) != 3:
                raise ValueError("stage3 needs three integers")
            matrix = cls.stage3(*params)
        elif "rows" in obj:
            matrix = cls.from_rows(obj["rows"])
        else:
            raise ValueError('matrix JSON needs "rows" or "stage3"')
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


class OrbitEdge(NamedTuple):
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


def _flip_row(rows: Rows, s: int, flips: int) -> tuple[int, ...]:
    """Row s of W_F for the flip set F with bitmask flips.

    It is v_F(s), the forward-substitution solve of column s of A P - Q
    (A[:,s], or -e_s when s is flipped) against the reordered P - A Q.
    Entries before s vanish and entry s is 1, and either way stage s acts
    as a pivot that adds A[i][s] to entry i, so only the flips of stages
    > s are read.
    """
    n = len(rows)
    y = [0] * n
    y[s] = 1
    pivots = [s]   # s and the flipped stages k < i with y[k] != 0
    for i in range(s + 1, n):
        row = rows[i]
        acc = 0
        for k in pivots:
            acc += row[k] * y[k]
        if flips >> i & 1:
            acc = -acc
            if acc:
                pivots.append(i)
        y[i] = acc
    return tuple(y)


def _flip_classes(A: BottMatrix) -> tuple[list[int], dict[Rows, int]]:
    """W_F for every flip set F, as a bitmask with bit s set when stage s
    is flipped: for each F the first flip set with the same W_F, and that
    first flip set of each distinct W_F.

    suffixes[G] holds rows s..n-1 of W_F for every F with F >> (s + 1) == G;
    row s is solved once per G and shared by the 2^(s+1) flip sets below it.
    """
    n = A.n
    suffixes: list[Rows] = [()]
    for s in range(n - 1, -1, -1):
        suffixes = [(_flip_row(A.rows, s, G << (s + 1)),) + suffixes[G >> 1]
                    for G in range(1 << (n - 1 - s))]
    first: dict[Rows, int] = {}
    classes = [first.setdefault(W, G << 1) for G, W in enumerate(suffixes)]
    return [classes[F >> 1] for F in range(1 << n)], first


@functools.cache
def _move_tables(n: int):
    """Per-n tables of the orbit: the row tails and place values of
    _linear_extension_images, and the generator moves of equivalence_orbit.

    tails[j] is row j of an image from the diagonal on, and powers[j] is
    n^j, the place value of sigma[j] in a code.  swaps has one entry
    (a, b, shift, move) per transposition of positions a < b: swapping
    them in sigma adds (sigma[b] - sigma[a]) shift to its code.
    """
    tails = [(1,) + (0,) * (n - j - 1) for j in range(n)]
    powers = [n ** j for j in range(n)]
    inversions = [EquivalenceMove("fiber_inversion", index=k) for k in range(n)]
    swaps = [(a, b, powers[a] - powers[b],
              EquivalenceMove("permutation_conjugation", permutation=transposition(n, a, b)))
             for a in range(n) for b in range(a + 1, n)]
    return tails, powers, inversions, swaps


def _linear_extension_images(W: Rows) -> Iterator[tuple[int, Rows]]:
    """(code, image) over the linear extensions sigma of W.

    The image is W[sigma[l]][sigma[j]] and the code is
    sum_j sigma[j] n^j.  Row j of an image only reads the stages placed
    before it, so rows are built as sigma grows.  Each stack entry is a
    prefix of sigma: (placed stages, code, prefix, its image rows).
    Children are pushed in descending stage order, so extensions come
    out in lexicographic order of sigma.  A prefix of n - 1 stages has
    one child, the stage not yet placed, and its extension is yielded
    at once.
    """
    n = len(W)
    before = [0] * n          # bitmask of the stages that must precede t
    for s in range(n):
        for t in range(s + 1, n):
            if W[s][t]:
                before[t] |= 1 << s
    tails, powers = _move_tables(n)[:2]
    stages = range(n - 1, -1, -1)
    full = (1 << n) - 1
    stack = [(0, 0, (), ())]
    while stack:
        placed, code, order, rows = stack.pop()
        j = len(order)
        if j == n - 1:
            t = (full ^ placed).bit_length() - 1
            yield code + t * powers[j], rows + (tuple([W[s][t] for s in order]) + (1,),)
            continue
        tail, power = tails[j], powers[j]
        for t in stages:
            if not placed >> t & 1 and not before[t] & ~placed:
                stack.append((placed | 1 << t, code + t * power, order + (t,),
                              rows + (tuple([W[s][t] for s in order]) + tail,)))


def _orbit_images(A: BottMatrix) -> Iterator[Rows]:
    """Rows of every orbit member of A, each at least once.

    Flip sets with equal W_F give equal images, so each W_F is expanded once.
    """
    for W in _flip_classes(A)[1]:
        for _, rows in _linear_extension_images(W):
            yield rows


def apply_signed_permutation(A: BottMatrix, sigma: Sequence[int],
                             flips: Sequence[int]) -> Optional[BottMatrix]:
    """Tower matrix induced by (sigma, flips), or None when not applicable.

    The candidate is A'[j][l] = W_F[sigma[l]][sigma[j]] with
    F = {sigma[j] : flips[j]}; it applies exactly when it is lower
    triangular (its diagonal is 1 by construction).
    """
    n = A.n
    F = sum(1 << sigma[j] for j in range(n) if flips[j])
    W = [_flip_row(A.rows, s, F) for s in range(n)]
    if any(W[sigma[l]][sigma[j]] for j in range(n) for l in range(j + 1, n)):
        return None
    return BottMatrix(tuple(tuple(W[sl][sj] for sl in sigma) for sj in sigma))


def fiber_inversion(A: BottMatrix, k: int) -> BottMatrix:
    """Invert the CP^1 fiber of stage k: the pair (identity, flip of k),
    which always applies."""
    if not 0 <= k < A.n:
        raise ValueError("stage index out of range")
    return apply_signed_permutation(A, range(A.n), [j == k for j in range(A.n)])


def transposition(n: int, i: int, j: int) -> tuple[int, ...]:
    sigma = list(range(n))
    sigma[i], sigma[j] = sigma[j], sigma[i]
    return tuple(sigma)


def permutation_conjugate(A: BottMatrix, sigma: Sequence[int]) -> Optional[BottMatrix]:
    """P^(-1) A P when lower triangular, else None: the pair (sigma, no flips).

    Entry (j, l) of P^(-1) A P is A[sigma[j]][sigma[l]], so the result is
    lower triangular iff A vanishes at every pair that sigma inverts.
    """
    if sorted(sigma) != list(range(A.n)):
        raise ValueError("not a permutation of range(n)")
    return apply_signed_permutation(A, sigma, (0,) * A.n)


def _check_stage_bound(n: int) -> None:
    if n > ORBIT_STAGE_BOUND:
        raise StageTooLarge(f"stage {n} exceeds bound {ORBIT_STAGE_BOUND}")


def equivalence_orbit(A: BottMatrix) -> OrbitReport:
    """All tower matrices biholomorphic to A, with generator edges.

    Members are the images over each distinct W_F and each linear
    extension of its DAG (see the module docstring), which is exactly
    the set of applicable signed-permutation images.  Edges are the
    fiber inversions and applicable transpositions of each member, read
    off one pair (F, sigma) that gives it (see the module docstring).
    """
    n = A.n
    _check_stage_bound(n)
    canonical, first = _flip_classes(A)
    # found numbers the distinct images in the order they appear; member_at
    # maps the key F n^n + code(sigma) of every pair (one F per W_F) to the
    # number of its image, and source keeps the first key of each number.
    # member_at has one entry per pair, up to 2^n n! (n! for the identity),
    # so a transposition applies exactly when the key it moves to is there.
    width = n ** n
    found: dict[Rows, int] = {}
    member_at: dict[int, int] = {}
    source: list[int] = []
    for W, F in first.items():
        for code, rows in _linear_extension_images(W):
            key = F * width + code
            i = member_at[key] = found.setdefault(rows, len(found))
            if i == len(source):
                source.append(key)
    members = sorted(found)
    rank = [0] * len(members)
    for i, rows in enumerate(members):
        rank[found[rows]] = i
    _, powers, inversions, swaps = _move_tables(n)
    edges = []
    for i, rows in enumerate(members):
        key = source[found[rows]]
        F, code = divmod(key, width)
        sigma = [code // power % n for power in powers]
        for k, move in enumerate(inversions):
            target = canonical[F ^ 1 << sigma[k]] * width + code
            edges.append(OrbitEdge(i, rank[member_at[target]], move))
        for a, b, shift, move in swaps:
            j = member_at.get(key + (sigma[b] - sigma[a]) * shift)
            if j is not None:
                edges.append(OrbitEdge(i, rank[j], move))
    reps = tuple(map(BottMatrix, members))
    return OrbitReport(reps, reps[0], tuple(edges))


def canonical_form(A: BottMatrix) -> BottMatrix:
    """Lexicographically minimal matrix in the equivalence orbit."""
    _check_stage_bound(A.n)
    return BottMatrix(min(_orbit_images(A)))


def are_equivalent(A: BottMatrix, B: BottMatrix) -> bool:
    if A.n != B.n:
        return False
    _check_stage_bound(A.n)
    return any(rows == B.rows for rows in _orbit_images(A))


def normalize_twist(A: BottMatrix) -> BottMatrix:
    """Equivalent tower whose trivial stages come first.

    Conjugates (the pair with no flips) by the stable partition that
    lists the stages with a zero row of A - I first.  Each block keeps
    its order, and a zero row moved up meets only zeros, so the result
    is lower triangular.  The result has its first n - twist(A) rows
    trivial.
    """
    trivial = [not any(A.rows[i][:i]) for i in range(A.n)]
    order = [i for i in range(A.n) if trivial[i]] + [i for i in range(A.n) if not trivial[i]]
    return apply_signed_permutation(A, order, (0,) * A.n)
