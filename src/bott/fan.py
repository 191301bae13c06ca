"""Fans of Bott towers: primitive relations, ample cones, Demazure roots.

The fan of a height-n tower is the cone over an n-cross: rays come in
opposite pairs u_j, v_j where v_1..v_n is the standard lattice basis and
u_j = -(column j of A) in that basis.  A set of rays spans a cone iff it
contains no opposite pair, so the maximal cones are the 2^n mixed bases,
and the primitive collections are exactly the pairs {u_j, v_j}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from .core import DEFAULT_STAGE_BOUND, BottMatrix, _check_stage_bound, canonical_form


def cone_coordinates(A: BottMatrix, w: Sequence) -> list[tuple[str, int, Any]]:
    """Express w in a maximal cone containing it, as (kind, j, c) with c > 0.

    Forward substitution: the residual j-th coordinate decides between
    v_j (positive) and u_j (negative); picking u_j feeds A's column j back
    into the later coordinates.  A vanishing residual makes the choice
    immaterial: w then lies on the wall the two cones share.  The
    coefficients keep the number type of w: integers in give integers out.
    """
    n = A.n
    res = list(w)
    if len(res) != n:
        raise ValueError("vector has wrong dimension")
    out = []
    for j in range(n):
        c = res[j]
        if c > 0:
            out.append(("v", j, c))
        elif c < 0:
            out.append(("u", j, -c))
            for i in range(j + 1, n):
                res[i] -= c * A.rows[i][j]
    return out


def primitive_relations(A: BottMatrix) -> list[list[tuple[str, int, int]]]:
    """The primitive relations u_j + v_j = sum c rho, one term list per j.

    The pairs {u_j, v_j} are the primitive collections, and u_j + v_j is
    written in the cone that contains it.  Every c is a positive integer
    and every term sits at a stage later than j, because u_j + v_j has
    the integer entries -A[i][j] at the stages i > j and 0 elsewhere.
    """
    n = A.n
    return [cone_coordinates(A, [-A.rows[i][j] if i > j else 0 for i in range(n)])
            for j in range(n)]


def is_fano(A: BottMatrix) -> bool:
    """Whether the anticanonical class is ample.

    The anticanonical support function is 1 on every ray, so the
    primitive relation of u_j + v_j must have degree 2 - sum c > 0.
    """
    return all(sum(c for _, _, c in relation) < 2 for relation in primitive_relations(A))


def kahler_cone(A: BottMatrix, basis_choice: str) -> tuple[list[tuple[int, ...]], bool]:
    """Ample-cone inequalities in the divisor basis D_1 = D_{u_1}, D_j in {u_j, v_j}.

    basis_choice is a string of 'u'/'v' of length n whose first letter
    must be 'u' (the classes of D_{u_1} and D_{v_1} agree).  Returns the
    integer rows `coeffs` of the strict inequalities coeffs . r > 0 in
    the coefficients r_1..r_n, together with a flag telling whether they
    cut out exactly the first orthant.
    """
    n = A.n
    if len(basis_choice) != n or any(ch not in "uv" for ch in basis_choice):
        raise ValueError("basis choice must be a string of 'u'/'v' of length n")
    if basis_choice[0] != "u":
        raise ValueError("the first basis divisor is fixed to be D_{u_1}")
    return _cone_in_basis(primitive_relations(A), basis_choice)


def _cone_in_basis(relations: list[list[tuple[str, int, int]]],
                   basis_choice: str) -> tuple[list[tuple[int, ...]], bool]:
    """Row j is e_j minus the relation coefficients on the basis divisors."""
    n = len(relations)
    rows = []
    first_orthant = True
    for j, relation in enumerate(relations):
        row = [0] * n
        row[j] = 1
        for kind, m, c in relation:
            if basis_choice[m] == kind:
                row[m] = -c
                first_orthant = False
        rows.append(tuple(row))
    return rows, first_orthant


def kahler_cone_scan(A: BottMatrix) -> dict[str, tuple[list[tuple[int, ...]], bool]]:
    """Inequalities for each of the 2^(n-1) distinct generator bases."""
    relations = primitive_relations(A)
    choices = ("u" + "".join(tail) for tail in itertools.product("uv", repeat=A.n - 1))
    return {choice: _cone_in_basis(relations, choice) for choice in choices}


def ample_cone_is_first_orthant(A: BottMatrix) -> bool:
    """True when some generator basis realizes the cone as the full orthant.

    Such a basis picks, at each stage, a ray that no relation uses there;
    it fails only at a stage where the relations use both u and v.
    """
    used = {(kind, m) for relation in primitive_relations(A) for kind, m, _ in relation}
    return not any(("u", m) in used and ("v", m) in used for m in range(A.n))


@dataclass(frozen=True)
class DemazureRootSet:
    """Lattice covectors dual to one ray and nonpositive on all others."""

    n: int
    roots: frozenset[tuple[int, ...]]

    def __len__(self) -> int:
        return len(self.roots)

    def is_symmetric(self) -> bool:
        return self.roots == frozenset(tuple(-c for c in chi) for chi in self.roots)

    def __contains__(self, chi) -> bool:
        return tuple(chi) in self.roots


def demazure_roots(A: BottMatrix, stage_bound: int = DEFAULT_STAGE_BOUND) -> DemazureRootSet:
    """All Demazure roots of the tower's fan, by triangular back-substitution.

    With v_i = e_i and u_i = -e_i - sum_{k>i} A[k][i] e_k, the conditions
    on the pair v_i, u_i read -sum_{k>i} A[k][i] chi_k <= chi_i <= 0, a
    bound on chi_i by later coordinates only.  For the distinguished ray
    v_j (u_j) this forces chi_k = 0 for every k > j, from the last stage
    down; chi_j = +1 (-1); and each chi_i with i < j runs over the
    integers of [-sum_{k>i} A[k][i] chi_k, 0], from stage j - 1 down to
    stage 0.  The cost is the number of lattice points visited in these
    nested intervals; no linear system is solved.
    """
    n = A.n
    _check_stage_bound(n, stage_bound)
    # column i of A below the diagonal, as (k, A[k][i]) pairs
    below = [[(k, A.rows[k][i]) for k in range(i + 1, n) if A.rows[k][i]] for i in range(n)]
    roots: set[tuple[int, ...]] = set()
    chi = [0] * n

    def descend(i: int) -> None:
        if i < 0:
            roots.add(tuple(chi))
            return
        for value in range(-sum(a * chi[k] for k, a in below[i]), 1):
            chi[i] = value
            descend(i - 1)
        chi[i] = 0

    for j in range(n):
        for sign in (1, -1):
            chi[j] = sign
            descend(j - 1)
            chi[j] = 0
    return DemazureRootSet(n, frozenset(roots))


def is_reductive(A: BottMatrix, stage_bound: int = DEFAULT_STAGE_BOUND) -> bool:
    """Reductivity of the identity automorphism component: roots balance."""
    return demazure_roots(A, stage_bound).is_symmetric()


def csc_obstructed(A: BottMatrix) -> tuple[bool, Optional[tuple[str, int]]]:
    """Sufficient test for the obstruction to constant scalar curvature.

    Fires when some row's below-diagonal entries are weakly same-signed
    and not all zero.  When it fires the automorphism group is not
    reductive, so no Kahler metric has constant scalar curvature; when
    it does not, nothing follows.  The answer depends on the matrix
    chosen for the tower: the orbit of the n = 5 tower with rows
    (1,0,0,0,0), (0,1,0,0,0), (0,0,1,0,0), (0,-2,2,1,0), (0,0,0,-1,1)
    has 40 members, none reductive, and the test fires on 20 of them.
    `is_reductive` answers for the tower itself.  Returns the witness
    ("row", i) found.

    A nontrivial leading block of topological twist zero needs no test
    of its own.  Take the block's first row i with a nonzero entry below
    the diagonal.  The earlier x_j square to zero, so
    alpha_i^2 = 2 sum_{j<l} A[i][j] A[i][l] x_j x_l.  With one nonzero
    entry the row test fires on row i; with two or more alpha_i^2 != 0,
    and the block's topological twist is at least 1.
    """
    n = A.n
    for i in range(1, n):
        below = A.rows[i][:i]
        if any(below) and (all(e >= 0 for e in below) or all(e <= 0 for e in below)):
            return True, ("row", i)
    return False, None


_KE_STAGE3 = (BottMatrix.identity(3), BottMatrix.stage3(0, 1, -1))
_KE_STAGE4 = (
    BottMatrix.identity(4),
    BottMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [1, -1, 1, 0], [0, 0, 0, 1]]),
)


def kahler_einstein_stage34(A: BottMatrix) -> str:
    """Kahler-Einstein status for stages 3 and 4: "KE", "NotKE" or "Unknown".

    Decided by equivalence with the classified towers: the product of
    projective lines, and the bidegree (1,-1) projective bundle (times a
    line for stage 4).
    """
    if A.n == 3:
        candidates = _KE_STAGE3
    elif A.n == 4:
        candidates = _KE_STAGE4
    else:
        return "Unknown"
    mine = canonical_form(A)
    if any(mine == canonical_form(C) for C in candidates):
        return "KE"
    return "NotKE"
