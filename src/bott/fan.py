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
from typing import Any, Iterator, Sequence

from .core import BottMatrix, StageTooLarge, canonical_form

ROOT_SEARCH_BOUND = 750_000   # steps of `_roots`: 1 s of `bott roots` at the bound


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
        """Whether the negative of every root is a root, read up to the first
        one that is not; the set is finite, so then it equals its negation."""
        roots = self.roots
        return all(tuple([-c for c in chi]) in roots for chi in roots)

    def __contains__(self, chi) -> bool:
        return tuple(chi) in self.roots


def _columns(A: BottMatrix) -> list[list[tuple[int, int]]]:
    """Column i of A below the diagonal, as the (k, A[k][i]) pairs with A[k][i] != 0."""
    n = A.n
    return [[(k, A.rows[k][i]) for k in range(i + 1, n) if A.rows[k][i]] for i in range(n)]


def _roots(A: BottMatrix) -> Iterator[tuple[int, ...]]:
    """Every Demazure root of the tower's fan, by triangular back-substitution.

    With v_i = e_i and u_i = -e_i - sum_{k>i} A[k][i] e_k, the conditions
    on the pair v_i, u_i read -sum_{k>i} A[k][i] chi_k <= chi_i <= 0, a
    bound on chi_i by later coordinates only.  For the distinguished ray
    v_j (u_j) this forces chi_k = 0 for every k > j, from the last stage
    down; chi_j = +1 (-1); and each chi_i with i < j runs over the
    integers of [-sum_{k>i} A[k][i] chi_k, 0], from stage j - 1 down to
    stage 0.  No linear system is solved.

    chi is the search's only stack: each level rises from the low end of
    its interval to 0.  Each level visited, a dead end included, is a
    step, and each root yielded is n; past ROOT_SEARCH_BOUND steps the
    search raises StageTooLarge.
    """
    n = A.n
    below = _columns(A)
    chi = [0] * n
    steps = 0
    for j in range(n):
        for sign in (1, -1):
            chi[j] = sign
            i = j
            while True:
                while i and (low := -sum(a * chi[k] for k, a in below[i - 1])) <= 0:
                    i -= 1
                    chi[i] = low
                    steps += 1
                steps += 1 if i else n   # a dead end at level i - 1, or a root
                if not i:
                    yield tuple(chi)
                if steps > ROOT_SEARCH_BOUND:
                    raise StageTooLarge(f"root search of {steps} steps exceeds bound "
                                        f"{ROOT_SEARCH_BOUND}")
                while i < j and not chi[i]:
                    i += 1
                if i == j:
                    break
                chi[i] += 1
                steps += 1
        chi[j] = 0


def demazure_roots(A: BottMatrix) -> DemazureRootSet:
    """All Demazure roots of the tower's fan (see `_roots`)."""
    return DemazureRootSet(A.n, frozenset(_roots(A)))


def is_reductive(A: BottMatrix) -> bool:
    """Reductivity of the identity automorphism component: roots balance.

    False at the first root whose negative psi is no root, that is, does
    not pair to 1 with one ray and to at most 0 with the others; psi pairs
    with v_i to psi_i and with u_i to -psi_i - sum_{k>i} A[k][i] psi_k.
    """
    below = _columns(A)
    for chi in _roots(A):
        positive = [value for i, c in enumerate(chi)
                    for value in (-c, c + sum(a * chi[k] for k, a in below[i])) if value > 0]
        if positive != [1]:
            return False
    return True


# canonical forms of the classified Kahler-Einstein towers
_KE_STAGE3 = (BottMatrix.identity(3), BottMatrix.stage3(0, -1, 1))
_KE_STAGE4 = (
    BottMatrix.identity(4),
    BottMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [-1, 1, 1, 0], [0, 0, 0, 1]]),
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
    return "KE" if canonical_form(A) in candidates else "NotKE"
