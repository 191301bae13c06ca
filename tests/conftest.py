"""Shared strategies and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: support
functions are evaluated by scanning all maximal cones, orbits are closed
by breadth-first search over the generator moves or found by trying all
2^n * n! signed permutations, and the square-fiber linear system is
re-derived from the extremal equation itself.
"""

import itertools
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from hypothesis import strategies as st

from bott.core import (
    BottMatrix,
    apply_signed_permutation,
    fiber_inversion,
    permutation_conjugate,
    transposition,
)
from bott.fan import BottFan, SupportFunction


def lower_triangular(n, entries):
    it = iter(entries)
    rows = [[next(it) if j < i else (1 if i == j else 0) for j in range(n)]
            for i in range(n)]
    return BottMatrix.from_rows(rows)


def bott_matrices(min_stage=1, max_stage=5, max_entry=4):
    def build(n, data):
        return lower_triangular(n, data)

    return st.integers(min_stage, max_stage).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(-max_entry, max_entry),
                     min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
        )
    ).map(lambda t: build(*t))


def fractions(max_num=9, max_den=4):
    return st.builds(Fraction, st.integers(-max_num, max_num), st.integers(1, max_den))


def support_eval_oracle(A: BottMatrix, psi: SupportFunction, w) -> Fraction:
    """Evaluate psi at w by scanning all 2^n maximal cones."""
    n = A.n
    fan = BottFan(A)
    values = []
    for choice in itertools.product("uv", repeat=n):
        cols = [fan.u_vector(j) if choice[j] == "u" else fan.v_vector(j)
                for j in range(n)]
        coeffs = _solve(cols, [Fraction(x) for x in w])
        if coeffs is None or any(c < 0 for c in coeffs):
            continue
        values.append(sum(c * (psi.s[j] if choice[j] == "u" else psi.t[j])
                          for j, c in enumerate(coeffs)))
    assert values, "vector not covered by any maximal cone"
    assert all(v == values[0] for v in values), "inconsistent wall values"
    return values[0]


def _solve(cols, rhs):
    n = len(rhs)
    aug = [[Fraction(cols[j][i]) for j in range(n)] + [rhs[i]] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [e / pv for e in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [e - f * p for e, p in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def orbit_closure_oracle(A: BottMatrix) -> set[BottMatrix]:
    """Breadth-first closure under fiber inversions and transpositions."""
    seen = {A}
    frontier = [A]
    while frontier:
        current = frontier.pop()
        neighbors = [fiber_inversion(current, k) for k in range(A.n)]
        for i in range(A.n):
            for j in range(i + 1, A.n):
                moved = permutation_conjugate(current, transposition(A.n, i, j))
                if moved is not None:
                    neighbors.append(moved)
        for nb in neighbors:
            if nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return seen


def stage3_roots_oracle(A: BottMatrix) -> set[tuple[int, int, int]]:
    """Demazure roots of a stage-3 fan by brute force over a complete box.

    Every root has coordinates at most 1 (it is <= 0 on each v-ray unless
    equal to 1 there), the u_3-constraint forces chi_3 >= -1, and the
    remaining u-constraints propagate lower bounds upward, so the box
    below provably contains the whole root polytope.
    """
    a, b, c = A.stage3_params()
    lo3, hi3 = -1, 1
    lo2 = -(abs(c) * 1 + 1)
    lo1 = -(abs(a) * max(1, abs(lo2)) + abs(b) * 1 + 1)
    normals = [
        (-1, -a, -b), (0, -1, -c), (0, 0, -1),   # u-rays
        (1, 0, 0), (0, 1, 0), (0, 0, 1),         # v-rays
    ]
    roots = set()
    for x1 in range(lo1, 2):
        for x2 in range(lo2, 2):
            for x3 in range(lo3, hi3 + 1):
                chi = (x1, x2, x3)
                values = [sum(u * v for u, v in zip(n, chi)) for n in normals]
                if values.count(1) >= 1 and all(v == 1 or v <= 0 for v in values):
                    if sum(1 for v in values if v == 1) == 1:
                        roots.add(chi)
    return roots


def topological_twist0_factorization_exists(A: BottMatrix, entry_bound=None) -> bool:
    """Search for a factorization A = 2 C_n ... C_1 - I.

    Each C_k is unipotent lower triangular with at most one nonzero
    entry below the diagonal, sitting in row k.  A bounded exhaustive
    search suffices for small stages: any factor entry divides an entry
    pattern of (A + I) / 2, so its magnitude is bounded by the largest
    entry of A plus one.
    """
    n = A.n
    if any(A.rows[i][j] % 2 for i in range(n) for j in range(i)):
        return False
    if entry_bound is None:
        entry_bound = max(abs(A.rows[i][j]) for i in range(n) for j in range(i)) \
            if n > 1 else 0
        entry_bound = entry_bound + 1

    def factor_choices(k):
        yield BottMatrix.identity(n)
        for col in range(k):
            for value in range(-entry_bound, entry_bound + 1):
                if value == 0:
                    continue
                rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
                rows[k][col] = value
                yield BottMatrix.from_rows(rows)

    def matmul(X, Y):
        return [[sum(X[i][k] * Y[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    target = [[(A.rows[i][j] + (1 if i == j else 0)) for j in range(n)] for i in range(n)]
    # target must equal 2 * C_n ... C_1

    def search(k, acc):
        if k < 0:
            return all(2 * acc[i][j] == target[i][j] for i in range(n) for j in range(n))
        return any(search(k - 1, matmul(acc, C.rows)) for C in factor_choices(k))

    identity = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    return search(n - 1, identity)


def signed_permutations(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    for sigma in itertools.permutations(range(n)):
        for flips in itertools.product((0, 1), repeat=n):
            yield sigma, flips


def full_scan_orbit(A: BottMatrix, apply=apply_signed_permutation) -> set[BottMatrix]:
    """Orbit of A as the applicable images of every signed permutation.

    The default applier is the per-pair route of bott.core, which
    test_core holds pair by pair against apply_signed_permutation_generic
    up to n = 4 and on a few stage-5 towers; the generic one is about 40x
    slower.
    """
    images = (apply(A, sigma, flips) for sigma, flips in signed_permutations(A.n))
    return {B for B in images if B is not None}


def normalize_twist_oracle(A: BottMatrix) -> BottMatrix:
    """Bubble every zero row of A - I to the top with adjacent transpositions."""
    cur = A
    n = A.n
    for target in range(n):
        j = next((i for i in range(target, n)
                  if not any(cur.rows[i][:i])), None)
        if j is None:
            break
        while j > target:
            cur = permutation_conjugate(cur, transposition(n, j - 1, j))
            j -= 1
    return cur


def _int_det(mat: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant of an integer matrix."""
    n = len(mat)
    m = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _solve_matrix(M: list[list[int]], N: list[list[int]]) -> Optional[list[list[Fraction]]]:
    """Solve M X = N by Gaussian elimination; None if M is singular."""
    n = len(M)
    aug = [[Fraction(M[i][j]) for j in range(n)] + [Fraction(N[i][j]) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [e / pv for e in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [e - f * p for e, p in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _matmul(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]]) -> list[list[int]]:
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def signed_permutation_matrices(n: int, sigma: Sequence[int],
                                flips: Sequence[int]) -> tuple[list[list[int]], list[list[int]]]:
    """Split a signed permutation into its (P, Q) block parts.

    Column j carries a 1 in row sigma[j]; it lands in Q when stage j is
    flipped (zero and infinity sections swapped) and in P otherwise.
    """
    P = [[0] * n for _ in range(n)]
    Q = [[0] * n for _ in range(n)]
    for j in range(n):
        if flips[j]:
            Q[sigma[j]][j] = 1
        else:
            P[sigma[j]][j] = 1
    return P, Q


def apply_signed_permutation_generic(A: BottMatrix, sigma: Sequence[int],
                                     flips: Sequence[int]) -> Optional[BottMatrix]:
    """Reference normal-form computation of the induced tower matrix.

    Builds the block parts (P, Q) explicitly, checks unimodularity of
    P - A Q by exact determinant and inverts over the rationals, with no
    structural shortcuts.
    """
    n = A.n
    P, Q = signed_permutation_matrices(n, sigma, flips)
    AQ = _matmul(A.rows, Q)
    M = [[P[i][j] - AQ[i][j] for j in range(n)] for i in range(n)]
    if _int_det(M) not in (1, -1):
        return None
    AP = _matmul(A.rows, P)
    N = [[AP[i][j] - Q[i][j] for j in range(n)] for i in range(n)]
    X = _solve_matrix(M, N)
    if X is None:
        return None
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if X[i][j].denominator != 1:
                return None
            row.append(int(X[i][j]))
        rows.append(row)
    for i in range(n):
        if rows[i][i] != 1 or any(rows[i][j] for j in range(i + 1, n)):
            return None
    return BottMatrix.from_rows(rows)
