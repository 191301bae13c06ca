"""Shared strategies and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: support
functions are evaluated by scanning all maximal cones, ampleness is
decided by convexity on the primitive collections, Demazure roots
are read off the vertices of each ray's root polytope, orbits are closed
by breadth-first search over the generator moves or found by trying all
2^n * n! signed permutations, orbit edges are applied afresh from every
member, each W_F is solved row by row for its own flip set and the linear
extensions of its DAG are filtered out of all n! stage orders, fiber inversions are checked against their closed form, cohomology products rewrite exponent vectors with x_k^2 ->
-alpha_k x_k, the square-fiber linear system is re-derived from the extremal
equation itself, integrability is sampled on a grid of rational points,
positivity is certified on Fraction boxes with Fraction interval bounds
and on integer boxes with monomial bounds, the extremal profile, its
c-projective image and the CSC expansion are computed with Fraction
polynomials (their ring operations, padd to definite_integral, live
here: the library computes in integers), the scalar curvature of a
profile is summed from its definition, Poly2 is checked against a dict of Fractions, linear
systems and determinants are eliminated over Fractions, real roots are isolated with Sturm chains over Fraction coefficients
(Euclidean gcd, rebuilt on every call) and, where that is too slow, with
an integer Sturm chain instead of the library's Descartes' rule of
signs, the CSC obstruction is evaluated
from its defining integrals and its polynomial interpolated from those
values, its roots are also searched on the whole obstruction, the
balanced root -r_plus included, stage-3 diffeomorphism is decided invariant by invariant
without the canonical key, twist-one diffeomorphism is decided by
trying every permutation, and a non-reductive tower is recognized by the
sign pattern of one row.
"""

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from hypothesis import strategies as st

from bott import admissible as adm
from bott import almostkahler as ak
from bott import cohomology as coh
from bott import polynomials as ipoly

from bott.core import (
    BottMatrix,
    EquivalenceMove,
    OrbitEdge,
    OrbitReport,
    _orbit_images,
    apply_signed_permutation,
    fiber_inversion,
    permutation_conjugate,
    transposition,
)
from bott.fan import cone_coordinates, primitive_relations
from bott.polynomials import (
    IntPoly,
    Poly,
    SingularSystem,
    degree,
    lagrange_interpolate,
    peval,
    poly,
)
from bott.topology3 import stage3_invariants


def lower_triangular(n, entries):
    it = iter(entries)
    rows = [[next(it) if j < i else (1 if i == j else 0) for j in range(n)]
            for i in range(n)]
    return BottMatrix.from_rows(rows)


def seeded_towers(n, seed):
    """A dense and a sparse seeded tower of stage n."""
    rng = random.Random(seed)
    size = n * (n - 1) // 2
    dense = lower_triangular(n, [rng.randint(-2, 2) for _ in range(size)])
    sparse = lower_triangular(n, [rng.choice((-2, -1, 1, 3)) if rng.random() < 0.25 else 0
                                  for _ in range(size)])
    return dense, sparse


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


# -- support functions and ampleness by convexity --------------------------------

def rays(A: BottMatrix) -> list[tuple[str, int, tuple[int, ...]]]:
    """(kind, j, vector) for u_1..u_n and then v_1..v_n, in v-coordinates."""
    n = A.n
    return ([("u", j, tuple(-A.rows[i][j] for i in range(n))) for j in range(n)]
            + [("v", j, tuple(int(i == j) for i in range(n))) for j in range(n)])


@dataclass(frozen=True)
class SupportFunction:
    """Ray values of an invariant R-divisor: s on the u-rays, t on the v-rays."""

    s: tuple[Fraction, ...]
    t: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.s) != len(self.t):
            raise ValueError("s and t must have equal length")

    @classmethod
    def from_values(cls, s: Sequence, t: Sequence) -> "SupportFunction":
        return cls(tuple(Fraction(v) for v in s), tuple(Fraction(v) for v in t))

    def at(self, kind: str, j: int) -> Fraction:
        """The value on the ray u_j (kind "u") or v_j (kind "v")."""
        return self.s[j] if kind == "u" else self.t[j]


def eval_support(A: BottMatrix, psi: SupportFunction, w: Sequence) -> Fraction:
    """psi at w, linear on the cone that fan.cone_coordinates writes w in."""
    return sum((c * psi.at(kind, j) for kind, j, c in
                cone_coordinates(A, [Fraction(x) for x in w])), Fraction(0))


def is_ample(A: BottMatrix, psi: SupportFunction, strict: bool = True) -> bool:
    """Ampleness (nef when strict=False) of the divisor class of psi.

    The class is ample iff psi(u_j) + psi(v_j) > psi(u_j + v_j) for every
    opposite pair; these are the convexity inequalities on the primitive
    collections, and they only depend on the divisor class.  fan.kahler_cone
    reads the same relations as inequality rows in a divisor basis.
    """
    for j, relation in enumerate(primitive_relations(A)):
        lhs = psi.s[j] + psi.t[j]
        rhs = sum(c * psi.at(kind, m) for kind, m, c in relation)
        if not (lhs > rhs if strict else lhs >= rhs):
            return False
    return True


def support_eval_oracle(A: BottMatrix, psi: SupportFunction, w) -> Fraction:
    """Evaluate psi at w by scanning all 2^n maximal cones."""
    n = A.n
    vectors = {(kind, j): vec for kind, j, vec in rays(A)}
    values = []
    for choice in itertools.product("uv", repeat=n):
        cols = [vectors[choice[j], j] for j in range(n)]
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


def determinant_oracle(matrix) -> Fraction:
    """The determinant by Gaussian elimination over Fractions."""
    m = [[Fraction(a) for a in row] for row in matrix]
    n = len(m)
    sign, det = 1, Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return sign * det


def stage3_diffeomorphic_oracle(t1, t2) -> bool:
    """Stage-3 diffeomorphism decided invariant by invariant, with no key."""
    i1 = stage3_invariants(*t1)
    i2 = stage3_invariants(*t2)
    if i1.q_trivial != i2.q_trivial:
        return False
    if i1.q_trivial:
        return i1.q_trivial_type == i2.q_trivial_type
    a, b, c = t1
    a2, b2, c2 = t2
    if abs(i1.p) != abs(i2.p):
        return False
    if a % 2 != a2 % 2:
        return False
    if a % 2 == 0 and ((1 + b) * (1 + c)) % 2 != ((1 + b2) * (1 + c2)) % 2:
        return False
    if c % 2 == 0 and c2 % 2 == 0 and b % 2 != b2 % 2:
        return False
    return True


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


def demazure_roots_vertex_oracle(A: BottMatrix) -> set[tuple[int, ...]]:
    """Demazure roots from the vertices of each ray's root polytope.

    For each ray the admissible covectors form a bounded polytope (the
    rays positively span the dual space), whose vertices are found by
    solving the n-subsets of active constraints with `_solve`; integer
    points are then read off from the vertex bounding box.  This costs
    C(2n-1, n-1) Fraction systems per ray.
    """
    n = A.n
    normals = [vec for _, _, vec in rays(A)]
    roots = set()
    for idx, n_rho in enumerate(normals):
        others = normals[:idx] + normals[idx + 1:]
        vertices = []
        for combo in itertools.combinations(others, n - 1):
            # _solve takes the columns of the system [n_rho, *combo] chi = e_1
            sol = _solve(list(zip(n_rho, *combo)), [1] + [0] * (n - 1))
            if sol is None:
                continue
            if all(sum(v[i] * sol[i] for i in range(n)) <= 0 for v in others):
                vertices.append(sol)
        if not vertices:
            continue
        ranges = [range(math.ceil(min(v[i] for v in vertices)),
                        math.floor(max(v[i] for v in vertices)) + 1) for i in range(n)]
        for chi in itertools.product(*ranges):
            if sum(a * b for a, b in zip(n_rho, chi)) != 1:
                continue
            if all(sum(a * b for a, b in zip(v, chi)) <= 0 for v in others):
                roots.add(chi)
    return roots


def csc_obstructed(A: BottMatrix) -> tuple[bool, Optional[tuple[str, int]]]:
    """The row test for the obstruction to constant scalar curvature.

    Fires when some row's below-diagonal entries are weakly same-signed
    and not all zero, and returns the witness ("row", i) found.  Then
    e_i (for a nonnegative row) or -e_i (nonpositive) is a Demazure root
    whose negative is not, so the automorphism group is not reductive;
    `is_reductive` finds such a root by itself.  The answer depends on
    the matrix chosen for the tower: the orbit of the n = 5 tower with
    rows (1,0,0,0,0), (0,1,0,0,0), (0,0,1,0,0), (0,-2,2,1,0),
    (0,0,0,-1,1) has 40 members, none reductive, and the test fires on
    20 of them.

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


def class_from_json(A: BottMatrix, obj: dict) -> coh.CohomologyClass:
    """The class that `bott` prints as {"terms": [{"monomial", "coeff"}]}."""
    coeffs: dict[int, int] = {}
    for term in obj["terms"]:
        mask = 0
        for i in term["monomial"]:
            mask |= 1 << (int(i) - 1)
        coeffs[mask] = coeffs.get(mask, 0) + int(term["coeff"])
    return coh.CohomologyClass(coh.ring(A), coeffs)


def square_free_product_oracle(ring, m1: int, m2: int,
                               cache: Optional[dict] = None) -> dict[int, int]:
    """Product of two square-free monomials, by rewriting its count vector.

    This is the ring's former two-layer multiplication: the exponent
    vector of m1 * m2 is reduced by substituting x_k^2 -> -alpha_k x_k,
    with no use of the one-generator rule of bott.cohomology.  `cache`
    may be shared across calls on the same ring.
    """
    counts = [0] * ring.n
    for i in range(ring.n):
        counts[i] = (m1 >> i & 1) + (m2 >> i & 1)
    return _reduce_oracle(ring, tuple(counts), {} if cache is None else cache)


def _reduce_oracle(ring, counts: tuple[int, ...], cache: dict) -> dict[int, int]:
    """Rewrite a monomial with repeated factors in the square-free basis.

    Repeatedly substitutes x_k^2 -> -alpha_k x_k at the highest
    repeated index; alpha_k only involves smaller indices, so the
    pair (highest repeated index, its count) drops lexicographically
    and the rewriting terminates.
    """
    cached = cache.get(counts)
    if cached is not None:
        return cached
    k = max((i for i, c in enumerate(counts) if c >= 2), default=-1)
    if k < 0:
        mask = 0
        for i, c in enumerate(counts):
            if c:
                mask |= 1 << i
        result = {mask: 1}
    else:
        result = {}
        for j, a in ring._alpha_rows[k]:
            nxt = list(counts)
            nxt[k] -= 1
            nxt[j] += 1
            for mask, c in _reduce_oracle(ring, tuple(nxt), cache).items():
                v = result.get(mask, 0) - a * c
                if v:
                    result[mask] = v
                elif mask in result:
                    del result[mask]
    cache[counts] = result
    return result


def multiply_oracle(u, v, cache: Optional[dict] = None):
    """u * v as the sum of the oracle products of their monomials."""
    cache = {} if cache is None else cache
    out: dict[int, int] = {}
    for m1, c1 in u.terms():
        for m2, c2 in v.terms():
            for m, c in square_free_product_oracle(u.ring, m1, m2, cache).items():
                out[m] = out.get(m, 0) + c1 * c2 * c
    return coh.CohomologyClass(u.ring, out)


def chern_total_oracle(ring):
    """prod_k (1 + 2 x_k + alpha_k), multiplied with multiply_oracle."""
    cache: dict = {}
    total = ring.one()
    for k in range(ring.n):
        total = multiply_oracle(total, ring.one() + 2 * ring.x(k) + ring.alpha(k), cache)
    return total


def chern_1_oracle(ring):
    """sum_k (2 x_k + alpha_k), added up class by class."""
    c1 = ring.zero()
    for k in range(ring.n):
        c1 = c1 + 2 * ring.x(k) + ring.alpha(k)
    return c1


def pontrjagin_total_oracle(ring):
    """prod_k (1 + alpha_k^2), multiplied with multiply_oracle."""
    cache: dict = {}
    total = ring.one()
    for k in range(ring.n):
        a = ring.alpha(k)
        total = multiply_oracle(total, ring.one() + multiply_oracle(a, a, cache), cache)
    return total


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


def flip_solve_oracle(rows, flipped: Sequence[bool]) -> tuple[tuple[int, ...], ...]:
    """W_F for the flipped source stages F = {s : flipped[s]}, every row
    solved for this F alone.

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


def linear_extension_images_oracle(W) -> list[tuple[int, tuple[tuple[int, ...], ...]]]:
    """(code, image) for every stage order sigma that keeps W[sigma[l]][sigma[j]]
    lower triangular, found by trying all n! orders; code = sum_j sigma[j] n^j."""
    n = len(W)
    out = []
    for sigma in itertools.permutations(range(n)):
        image = tuple(tuple(W[sl][sj] for sl in sigma) for sj in sigma)
        if not any(image[j][l] for j in range(n) for l in range(j + 1, n)):
            out.append((sum(t * n ** j for j, t in enumerate(sigma)), image))
    return out


def fiber_inversion_oracle(A: BottMatrix, k: int) -> BottMatrix:
    """Closed form of inverting the fiber of stage k: row k negated, and
    each later row reduced by its column-k entry times row k."""
    pivot = A.rows[k]
    rows = [list(row) for row in A.rows]
    rows[k][:k] = [-e for e in pivot[:k]]
    for i in range(k + 1, A.n):
        rows[i][:k] = [e - A.rows[i][k] * p for e, p in zip(A.rows[i][:k], pivot)]
    return BottMatrix.from_rows(rows)


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


def orbit_edges_oracle(A: BottMatrix) -> OrbitReport:
    """The orbit report with every edge computed from its own source.

    Members are the distinct images of bott.core, sorted as BottMatrix
    objects; each member's fiber inversions and applicable transpositions
    are applied to it afresh, with no use of the moves being involutions.
    """
    reps = tuple(sorted(BottMatrix(rows) for rows in set(_orbit_images(A))))
    index = {B: i for i, B in enumerate(reps)}
    n = A.n
    edges = []
    for i, B in enumerate(reps):
        for k in range(n):
            edges.append(OrbitEdge(i, index[fiber_inversion(B, k)],
                                   EquivalenceMove("fiber_inversion", index=k)))
        for a in range(n):
            for b in range(a + 1, n):
                sigma = transposition(n, a, b)
                moved = permutation_conjugate(B, sigma)
                if moved is not None:
                    edges.append(OrbitEdge(i, index[moved], EquivalenceMove(
                        "permutation_conjugation", permutation=sigma)))
    return OrbitReport(reps, reps[0], tuple(edges))


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


# -- rational polynomial arithmetic -------------------------------------------

ZERO: Poly = ()
ONE: Poly = (Fraction(1),)


def padd(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return poly(out)


def pneg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def psub(p: Poly, q: Poly) -> Poly:
    return padd(p, pneg(q))


def pscale(p: Poly, c) -> Poly:
    c = Fraction(c)
    if c == 0:
        return ZERO
    return tuple(c * a for a in p)


def pmul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ZERO
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly(out)


def ppow(p: Poly, k: int) -> Poly:
    out = ONE
    for _ in range(k):
        out = pmul(out, p)
    return out


def pderiv(p: Poly) -> Poly:
    return poly(i * c for i, c in enumerate(p) if i)


def pinteg(p: Poly) -> Poly:
    """Antiderivative with zero constant term."""
    return poly([Fraction(0)] + [c / (i + 1) for i, c in enumerate(p)])


def definite_integral(p: Poly, a, b) -> Fraction:
    anti = pinteg(p)
    return peval(anti, b) - peval(anti, a)


# -- real roots over Fraction coefficients -----------------------------------

def pdivmod(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """Long division over the rationals: (quotient, remainder)."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    inv_lead = 1 / q[-1]
    while len(rem) >= len(q) and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(q):
            break
        shift = len(rem) - len(q)
        factor = rem[-1] * inv_lead
        quo[shift] = factor
        for i, c in enumerate(q):
            rem[shift + i] -= factor * c
        rem.pop()
    return poly(quo), poly(rem)


def pdiv_exact(p: Poly, q: Poly) -> Poly:
    quo, rem = pdivmod(p, q)
    if rem:
        raise ValueError("division is not exact")
    return quo


def pgcd_oracle(p: Poly, q: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm over the rationals."""
    while q:
        p, q = q, pdivmod(p, q)[1]
    if not p:
        return ()
    return pscale(p, 1 / p[-1])


def squarefree_part_oracle(p: Poly) -> Poly:
    if degree(p) < 1:
        return p
    g = pgcd_oracle(p, pderiv(p))
    if degree(g) < 1:
        return p
    return pdiv_exact(p, g)


def _sturm_chain_oracle(p: Poly) -> list[Poly]:
    chain = [p, pderiv(p)]
    while chain[-1]:
        rem = pdivmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(pneg(rem))
    return chain


def _variations_oracle(chain: Sequence[Poly], x) -> int:
    signs = []
    for q in chain:
        v = peval(q, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_open_oracle(p: Poly, a, b) -> int:
    a, b = Fraction(a), Fraction(b)
    if a >= b:
        return 0
    sf = squarefree_part_oracle(p)
    if degree(sf) == 0:
        return 0
    chain = _sturm_chain_oracle(sf)
    count = _variations_oracle(chain, a) - _variations_oracle(chain, b)
    if peval(sf, b) == 0:
        count -= 1
    return count


def isolate_roots_oracle(p: Poly, a, b) -> list[tuple[Fraction, Fraction]]:
    a, b = Fraction(a), Fraction(b)
    sf = squarefree_part_oracle(p)
    out = []

    def recurse(lo, hi, n_roots):
        if n_roots == 0:
            return
        if n_roots == 1 and peval(sf, lo) * peval(sf, hi) < 0:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        if peval(sf, mid) == 0:
            out.append((mid, mid))
        recurse(lo, mid, count_roots_open_oracle(sf, lo, mid))
        recurse(mid, hi, count_roots_open_oracle(sf, mid, hi))

    recurse(a, b, count_roots_open_oracle(sf, a, b))
    return sorted(out)


def refine_root_oracle(p: Poly, lo: Fraction, hi: Fraction, tol) -> Fraction:
    if lo == hi:
        return lo
    tol = Fraction(tol)
    sf = squarefree_part_oracle(p)
    flo = peval(sf, lo)
    if flo == 0:
        return lo
    if peval(sf, hi) == 0:
        return hi
    while hi - lo > tol:
        mid = (lo + hi) / 2
        fmid = peval(sf, mid)
        if fmid == 0:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    mid = (lo + hi) / 2
    for bound in (1, 10, 1000, 10 ** 6, 10 ** 12):
        snap = mid.limit_denominator(bound)
        if lo <= snap <= hi and peval(sf, snap) == 0:
            return snap
    return mid


def roots_in_interval_oracle(p: Poly, a, b, tol) -> list[Fraction]:
    return [refine_root_oracle(p, lo, hi, tol) for lo, hi in isolate_roots_oracle(p, a, b)]


# -- an integer Sturm chain (one primitive remainder sequence), an isolation
# independent of Descartes' rule of signs and fast enough at m = 16 -----------

def sturm_chain_int_oracle(p) -> list[IntPoly]:
    """Sturm chain of the squarefree part of p in integers; chain[0] is that part.

    The primitive remainder sequence of f = p scaled to coprime integers
    and f' ends in +-gcd(f, f'); every member divided by that gcd is a
    Sturm chain of f / gcd.
    """
    chain = [ipoly._primitive(p)]
    if len(chain[0]) > 1:
        chain.append(ipoly._content_free(ipoly._int_deriv(chain[0])))
        while rem := ipoly._prem(chain[-2], chain[-1]):
            chain.append(tuple(-c for c in rem))
        g = chain[-1]
        if len(g) > 1:
            g = g if g[-1] > 0 else tuple(-c for c in g)
            chain = [ipoly.exact_quotient(f, g) for f in chain]
    return chain


def _count_int_oracle(chain: Sequence[IntPoly], a: Fraction, b: Fraction) -> int:
    def variations(x):
        signs = [s for s in (ipoly._sign_at(f, x) for f in chain) if s]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return variations(a) - variations(b) - (ipoly._sign_at(chain[0], b) == 0)


def sturm_roots_int_oracle(p, a, b, tol) -> list[Fraction]:
    """roots_in_interval through the integer Sturm chain and its bisection tree."""
    chain = sturm_chain_int_oracle(p)
    sf, out = chain[0], []

    def recurse(lo, hi, n_roots):
        if n_roots == 0:
            return
        if n_roots == 1 and ipoly._sign_at(sf, lo) * ipoly._sign_at(sf, hi) < 0:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        if ipoly._sign_at(sf, mid) == 0:
            out.append((mid, mid))
        recurse(lo, mid, _count_int_oracle(chain, lo, mid))
        recurse(mid, hi, _count_int_oracle(chain, mid, hi))

    a, b = Fraction(a), Fraction(b)
    if a < b:
        recurse(a, b, _count_int_oracle(chain, a, b))
    return [ipoly.refine_root(sf, lo, hi, tol) for lo, hi in sorted(out)]


# -- the CSC obstruction from its integrals -------------------------------------

def csc_condition_raw_oracle(m: int, rp: Fraction, rm: Fraction) -> Fraction:
    """alpha0 beta1 - alpha1 beta0 from the integrals over [-1, 1] themselves.

    P = (1 + rp z)^m (1 + rm z)^m and Q the same with m - 1 are multiplied
    out and integrated, with no binomial expansion in rm; the arguments
    are not range-checked.
    """
    plus = poly([1, rp])
    minus = poly([1, rm])
    P = pmul(ppow(plus, m), ppow(minus, m))
    Pm1 = pmul(ppow(plus, m - 1), ppow(minus, m - 1))
    z = poly([0, 1])
    alpha0 = definite_integral(P, -1, 1)
    alpha1 = definite_integral(pmul(z, P), -1, 1)
    boundary_sum = peval(P, 1) + peval(P, -1)
    boundary_diff = peval(P, 1) - peval(P, -1)
    beta0 = boundary_sum + 2 * m * (rp - rm) * definite_integral(Pm1, -1, 1)
    beta1 = boundary_diff + 2 * m * (rp - rm) * definite_integral(pmul(z, Pm1), -1, 1)
    return alpha0 * beta1 - alpha1 * beta0


def csc_condition_polynomial_oracle(m: int, r_plus) -> Poly:
    """The obstruction through 2m + 3 pointwise evaluations in r_minus.

    Its degree is at most 2m, so Lagrange interpolation on r_minus = 0..2m+2
    recovers it exactly; two off-grid probes confirm that.
    """
    rp = Fraction(r_plus)
    points = [(Fraction(i), csc_condition_raw_oracle(m, rp, Fraction(i)))
              for i in range(2 * m + 3)]
    g = lagrange_interpolate(points)
    for probe in (Fraction(-3), Fraction(5, 2)):
        assert peval(g, probe) == csc_condition_raw_oracle(m, rp, probe)
    return g


def csc_family_solve_oracle(m: int, r_plus, tolerance) -> list[Fraction]:
    g = csc_condition_polynomial_oracle(m, r_plus)
    return roots_in_interval_oracle(g, Fraction(-1), Fraction(0), tolerance)


def csc_full_search_oracle(m: int, r_plus, tolerance) -> list[Fraction]:
    """The roots of the whole integer obstruction by one Descartes search.

    The balanced root -r_plus is isolated and bisected like the others, and
    at r_plus = 1/2 the crossing's double root sends the search through the
    squarefree remainder sequence; csc_family_solve lists -r_plus exactly
    and searches only the deflated obstruction.
    """
    g, _ = adm._csc_obstruction(m, r_plus)
    return ipoly.roots_in_interval(g, Fraction(-1), Fraction(0), Fraction(tolerance))


# -- the admissible layer over Fractions ---------------------------------------

def p_c_oracle(data) -> Poly:
    out = poly([1])
    for d, _, r in data.components:
        out = pmul(out, ppow(poly([1, r]), d))
    return out


def scalar_profile(profile, data, z) -> Fraction:
    """Scalar curvature of the profile at momentum z (exact).

    Raises ZeroDivisionError at a pole of the profile, a root of p_c.
    """
    z = Fraction(z)
    pc_val = peval(p_c_oracle(data), z)
    if pc_val == 0:
        raise ZeroDivisionError(f"profile has a pole at z = {z}")
    total = Fraction(0)
    for d, s, r in data.components:
        total += Fraction(2 * d) * s * r / (1 + r * z)
    return total - peval(pderiv(pderiv(profile.F)), z) / pc_val


def extremal_polynomial_oracle(data) -> tuple[Poly, Fraction, Fraction]:
    """(F, A1, A3) by the 4 x 4 endpoint solve over Fraction polynomials.

    The curvature source and p_c are multiplied out term by term,
    integrated twice with Fraction coefficients, and the endpoint system
    is solved by this module's own elimination.
    """
    pc = p_c_oracle(data)
    source = ()
    for d, s, r in data.components:
        source = padd(source, pscale(pdiv_exact(pc, poly([1, r])), 2 * d * s * r))
    g2 = pinteg(pinteg(source))
    p1 = pinteg(pinteg(pmul(poly([0, 1]), pc)))
    p0 = pinteg(pinteg(pc))
    g2d, p1d, p0d = pderiv(g2), pderiv(p1), pderiv(p0)
    one, zero = Fraction(1), Fraction(0)
    rows = [
        [-peval(p1, 1), -peval(p0, 1), one, one],
        [-peval(p1, -1), -peval(p0, -1), -one, one],
        [-peval(p1d, 1), -peval(p0d, 1), one, zero],
        [-peval(p1d, -1), -peval(p0d, -1), one, zero],
    ]
    rhs = [-peval(g2, 1), -peval(g2, -1),
           -peval(g2d, 1) - 2 * peval(pc, 1), -peval(g2d, -1) + 2 * peval(pc, -1)]
    solution = _solve([list(col) for col in zip(*rows)], rhs)
    if solution is None:
        raise SingularSystem("linear system is singular")
    a1, a3, c1, c0 = solution
    F = padd(psub(g2, padd(pscale(p1, a1), pscale(p0, a3))), poly([c0, c1]))
    return F, a1, a3


def is_positive_on_interval_oracle(F: Poly) -> bool:
    """(1 - z^2) divided out over Fractions; roots counted by the Fraction Sturm chain."""
    if not F:
        return False
    if peval(F, 1) != 0 or peval(F, -1) != 0:
        raise ValueError("polynomial must vanish at the endpoints")
    core = pneg(pdiv_exact(pdiv_exact(F, poly([1, 1])), poly([-1, 1])))
    return peval(core, 0) > 0 and count_roots_open_oracle(core, -1, 1) == 0


def cproj_transform_oracle(F: Poly, data, alpha, beta) -> tuple[Poly, tuple[Fraction, ...]]:
    """(image of F, new parameters) with Fraction powers of alpha - beta z and
    beta - alpha z; the arguments are not range-checked."""
    F, alpha, beta = poly(F), Fraction(alpha), Fraction(beta)
    d = data.dim
    denom = beta * beta - alpha * alpha
    for d_a, _, r in data.components:
        denom *= (beta - alpha * r) ** d_a
    out = ()
    for k, coeff in enumerate(F):
        term = pmul(ppow(poly([alpha, -beta]), k), ppow(poly([beta, -alpha]), d + 1 - k))
        out = padd(out, pscale(term, coeff if k % 2 == 0 else -coeff))
    return (pscale(out, 1 / denom),
            tuple((beta * r - alpha) / (beta - alpha * r) for _, _, r in data.components))


def csc_condition_expansion_oracle(m: int, rp: Fraction) -> Poly:
    """The binomial expansion of the obstruction in r_minus, over Fractions:
    the coefficient of rm^j in the integral of z^k P is C(m, j) sum_i C(m, i)
    rp^i 2/(i + j + k + 1) over the even i + j + k."""
    def moment(n: int, k: int) -> Poly:
        return poly(math.comb(n, j) * sum(math.comb(n, i) * rp ** i * Fraction(2, i + j + k + 1)
                                          for i in range(n + 1) if (i + j + k) % 2 == 0)
                    for j in range(n + 1))

    row = [math.comb(m, j) for j in range(m + 1)]
    at_plus = pscale(poly(row), (1 + rp) ** m)
    at_minus = pscale(poly((-1) ** j * c for j, c in enumerate(row)), (1 - rp) ** m)
    drift = poly([2 * m * rp, -2 * m])
    beta0 = padd(padd(at_plus, at_minus), pmul(drift, moment(m - 1, 0)))
    beta1 = padd(psub(at_plus, at_minus), pmul(drift, moment(m - 1, 1)))
    return psub(pmul(moment(m, 0), beta1), pmul(moment(m, 1), beta0))


# -- Poly2 over a dict of Fractions -----------------------------------------------

class FractionPoly2:
    """The bivariate ring over a dict (i, j) -> nonzero Fraction."""

    def __init__(self, coeffs):
        self.coeffs = {key: Fraction(c) for key, c in coeffs.items() if c}

    def __add__(self, other):
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return FractionPoly2(out)

    def __neg__(self):
        return FractionPoly2({key: -c for key, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, FractionPoly2):
            return FractionPoly2({key: c * other for key, c in self.coeffs.items()})
        out = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
        return FractionPoly2(out)

    def diff(self, which: int):
        out = {}
        for (i, j), c in self.coeffs.items():
            e = (i, j)[which]
            if e:
                key = (i - 1, j) if which == 0 else (i, j - 1)
                out[key] = out.get(key, 0) + e * c
        return FractionPoly2(out)

    def eval(self, x, y) -> Fraction:
        return sum((c * Fraction(x) ** i * Fraction(y) ** j
                    for (i, j), c in self.coeffs.items()), Fraction(0))


def poly2_value(p, x, y) -> Fraction:
    """A library Poly2 at (x, y): substitute z1 = x, then evaluate at y."""
    return peval(p.substitute_x(x), y)


# -- positivity by Fraction subdivision -----------------------------------------

def bounds_on_box_oracle(poly, x0, x1, y0, y1) -> tuple[Fraction, Fraction]:
    """Interval enclosure of the range of a Poly2 over [x0,x1] x [y0,y1].

    Requires 0 <= x0 and 0 <= y0 so monomial powers are monotone.
    """
    if x0 < 0 or y0 < 0:
        raise ValueError("box must sit in the nonnegative quadrant")
    lo = hi = Fraction(0)
    for (i, j), c in poly.coeffs.items():
        m_lo = x0 ** i * y0 ** j
        m_hi = x1 ** i * y1 ** j
        if c > 0:
            lo += c * m_lo
            hi += c * m_hi
        else:
            lo += c * m_hi
            hi += c * m_lo
    return lo, hi


def certify_sign_oracle(poly, depth: int) -> bool:
    """certify_sign_monomial_oracle with Fraction boxes and Fraction bounds:
    the same depth-first subdivision, and Inconclusive at the same box."""
    center = poly2_value(poly, Fraction(1, 2), Fraction(1, 2))
    if center <= 0:
        return False
    one = Fraction(1)
    boxes = [(Fraction(0), one, Fraction(0), one, 0)]
    while boxes:
        x0, x1, y0, y1, d = boxes.pop()
        lo, _ = bounds_on_box_oracle(poly, x0, x1, y0, y1)
        if lo > 0:
            continue
        mx, my = (x0 + x1) / 2, (y0 + y1) / 2
        if poly2_value(poly, mx, my) <= 0:
            return False
        if d >= depth:
            raise ak.Inconclusive("sign not certified within the refinement cap")
        boxes.extend([
            (x0, mx, y0, my, d + 1), (mx, x1, y0, my, d + 1),
            (x0, mx, my, y1, d + 1), (mx, x1, my, y1, d + 1),
        ])
    return True


def certify_sign_monomial_oracle(poly, depth: int) -> bool:
    """The sign test by integer monomial bounds, in the box order of
    almostkahler._certify_sign.

    With the coefficients scaled by their common denominator L to
    integers C and total degree D, the box (a, b, d) = [a, a+1] x
    [b, b+1] / 2^d has lower bound, times the positive L 2^(dD), sum
    C a^i b^j 2^(d(D-i-j)) with a + 1 and b + 1 in place of a and b
    where C < 0; the same homogenized sum at (2a+1, 2b+1, 2^(d+1)) is
    the sign of the value at the box centre.  It decides exactly as
    certify_sign_oracle does, box for box.
    """
    scale = math.lcm(*(c.denominator for c in poly.coeffs.values()))
    top = max((i + j for i, j in poly.coeffs), default=0)
    terms = [(c.numerator * (scale // c.denominator), i, j, top - i - j)
             for (i, j), c in poly.coeffs.items()]
    positive = [t for t in terms if t[0] > 0]
    negative = [t for t in terms if t[0] < 0]

    def homogeneous(part, x: int, y: int, w: int) -> int:
        return sum(c * x ** i * y ** j * w ** k for c, i, j, k in part)

    if homogeneous(terms, 1, 1, 2) <= 0:
        return False
    boxes = [(0, 0, 0)]
    while boxes:
        a, b, d = boxes.pop()
        w = 1 << d
        if homogeneous(positive, a, b, w) + homogeneous(negative, a + 1, b + 1, w) > 0:
            continue
        a, b = 2 * a, 2 * b
        if homogeneous(terms, a + 1, b + 1, 2 * w) <= 0:
            return False
        if d >= depth:
            raise ak.Inconclusive("sign not certified within the refinement cap")
        d += 1
        boxes.extend([(a, b, d), (a + 1, b, d), (a, b + 1, d), (a + 1, b + 1, d)])
    return True


# -- integrability on a sample grid ---------------------------------------------

def check_integrability_grid_oracle(data, sol, samples=None) -> bool:
    """The two integrability identities evaluated at rational sample points.

    The default samples are almostkahler.default_grid(), the 5 x 5 interior
    grid.  One failing point proves non-integrability; passing at every
    point is only evidence.  Raises ZeroDivisionError at a sample where
    det P or Q vanishes.
    """
    if samples is None:
        samples = ak.default_grid()
    p11, p12, p22 = ak.assemble_p(data, sol)
    q = data.q_poly()
    det_p = p11 * p22 - p12 * p12

    def side(num, var, z1, z2):
        # d(num / det)/d(var) at the point, as a Fraction
        d = poly2_value(det_p, z1, z2)
        return (poly2_value(num.diff(var), z1, z2) * d - poly2_value(num, z1, z2)
                * poly2_value(det_p.diff(var), z1, z2)) / (d * d)

    h11, h12, h22 = q * p22, -(q * p12), q * p11
    for z1, z2 in samples:
        z1, z2 = Fraction(z1), Fraction(z2)
        if poly2_value(det_p, z1, z2) == 0 or poly2_value(q, z1, z2) == 0:
            raise ZeroDivisionError(f"metric degenerates at ({z1}, {z2})")
        if side(h11, 1, z1, z2) != side(h12, 0, z1, z2):
            return False
        if side(h22, 0, z1, z2) != side(h12, 1, z1, z2):
            return False
    return True


# -- twist-one diffeomorphism by permutation scan -------------------------------

def twist1_diffeomorphic_scan_oracle(k: Sequence[int], k2: Sequence[int]) -> bool:
    """Try all N! permutations for one matching the entries mod 2 and every
    pairwise product up to sign."""
    n = len(k)
    for sigma in itertools.permutations(range(n)):
        img = [k2[sigma[i]] for i in range(n)]
        if any((img[i] - k[i]) % 2 for i in range(n)):
            continue
        if all(abs(img[i] * img[j]) == abs(k[i] * k[j])
               for i in range(n) for j in range(i + 1, n)):
            return True
    return False
