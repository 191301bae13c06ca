"""Compatibility of Bott complex structures with split symplectic forms.

A split form on (S^2)^3 with weights k1 >= k2 >= k3 > 0 is Kahler for
the tower M_3(2a,2b,2c) exactly when either c = 0 and
k1 - |a| k2 - |b| k3 > 0, or c != 0, b = ac and both k2 - |c| k3 and
k1 - |a| (k2 - |c| k3) are positive.  Counting the admissible (a,b,c)
in the sign-normalized fundamental domain gives ceiling-function sums.
All arithmetic is exact over the rationals; the parameters passed to
the stage-3 routines are the halved twisting degrees.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from . import cohomology
from .core import BottMatrix, StageTooLarge, equivalence_orbit

# Refusal bounds, sized so that every accepted count or enumeration answers
# in about 1 s on a 2-core x86 host.
MAX_CEILING_TERMS = 50_000     # ceil(k1/k3): the terms of the N_B0 sum
MAX_REPRESENTATIVES = 50_000   # N_B: the towers an enumeration lists


def _check_ordered(*ks: Fraction) -> None:
    if any(k <= 0 for k in ks):
        raise ValueError("weights must be positive")
    if any(ks[i] < ks[i + 1] for i in range(len(ks) - 1)):
        raise ValueError("weights must be weakly decreasing")


def hirzebruch_compat_count(k1, k2) -> int:
    """Number of compatible complex structures on (S^2 x S^2, k1 w1 + k2 w2)."""
    k1, k2 = Fraction(k1), Fraction(k2)
    _check_ordered(k1, k2)
    return math.ceil(k1 / k2)


def stage3_compatible(a: int, b: int, c: int, k1, k2, k3) -> bool:
    """Whether the split form with weights k is Kahler for M_3(2a, 2b, 2c).

    The arguments a, b, c are the halved twisting degrees of the tower.
    False whenever c (b - a c) != 0: such towers are not diffeomorphic
    to the product of spheres.
    """
    k1, k2, k3 = map(Fraction, (k1, k2, k3))
    _check_ordered(k1, k2, k3)
    if c == 0:
        return k1 - abs(a) * k2 - abs(b) * k3 > 0
    if b != a * c:
        return False
    inner = k2 - abs(c) * k3
    return inner > 0 and k1 - abs(a) * inner > 0


def stage3_compatible_class(a: int, b: int, c: int, k1, k2, k3) -> bool:
    """Orbit-level compatibility: some equivalent presentation passes.

    The pointwise criterion is tied to the labelling of the stages, so
    it is not constant on equivalence orbits; the biholomorphism class
    is compatible iff one of its presentations is.
    """
    orbit = equivalence_orbit(BottMatrix.stage3(2 * a, 2 * b, 2 * c))
    for member in orbit.representatives:
        aa, bb, cc = member.stage3_params()
        if stage3_compatible(aa // 2, bb // 2, cc // 2, k1, k2, k3):
            return True
    return False


def count_compatible(k1, k2, k3) -> tuple[int, int, int]:
    """Counts (N_B0, N_Bne0, N_B) of compatible towers with c = 0 / c != 0.

    N_B0 sums ceil((k1 - j k3)/k2) over 0 <= j <= b_max and N_Bne0 sums
    ceil(k1/(k2 - j k3)) over 1 <= j <= c_max, where b_max and c_max are
    the largest j keeping the respective bracket positive.  Past
    MAX_CEILING_TERMS terms it raises StageTooLarge.
    """
    k1, k2, k3 = map(Fraction, (k1, k2, k3))
    _check_ordered(k1, k2, k3)
    terms = math.ceil(k1 / k3)
    if terms > MAX_CEILING_TERMS:
        raise StageTooLarge(f"ceil(k1/k3) = {terms} exceeds bound {MAX_CEILING_TERMS}")
    b_max = terms - 1
    c_max = math.ceil(k2 / k3) - 1
    n_b0 = sum(math.ceil((k1 - j * k3) / k2) for j in range(b_max + 1))
    n_bne0 = sum(math.ceil(k1 / (k2 - j * k3)) for j in range(1, c_max + 1))
    return n_b0, n_bne0, n_b0 + n_bne0


def enumerate_compatible(k1, k2, k3) -> list[tuple[int, int, int]]:
    """Sign-normalized compatible towers (a, b, c), halved parameters.

    The c = 0 representatives take a, b >= 0; the c != 0 ones take
    a >= 0, c > 0 and b = a c.  Their number matches count_compatible,
    which is taken first: past MAX_REPRESENTATIVES it raises StageTooLarge.
    """
    k1, k2, k3 = map(Fraction, (k1, k2, k3))
    n_b = count_compatible(k1, k2, k3)[2]
    if n_b > MAX_REPRESENTATIVES:
        raise StageTooLarge(f"N_B = {n_b} exceeds bound {MAX_REPRESENTATIVES}")
    out = []
    b = 0
    while k1 - b * k3 > 0:
        a = 0
        while k1 - a * k2 - b * k3 > 0:
            out.append((a, b, 0))
            a += 1
        b += 1
    c = 1
    while k2 - c * k3 > 0:
        inner = k2 - c * k3
        a = 0
        while k1 - a * inner > 0:
            out.append((a, a * c, c))
            a += 1
        c += 1
    return sorted(out, key=lambda t: (t[2], t[0], t[1]))


def growth_bounds_hold(k1: int, k2: int) -> bool:
    """Exact check of the count growth estimates at k3 = 1.

    With H_m the m-th harmonic number, N_B0 lies between
    k1(k1-1)/(2 k2) and that plus (k1-1)(k2+1)/k2, and N_Bne0 (for
    k2 >= 2) lies between k1 H_{k2-1} and (k1+1) H_{k2-1} + k2 - 1.
    """
    n_b0, n_bne0, _ = count_compatible(k1, k2, 1)
    low = Fraction(k1 * (k1 - 1), 2 * k2)
    high = low + Fraction((k1 - 1) * (k2 + 1), k2)
    if not low <= n_b0 <= high:
        return False
    if k2 >= 2:
        harmonic = sum(Fraction(1, m) for m in range(1, k2))
        if not k1 * harmonic <= n_bne0 <= (k1 + 1) * harmonic + (k2 - 1):
            return False
    return True


def product_class_is_kahler(A: BottMatrix, k: Sequence) -> bool:
    """Kahler-ness of a split class on a tower diffeomorphic to (S^2)^n.

    Requires all below-diagonal entries even and nonpositive.  With
    m[i][j] = -A[i][j]/2 the class sum k_i (delta - m)_i is Kahler iff
    each coefficient k_j - sum_{i>j} k_i m[i][j] is positive, and the
    diffeomorphism to the product of spheres forces alpha_j^2 = 0.
    """
    n = A.n
    ks = [Fraction(v) for v in k]
    if len(ks) != n:
        raise ValueError("need one weight per stage")
    if any(v <= 0 for v in ks):
        raise ValueError("weights must be positive")
    for i in range(n):
        for j in range(i):
            e = A.rows[i][j]
            if e > 0 or e % 2:
                raise ValueError("tower must have even nonpositive twisting")
    ring = cohomology.ring(A)
    for j in range(n):
        a = ring.alpha(j)
        if not (a * a).is_zero():
            return False
        coeff = ks[j] - sum(ks[i] * Fraction(-A.rows[i][j], 2) for i in range(j + 1, n))
        if coeff <= 0:
            return False
    return True


def twist1_compatible(k: Sequence[int], r: Sequence) -> bool:
    """Compatibility of a sign-flipped twist-one tower with a fixed split form.

    k lists the twisting degrees with the negative ones first; r gives
    the positive class coefficients, one per stage (len(k) + 1 values).
    The flipped stages impose r_i > -k_i r_{N+1}; the rest only need
    positivity.
    """
    rs = [Fraction(v) for v in r]
    if len(rs) != len(k) + 1:
        raise ValueError("need len(k) + 1 coefficients")
    if any(v <= 0 for v in rs):
        raise ValueError("coefficients must be positive")
    seen_nonneg = False
    for ki in k:
        if ki >= 0:
            seen_nonneg = True
        elif seen_nonneg:
            raise ValueError("negative entries must come first")
    top = rs[-1]
    return all(rs[i] > -ki * top for i, ki in enumerate(k) if ki < 0)
