"""Integer cohomology rings of Bott towers and their characteristic classes.

H*(M_n, Z) is Z[x_1..x_n] modulo the relations x_k^2 = -alpha_k x_k with
alpha_k = sum_{j<k} A[k][j] x_j, so every class is an integer combination
of the 2^n square-free monomials.  Monomials are encoded as n-bit masks
(bit j set means x_{j+1} divides the monomial); coefficients are Python
ints, hence arbitrary precision.

Products use one rule: x_j times a square-free monomial m is m with bit j
set when x_j does not divide m, and -sum_{i<j} A[j][i] x_i m when it does.
The rule is applied in one triangular sweep, `CohomologyRing._times_xs`,
which forms sum_j x_j p_j from x_{n-1} down to x_0: a term that x_j
divides moves to the parts of lower generators, where it merges with the
terms already there before it is expanded again.  A product p q splits q
by the highest generator of each monomial, q = c + sum_j x_j q_j, and
sweeps once over the products p q_j; a linear q, such as a factor of the
total Chern class, costs a single sweep over p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

from .core import BottMatrix


def _bits(mask: int, base: int = 0) -> list[int]:
    """The indices of the set bits of mask, counted from base, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1 + base)
        mask ^= low
    return out


def _mask(indices: Iterable[int]) -> int:
    """The mask with the given 0-based bits set; _bits inverts it."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


class CohomologyClass:
    """Element of H*(M_n(A), Z) in the square-free monomial basis."""

    __slots__ = ("ring", "_coeffs")

    def __init__(self, ring: "CohomologyRing", coeffs: Mapping[int, int]):
        self.ring = ring
        self._coeffs = {m: int(c) for m, c in coeffs.items() if c}

    @property
    def n(self) -> int:
        return self.ring.n

    def coefficient(self, monomial: Iterable[int] | int) -> int:
        """Coefficient of a monomial given as a mask or 0-based index iterable."""
        if isinstance(monomial, int):
            return self._coeffs.get(monomial, 0)
        return self._coeffs.get(_mask(monomial), 0)

    def terms(self) -> list[tuple[int, int]]:
        """(mask, coefficient) pairs in increasing mask order."""
        return sorted(self._coeffs.items())

    def is_zero(self) -> bool:
        return not self._coeffs

    def graded_part(self, degree: int) -> "CohomologyClass":
        return CohomologyClass(self.ring, {m: c for m, c in self._coeffs.items()
                                           if bin(m).count("1") == degree})

    def reduce_mod2(self) -> "Mod2Class":
        return Mod2Class(self.n, frozenset(m for m, c in self._coeffs.items() if c % 2))

    def all_even(self) -> bool:
        return all(c % 2 == 0 for c in self._coeffs.values())

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.ring.scalar(other)
        if not isinstance(other, CohomologyClass):
            return NotImplemented
        return self.ring.A == other.ring.A and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self.ring.A, tuple(sorted(self._coeffs.items()))))

    def __add__(self, other) -> "CohomologyClass":
        other = self.ring.coerce(other)
        out = dict(self._coeffs)
        for m, c in other._coeffs.items():
            out[m] = out.get(m, 0) + c
        return CohomologyClass(self.ring, out)

    def __sub__(self, other) -> "CohomologyClass":
        return self + (-self.ring.coerce(other))

    def __neg__(self) -> "CohomologyClass":
        return CohomologyClass(self.ring, {m: -c for m, c in self._coeffs.items()})

    def __rmul__(self, other):
        if isinstance(other, int):
            return CohomologyClass(self.ring, {m: other * c for m, c in self._coeffs.items()})
        return NotImplemented

    def __mul__(self, other) -> "CohomologyClass":
        if isinstance(other, int):
            return other * self
        other = self.ring.coerce(other)
        if other.ring.A != self.ring.A:
            raise ValueError("classes live in different rings")
        return CohomologyClass(self.ring, self.ring._product(self._coeffs, other._coeffs))

    def __pow__(self, k: int) -> "CohomologyClass":
        result = self.ring.one()
        for _ in range(k):
            result = result * self
        return result

    def __repr__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for m, c in self.terms():
            mono = "".join(f"x{i}" for i in _bits(m, 1)) or "1"
            parts.append(f"{c}*{mono}" if mono != "1" else f"{c}")
        return " + ".join(parts)

    def to_json(self) -> dict:
        """Terms by mask; a monomial list extends its prefix's (mask less top bit) if a term."""
        lists: dict[int, list[int]] = {}
        terms = []
        for m, c in self.terms():
            top = m.bit_length()
            prefix = lists.get(m ^ 1 << top - 1) if m else None
            lists[m] = mono = _bits(m, 1) if prefix is None else prefix + [top]
            terms.append({"monomial": mono, "coeff": str(c)})
        return {"n": self.n, "terms": terms}


@dataclass(frozen=True)
class Mod2Class:
    """Mod-2 reduction of a class: the set of monomials with odd coefficient."""

    n: int
    masks: frozenset[int]

    def is_zero(self) -> bool:
        return not self.masks

    def monomials(self) -> list[tuple[int, ...]]:
        return sorted(tuple(_bits(m)) for m in self.masks)


class CohomologyRing:
    """H*(M_n(A), Z) with exact arithmetic in the square-free basis."""

    def __init__(self, A: BottMatrix):
        self.A = A
        self.n = A.n
        # alpha_k as (index, entry) pairs from row k
        self._alpha_rows = tuple(tuple((j, A.rows[k][j]) for j in range(k) if A.rows[k][j])
                                 for k in range(self.n))

    # -- element constructors ------------------------------------------------

    def zero(self) -> CohomologyClass:
        return CohomologyClass(self, {})

    def one(self) -> CohomologyClass:
        return CohomologyClass(self, {0: 1})

    def scalar(self, c: int) -> CohomologyClass:
        return CohomologyClass(self, {0: c})

    def coerce(self, value) -> CohomologyClass:
        if isinstance(value, CohomologyClass):
            return value
        if isinstance(value, int):
            return self.scalar(value)
        raise TypeError(f"cannot coerce {value!r} into the cohomology ring")

    def x(self, k: int) -> CohomologyClass:
        """Generator dual to the infinity section of stage k (0-based)."""
        if not 0 <= k < self.n:
            raise ValueError("stage index out of range")
        return CohomologyClass(self, {1 << k: 1})

    def alpha(self, k: int) -> CohomologyClass:
        """Pullback first Chern class of the stage-k twisting bundle."""
        if not 0 <= k < self.n:
            raise ValueError("stage index out of range")
        return CohomologyClass(self, {1 << j: a for j, a in self._alpha_rows[k]})

    def y(self, k: int) -> CohomologyClass:
        """Class dual to the zero section: y_k = x_k + alpha_k."""
        if not 0 <= k < self.n:
            raise ValueError("stage index out of range")
        return CohomologyClass(self, {1 << k: 1, **{1 << j: a for j, a in self._alpha_rows[k]}})

    def monomial(self, indices: Iterable[int]) -> CohomologyClass:
        return CohomologyClass(self, {_mask(indices): 1})

    # -- multiplication ------------------------------------------------------

    def _product(self, p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
        """p * q on coefficient dicts, splitting q by the highest generator.

        q = c + sum_j x_j q_j, where q_j holds the monomials of q whose
        highest generator is x_j, with x_j removed; so q_j uses only
        generators below x_j, and p q = c p + sum_j x_j (p q_j).  A constant
        q_j reaches the sweep as its scalar, standing for q_j p, so a linear
        q is exactly one sweep over p.
        """
        split: dict[int, dict[int, int]] = {}
        for m, c in q.items():
            if m:
                top = m.bit_length() - 1
                qj = split.get(top)
                if qj is None:
                    split[top] = qj = {}
                qj[m ^ 1 << top] = c
        out = self._times_xs({j: qj[0] if len(qj) == 1 and 0 in qj else self._product(p, qj)
                              for j, qj in split.items()}, p) if split else {}
        c = q.get(0)
        if c:
            for m, d in p.items():
                out[m] = out.get(m, 0) + c * d
        return out

    def _times_xs(self, parts: dict, p: dict[int, int]) -> dict[int, int]:
        """sum_j x_j parts[j] in one sweep; an int part s stands for s * p.

        Generators are swept from the highest j in parts down to x_0.  A
        term m of part j that x_j does not divide goes out as m with bit j
        set; one that it divides becomes -sum_{i<j} A[j][i] x_i m, so it
        joins part i, which is swept later.  Terms that meet at the same
        (i, m) merge before they are expanded again.  Dict parts are
        consumed.
        """
        out: dict[int, int] = {}
        top = max(parts)
        pending: list[dict[int, int]] = [{} for _ in range(top + 1)]
        for j, part in parts.items():
            if isinstance(part, dict):
                pending[j] = part
        for j in range(top, -1, -1):
            terms, s = pending[j], parts.get(j)
            lazy = isinstance(s, int)
            if not (lazy or terms):
                continue
            bit, row = 1 << j, self._alpha_rows[j]
            # the expansion is written out in both loops: chaining the two
            # iterators made the sweep 10-25% slower
            if lazy:
                # s * p, with the pushed terms of part j merged in as met
                for m, c in p.items():
                    c = s * c + terms.pop(m, 0) if terms else s * c
                    if not c:
                        continue
                    if m & bit:
                        for i, a in row:
                            below = pending[i]
                            below[m] = below.get(m, 0) - a * c
                    else:
                        m |= bit
                        out[m] = out.get(m, 0) + c
            for m, c in terms.items():
                if not c:
                    continue
                if m & bit:
                    for i, a in row:
                        below = pending[i]
                        below[m] = below.get(m, 0) - a * c
                else:
                    m |= bit
                    out[m] = out.get(m, 0) + c
        return out

    # -- characteristic classes ----------------------------------------------

    def chern_total(self) -> CohomologyClass:
        total = self.one()
        for k, row in enumerate(self._alpha_rows):   # factors 1 + 2 x_k + alpha_k
            total = total * CohomologyClass(self, {0: 1, 1 << k: 2, **{1 << j: a for j, a in row}})
        return total

    def chern_1(self) -> CohomologyClass:
        """c_1 = sum_j (2 + sum_{k>j} A[k][j]) x_j, read off the columns of A."""
        rows = self.A.rows
        return CohomologyClass(self, {1 << j: 2 + sum(row[j] for row in rows[j + 1:])
                                      for j in range(self.n)})

    def pontrjagin_total(self) -> CohomologyClass:
        total = self.one()
        for k in range(self.n):
            a = self.alpha(k)
            if not a.is_zero():   # alpha(0) = 0, and sparse towers have more zero rows
                total = total + (total * a) * a
        return total

    def pontrjagin_class(self, k: int) -> CohomologyClass:
        """Degree-4k component p_k of the total Pontrjagin class."""
        return self.pontrjagin_total().graded_part(2 * k)

    def stiefel_whitney_2(self) -> Mod2Class:
        return self.chern_1().reduce_mod2()

    def is_q_trivial(self) -> bool:
        """Rational cohomology is that of a product of projective lines."""
        return all((a * a).is_zero() for a in map(self.alpha, range(self.n)))

    def square_zero_primitives(self) -> list[CohomologyClass]:
        """Primitive square-zero generators, one per stage with alpha_k^2 = 0.

        Up to sign these are x_k + alpha_k/2 when alpha_k is even and
        2 x_k + alpha_k otherwise.
        """
        out = []
        for k in range(self.n):
            a = self.alpha(k)
            if not (a * a).is_zero():
                continue
            if a.all_even():
                half = CohomologyClass(self, {m: c // 2 for m, c in a.terms()})
                out.append(self.x(k) + half)
            else:
                out.append(2 * self.x(k) + a)
        return out

    def topological_twist(self) -> int:
        """Stages whose CP^1 bundle is topologically nontrivial.

        Stage k is topologically trivial iff alpha_k is even and
        alpha_k^2 = 0.
        """
        count = 0
        for k in range(self.n):
            a = self.alpha(k)
            if not (a.all_even() and (a * a).is_zero()):
                count += 1
        return count


@lru_cache(maxsize=16)
def ring(A: BottMatrix) -> CohomologyRing:
    """The ring of A, shared by consecutive calls on the same tower.

    The repeat traffic is a few calls on one tower in a row: the
    `cohomology` and `classes c|p|w2` commands, or `topological_twist`.
    A ring holds only its tower and the rows of its alpha classes, and no
    products, so a cached ring saves its construction (a few microseconds
    at stage 3) and pins almost no memory; the cache holds the few recent
    towers that this traffic revisits.
    """
    return CohomologyRing(A)


def topological_twist(A: BottMatrix) -> int:
    return ring(A).topological_twist()
