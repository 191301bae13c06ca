"""Diffeomorphism classification of stage-3 towers and twist-one towers.

A stage-3 Bott manifold is determined up to diffeomorphism by the
multiple p of the primitive class x1 x2 appearing in its first
Pontrjagin class together with parity data from the second
Stiefel-Whitney class.  Rationally trivial towers (p = 0) fall into
exactly three types; the rest are classified by |p| and parities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

W2_TYPES = {(0, 0): "zero", (1, 0): "x1", (0, 1): "x2", (1, 1): "x1+x2"}


@dataclass(frozen=True)
class Stage3Invariants:
    a: int
    b: int
    c: int
    p: int                      # coefficient of x1 x2 in p_1, up to sign
    w2: str                     # "zero", "x1", "x2" or "x1+x2"
    q_trivial: bool
    q_trivial_type: Optional[str]   # "product3", "m1xm2" or "m3"

    def diffeo_key(self) -> tuple:
        """Canonical key: two towers are diffeomorphic iff keys agree."""
        if self.q_trivial:
            return ("qt", self.q_trivial_type)
        a, b, c = self.a, self.b, self.c
        if a % 2 == 0:
            return (abs(self.p), 0, (1 + b) * (1 + c) % 2)
        if c % 2 == 0:
            return (abs(self.p), 1, b % 2)
        return (abs(self.p), 1, None)

    def to_json(self) -> dict:
        return {
            "a": self.a, "b": self.b, "c": self.c,
            "p": self.p, "w2": self.w2,
            "q_trivial": self.q_trivial,
            "q_trivial_type": self.q_trivial_type,
            "diffeo_key": "|".join(str(part) for part in self.diffeo_key()),
        }


def stage3_invariants(a: int, b: int, c: int) -> Stage3Invariants:
    p = c * (2 * b - a * c)
    w2 = W2_TYPES[((a + b) % 2, c % 2)]
    q_trivial = p == 0
    q_type = None
    if q_trivial:
        if a % 2 == 0 and b % 2 == 0 and c % 2 == 0:
            q_type = "product3"
        elif a % 2 == 1 and b % 2 == 1 and c % 2 == 0:
            q_type = "m3"
        else:
            q_type = "m1xm2"
    return Stage3Invariants(a, b, c, p, w2, q_trivial, q_type)


def stage3_diffeomorphic(t1: Sequence[int], t2: Sequence[int]) -> bool:
    """Decide diffeomorphism of M_3(a,b,c) and M_3(a',b',c') by their keys."""
    return stage3_invariants(*t1).diffeo_key() == stage3_invariants(*t2).diffeo_key()


def twist1_diffeomorphic(k: Sequence[int], k2: Sequence[int]) -> bool:
    """Diffeomorphism of the twist-one towers over (CP^1)^N.

    Holds iff some permutation matches the entries mod 2 and all the
    pairwise products up to sign.  Such a permutation exists iff:

    - with three or more nonzero entries on either side, the multisets of
      |k_i| agree (the products |k_i k_j|, |k_i k_l|, |k_j k_l| of three
      nonzero entries fix |k_i|, and zeros must go to zeros);
    - else, with two nonzero entries on either side, both sides have two,
      their products agree up to sign and the multisets of k_i mod 2 agree;
    - else every product vanishes and the multisets of k_i mod 2 agree.
    """
    if len(k) != len(k2):
        raise ValueError("vectors must have equal length")
    nz, nz2 = [x for x in k if x], [x for x in k2 if x]
    if max(len(nz), len(nz2)) >= 3:
        return sorted(map(abs, k)) == sorted(map(abs, k2))
    if max(len(nz), len(nz2)) == 2:
        if len(nz) != len(nz2) or abs(nz[0] * nz[1]) != abs(nz2[0] * nz2[1]):
            return False
    return sorted(x % 2 for x in k) == sorted(x % 2 for x in k2)


def _sign_class_count(k: Sequence[int]) -> int:
    """Inequivalent sign patterns of k modulo permutations and a global flip."""
    classes = set()
    for signs in itertools.product((1, -1), repeat=len(k)):
        v = tuple(sorted(s * x for s, x in zip(signs, k)))
        w = tuple(sorted(-x for x in v))
        classes.add(min(v, w))
    return len(classes)


def twist1_class_count(k: Sequence[int]) -> int:
    """Number of inequivalent towers diffeomorphic to the twist-one tower of k.

    Requires N > 2 and all entries nonzero.  Generic vectors (distinct
    absolute values) give 2^(N-1); otherwise the sign orbits are counted
    directly.
    """
    n = len(k)
    if n <= 2:
        raise ValueError("need at least three base factors")
    if any(x == 0 for x in k):
        raise ValueError("entries must be nonzero")
    if len({abs(x) for x in k}) == n:
        return 2 ** (n - 1)
    return _sign_class_count(k)
