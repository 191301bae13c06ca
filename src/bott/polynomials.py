"""Exact polynomial arithmetic over the rationals.

Univariate polynomials are tuples of Fractions, constant term first,
normalized so the leading coefficient is nonzero (the zero polynomial is
the empty tuple).

Real roots are found on integer polynomials.  roots_in_interval scales p
by a positive rational to coprime integer coefficients, takes its
squarefree part (a primitive remainder sequence for gcd(p, p')) and builds
one Sturm chain of that part; the isolation, its root counts and the
sign bisection in refine_root all read that one chain.  The chain uses
pseudo-remainders that multiply by |leading coefficient| instead of
dividing, then divide by their content: each member is a positive
multiple of the classical Sturm polynomial, so sign variations are
unchanged and the coefficients do not grow along the chain.  The sign of
an integer polynomial at x = p/q (q > 0) is the sign of the homogenized
sum of c_i p^i q^(d - i), so no Fraction arithmetic happens per
evaluation.  Multiple roots are reported once; exact rational roots come
back exactly, others within the requested tolerance.

solve_linear is the package's one exact linear solver: Gauss-Jordan
elimination over Fractions for the small square systems of the
admissible and square-fiber solvers.

Poly2 is a thin bivariate companion (dict of (i, j) -> Fraction) with
just the operations the square-fiber solver needs: ring arithmetic,
partial derivatives, substitution and interval bounds over a box with
nonnegative corners.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

Poly = tuple[Fraction, ...]


def poly(coeffs: Iterable) -> Poly:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


ZERO: Poly = ()
ONE: Poly = (Fraction(1),)
Z: Poly = (Fraction(0), Fraction(1))


def degree(p: Poly) -> int:
    return len(p) - 1


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


def pdivmod(p: Poly, q: Poly) -> tuple[Poly, Poly]:
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


def peval(p: Poly, x) -> Fraction:
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def pderiv(p: Poly) -> Poly:
    return poly(i * c for i, c in enumerate(p) if i)


def pinteg(p: Poly) -> Poly:
    """Antiderivative with zero constant term."""
    return poly([Fraction(0)] + [c / (i + 1) for i, c in enumerate(p)])


def definite_integral(p: Poly, a, b) -> Fraction:
    anti = pinteg(p)
    return peval(anti, b) - peval(anti, a)


# -- real roots on integer polynomials (constant term first; see the module
# docstring for why positive rescaling is free) --------------------------

IntPoly = tuple[int, ...]


def _content_free(ints: Sequence[int]) -> IntPoly:
    """ints, not all zero, divided by their positive gcd."""
    content = gcd(*ints)
    return tuple(c // content for c in ints)


def _primitive(p: Sequence) -> IntPoly:
    """p times a positive rational: coprime integers, same signs and roots."""
    p = poly(p)
    if not p:
        return ()
    den = lcm(*(c.denominator for c in p))
    return _content_free([c.numerator * (den // c.denominator) for c in p])


def _int_deriv(f: IntPoly) -> IntPoly:
    return tuple(i * c for i, c in enumerate(f) if i)


def _prem(a: IntPoly, b: IntPoly) -> IntPoly:
    """A positive multiple of the remainder of a by b, divided by its content.

    Each division step multiplies by |lc(b)| > 0 instead of dividing by
    lc(b), so the result has the sign pattern of the true remainder.
    """
    rem = list(a)
    deg_b = len(b) - 1
    scale = abs(b[-1])
    sign = 1 if b[-1] > 0 else -1
    while len(rem) > deg_b:
        factor = sign * rem.pop()
        shift = len(rem) - deg_b
        if scale != 1:
            rem = [scale * c for c in rem]
        for i in range(deg_b):
            rem[shift + i] -= factor * b[i]
        while rem and rem[-1] == 0:
            rem.pop()
    return _content_free(rem) if rem else ()


def _int_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd up to sign, by the primitive remainder sequence."""
    while b:
        a, b = b, _prem(a, b)
    return _content_free(a) if a else ()


def _exact_quotient(a: IntPoly, b: IntPoly) -> IntPoly:
    rem = list(a)
    deg_b = len(b) - 1
    quo = [0] * (len(a) - deg_b)
    for k in reversed(range(len(quo))):
        c, r = divmod(rem[k + deg_b], b[-1])
        if r:
            raise ArithmeticError("integer division is not exact")
        quo[k] = c
        for i, bi in enumerate(b):
            rem[k + i] -= c * bi
    if any(rem):
        raise ArithmeticError("integer division is not exact")
    return tuple(quo)


def _squarefree(f: IntPoly) -> IntPoly:
    """Squarefree part of a primitive f, primitive and with f's leading sign."""
    if len(f) < 3:
        return f
    g = _int_gcd(f, _int_deriv(f))
    if len(g) == 1:
        return f
    return _exact_quotient(f, g if g[-1] > 0 else tuple(-c for c in g))


def _sturm_chain(p: Poly) -> list[IntPoly]:
    """Sturm chain of the squarefree part of p; chain[0] is that part.

    Each member is a positive multiple of the classical Sturm polynomial.
    """
    chain = [_squarefree(_primitive(p))]
    if len(chain[0]) > 1:
        chain.append(_content_free(_int_deriv(chain[0])))
        while True:
            rem = _prem(chain[-2], chain[-1])
            if not rem:
                break
            chain.append(tuple(-c for c in rem))
    return chain


def _sign_at(f: IntPoly, x: Fraction) -> int:
    """Sign of f(p/q) from the homogenized sum of c_i p^i q^(d - i), q > 0."""
    num, den = x.numerator, x.denominator
    acc = 0
    power = 1
    for c in reversed(f):
        acc = acc * num + c * power
        power *= den
    return (acc > 0) - (acc < 0)


def _variations(chain: Sequence[IntPoly], x: Fraction) -> int:
    count = 0
    last = 0
    for f in chain:
        s = _sign_at(f, x)
        if s:
            if last and s != last:
                count += 1
            last = s
    return count


def _count(chain: Sequence[IntPoly], a: Fraction, b: Fraction) -> int:
    """Distinct roots in the open interval (a, b), for a < b."""
    count = _variations(chain, a) - _variations(chain, b)
    if _sign_at(chain[0], b) == 0:
        count -= 1
    return count


def _isolate(chain: Sequence[IntPoly], a: Fraction, b: Fraction) -> list[tuple[Fraction, Fraction]]:
    sf = chain[0]
    out: list[tuple[Fraction, Fraction]] = []

    def recurse(lo: Fraction, hi: Fraction, n_roots: int) -> None:
        if n_roots == 0:
            return
        if n_roots == 1 and _sign_at(sf, lo) * _sign_at(sf, hi) < 0:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        if _sign_at(sf, mid) == 0:
            out.append((mid, mid))
        left = _count(chain, lo, mid)
        right = _count(chain, mid, hi)
        recurse(lo, mid, left)
        recurse(mid, hi, right)

    if a < b:
        recurse(a, b, _count(chain, a, b))
    return sorted(out)


def pgcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor."""
    g = _int_gcd(_primitive(p), _primitive(q))
    if not g:
        return ZERO
    return pscale(g, Fraction(1, g[-1]))


def squarefree_part(p: Poly) -> Poly:
    """p divided by the monic gcd of p and p'."""
    if degree(p) < 1:
        return p
    sf = _squarefree(_primitive(p))
    return pscale(sf, p[-1] / sf[-1])


def count_roots_open(p: Poly, a, b) -> int:
    """Distinct real roots of p in the open interval (a, b)."""
    if not p:
        raise ValueError("zero polynomial has no root count")
    a, b = Fraction(a), Fraction(b)
    if a >= b:
        return 0
    return _count(_sturm_chain(p), a, b)


def isolate_roots(p: Poly, a, b) -> list[tuple[Fraction, Fraction]]:
    """Disjoint intervals inside (a, b), each holding one distinct root.

    Exact roots are returned as degenerate intervals.
    """
    if not p:
        raise ValueError("cannot isolate roots of the zero polynomial")
    return _isolate(_sturm_chain(p), Fraction(a), Fraction(b))


def refine_root(p: Poly, lo, hi, tol, chain: Sequence[IntPoly] | None = None) -> Fraction:
    """Bisect a sign-changing bracket down to width tol; exact roots pass through.

    Signs come from the squarefree part, chain[0] of p's Sturm chain when
    the caller has built it.  After bisection the simplest rational in
    the bracket is probed, so roots with small denominators come back
    exactly.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if lo == hi:
        return lo
    tol = Fraction(tol)
    sf = chain[0] if chain is not None else _squarefree(_primitive(p))
    slo = _sign_at(sf, lo)
    if slo == 0:
        return lo
    if _sign_at(sf, hi) == 0:
        return hi
    while hi - lo > tol:
        mid = (lo + hi) / 2
        smid = _sign_at(sf, mid)
        if smid == 0:
            return mid
        if smid == slo:
            lo = mid
        else:
            hi = mid
    mid = (lo + hi) / 2
    for bound in (1, 10, 1000, 10 ** 6, 10 ** 12):
        snap = mid.limit_denominator(bound)
        if lo <= snap <= hi and _sign_at(sf, snap) == 0:
            return snap
    return mid


def roots_in_interval(p: Poly, a, b, tol) -> list[Fraction]:
    """All distinct roots of p in (a, b), each within tol of the true root.

    One squarefree part and one Sturm chain serve the isolation and every
    refinement.
    """
    if not p:
        raise ValueError("cannot isolate roots of the zero polynomial")
    chain = _sturm_chain(p)
    return [refine_root(p, lo, hi, tol, chain=chain)
            for lo, hi in _isolate(chain, Fraction(a), Fraction(b))]


def lagrange_interpolate(points: Sequence[tuple[Fraction, Fraction]]) -> Poly:
    """Unique polynomial of degree < len(points) through the given points."""
    result = ZERO
    xs = [Fraction(x) for x, _ in points]
    for i, (_, yi) in enumerate(points):
        term = (Fraction(yi),)
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j != i:
                term = pmul(term, poly([-xj, 1]))
                denom *= xs[i] - xj
        result = padd(result, pscale(term, 1 / denom))
    return result


class SingularSystem(ArithmeticError):
    """A square linear system without a unique solution."""


def solve_linear(rows: Sequence[Sequence[Fraction]],
                 rhs: Sequence[Fraction]) -> list[Fraction]:
    """The unique x with rows x = rhs, by exact Gauss-Jordan elimination.

    Raises SingularSystem when the matrix is singular.
    """
    n = len(rows)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise SingularSystem("linear system is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [e / pv for e in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [e - f * p for e, p in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


class Poly2:
    """Bivariate polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[tuple[int, int], Fraction] | None = None):
        self.coeffs: dict[tuple[int, int], Fraction] = {}
        if coeffs:
            for key, c in coeffs.items():
                c = Fraction(c)
                if c:
                    self.coeffs[key] = c

    @classmethod
    def constant(cls, c) -> "Poly2":
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def var(cls, which: int) -> "Poly2":
        return cls({(1, 0) if which == 0 else (0, 1): Fraction(1)})

    def __add__(self, other) -> "Poly2":
        other = other if isinstance(other, Poly2) else Poly2.constant(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, Fraction(0)) + c
        return Poly2(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly2":
        return Poly2({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other) -> "Poly2":
        other = other if isinstance(other, Poly2) else Poly2.constant(other)
        return self + (-other)

    def __rsub__(self, other) -> "Poly2":
        return Poly2.constant(other) - self

    def __mul__(self, other) -> "Poly2":
        if not isinstance(other, Poly2):
            return Poly2({k: Fraction(other) * c for k, c in self.coeffs.items()})
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return Poly2(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        other = other if isinstance(other, Poly2) else Poly2.constant(other)
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.coeffs

    def diff(self, which: int) -> "Poly2":
        out = {}
        for (i, j), c in self.coeffs.items():
            if which == 0 and i:
                out[(i - 1, j)] = out.get((i - 1, j), Fraction(0)) + i * c
            elif which == 1 and j:
                out[(i, j - 1)] = out.get((i, j - 1), Fraction(0)) + j * c
        return Poly2(out)

    def eval(self, x, y) -> Fraction:
        x, y = Fraction(x), Fraction(y)
        total = Fraction(0)
        for (i, j), c in self.coeffs.items():
            total += c * x ** i * y ** j
        return total

    def substitute_x(self, x) -> Poly:
        x = Fraction(x)
        out: dict[int, Fraction] = {}
        for (i, j), c in self.coeffs.items():
            out[j] = out.get(j, Fraction(0)) + c * x ** i
        return poly(out.get(j, Fraction(0)) for j in range(max(out, default=-1) + 1))

    def substitute_y(self, y) -> Poly:
        y = Fraction(y)
        out: dict[int, Fraction] = {}
        for (i, j), c in self.coeffs.items():
            out[i] = out.get(i, Fraction(0)) + c * y ** j
        return poly(out.get(i, Fraction(0)) for i in range(max(out, default=-1) + 1))

    def __repr__(self):
        if not self.coeffs:
            return "Poly2(0)"
        terms = [f"{c}*z1^{i}*z2^{j}" for (i, j), c in sorted(self.coeffs.items())]
        return "Poly2(" + " + ".join(terms) + ")"
