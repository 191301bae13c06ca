"""Exact polynomials: integer root isolation, linear solves and Poly2.

Univariate polynomials are tuples of Fractions, constant term first,
normalized so the leading coefficient is nonzero (the zero polynomial is
the empty tuple).  Large polynomials are built in integers instead: an
IntPoly over one positive denominator kept beside it (imul, ilin), with
`over` forming one Fraction per coefficient at the end.  Its inverse,
ints_over, is the one place rationals are scaled to integers by the lcm
of their denominators.

Real roots are found on integer polynomials by Descartes' rule of signs
(Collins & Akritas 1976; Rouillier & Zimmermann 2004) on the dyadic tree
of (a, b), mapped to (0, 1) by one Taylor shift.  The tree needs the
squarefree part: f itself when gcd(f, f') = 1 modulo 2^61 - 1, and only
otherwise the one remainder sequence here.  The sign of f at x = p/q
(q > 0) is that of the homogenized sum of c_i p^i q^(d - i), so
refine_root bisects two integer numerators over a doubling denominator.
Multiple roots are reported once; exact rational roots come back
exactly, others within tolerance.

solve_fraction_free is the package's one exact linear solver: Bareiss
elimination in integers (Bareiss 1968); solve_linear returns Fractions,
and lagrange_interpolate is a Vandermonde solve through it.

Poly2 is a thin bivariate companion, also integers over one denominator,
with just the operations the square-fiber solver needs: ring arithmetic,
partial derivatives and substitution.  Its positivity on the unit square
is certified in the Bernstein basis (almostkahler).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

Poly = tuple[Fraction, ...]


def poly(coeffs: Iterable) -> Poly:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def degree(p: Poly) -> int:
    return len(p) - 1


def peval(p: Poly, x) -> Fraction:
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


# -- real roots on integer polynomials (constant term first; scaling by a
# positive rational keeps roots and signs) ---------------------------------

IntPoly = tuple[int, ...]


def imul(p: IntPoly, q: IntPoly) -> IntPoly:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return tuple(out)


def ilin(*terms: tuple[int, IntPoly]) -> IntPoly:
    """The sum of c * p over the (c, p) terms, trailing zeros stripped."""
    out = [0] * max((len(p) for _, p in terms), default=0)
    for c, p in terms:
        for i, a in enumerate(p):
            out[i] += c * a
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def over(num: Sequence[int], den: int) -> Poly:
    """num / den as a rational polynomial: one Fraction per coefficient."""
    return tuple(Fraction(c, den) for c in ilin((1, num)))


def ints_over(values: Iterable[int | Fraction]) -> tuple[list[int], int]:
    """(nums, den): values = nums / den, den > 0 the lcm of their denominators.

    The inverse of over, and the one rational-to-integer scaling.
    """
    values = list(values)
    den = lcm(*(c.denominator for c in values))
    return [c.numerator * (den // c.denominator) for c in values], den


def homogeneous_value(f: Sequence[int], num: int, den: int) -> int:
    """den^deg f times f(num / den): the sum of c_i num^i den^(deg - i)."""
    acc = 0
    power = 1
    for c in reversed(f):
        acc = acc * num + c * power
        power *= den
    return acc


def _content_free(ints: Sequence[int]) -> IntPoly:
    """ints, not all zero, divided by their positive gcd."""
    content = gcd(*ints)
    return tuple(c // content for c in ints)


def _primitive(p: Sequence[int | Fraction]) -> IntPoly:
    """p times a positive rational: coprime integers, same signs and roots."""
    f, _ = ints_over(p)
    while f and not f[-1]:
        f.pop()
    return _content_free(f) if f else ()


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


def exact_quotient(a: IntPoly, b: IntPoly) -> IntPoly:
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


def _sign_at(f: IntPoly, x: Fraction) -> int:
    """Sign of f(p/q) from the homogenized sum of c_i p^i q^(d - i), q > 0."""
    acc = homogeneous_value(f, x.numerator, x.denominator)
    return (acc > 0) - (acc < 0)


def _coprime_to_derivative(f: IntPoly) -> bool:
    """gcd(f, f') = 1 modulo a prime not dividing lc f, which proves f squarefree."""
    prime = 2 ** 61 - 1
    a, b = [c % prime for c in f], [c % prime for c in _int_deriv(f)]
    while a[-1] and len(b) > 1:
        inv = pow(b[-1], -1, prime)
        while len(a) >= len(b):
            factor, shift = a.pop() * inv, len(a) - len(b) + 1
            for i, c in enumerate(b[:-1]):
                a[shift + i] = (a[shift + i] - factor * c) % prime
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(b) == 1


def _divide_out_gcd(f: IntPoly) -> IntPoly:
    """f / gcd(f, f') in Z[x], by the primitive remainder sequence of f and f'."""
    a, b = f, _content_free(_int_deriv(f))
    while rem := _prem(a, b):
        a, b = b, rem
    return exact_quotient(f, b if b[-1] > 0 else tuple(-c for c in b))


def _shift(lead: Sequence[int], c: int = 1) -> list[int]:
    """Coefficients of f(x + c) from those of f, leading first: Horner's rule pass by pass."""
    step = None if c == 1 else (lambda acc, x: acc * c + x)
    f = list(lead)
    for stop in range(len(f), 1, -1):
        f[:stop] = accumulate(f[:stop], step)
    return f


def _on_unit_interval(f: IntPoly, a: Fraction, b: Fraction) -> list[int]:
    """den^d f(a + (b - a) x) for a = A/den, b = B/den: (a, b) becomes (0, 1)."""
    (num_a, num_b), den = ints_over((a, b))
    g = _shift([c * den ** i for i, c in enumerate(reversed(f))], num_a)[::-1]
    return [c * (num_b - num_a) ** k for k, c in enumerate(g)]


def _descartes(q: Sequence[int]) -> int:
    """Sign variations of (x + 1)^d q(1/(x + 1)): roots of q in (0, 1) or more, same parity."""
    signs = [c > 0 for c in _shift(q) if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _isolate(q: list[int], a: Fraction, b: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Brackets in (a, b) of the roots of squarefree q on (0, 1): nodes of its dyadic tree.

    Node (k, k + 1) / 2^j holds 2^(jd) q((k + x) / 2^j).  It is kept when it has
    one variation and changes sign at its ends, and else halved into 2^d times it
    at x/2 and that shifted by 1; a root at the middle is exact.
    """
    d, nodes = len(q) - 1, []

    def recurse(q: list[int], k: int, j: int) -> None:
        variations = _descartes(q)
        if variations == 1 and q[0] and sum(q):
            nodes.append((Fraction(k, 1 << j), Fraction(k + 1, 1 << j)))
        elif variations:
            left = [c << (d - i) for i, c in enumerate(q)]
            right = _shift(left[::-1])[::-1]
            if not right[0]:
                nodes.append((Fraction(2 * k + 1, 2 << j),) * 2)
            recurse(left, 2 * k, j + 1)
            recurse(right, 2 * k + 1, j + 1)

    recurse(q, 0, 0)
    return sorted((a + (b - a) * lo, a + (b - a) * hi) for lo, hi in nodes)


def _squarefree_brackets(p: Sequence[int | Fraction], a, b) -> tuple[IntPoly, list]:
    """(f, brackets of p's distinct roots in (a, b)); with a root, f is p's squarefree part."""
    if not p:
        raise ValueError("cannot isolate roots of the zero polynomial")
    f, a, b = _primitive(p), Fraction(a), Fraction(b)
    if a >= b or not _descartes(q := _on_unit_interval(f, a, b)):
        return f, []
    if len(f) > 2 and not _coprime_to_derivative(f):
        f = _divide_out_gcd(f)
        q = _on_unit_interval(f, a, b)
    return f, _isolate(q, a, b)


def count_roots_open(p: Poly, a, b) -> int:
    """Distinct real roots of p in the open interval (a, b)."""
    return len(_squarefree_brackets(p, a, b)[1])


def refine_root(f: IntPoly, lo, hi, tol) -> Fraction:
    """Bisect a sign-changing bracket of f down to width tol; exact roots pass through.

    f is an integer polynomial whose only root in the bracket is simple,
    such as the squarefree part of p.  After bisection the simplest
    rational in the bracket is probed, so roots with small denominators
    come back exactly.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if lo == hi:
        return lo
    tol = Fraction(tol)
    slo = _sign_at(f, lo)
    if slo == 0:
        return lo
    if _sign_at(f, hi) == 0:
        return hi
    # the bracket is [a, b] / den; halving it doubles den and keeps b - a
    (a, b), den = ints_over((lo, hi))
    width, tol_num = (b - a) * tol.denominator, tol.numerator
    while width > tol_num * den:
        mid = a + b
        den *= 2
        smid = homogeneous_value(f, mid, den)
        if smid == 0:
            return Fraction(mid, den)
        if (smid > 0) == (slo > 0):
            a, b = mid, 2 * b
        else:
            a, b = 2 * a, mid
    lo, hi, mid = Fraction(a, den), Fraction(b, den), Fraction(a + b, 2 * den)
    for bound in (1, 10, 1000, 10 ** 6, 10 ** 12):
        snap = mid.limit_denominator(bound)
        if lo <= snap <= hi and _sign_at(f, snap) == 0:
            return snap
    return mid


def roots_in_interval(p: Poly, a, b, tol) -> list[Fraction]:
    """All distinct roots of p in (a, b), each within tol of the true root.

    The squarefree part is found once, and refines every bracket.
    """
    f, brackets = _squarefree_brackets(p, a, b)
    return [refine_root(f, lo, hi, tol) for lo, hi in brackets]


class SingularSystem(ArithmeticError):
    """A square linear system without a unique solution."""


def solve_fraction_free(rows: Sequence[Sequence[int | Fraction]],
                        rhs: Sequence[int | Fraction]) -> tuple[list[int], int]:
    """(y, det), det > 0: the unique x with rows x = rhs is y / det.

    Bareiss elimination on each row scaled to integers by one lcm: every
    step divides exactly by the previous pivot, the last pivot is det up
    to sign, and the integers det x_i (Cramer) come from back-substitution.
    Raises SingularSystem when the matrix is singular.
    """
    n = len(rows)
    aug = [ints_over((*row, c))[0] for row, c in zip(rows, rhs)]
    prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if aug[r][k]), None)
        if pivot is None:
            raise SingularSystem("linear system is singular")
        aug[k], aug[pivot] = aug[pivot], aug[k]
        top = aug[k]
        for row in aug[k + 1:]:
            row[k + 1:] = [(top[k] * e - row[k] * t) // prev
                           for e, t in zip(row[k + 1:], top[k + 1:])]
        prev = top[k]
    det, y = abs(prev), [0] * n
    for i, row in reversed(list(enumerate(aug))):
        y[i], r = divmod(det * row[n] - sum(row[j] * y[j] for j in range(i + 1, n)), row[i])
        if r:
            raise ArithmeticError("fraction-free back-substitution is not exact")
    return y, det


def solve_linear(rows: Sequence[Sequence[int | Fraction]],
                 rhs: Sequence[int | Fraction]) -> list[Fraction]:
    """The unique x with rows x = rhs, by solve_fraction_free."""
    y, det = solve_fraction_free(rows, rhs)
    return [Fraction(v, det) for v in y]


def lagrange_interpolate(points: Sequence[tuple[int | Fraction, int | Fraction]]) -> Poly:
    """Unique polynomial of degree < len(points) through the given points.

    The coefficients solve the Vandermonde system; the x must be distinct.
    """
    xs = [Fraction(x) for x, _ in points]
    return poly(solve_linear([[x ** k for k in range(len(xs))] for x in xs],
                             [Fraction(y) for _, y in points]))


class Poly2:
    """Bivariate polynomial num / den: integer coefficients over one denominator.

    num maps (i, j) to the nonzero coefficient of z1^i z2^j, and den > 0 is
    their smallest common denominator (each operation divides out
    gcd(den, *num) once), so equal polynomials have equal (num, den).
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Mapping[tuple[int, int], Fraction] | None = None):
        coeffs = {key: Fraction(c) for key, c in (coeffs or {}).items()}
        nums, self.den = ints_over(coeffs.values())   # then gcd(den, *num) = 1
        self.num = {key: c for key, c in zip(coeffs, nums) if c}

    @classmethod
    def _of(cls, num: dict[tuple[int, int], int], den: int) -> "Poly2":
        num = {key: c for key, c in num.items() if c}
        g = gcd(den, *num.values())
        out = cls.__new__(cls)
        out.num, out.den = {key: c // g for key, c in num.items()} if g > 1 else num, den // g
        return out

    @property
    def coeffs(self) -> dict[tuple[int, int], Fraction]:
        """The rational coefficients, as a new dict."""
        return {key: Fraction(c, self.den) for key, c in self.num.items()}

    @classmethod
    def constant(cls, c) -> "Poly2":
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def var(cls, which: int) -> "Poly2":
        return cls._of({(1, 0) if which == 0 else (0, 1): 1}, 1)

    def __add__(self, other) -> "Poly2":
        other = other if isinstance(other, Poly2) else Poly2.constant(other)
        den = lcm(self.den, other.den)
        mine, theirs = den // self.den, den // other.den
        num = {key: c * mine for key, c in self.num.items()}
        for key, c in other.num.items():
            num[key] = num.get(key, 0) + c * theirs
        return Poly2._of(num, den)

    __radd__ = __add__

    def __neg__(self) -> "Poly2":
        return Poly2._of({key: -c for key, c in self.num.items()}, self.den)

    def __sub__(self, other) -> "Poly2":
        other = other if isinstance(other, Poly2) else Poly2.constant(other)
        return self + (-other)

    def __rsub__(self, other) -> "Poly2":
        return Poly2.constant(other) - self

    def __mul__(self, other) -> "Poly2":
        if not isinstance(other, Poly2):
            c = Fraction(other)
            return Poly2._of({key: c.numerator * v for key, v in self.num.items()},
                             self.den * c.denominator)
        num: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self.num.items():
            for (i2, j2), c2 in other.num.items():
                key = (i1 + i2, j1 + j2)
                num[key] = num.get(key, 0) + c1 * c2
        return Poly2._of(num, self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        other = other if isinstance(other, Poly2) else Poly2.constant(other)
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((frozenset(self.num.items()), self.den))

    def is_zero(self) -> bool:
        return not self.num

    def diff(self, which: int) -> "Poly2":
        di, dj = (1, 0) if which == 0 else (0, 1)
        return Poly2._of({(i - di, j - dj): (i, j)[which] * c
                          for (i, j), c in self.num.items() if (i, j)[which]}, self.den)

    def _substitute(self, value, which: int) -> tuple[list[int], int]:
        """(ints, den): the polynomial in the other variable at z_(which+1) = value."""
        p, q = Fraction(value).as_integer_ratio()
        top = max((key[which] for key in self.num), default=0)
        out: dict[int, int] = {}
        for key, c in self.num.items():
            e, rest = key[which], key[1 - which]
            out[rest] = out.get(rest, 0) + c * p ** e * q ** (top - e)
        return [out.get(k, 0) for k in range(max(out, default=-1) + 1)], self.den * q ** top

    def substitute_x(self, x) -> Poly:
        return over(*self._substitute(x, 0))

    def substitute_y(self, y) -> Poly:
        return over(*self._substitute(y, 1))

    def __repr__(self):
        if not self.num:
            return "Poly2(0)"
        terms = [f"{c}*z1^{i}*z2^{j}" for (i, j), c in sorted(self.coeffs.items())]
        return "Poly2(" + " + ".join(terms) + ")"
