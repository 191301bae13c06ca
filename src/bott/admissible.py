"""Admissible Kahler classes on projective line bundles: extremal profiles.

An admissible class on P(1 + L) -> S is pinned down by component data
(d_a, s_a, r_a): fiber dimensions, normalized scalar curvatures and the
class parameters with 0 < |r_a| < 1.  Writing p_c(z) for the product of
the (1 + r_a z)^{d_a}, the profile function Theta = F / p_c of a metric
in the class has scalar curvature

    sum_a 2 d_a s_a r_a / (1 + r_a z)  -  F''(z) / p_c(z),

and there is a unique polynomial F, the extremal polynomial, making this
affine in z subject to F(+-1) = 0 and F'(+-1) = -+ 2 p_c(+-1).  The
metric is extremal iff F > 0 on (-1, 1) and has constant scalar
curvature iff the affine slope vanishes.  Everything here is exact
rational arithmetic; the only iteration is bisection with exact signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb
from typing import Iterator, Sequence

from .polynomials import (
    ONE,
    Poly,
    SingularSystem,  # re-exported: the CLI maps it to singular_system
    count_roots_open,
    degree,
    lagrange_interpolate,  # unused; benchmark/tracer.py wraps it by this name
    pdiv_exact,
    pderiv,
    peval,
    pinteg,
    pmul,
    pneg,
    poly,
    ppow,
    pscale,
    psub,
    padd,
    roots_in_interval,
    solve_linear,
)

DEFAULT_CSC_TOLERANCE = Fraction(1, 10 ** 12)   # CSC roots are refined to within this


class PoleHit(ZeroDivisionError):
    """Scalar curvature evaluated at a pole of the profile."""


class DegreeTooHigh(ValueError):
    """Transform of a polynomial of degree above the cap is not polynomial."""


class SingularParameters(ValueError):
    """Transform parameters degenerate for the given data."""


@dataclass(frozen=True)
class AdmissibleData:
    """Component data (d_a, s_a, r_a) of an admissible Kahler class."""

    components: tuple[tuple[int, Fraction, Fraction], ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("need at least one component")
        for d, s, r in self.components:
            if isinstance(d, bool) or not isinstance(d, int):
                raise ValueError(f"fiber dimension must be an integer, got {d!r}")
            if d < 1:
                raise ValueError("fiber dimensions must be positive")
            if not 0 < abs(r) < 1:
                raise ValueError("parameters must satisfy 0 < |r| < 1")

    @classmethod
    def make(cls, components: Sequence[tuple[int, object, object]]) -> "AdmissibleData":
        """Build from (d, s, r) triples; s and r are ints, Fractions or rational strings.

        Floats are refused: a JSON 0.4 would otherwise become the binary
        fraction 3602879701896397/9007199254740992.
        """
        def exact(value) -> Fraction:
            if isinstance(value, bool) or not isinstance(value, (int, Fraction, str)):
                raise ValueError(f"s and r must be integers or rational strings, "
                                 f"got {value!r}")
            return Fraction(value)

        try:
            return cls(tuple((d, exact(s), exact(r)) for d, s, r in components))
        except TypeError as exc:
            raise ValueError("components must be (d, s, r) triples with an "
                             "integer d and rational s, r") from exc

    @property
    def dim(self) -> int:
        """Complex dimension of the total space."""
        return 1 + sum(d for d, _, _ in self.components)

    def p_c(self) -> Poly:
        out = ONE
        for d, _, r in self.components:
            out = pmul(out, ppow(poly([1, r]), d))
        return out

    def r_list(self) -> tuple[Fraction, ...]:
        return tuple(r for _, _, r in self.components)

    def with_r(self, new_r: Sequence[Fraction]) -> "AdmissibleData":
        if len(new_r) != len(self.components):
            raise ValueError("wrong number of parameters")
        return AdmissibleData(tuple((d, s, Fraction(r))
                                    for (d, s, _), r in zip(self.components, new_r)))

    def to_json(self) -> dict:
        return {"components": [{"d": d, "s": str(s), "r": str(r)}
                               for d, s, r in self.components]}

    @classmethod
    def from_json(cls, obj: dict) -> "AdmissibleData":
        comps = obj.get("components") if isinstance(obj, dict) else None
        if not isinstance(comps, list) or not all(
                isinstance(c, dict) and {"d", "s", "r"} <= c.keys() for c in comps):
            raise ValueError('admissible data must be {"components": '
                             '[{"d": .., "s": .., "r": ..}, ...]}')
        return cls.make([(c["d"], c["s"], c["r"]) for c in comps])


@dataclass(frozen=True)
class ExtremalProfile:
    """Extremal polynomial with the affine scalar-curvature coefficients."""

    F: Poly
    slope: Fraction        # coefficient of z in the affine scalar curvature
    intercept: Fraction

    def to_json(self) -> dict:
        return {"F": [str(c) for c in self.F], "A1": str(self.slope),
                "A3": str(self.intercept)}


def _curvature_source(data: AdmissibleData) -> Poly:
    """p_c(z) * sum_a 2 d_a s_a r_a / (1 + r_a z), a polynomial."""
    pc = data.p_c()
    out: Poly = ()
    for d, s, r in data.components:
        out = padd(out, pscale(pdiv_exact(pc, poly([1, r])), 2 * d * s * r))
    return out


def extremal_polynomial(data: AdmissibleData) -> ExtremalProfile:
    """The unique F with affine scalar curvature and the endpoint conditions.

    F'' = source - (A1 z + A3) p_c is integrated twice; the slope, the
    intercept and the two integration constants solve the four endpoint
    equations F(+-1) = 0, F'(+-1) = -+ 2 p_c(+-1).
    """
    pc = data.p_c()
    g2 = pinteg(pinteg(_curvature_source(data)))
    p1 = pinteg(pinteg(pmul(poly([0, 1]), pc)))
    p0 = pinteg(pinteg(pc))
    g2d, p1d, p0d = pderiv(g2), pderiv(p1), pderiv(p0)
    one = Fraction(1)
    rows = [
        [-peval(p1, 1), -peval(p0, 1), one, one],
        [-peval(p1, -1), -peval(p0, -1), -one, one],
        [-peval(p1d, 1), -peval(p0d, 1), one, Fraction(0)],
        [-peval(p1d, -1), -peval(p0d, -1), one, Fraction(0)],
    ]
    rhs = [
        -peval(g2, 1),
        -peval(g2, -1),
        -peval(g2d, 1) - 2 * peval(pc, 1),
        -peval(g2d, -1) + 2 * peval(pc, -1),
    ]
    a1, a3, c1, c0 = solve_linear(rows, rhs)
    F = padd(psub(g2, padd(pscale(p1, a1), pscale(p0, a3))), poly([c0, c1]))
    return ExtremalProfile(F, a1, a3)


def scalar_profile(profile: ExtremalProfile, data: AdmissibleData, z) -> Fraction:
    """Scalar curvature of the profile at momentum z (exact)."""
    z = Fraction(z)
    pc_val = peval(data.p_c(), z)
    if pc_val == 0:
        raise PoleHit(f"profile has a pole at z = {z}")
    total = Fraction(0)
    for d, s, r in data.components:
        total += Fraction(2 * d) * s * r / (1 + r * z)
    return total - peval(pderiv(pderiv(profile.F)), z) / pc_val


def is_positive_on_interval(F: Poly) -> bool:
    """Whether F > 0 on the open interval (-1, 1); F must vanish at +-1."""
    if not F:
        return False
    if peval(F, 1) != 0 or peval(F, -1) != 0:
        raise ValueError("polynomial must vanish at the endpoints")
    core = pdiv_exact(pdiv_exact(F, poly([1, 1])), poly([-1, 1]))
    core = pneg(core)  # F = (1 - z^2) * core
    if not core:
        return False
    if peval(core, 0) <= 0:
        return False
    return count_roots_open(core, -1, 1) == 0


def is_csc(profile: ExtremalProfile) -> bool:
    """Constant scalar curvature: the affine slope vanishes exactly."""
    return profile.slope == 0


def is_csc_pair(r1, r2) -> bool:
    """Membership in the two CSC families of the bidegree (1,-1) bundle."""
    r1, r2 = Fraction(r1), Fraction(r2)
    return r2 == -r1 or r2 == r1 - 1


def is_ke_ks(r1, r2) -> bool:
    """The Kahler-Einstein point: the intersection of the two CSC families."""
    return Fraction(r1) == Fraction(1, 2) and Fraction(r2) == Fraction(-1, 2)


def ks_data(r) -> AdmissibleData:
    """Admissible data of the bidegree (1,-1) bundle family at parameter r."""
    r = Fraction(r)
    return AdmissibleData.make([(1, 2, r), (1, -2, r - 1)])


def _csc_args(m: int, r_plus) -> Fraction:
    """Check the balanced CSC parameters; r_plus comes back as a Fraction."""
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ValueError("m must be a positive integer")
    rp = Fraction(r_plus)
    if not 0 < rp < 1:
        raise ValueError("r_plus must lie in (0, 1)")
    return rp


def _tolerance(tolerance) -> Fraction:
    tol = Fraction(tolerance)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return tol


def csc_condition(m: int, r_plus, r_minus) -> Fraction:
    """Exact CSC obstruction for the balanced 2m-fold base.

    Vanishes precisely when the class with m parameters r_plus and m
    parameters r_minus carries a CSC representative.
    """
    rm = Fraction(r_minus)
    if not -1 < rm < 0:
        raise ValueError("r_minus must lie in (-1, 0)")
    return peval(csc_condition_polynomial(m, r_plus), rm)


def _moment(n: int, rp: Fraction, k: int) -> Poly:
    """The integral of z^k (1 + rp z)^n (1 + rm z)^n over [-1, 1], in rm.

    The coefficient of rm^j is C(n, j) sum_i C(n, i) rp^i I(i + j + k),
    where I(e), the integral of z^e, is 2/(e + 1) for even e and 0 for odd e.
    """
    plus = [comb(n, i) * rp ** i for i in range(n + 1)]
    return poly(comb(n, j) * sum(a * Fraction(2, i + j + k + 1)
                                 for i, a in enumerate(plus) if (i + j + k) % 2 == 0)
                for j in range(n + 1))


def csc_condition_polynomial(m: int, r_plus) -> Poly:
    """The CSC obstruction alpha0 beta1 - alpha1 beta0 as a polynomial in r_minus.

    With P = (1 + r_plus z)^m (1 + r_minus z)^m and Q the same with m - 1,
    alpha_k is the integral of z^k P over [-1, 1], and beta_0, beta_1 are
    P(1) + P(-1) and P(1) - P(-1), each plus 2m (r_plus - r_minus) times
    the integral of z^k Q.  Each term is expanded in r_minus with binomial
    coefficients (see _moment), so the result is exact by construction, has
    degree at most 2m, and csc_condition evaluates it at r_minus.  The
    balanced family r_minus = -r_plus is always a root; the expansion is
    checked against it and raises ArithmeticError if it misses.
    """
    rp = _csc_args(m, r_plus)
    row = [comb(m, j) for j in range(m + 1)]
    at_plus = pscale(poly(row), (1 + rp) ** m)                       # P(1)
    at_minus = pscale(poly((-1) ** j * c for j, c in enumerate(row)),
                      (1 - rp) ** m)                                 # P(-1)
    drift = poly([2 * m * rp, -2 * m])                               # 2m (rp - rm)
    alpha0, alpha1 = _moment(m, rp, 0), _moment(m, rp, 1)
    beta0 = padd(padd(at_plus, at_minus), pmul(drift, _moment(m - 1, rp, 0)))
    beta1 = padd(psub(at_plus, at_minus), pmul(drift, _moment(m - 1, rp, 1)))
    g = psub(pmul(alpha0, beta1), pmul(alpha1, beta0))
    if peval(g, -rp) != 0:
        raise ArithmeticError("expanded CSC obstruction misses the root r_minus = -r_plus")
    return g


def csc_family_solve(m: int, r_plus, tolerance) -> list[Fraction]:
    """All roots of the CSC obstruction in r_minus over (-1, 0).

    Roots are isolated with Sturm sequences on the exact polynomial and
    refined by sign bisection to within the tolerance, so double points
    (family crossings) are found as well.
    """
    tol = _tolerance(tolerance)
    g = csc_condition_polynomial(m, r_plus)
    if not g:
        raise ArithmeticError("obstruction vanished identically")
    return roots_in_interval(g, Fraction(-1), Fraction(0), tol)


def csc_second_family_polynomial(m: int, r_plus) -> Poly:
    """The obstruction with the balanced family divided out.

    r_minus = -r_plus is always a root, so (r_minus + r_plus) divides
    the obstruction exactly; the quotient vanishes precisely on the
    second solution family.  For m >= 2 that family only covers part of
    the parameter interval, passing through the crossing point at
    r_plus = 1/2.
    """
    rp = Fraction(r_plus)
    g = csc_condition_polynomial(m, rp)
    return pdiv_exact(g, poly([rp, 1]))


def csc_second_family_roots(m: int, r_plus, tolerance) -> list[Fraction]:
    """Second-family solutions r_minus in (-1, 0), refined to the tolerance."""
    tol = _tolerance(tolerance)
    h = csc_second_family_polynomial(m, r_plus)
    if not h:
        raise ArithmeticError("deflated obstruction vanished identically")
    return roots_in_interval(h, Fraction(-1), Fraction(0), tol)


def csc_family_sweep(m: int, step, tolerance,
                     second_only: bool = False) -> Iterator[tuple[Fraction, Fraction]]:
    """(r_plus, r_minus) for r_plus = step, 2 step, ... below 1 and each root.

    The roots are those of csc_family_solve, or of csc_second_family_roots
    when second_only is set.  The arguments are checked before the first
    row is produced; the step must lie in (0, 1).
    """
    step = Fraction(step)
    if not 0 < step < 1:
        raise ValueError("sweep step must lie in (0, 1)")
    _csc_args(m, step)
    _tolerance(tolerance)
    solve = csc_second_family_roots if second_only else csc_family_solve

    def rows() -> Iterator[tuple[Fraction, Fraction]]:
        for k in range(1, ceil(1 / step)):
            rp = k * step
            for root in solve(m, rp, tolerance):
                yield rp, root

    return rows()


def cproj_transform(F: Poly, data: AdmissibleData, alpha, beta) -> tuple[Poly, AdmissibleData]:
    """Change of admissible profile along a fractional momentum reparametrization.

    Sends F to (beta - alpha z)^(d+1) F((alpha - beta z)/(alpha z - beta))
    normalized by (beta^2 - alpha^2) prod (beta - alpha r_a)^{d_a}, and
    each parameter r to (beta r - alpha)/(beta - alpha r).  Requires
    |alpha| < |beta| (else the reparametrization has a pole in the
    momentum interval) and deg F <= d + 1 for a polynomial image.
    """
    F, alpha, beta = poly(F), Fraction(alpha), Fraction(beta)
    d = data.dim
    if degree(F) > d + 1:
        raise DegreeTooHigh(f"degree {degree(F)} exceeds cap {d + 1}")
    if beta * beta <= alpha * alpha:
        raise SingularParameters("need |alpha| < |beta|")
    denom = beta * beta - alpha * alpha
    new_r = []
    for _, _, r in data.components:
        if beta - alpha * r == 0:
            raise SingularParameters("parameter pole: beta = alpha * r")
        if beta * r - alpha == 0:
            raise SingularParameters("parameter collapses to zero")
        new_r.append((beta * r - alpha) / (beta - alpha * r))
    for d_a, _, r in data.components:
        denom *= (beta - alpha * r) ** d_a
    a_poly = poly([alpha, -beta])   # alpha - beta z
    b_poly = poly([beta, -alpha])   # beta - alpha z
    out: Poly = ()
    for k, coeff in enumerate(F):
        if not coeff:
            continue
        term = pmul(ppow(a_poly, k), ppow(b_poly, d + 1 - k))
        out = padd(out, pscale(term, coeff if k % 2 == 0 else -coeff))
    return pscale(out, 1 / denom), data.with_r(new_r)
