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

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import ceil, comb, lcm, prod
from typing import Iterator, Sequence

from .core import StageTooLarge
from .polynomials import (
    IntPoly,
    Poly,
    SingularSystem,  # re-exported: the CLI maps it to singular_system
    count_roots_open,
    degree,
    exact_quotient,
    homogeneous_value,
    ilin,
    imul,
    ints_over,
    lagrange_interpolate,  # unused; benchmark/tracer.py wraps it by this name
    over,
    peval,
    poly,
    roots_in_interval,
    solve_fraction_free,
)

DEFAULT_CSC_TOLERANCE = Fraction(1, 10 ** 12)   # CSC roots are refined to within this

# Refusal bounds (StageTooLarge): at these bounds one accepted profile or
# CSC solve answers in about 1 s on a 2-core x86 host.
MAX_DIM = 24              # total dimension 1 + sum d_a of admissible data
MAX_CSC_M = 16            # m of the CSC obstruction, a polynomial of degree 2m
MAX_SWEEP_POINTS = 1000   # the ceil(1/step) - 1 solves of a CSC sweep
MAX_RATIONAL_BITS = 12    # bit length of each numerator and denominator of r_plus, s_a, r_a
MAX_TOLERANCE_BITS = 256  # bit length of the numerator and denominator of a CSC tolerance


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
        if self.dim > MAX_DIM:
            raise StageTooLarge(f"dimension {self.dim} exceeds bound {MAX_DIM}")

    @classmethod
    def make(cls, components: Sequence[tuple[int, object, object]]) -> "AdmissibleData":
        """Build from (d, s, r) triples; s and r are ints, Fractions or rational strings.

        Floats are refused: a JSON 0.4 would otherwise become the binary
        fraction 3602879701896397/9007199254740992.  Values past
        MAX_RATIONAL_BITS are refused here, where data comes in, and not in
        the constructor: the images that cproj_transform builds with with_r
        are only reported, and may be larger.
        """
        def exact(value) -> Fraction:
            if isinstance(value, bool) or not isinstance(value, (int, Fraction, str)):
                raise ValueError(f"s and r must be integers or rational strings, "
                                 f"got {value!r}")
            return parse_rational(value) if isinstance(value, str) else Fraction(value)

        try:
            data = cls(tuple((d, exact(s), exact(r)) for d, s, r in components))
        except TypeError as exc:
            raise ValueError("components must be (d, s, r) triples with an "
                             "integer d and rational s, r") from exc
        check_bits(*(x for _, s, r in data.components for x in (s, r)))
        return data

    @property
    def dim(self) -> int:
        """Complex dimension of the total space."""
        return 1 + sum(d for d, _, _ in self.components)

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


def _profile_parts(data: AdmissibleData) -> tuple[IntPoly, int, IntPoly, int]:
    """(P, Q, S, T): p_c = P / Q and the curvature source is S / (Q T).

    With r_a = n_a / q_a and s_a = sigma_a / tau_a: P is the product of the
    (q_a + n_a z)^(d_a), Q that of the q_a^(d_a), T the lcm of the tau_a,
    and S the sum of 2 d_a n_a sigma_a (T / tau_a) P / (q_a + n_a z).
    """
    P = reduce(imul, [(r.denominator, r.numerator)
                      for d, _, r in data.components for _ in range(d)], (1,))
    Q = prod(r.denominator ** d for d, _, r in data.components)
    sigmas, T = ints_over(s for _, s, _ in data.components)
    S = ilin(*((2 * d * r.numerator * sigma, exact_quotient(P, (r.denominator, r.numerator)))
               for (d, _, r), sigma in zip(data.components, sigmas)))
    return P, Q, S, T


def _ends(f: IntPoly) -> tuple[int, ...]:
    """f(1), f(-1), f'(1) and f'(-1)."""
    df = tuple(i * c for i, c in enumerate(f))[1:]
    return tuple(homogeneous_value(h, x, 1) for h in (f, df) for x in (1, -1))


def extremal_polynomial(data: AdmissibleData) -> ExtremalProfile:
    """The unique F with affine scalar curvature and the endpoint conditions.

    F'' = source - (A1 z + A3) p_c is integrated twice; the slope, the
    intercept and the two integration constants solve the four endpoint
    equations F(+-1) = 0, F'(+-1) = -+ 2 p_c(+-1).  Both integrations are
    in integers over one denominator L Q T, L the lcm of the (i + 1)(i + 2),
    and the four equations, each times L Q T, are an integer system whose
    fraction-free solution (k1, k3, kc1, kc0) / D gives F over L Q T D.
    """
    P, Q, S, T = _profile_parts(data)
    L = lcm(*((i + 1) * (i + 2) for i in range(len(P) + 1)))
    den = L * Q * T

    def twice(f: IntPoly, c: int = 1) -> IntPoly:   # c L times the double antiderivative
        return (0, 0) + tuple(c * a * (L // ((i + 1) * (i + 2))) for i, a in enumerate(f))

    g2, t1, t0 = twice(S), twice((0,) + P, T), twice(P, T)     # G2, P1, P0 over den
    (g, e1, e0), ep = map(_ends, (g2, t1, t0)), _ends(P)
    rows = [[-e1[k], -e0[k], -den if k == 1 else den, den if k < 2 else 0] for k in range(4)]
    rhs = [-g[0], -g[1], -g[2] - 2 * L * T * ep[0], -g[3] + 2 * L * T * ep[1]]
    (k1, k3, kc1, kc0), D = solve_fraction_free(rows, rhs)
    F = ilin((D, g2), (-k1, t1), (-k3, t0), (den * kc0, (1,)), (den * kc1, (0, 1)))
    return ExtremalProfile(over(F, den * D), Fraction(k1, D), Fraction(k3, D))


def is_positive_on_interval(F: Poly) -> bool:
    """Whether F > 0 on the open interval (-1, 1); F must vanish at +-1.

    F is scaled to integers, (1 - z^2) is divided out exactly in Z, and
    Descartes' rule of signs counts the roots of the quotient.
    """
    if not F:
        return False
    f, _ = ints_over(F)
    if _ends(f)[:2] != (0, 0):
        raise ValueError("polynomial must vanish at the endpoints")
    core = exact_quotient(f, (1, 0, -1))   # F = (1 - z^2) * core
    if core[0] <= 0:
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


def check_bits(*values: Fraction, bound: int = MAX_RATIONAL_BITS) -> None:
    """Refuse (StageTooLarge) a numerator or denominator longer than bound bits."""
    # the message names the bit length, not the value: str() of an integer
    # past 4,300 digits raises ValueError
    for x in values:
        bits = max(abs(x.numerator), x.denominator).bit_length()
        if bits > bound:
            raise StageTooLarge(f"a numerator or denominator of {bits} bits exceeds "
                                f"bound of {bound} bits")


def parse_rational(text: str) -> Fraction:
    """Fraction(text), refusing first (StageTooLarge) what Fraction would expand past
    every bit bound: n 10^e, 10 not dividing n, fits in MAX_TOLERANCE_BITS bits only
    if n has at most that many digits and |e| is below it (e of 0 as written)."""
    if match := re.fullmatch(r"\s*[-+]?(?=\d|\.\d)(\d*)(?:\.(\d*))?(?:e([-+]?\d+))?\s*",
                             text.replace("_", ""), re.I):
        whole, part, exp = match.groups("")
        digits = (whole + part).rstrip("0")
        e = int(exp or 0) if len(exp.lstrip("+-0")) < 19 else 10 ** 19
        if n := digits.lstrip("0"):   # e becomes the power of ten of n's last digit
            e += len(whole) - len(digits)
        if len(n) > MAX_TOLERANCE_BITS or abs(e) > MAX_TOLERANCE_BITS:
            raise StageTooLarge(f"a decimal past 10^+-{MAX_TOLERANCE_BITS} or {MAX_TOLERANCE_BITS} "
                                f"digits exceeds bound of {MAX_TOLERANCE_BITS} bits")
    return Fraction(text)


def _csc_args(m: int, r_plus) -> Fraction:
    """Check the balanced CSC parameters; r_plus comes back as a Fraction."""
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ValueError("m must be a positive integer")
    if m > MAX_CSC_M:
        raise StageTooLarge(f"m = {m} exceeds bound {MAX_CSC_M}")
    rp = Fraction(r_plus)
    if not 0 < rp < 1:
        raise ValueError("r_plus must lie in (0, 1)")
    check_bits(rp)
    return rp


def _tolerance(tolerance) -> Fraction:
    tol = Fraction(tolerance)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    check_bits(tol, bound=MAX_TOLERANCE_BITS)
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


def _moment_row(n: int, k: int, a: int, b: int, lam: int) -> IntPoly:
    """b^n lam times the integral of z^k (1 + rp z)^n (1 + rm z)^n over [-1, 1], in rm.

    With rp = a/b the coefficient of rm^j is C(n, j) sum_i C(n, i) a^i
    b^(n - i) 2 lam / (e + 1), e = i + j + k even (the integral of z^e).
    """
    plus = [comb(n, i) * a ** i * b ** (n - i) for i in range(n + 1)]
    return tuple(comb(n, j) * sum(c * (2 * lam // (i + j + k + 1))
                                  for i, c in enumerate(plus) if (i + j + k) % 2 == 0)
                 for j in range(n + 1))


def _csc_obstruction(m: int, r_plus) -> tuple[IntPoly, int]:
    """(g, den): the CSC obstruction is g / den, with g in Z[r_minus]."""
    rp = _csc_args(m, r_plus)
    a, b = rp.numerator, rp.denominator
    lam = lcm(*range(1, 2 * m + 2))
    row = [comb(m, j) * lam for j in range(m + 1)]
    at_plus = tuple((b + a) ** m * c for c in row)                   # P(1)
    at_minus = tuple((b - a) ** m * (-1) ** j * c for j, c in enumerate(row))  # P(-1)
    drift = (2 * m * a, -2 * m * b)                                  # 2m b (rp - rm)
    alpha0, alpha1, q0, q1 = (_moment_row(n, k, a, b, lam) for n in (m, m - 1) for k in (0, 1))
    beta0 = ilin((1, at_plus), (1, at_minus), (1, imul(drift, q0)))
    beta1 = ilin((1, at_plus), (-1, at_minus), (1, imul(drift, q1)))
    g = ilin((1, imul(alpha0, beta1)), (-1, imul(alpha1, beta0)))
    if homogeneous_value(g, -a, b) != 0:
        raise ArithmeticError("expanded CSC obstruction misses the root r_minus = -r_plus")
    return g, (b ** m * lam) ** 2


def csc_condition_polynomial(m: int, r_plus) -> Poly:
    """The CSC obstruction alpha0 beta1 - alpha1 beta0 as a polynomial in r_minus.

    With P = (1 + r_plus z)^m (1 + r_minus z)^m and Q the same with m - 1,
    alpha_k is the integral of z^k P over [-1, 1], and beta_0, beta_1 are
    P(1) + P(-1) and P(1) - P(-1), each plus 2m (r_plus - r_minus) times
    the integral of z^k Q.  Each term is expanded in r_minus with binomial
    coefficients (see _moment_row), in integers over b^m lcm(1..2m+1) for
    r_plus = a/b, so the result is exact and has degree at most 2m.  The
    balanced family r_minus = -r_plus is always a root; the expansion is
    checked against it and raises ArithmeticError if it misses.
    """
    return over(*_csc_obstruction(m, r_plus))


def csc_family_solve(m: int, r_plus, tolerance) -> list[Fraction]:
    """All roots of the CSC obstruction in r_minus over (-1, 0), each listed once.

    The balanced root -r_plus is exact; the rest are the second family's,
    so the one root search runs on the deflated obstruction, and the
    crossing at r_plus = 1/2 is never a double root there.
    """
    return sorted({-Fraction(r_plus), *csc_second_family_roots(m, r_plus, tolerance)})


def _second_family(m: int, r_plus) -> tuple[IntPoly, int]:
    """(h, den): the deflated obstruction is h / den, with h in Z[r_minus]."""
    g, den = _csc_obstruction(m, r_plus)
    a, b = Fraction(r_plus).as_integer_ratio()   # r_minus + r_plus = (a + b r_minus) / b
    return exact_quotient(g, (a, b)), den // b


def csc_second_family_polynomial(m: int, r_plus) -> Poly:
    """The obstruction with the balanced family divided out.

    r_minus = -r_plus is always a root, so (r_minus + r_plus) divides
    the obstruction exactly; the quotient vanishes precisely on the
    second solution family.  For m >= 2 that family only covers part of
    the parameter interval, passing through the crossing point at
    r_plus = 1/2.
    """
    return over(*_second_family(m, r_plus))


def csc_second_family_roots(m: int, r_plus, tolerance) -> list[Fraction]:
    """Second-family solutions r_minus in (-1, 0), refined to the tolerance."""
    tol = _tolerance(tolerance)
    h, _ = _second_family(m, r_plus)
    if not h:
        raise ArithmeticError("deflated obstruction vanished identically")
    return roots_in_interval(h, Fraction(-1), Fraction(0), tol)


def csc_family_sweep(m: int, step, tolerance,
                     second_only: bool = False) -> Iterator[tuple[Fraction, Fraction]]:
    """(r_plus, r_minus) for r_plus = step, 2 step, ... below 1 and each root.

    The roots are those of csc_family_solve, or of csc_second_family_roots
    when second_only is set.  The arguments are checked before the first
    row: the step lies in (0, 1) and gives at most MAX_SWEEP_POINTS r_plus.
    """
    step = Fraction(step)
    if not 0 < step < 1:
        raise ValueError("sweep step must lie in (0, 1)")
    if ceil(1 / step) - 1 > MAX_SWEEP_POINTS:
        raise StageTooLarge(f"{ceil(1 / step) - 1} sweep points exceed bound {MAX_SWEEP_POINTS}")
    _csc_args(m, step)
    _tolerance(tolerance)
    solve = csc_second_family_roots if second_only else csc_family_solve

    def rows() -> Iterator[tuple[Fraction, Fraction]]:
        for k in range(1, ceil(1 / step)):
            rp = k * step
            for root in solve(m, rp, tolerance):
                yield rp, root

    return rows()


def cproj_parameters(data: AdmissibleData, alpha, beta) -> tuple[Fraction, ...]:
    """(beta r - alpha)/(beta - alpha r) for each r; SingularParameters unless |alpha| < |beta|.

    The denominator never vanishes: |alpha r| <= |alpha| < |beta|, since
    AdmissibleData keeps every |r| < 1.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    if beta * beta <= alpha * alpha:
        raise SingularParameters("need |alpha| < |beta|")
    (A, B), _ = ints_over((alpha, beta))
    new_r = []
    for _, _, r in data.components:
        pole, image = B * r.denominator - A * r.numerator, B * r.numerator - A * r.denominator
        if image == 0:
            raise SingularParameters("parameter collapses to zero")
        new_r.append(Fraction(image, pole))
    return tuple(new_r)


def cproj_transform(F: Poly, data: AdmissibleData, alpha, beta) -> tuple[Poly, AdmissibleData]:
    """Change of admissible profile along a fractional momentum reparametrization.

    Sends F to (beta - alpha z)^(d+1) F((alpha - beta z)/(alpha z - beta))
    normalized by (beta^2 - alpha^2) prod (beta - alpha r_a)^{d_a}, and
    the parameters by cproj_parameters.  Requires deg F <= d + 1 for a
    polynomial image.  In integers, with alpha = A/e, beta = B/e and
    r_a = n_a/q_a, the image is prod q_a^(d_a) sum_k (-1)^k F_k
    (A - B z)^k (B - A z)^(d+1-k) over (B^2 - A^2) prod (B q_a - A n_a)^(d_a).
    """
    F, alpha, beta = poly(F), Fraction(alpha), Fraction(beta)
    d = data.dim
    if degree(F) > d + 1:
        raise DegreeTooHigh(f"degree {degree(F)} exceeds cap {d + 1}")
    new_r = cproj_parameters(data, alpha, beta)
    (A, B), _ = ints_over((alpha, beta))
    scale = prod(r.denominator ** d_a for d_a, _, r in data.components)
    denom = (B * B - A * A) * prod((B * r.denominator - A * r.numerator) ** d_a
                                   for d_a, _, r in data.components)
    a_pows = list(accumulate([(A, -B)] * (len(F) - 1), imul, initial=(1,)))
    b_pows = list(accumulate([(B, -A)] * (d + 1), imul, initial=(1,)))
    f, f_den = ints_over(F)
    out = ilin(*(((-1) ** k * scale * c, imul(a_pows[k], b_pows[d + 1 - k]))
                 for k, c in enumerate(f) if c))
    return over(out, f_den * denom), data.with_r(new_r)
