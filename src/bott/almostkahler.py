"""Extremal almost-Kahler metrics fibered over the unit square.

For fiber momentum polytope [0,1]^2 and positive affine weight
Q = p0 + p1 z1 + p2 z2, the extremal equation

    4 - P11,11 - 2 P12,12 - P22,22 = (A1 z1 + A2 z2 + A3) Q

with the square's boundary conditions forces

    P11 = z1 (1 - z1) (2 Q + a11 z1 (1 - z1))
    P12 = a12 z1 (1 - z1) z2 (1 - z2)
    P22 = z2 (1 - z2) (2 Q + a22 z2 (1 - z2))

and reduces to a 6 x 6 linear system in (a11, a12, a22, A1, A2, A3).
Its determinant factors exactly as
-96 (2 p0 + p1 + p2) (6 p0^2 + 6 p0 p1 + p1^2 + 6 p0 p2 + 3 p1 p2 + p2^2),
which is nonzero whenever Q is positive on the square, so the solution
is unique.  Positivity of the metric is certified from Bernstein
coefficients under exact dyadic subdivision.  The complex-structure
integrability conditions on the inverse matrix are polynomial identities
over det(P)^2, so they are decided exactly by expanding both sides (they
fail for p1, p2 > 0: the metrics are genuinely almost Kahler).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, perm

from .polynomials import Poly2, poly as upoly, solve_linear

DEFAULT_POSITIVITY_DEPTH = 20


class Inconclusive(RuntimeError):
    """Subdivision hit the refinement cap without certifying a sign."""


@dataclass(frozen=True)
class SquareFiberData:
    """Weight data (p0, p1, p2) with Q positive on the closed unit square."""

    p0: Fraction
    p1: int
    p2: int

    def __post_init__(self):
        if self.p0 <= 0:
            raise ValueError("p0 must be positive")
        if self.p0 + self.p1 <= 0 or self.p0 + self.p2 <= 0 \
                or self.p0 + self.p1 + self.p2 <= 0:
            raise ValueError("Q must be positive at the square corners")

    @classmethod
    def make(cls, p0, p1: int, p2: int) -> "SquareFiberData":
        return cls(Fraction(p0), int(p1), int(p2))

    def q_poly(self) -> Poly2:
        z1, z2 = Poly2.var(0), Poly2.var(1)
        return Poly2.constant(self.p0) + self.p1 * z1 + self.p2 * z2


@dataclass(frozen=True)
class AkSolution:
    a11: Fraction
    a12: Fraction
    a22: Fraction
    A1: Fraction
    A2: Fraction
    A3: Fraction

    def to_json(self) -> dict:
        return {k: str(getattr(self, k)) for k in ("a11", "a12", "a22", "A1", "A2", "A3")}


def system_matrix(data: SquareFiberData) -> tuple[list[list[Fraction]], list[Fraction]]:
    """The 6 x 6 extremal system in (a11, a12, a22, A1, A2, A3)."""
    p0, p1, p2 = data.p0, Fraction(data.p1), Fraction(data.p2)
    zero = Fraction(0)
    rows = [
        [Fraction(-2), Fraction(-2), Fraction(-2), zero, zero, -p0],
        [Fraction(12), Fraction(4), zero, -p0, zero, -p1],
        [zero, Fraction(4), Fraction(12), zero, -p0, -p2],
        [Fraction(-12), zero, zero, -p1, zero, zero],
        [zero, Fraction(-8), zero, -p2, -p1, zero],
        [zero, zero, Fraction(-12), zero, -p2, zero],
    ]
    rhs = [
        Fraction(-4) + 4 * p1 + 4 * p2 - 8 * p0,
        -16 * p1,
        -16 * p2,
        zero, zero, zero,
    ]
    return rows, rhs


def system_determinant(data: SquareFiberData) -> Fraction:
    p0, p1, p2 = data.p0, Fraction(data.p1), Fraction(data.p2)
    quadratic = (6 * p0 * p0 + 6 * p0 * p1 + p1 * p1
                 + 6 * p0 * p2 + 3 * p1 * p2 + p2 * p2)
    return -96 * (2 * p0 + p1 + p2) * quadratic


def solve_ak(data: SquareFiberData) -> AkSolution:
    """Unique exact solution of the square-fiber extremal system."""
    return AkSolution(*solve_linear(*system_matrix(data)))


def assemble_p(data: SquareFiberData, sol: AkSolution) -> tuple[Poly2, Poly2, Poly2]:
    """The polynomial matrix entries P11, P12, P22 of the solution."""
    z1, z2 = Poly2.var(0), Poly2.var(1)
    w1 = z1 * (1 - z1)
    w2 = z2 * (1 - z2)
    q = data.q_poly()
    p11 = w1 * (2 * q + sol.a11 * w1)
    p12 = sol.a12 * w1 * w2
    p22 = w2 * (2 * q + sol.a22 * w2)
    return p11, p12, p22


def extremal_residual(data: SquareFiberData, sol: AkSolution) -> Poly2:
    """LHS minus RHS of the extremal equation; zero for a true solution."""
    z1, z2 = Poly2.var(0), Poly2.var(1)
    p11, p12, p22 = assemble_p(data, sol)
    lhs = (Poly2.constant(4) - p11.diff(0).diff(0) - 2 * p12.diff(0).diff(1)
           - p22.diff(1).diff(1))
    affine = sol.A1 * z1 + sol.A2 * z2 + Poly2.constant(sol.A3)
    return lhs - affine * data.q_poly()


def _bernstein(poly: Poly2) -> list[list[int]]:
    """Tensor Bernstein coefficients on [0, 1]^2 of degrees (dx, dy), times dx! dy! den.

    In one variable, n! b_k = sum_(i <= k) k!/(k - i)! (n - i)! c_i.
    """
    dx = max((i for i, _ in poly.num), default=0)
    dy = max((j for _, j in poly.num), default=0)
    wx = [[perm(k, i) * factorial(dx - i) for i in range(k + 1)] for k in range(dx + 1)]
    wy = [[perm(l, j) * factorial(dy - j) for j in range(l + 1)] for l in range(dy + 1)]
    return [[sum(wx[k][i] * wy[l][j] * c for (i, j), c in poly.num.items()
                 if i <= k and j <= l) for l in range(dy + 1)] for k in range(dx + 1)]


def _halves(b: list[int]) -> tuple[list[int], list[int]]:
    """de Casteljau at 1/2: the coefficients on the two halves, times 2^n."""
    n = len(b) - 1
    left, right = [], []
    for r in range(n + 1):
        left.append(b[0] << (n - r))
        right.append(b[-1] << (n - r))
        b = [u + v for u, v in zip(b, b[1:])]
    return left, right[::-1]


def _quarters(grid: list[list[int]]) -> list[list[list[int]]]:
    """The coefficients on the quarter boxes (z1, z2) = (low, low), (high,
    low), (low, high), (high, high), times 2^(dx + dy); the first one's
    entry [dx][dy] is the value at the centre."""
    by_z2 = [_halves(row) for row in grid]
    out = []
    for half in (0, 1):
        columns = [_halves(col) for col in zip(*(h[half] for h in by_z2))]
        out += [list(zip(*(c[z1_half] for c in columns))) for z1_half in (0, 1)]
    return out


def _certify_sign(poly: Poly2, depth: int) -> bool:
    """True if poly > 0 on the open unit square, False if it is not.

    A box is certified when all of poly's Bernstein coefficients on it,
    integers with one positive scale, are positive (their convex hull holds
    the range; Garloff 1986).  Else a nonpositive value at its centre
    decides False, or it is split there by de Casteljau, depth first.
    Raises Inconclusive at the depth cap (touching zeros cannot be separated).
    """
    boxes = [(_bernstein(poly), 0)]
    while boxes:
        grid, d = boxes.pop()
        if all(c > 0 for row in grid for c in row):
            continue
        quarters = _quarters(grid)
        if quarters[0][-1][-1] <= 0:
            return False
        if d >= depth:
            raise Inconclusive("sign not certified within the refinement cap")
        boxes.extend((q, d + 1) for q in quarters)
    return True


def check_positivity(data: SquareFiberData, sol: AkSolution) -> bool:
    """Positive definiteness of the solution metric over the open square.

    Sylvester's criterion on P: the leading entry 2Q + a11 z1(1-z1) and
    the determinant P11 P22 - P12^2 (with the forced boundary factors
    stripped) must both be positive.
    """
    z1, z2 = Poly2.var(0), Poly2.var(1)
    w1 = z1 * (1 - z1)
    w2 = z2 * (1 - z2)
    q = data.q_poly()
    b1 = 2 * q + sol.a11 * w1
    b2 = 2 * q + sol.a22 * w2
    det_core = b1 * b2 - sol.a12 * sol.a12 * w1 * w2
    return all(_certify_sign(f, DEFAULT_POSITIVITY_DEPTH) for f in (b1, det_core))


def default_grid(density: int = 5) -> list[tuple[Fraction, Fraction]]:
    """The interior points (i, j) / (density + 1) of the unit square.

    Only the grid oracle of the tests samples integrability on it; it is
    kept, as admissible keeps lagrange_interpolate, because
    benchmark/tracer.py wraps it by this name.
    """
    if density < 1:
        raise ValueError("grid density must be a positive integer")
    step = Fraction(1, density + 1)
    return [(i * step, j * step)
            for i in range(1, density + 1) for j in range(1, density + 1)]


def check_integrability(data: SquareFiberData, sol: AkSolution) -> bool:
    """Exact test of the complex-structure identities.

    With H = P / Q, the inverse matrix H^{-1} = Q adj(P) / det P must
    satisfy d(H^11)/dz2 = d(H^12)/dz1 and d(H^22)/dz1 = d(H^12)/dz2.
    d(num/det) = (num' det - num det') / det^2, and det P is never the
    zero polynomial (it is 4 p0^2 z1 z2 to lowest order), so each identity
    holds iff the difference of the two numerators vanishes identically.
    """
    p11, p12, p22 = assemble_p(data, sol)
    q = data.q_poly()
    det_p = p11 * p22 - p12 * p12

    def deriv(num: Poly2, var: int) -> Poly2:
        return num.diff(var) * det_p - num * det_p.diff(var)

    # H^11 = Q P22 / det, H^12 = -Q P12 / det, H^22 = Q P11 / det
    h11, h12, h22 = q * p22, -(q * p12), q * p11
    return ((deriv(h11, 1) - deriv(h12, 0)).is_zero()
            and (deriv(h22, 0) - deriv(h12, 1)).is_zero())


def verify_boundary(data: SquareFiberData, p11: Poly2, p12: Poly2, p22: Poly2) -> bool:
    """Symbolic check of the twelve boundary identities on the square.

    Each edge forces the matching diagonal entry of P and P12 to vanish
    and pins the normal derivative of that diagonal entry to +-2 Q there.
    """
    q = data.q_poly()
    d11, d22 = p11.diff(0), p22.diff(1)
    # (restriction to the edge, its coordinate, diagonal entry, its normal derivative, sign)
    edges = [(Poly2.substitute_x, 0, p11, d11, 2), (Poly2.substitute_x, 1, p11, d11, -2),
             (Poly2.substitute_y, 0, p22, d22, 2), (Poly2.substitute_y, 1, p22, d22, -2)]
    return all(not on_edge(diagonal, z) and not on_edge(p12, z)
               and on_edge(normal, z) == upoly(sign * c for c in on_edge(q, z))
               for on_edge, z, diagonal, normal, sign in edges)
