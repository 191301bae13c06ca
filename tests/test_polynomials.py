import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bott import admissible as adm
from bott import polynomials
from bott.polynomials import (
    Poly2,
    SingularSystem,
    count_roots_open,
    degree,
    imul,
    lagrange_interpolate,
    peval,
    poly,
    refine_root,
    roots_in_interval,
    solve_fraction_free,
    solve_linear,
)
from conftest import (
    FractionPoly2,
    _solve,
    bounds_on_box_oracle,
    count_roots_open_oracle,
    definite_integral,
    determinant_oracle,
    isolate_roots_oracle,
    padd,
    pderiv,
    pdiv_exact,
    pdivmod,
    pgcd_oracle,
    pinteg,
    pmul,
    ppow,
    poly2_value,
    pscale,
    refine_root_oracle,
    roots_in_interval_oracle,
    squarefree_part_oracle,
    sturm_roots_int_oracle,
)

small_fracs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
polys = st.lists(small_fracs, min_size=0, max_size=6).map(poly)
nonzero_polys = polys.filter(lambda p: p != ())
sparse_polys = st.lists(st.one_of(st.just(Fraction(0)), small_fracs),
                        min_size=2, max_size=7).map(poly).filter(lambda p: degree(p) >= 1)


class TestRingOps:
    @given(polys, polys, polys)
    def test_mul_distributes(self, p, q, r):
        assert pmul(p, padd(q, r)) == padd(pmul(p, q), pmul(p, r))

    @given(polys, nonzero_polys)
    @settings(max_examples=80)
    def test_divmod_identity(self, p, q):
        quo, rem = pdivmod(p, q)
        assert padd(pmul(quo, q), rem) == p
        assert degree(rem) < degree(q) or rem == ()

    @given(polys)
    def test_derivative_of_antiderivative(self, p):
        assert pderiv(pinteg(p)) == p

    def test_exact_division_raises_on_remainder(self):
        with pytest.raises(ValueError):
            pdiv_exact(poly([1, 1]), poly([0, 1]))

    def test_integer_exact_quotient(self):
        assert polynomials.exact_quotient((-1, 0, 1), (1, 1)) == (-1, 1)
        with pytest.raises(ArithmeticError):
            polynomials.exact_quotient((1, 1), (0, 2))   # a leading coefficient left over
        with pytest.raises(ArithmeticError):
            polynomials.exact_quotient((1, 1), (0, 1))   # a nonzero remainder

    def test_integer_product_with_zero(self):
        assert imul((), (1, 2)) == imul((3,), ()) == ()
        assert imul((1, 1), (-1, 1)) == (-1, 0, 1)

    @given(polys, small_fracs, small_fracs)
    def test_definite_integral_additivity(self, p, a, b):
        mid = (a + b) / 2
        assert definite_integral(p, a, b) == \
            definite_integral(p, a, mid) + definite_integral(p, mid, b)


class TestRoots:
    def test_zero_polynomial_refused(self):
        with pytest.raises(ValueError):
            count_roots_open((), 0, 1)
        with pytest.raises(ValueError):
            roots_in_interval((), 0, 1, Fraction(1, 100))

    def test_known_roots_found(self):
        roots = [Fraction(-2), Fraction(1, 3), Fraction(1)]
        p = poly([1])
        for r in roots:
            p = pmul(p, poly([-r, 1]))
        p = pscale(p, Fraction(7, 3))
        assert count_roots_open(p, -3, 2) == 3
        found = roots_in_interval(p, -3, 2, Fraction(1, 10 ** 12))
        assert found == roots

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=4))
    @settings(max_examples=60)
    def test_linear_factor_products(self, int_roots):
        p = poly([1])
        for r in int_roots:
            p = pmul(p, poly([-r, 1]))
        distinct = sorted({r for r in int_roots if -6 < r < 6})
        assert count_roots_open(p, -6, 6) == len(distinct)
        found = roots_in_interval(p, -6, 6, Fraction(1, 10 ** 9))
        assert found == [Fraction(r) for r in distinct]

    def test_squarefree_part(self):
        # with a repeated root in the interval, the isolation and the
        # refinement run on the squarefree part of p
        p = pmul(ppow(poly([1, 1]), 2), poly([-3, 1]))
        sf, brackets = polynomials._squarefree_brackets(p, -2, 4)
        assert sf == polynomials._divide_out_gcd(polynomials._primitive(p))
        assert degree(sf) == 2 and len(brackets) == 2
        assert peval(sf, -1) == 0 and peval(sf, 3) == 0

    def test_endpoint_roots_excluded(self):
        p = pmul(poly([-1, 1]), poly([2, 1]))
        assert count_roots_open(p, -2, 1) == 0
        assert count_roots_open(p, -3, 1) == 1

    def test_multiple_root_counted_once(self):
        p = ppow(poly([Fraction(-1, 2), 1]), 3)
        assert count_roots_open(p, 0, 1) == 1
        assert roots_in_interval(p, 0, 1, Fraction(1, 10 ** 9)) == [Fraction(1, 2)]

    def test_isolation_intervals_disjoint(self):
        p = pmul(pmul(poly([-1, 1]), poly([Fraction(-9, 8), 1])), poly([1, 1]))
        spans = polynomials._squarefree_brackets(p, -2, 2)[1]
        assert len(spans) == 3
        for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
            assert b1 <= a2

    @given(st.lists(small_fracs, min_size=2, max_size=5).map(poly))
    @settings(max_examples=60)
    def test_interpolation_reproduces(self, p):
        points = [(Fraction(i), peval(p, i)) for i in range(len(p) + 1)]
        assert lagrange_interpolate(points) == p


# products of rational linear factors, repeated roots included, times a
# rational scale and optionally an irreducible quadratic with irrational roots
linear_factors = st.lists(st.builds(Fraction, st.integers(-12, 12), st.integers(1, 5)),
                          min_size=1, max_size=6)
scales = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 7))


def from_roots(roots, scale, quadratic=False):
    p = poly([scale])
    for r in roots:
        p = pmul(p, poly([-r, 1]))
    if quadratic:
        p = pmul(p, poly([-2, 0, 1]))     # roots +-sqrt(2)
    return p


def assert_matches_oracle(p, a, b, tol=Fraction(1, 10 ** 9)):
    """Counts and refined roots equal the Fraction-Sturm oracle's, and each
    Descartes bracket is a node of the same dyadic tree of (a, b), nested
    in one Sturm bracket, one to one."""
    assert count_roots_open(p, a, b) == count_roots_open_oracle(p, a, b)
    assert roots_in_interval(p, a, b, tol) == roots_in_interval_oracle(p, a, b, tol)
    got = polynomials._squarefree_brackets(p, a, b)[1]
    want = isolate_roots_oracle(p, a, b)
    assert len(got) == len(want)
    for (lo, hi), (olo, ohi) in zip(got, want):
        assert olo <= lo <= hi <= ohi
        if lo < hi:
            # hi - lo = (b - a) / 2^j, and lo = a + k (hi - lo)
            width = (Fraction(hi) - lo) / (Fraction(b) - a)
            assert width.numerator == 1 and width.denominator.bit_count() == 1
            assert ((lo - a) / (hi - lo)).denominator == 1


class TestAgainstFractionSturm:
    """Descartes isolation on integers against the Fraction-Sturm oracle in conftest."""

    @given(linear_factors, scales, st.booleans())
    @settings(max_examples=80, deadline=None)
    @example([Fraction(1, 2)] * 3 + [Fraction(-1, 3)] * 2, Fraction(-7, 3), False)
    @example([Fraction(0), Fraction(1, 4), Fraction(1, 4), Fraction(-3)], Fraction(5), True)
    def test_root_routines(self, roots, scale, quadratic):
        p = from_roots(roots, scale, quadratic)
        for a, b in ((-3, 3), (Fraction(-1, 3), Fraction(1, 2)), (0, 1), (-1, 0)):
            assert_matches_oracle(p, a, b)

    @given(linear_factors, scales, st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_squarefree_part_and_gcd(self, roots, scale, quadratic):
        # the fallback gives the squarefree part, which times gcd(p, p')
        # gives p back; the modular test says coprime exactly when p is
        # squarefree (the discriminants of these p have only small primes)
        p = from_roots(roots, scale, quadratic)
        f = polynomials._primitive(p)
        sf = polynomials._divide_out_gcd(f)
        assert sf == polynomials._primitive(squarefree_part_oracle(p))
        g = polynomials._primitive(pgcd_oracle(p, pderiv(p)))
        assert imul(sf, g) == f
        assert polynomials._coprime_to_derivative(f) == (degree(g) == 0)

    # sparse coefficients: zero runs in the Taylor shifts, and remainder
    # sequences whose degree drops by more than one in the fallback
    @given(sparse_polys, small_fracs)
    @settings(max_examples=100, deadline=None)
    @example(poly([0, 1, 0, -1]), Fraction(1, 2))
    @example(poly([0, 0, -1, 0, 0, 0, -3]), Fraction(0))
    @example(poly([-2, 4, -1, 0, -1]), Fraction(1))
    def test_random_polynomials(self, p, x):
        for a, b in ((x - 2, x + 1), (-3, 3), (-4, x)):
            assert_matches_oracle(p, a, b)

    # roots at both ends of (a, b) and at its dyadic points, where the tree
    # meets them as degenerate brackets, each with a multiplicity
    @given(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)),
           st.builds(Fraction, st.integers(1, 9), st.integers(1, 3)),
           st.lists(st.tuples(st.integers(0, 16), st.integers(1, 3)), min_size=1, max_size=4),
           scales, st.booleans())
    @settings(max_examples=50, deadline=None)
    @example(Fraction(-1), Fraction(2), [(8, 1), (0, 2), (16, 1)], Fraction(1), False)
    @example(Fraction(0), Fraction(1), [(4, 3), (12, 1), (5, 2)], Fraction(-3), True)
    def test_dyadic_and_endpoint_roots(self, a, width, spots, scale, quadratic):
        roots = [a + width * Fraction(k, 16) for k, mult in spots for _ in range(mult)]
        p = from_roots(roots, scale, quadratic)
        assert_matches_oracle(p, a, a + width)
        assert_matches_oracle(p, a - width, a + width)

    @given(nonzero_polys, small_fracs)
    def test_sign_at_matches_horner(self, p, x):
        value = peval(p, x)
        f = polynomials._primitive(p)
        assert polynomials._sign_at(f, x) == (value > 0) - (value < 0)

    # brackets with unrelated, non-dyadic denominators and tolerances that
    # are not powers of two: the integer bisection keeps a common
    # denominator that doubles, the oracle a reduced Fraction per step
    @given(linear_factors, scales, st.booleans(), small_fracs, small_fracs,
           st.builds(Fraction, st.integers(1, 9), st.sampled_from((7, 1000, 10 ** 9))))
    @settings(max_examples=100, deadline=None)
    @example([Fraction(1, 3)], Fraction(1), False, Fraction(-1, 7), Fraction(5, 6),
             Fraction(1, 10 ** 9))
    def test_refine_root_integer_bisection(self, roots, scale, quadratic, lo, hi, tol):
        p = from_roots(roots, scale, quadratic)
        lo, hi = min(lo, hi), max(lo, hi)
        sf = polynomials._divide_out_gcd(polynomials._primitive(p))
        assert refine_root(sf, lo, hi, tol) == refine_root_oracle(p, lo, hi, tol)

    # repeated roots send the isolation through the remainder-sequence
    # fallback, which must still count and isolate exactly, also on
    # intervals whose endpoints are roots
    @given(st.lists(st.tuples(st.builds(Fraction, st.integers(-12, 12), st.integers(1, 5)),
                              st.integers(1, 3)), min_size=1, max_size=4),
           scales, st.booleans())
    @settings(max_examples=60, deadline=None)
    @example([(Fraction(1, 2), 3), (Fraction(-1, 3), 2)], Fraction(-7, 3), False)
    @example([(Fraction(-1), 2), (Fraction(2), 1)], Fraction(1), False)
    @example([(Fraction(-1), 2), (Fraction(3), 1)], Fraction(1), False)
    def test_one_remainder_sequence_chain(self, roots, scale, quadratic):
        p = from_roots([r for r, k in roots for _ in range(k)], scale, quadratic)
        sf = polynomials._divide_out_gcd(polynomials._primitive(p))
        assert sf == polynomials._primitive(squarefree_part_oracle(p))
        assert math.gcd(*sf) == 1
        points = sorted({r for r, _ in roots})
        spans = [(-3, 3), (points[0] - 1, points[-1]), (points[0], points[-1] + 1),
                 *zip(points, points[1:])]
        for a, b in spans:
            assert_matches_oracle(p, a, b)

    def test_one_chain_per_isolation(self, monkeypatch):
        # the remainder sequence runs only when the modular test finds a
        # repeated root, and then once, for the isolation and every refinement
        calls = []
        real = polynomials._divide_out_gcd
        monkeypatch.setattr(polynomials, "_divide_out_gcd",
                            lambda f: calls.append(f) or real(f))
        tol = Fraction(1, 10 ** 12)
        for roots, quadratic, fallbacks in [
            ([Fraction(-1, 2), Fraction(1, 3), Fraction(1, 5), 0], True, 0),
            ([Fraction(-1, 2)] * 2 + [Fraction(1, 3), Fraction(1, 5), 0], True, 1),
            ([Fraction(5), Fraction(5)], False, 0),     # no variation on (-2, 2): no gcd at all
        ]:
            calls.clear()
            p = from_roots(roots, 3, quadratic)
            assert roots_in_interval(p, -2, 2, tol) == roots_in_interval_oracle(p, -2, 2, tol)
            assert len(calls) == fallbacks

    @pytest.mark.parametrize("f, a, b, count", [
        ((-1, 0, 2 ** 61 - 1), 0, 1, 1),            # the prime divides lc f
        ((-(2 ** 61 - 1), 0, 1), 0, 2 ** 31, 1),    # f = x^2 mod p: gcd(f, f') = x there
    ])
    def test_unlucky_prime_falls_back(self, f, a, b, count):
        # squarefree f that the modular test cannot certify: the remainder
        # sequence finds gcd(f, f') = 1, and f is isolated as it is
        assert not polynomials._coprime_to_derivative(f)
        assert polynomials._divide_out_gcd(f) == f
        assert count_roots_open(f, a, b) == count_roots_open_oracle(poly(f), a, b) == count


# r_plus with denominators up to 10, as in test_admissible, and a few at the
# largest m, where the Fraction oracle is too slow but the integer Sturm
# chain, which bisects on the same dyadic tree, is not
SMALL_RPLUS = sorted({Fraction(p, q) for q in range(2, 11) for p in range(1, q)})


@pytest.mark.parametrize("m, rplus", [
    *((m, None) for m in range(1, 9)),
    *((16, rp) for rp in (Fraction(1, 2), Fraction(1, 3), Fraction(9, 10), Fraction(4094, 4095))),
])
def test_csc_grid_matches_sturm(m, rplus):
    tol = adm.DEFAULT_CSC_TOLERANCE
    for rp in SMALL_RPLUS if rplus is None else [rplus]:
        g, _ = adm._csc_obstruction(m, rp)
        assert adm.csc_family_solve(m, rp, tol) == sturm_roots_int_oracle(g, -1, 0, tol)


class TestPoly2:
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), small_fracs),
                    max_size=5),
           st.integers(0, 7), st.integers(0, 7))
    @settings(max_examples=60)
    def test_bounds_contain_samples(self, terms, num_x, num_y):
        p = Poly2({})
        for i, j, c in terms:
            p = p + Poly2({(i, j): c})
        x0, x1 = Fraction(1, 4), Fraction(3, 4)
        y0, y1 = Fraction(1, 8), Fraction(7, 8)
        lo, hi = bounds_on_box_oracle(p, x0, x1, y0, y1)
        x = x0 + (x1 - x0) * Fraction(num_x, 7) if num_x else x0
        y = y0 + (y1 - y0) * Fraction(num_y, 7) if num_y else y0
        assert lo <= poly2_value(p, x, y) <= hi

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), small_fracs), max_size=6),
           st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), small_fracs), max_size=6),
           small_fracs, small_fracs, small_fracs)
    @settings(max_examples=80, deadline=None)
    def test_ring_ops_match_fraction_dicts(self, p_terms, q_terms, c, x, y):
        def build(terms, cls):
            out = cls({})
            for i, j, a in terms:
                out = out + cls({(i, j): a})
            return out

        p, q = build(p_terms, Poly2), build(q_terms, Poly2)
        po, qo = build(p_terms, FractionPoly2), build(q_terms, FractionPoly2)
        pairs = [(p, po), (q, qo), (p + q, po + qo), (p - q, po - qo), (p * q, po * qo),
                 (-p, -po), (p * c, po * c), (c * q, qo * c), (p.diff(0), po.diff(0)),
                 (p.diff(1), po.diff(1)), ((p * q).diff(0), (po * qo).diff(0))]
        for got, want in pairs:
            assert got.coeffs == want.coeffs
            # one denominator: the smallest, and every coefficient an integer over it
            assert got.den == math.lcm(*(a.denominator for a in want.coeffs.values()))
            assert all(Fraction(n, got.den) == want.coeffs[k] for k, n in got.num.items())
        assert peval(p.substitute_x(x), y) == po.eval(x, y)
        assert peval(p.substitute_y(y), x) == po.eval(x, y)
        assert (p == q) == (po.coeffs == qo.coeffs)
        # equal polynomials built along different paths are equal, with equal hashes
        for a, b in ((p * q, q * p), ((p + q) - q, p), (p * c + q * c, (p + q) * c)):
            assert a == b and hash(a) == hash(b)
        assert (p - p).is_zero() and p - p == 0 and hash(p - p) == hash(Poly2({}))

    def test_mixed_partials_commute(self):
        z1, z2 = Poly2.var(0), Poly2.var(1)
        p = z1 * z1 * z2 + 3 * z2 * z2 * z1 - 5
        assert p.diff(0).diff(1) == p.diff(1).diff(0)

    def test_negative_box_rejected(self):
        with pytest.raises(ValueError):
            bounds_on_box_oracle(Poly2.var(0), -1, 0, 0, 1)


solve_entries = st.one_of(st.integers(-9, 9), small_fracs)


class TestSolveLinear:
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.lists(st.lists(small_fracs, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(small_fracs, min_size=n, max_size=n))))
    def test_solution_satisfies_system(self, system):
        rows, x = system
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
        try:
            solution = solve_linear(rows, rhs)
        except SingularSystem:
            return
        assert [sum(a * b for a, b in zip(row, solution)) for row in rows] == rhs

    # ints and Fractions mixed; a zero first pivot forces a row swap, and a
    # last row that is a multiple of the first makes the system singular
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.lists(st.lists(solve_entries, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(solve_entries, min_size=n, max_size=n))), st.booleans(), st.booleans())
    @settings(max_examples=150, deadline=None)
    @example(([[0, 1], [1, 0]], [2, 3]), False, False)
    @example(([[Fraction(1, 2), 3, 0], [0, Fraction(-2, 3), 1], [4, 0, 5]], [1, 0, 1]), True, False)
    def test_matches_gauss_jordan_oracle(self, system, zero_pivot, singular):
        rows, rhs = [list(row) for row in system[0]], system[1]
        if zero_pivot:
            rows[0][0] = 0
        if singular:
            rows[-1] = [3 * a for a in rows[0]] if len(rows) > 1 else [0]
        expected = _solve([list(col) for col in zip(*rows)], [Fraction(c) for c in rhs])
        if expected is None:
            with pytest.raises(SingularSystem):
                solve_linear(rows, rhs)
            return
        assert solve_linear(rows, rhs) == expected
        # the last Bareiss pivot is the determinant of the rows scaled to integers
        y, det = solve_fraction_free(rows, rhs)
        scales = [math.lcm(*(Fraction(e).denominator for e in (*row, c)))
                  for row, c in zip(rows, rhs)]
        assert det == abs(determinant_oracle([[e * k for e in row]
                                              for row, k in zip(rows, scales)]))
        assert all(isinstance(v, int) for v in y)

    def test_unique_solution(self):
        rows = [[Fraction(0), Fraction(2)], [Fraction(3), Fraction(1)]]
        assert solve_linear(rows, [Fraction(4), Fraction(5)]) == [1, 2]

    def test_singular_system_raises(self):
        rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        with pytest.raises(SingularSystem):
            solve_linear(rows, [Fraction(1), Fraction(2)])
        with pytest.raises(ArithmeticError):
            solve_linear([[Fraction(0)]], [Fraction(0)])
