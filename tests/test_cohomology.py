import random

import pytest
from hypothesis import example, given, settings, strategies as st

from bott import cohomology as coh
from bott.core import BottMatrix, equivalence_orbit, twist, normalize_twist
from conftest import (
    bott_matrices,
    chern_1_oracle,
    chern_total_oracle,
    class_from_json,
    lower_triangular,
    multiply_oracle,
    pontrjagin_total_oracle,
    seeded_towers,
    topological_twist0_factorization_exists,
)

M3 = BottMatrix.stage3


def random_class(ring, rng, max_coeff=9):
    coeffs = {mask: rng.randint(-max_coeff, max_coeff)
              for mask in rng.sample(range(1 << ring.n), min(4, 2 ** ring.n))}
    return coh.CohomologyClass(ring, coeffs)


def dense_class(ring, rng, max_coeff=9):
    """Up to all 2^n monomials, so that terms pushed by the sweep merge."""
    masks = rng.sample(range(1 << ring.n), rng.randint(1, 2 ** ring.n))
    return coh.CohomologyClass(ring, {mask: rng.randint(-max_coeff, max_coeff) for mask in masks})


def seeded_tower(seed, n, bound):
    rng = random.Random(seed)
    return lower_triangular(n, [rng.randint(-bound, bound) for _ in range(n * (n - 1) // 2)])


class TestGenerators:
    def test_y3_relation(self):
        a, b, c = 4, -7, 9
        R = coh.ring(M3(a, b, c))
        assert R.y(2) == b * R.x(0) + c * R.x(1) + R.x(2)

    def test_alpha(self):
        R = coh.ring(M3(5, 1, 2))
        assert R.alpha(0).is_zero()
        assert R.alpha(1) == 5 * R.x(0)

    def test_xy_vanishes(self):
        for params in [(1, 2, 3), (0, -4, 7), (2, 2, 2)]:
            R = coh.ring(M3(*params))
            for k in range(3):
                assert (R.x(k) * R.y(k)).is_zero()

    def test_x2_squared(self):
        a = 6
        R = coh.ring(M3(a, 0, 0))
        assert R.x(1) * R.x(1) == -a * R.monomial([0, 1])

    def test_xy_vanishes_random_matrices(self):
        rng = random.Random(20)
        for _ in range(100):
            n = rng.randint(2, 6)
            entries = [rng.randint(-5, 5) for _ in range(n * (n - 1) // 2)]
            it = iter(entries)
            rows = [[next(it) if j < i else (1 if i == j else 0) for j in range(n)]
                    for i in range(n)]
            R = coh.ring(BottMatrix.from_rows(rows))
            for k in range(n):
                assert (R.x(k) * R.y(k)).is_zero()


class TestRingAxioms:
    @given(bott_matrices(min_stage=2, max_stage=6, max_entry=3), st.integers(0, 10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_associative_commutative_distributive(self, A, seed):
        rng = random.Random(seed)
        R = coh.ring(A)
        u, v, w = (random_class(R, rng) for _ in range(3))
        assert (u * v) * w == u * (v * w)
        assert u * v == v * u
        assert u * (v + w) == u * v + u * w

    def test_unit(self):
        R = coh.ring(M3(3, 1, -2))
        v = coh.CohomologyClass(R, {0b101: 4, 0b010: -3})
        assert R.one() * v == v

    def test_basis_rank(self):
        # the square-free monomials form a basis: 2^n of them, top class present
        A = BottMatrix.identity(4)
        R = coh.ring(A)
        masks = range(1 << R.n)
        assert len(masks) == 16
        assert all(not coh.CohomologyClass(R, {m: 1}).is_zero() for m in masks)
        top = R.monomial(range(4))
        assert not top.is_zero()

    def test_grading(self):
        R = coh.ring(M3(1, 1, 1))
        v = R.x(2) * R.x(2)
        assert len({bin(m).count("1") for m, _ in v.terms()}) <= 1


class TestMultiplicationOracle:
    @given(bott_matrices(min_stage=1, max_stage=7, max_entry=4), st.integers(0, 10 ** 6))
    @settings(max_examples=80, deadline=None)
    def test_product_matches_oracle(self, A, seed):
        rng = random.Random(seed)
        R = coh.CohomologyRing(A)
        u, v = (random_class(R, rng) for _ in range(2))
        assert u * v == multiply_oracle(u, v)
        assert u * u == multiply_oracle(u, u)
        if A.n <= 6:
            u, v = (dense_class(R, rng) for _ in range(2))
            assert u * v == multiply_oracle(u, v)

    @given(bott_matrices(min_stage=1, max_stage=8, max_entry=3))
    @settings(max_examples=30, deadline=None)
    @example(seeded_tower(1, 9, 2))
    @example(seeded_tower(2, 9, 2))
    @example(seeded_tower(3, 9, 2))
    def test_totals_match_oracle(self, A):
        R = coh.CohomologyRing(A)
        assert R.chern_total() == chern_total_oracle(R)
        assert R.pontrjagin_total() == pontrjagin_total_oracle(R)

    @given(bott_matrices(min_stage=2, max_stage=7, max_entry=4))
    @settings(max_examples=60, deadline=None)
    def test_top_chern_coefficient_is_euler_characteristic(self, A):
        # c_n evaluates to chi(M_n) = 2^n on the top monomial x_1 ... x_n
        R = coh.CohomologyRing(A)
        assert R.chern_total().coefficient((1 << A.n) - 1) == 2 ** A.n

    def test_linear_factor_is_one_sweep(self, monkeypatch):
        R = coh.CohomologyRing(seeded_tower(4, 7, 2))
        total = R.chern_total()
        calls = []
        sweep = coh.CohomologyRing._times_xs

        def counted(ring, parts, p):
            calls.append(sorted(parts))
            return sweep(ring, parts, p)

        monkeypatch.setattr(coh.CohomologyRing, "_times_xs", counted)
        factor = R.one() + 2 * R.x(6) + R.alpha(6)
        product = total * factor
        assert len(calls) == 1
        assert calls[0] == sorted({6} | {j for j in range(6) if R.A.rows[6][j]})
        assert product == multiply_oracle(total, factor)


class TestChernClasses:
    def test_stage3_c1(self):
        for a, b, c in [(2, -3, 5), (0, 0, 0), (1, 1, 1)]:
            R = coh.ring(M3(a, b, c))
            assert R.chern_1() == (2 + a + b) * R.x(0) + (2 + c) * R.x(1) + 2 * R.x(2)

    def test_identity_total_chern(self):
        R = coh.ring(BottMatrix.identity(3))
        expected = R.one()
        for k in range(3):
            expected = expected * (R.one() + 2 * R.x(k))
        assert R.chern_total() == expected

    def test_twist_one_c1(self):
        k = (3, -2, 5)
        R = coh.ring(BottMatrix.twist_one(k))
        expected = 2 * R.x(3)
        for i, ki in enumerate(k):
            expected = expected + (2 + ki) * R.x(i)
        assert R.chern_1() == expected

    @pytest.mark.parametrize("n", range(1, 10))
    def test_c1_matches_class_sum(self, n):
        # c_1 is read off the column sums of A; the oracle adds 2 x_k + alpha_k
        for A in seeded_towers(n, 400 + n):
            R = coh.CohomologyRing(A)
            c1 = chern_1_oracle(R)
            assert R.chern_1() == c1
            assert R.stiefel_whitney_2() == c1.reduce_mod2()

    def test_y_is_x_plus_alpha(self):
        for A in seeded_towers(6, 7):
            R = coh.CohomologyRing(A)
            for k in range(6):
                assert R.y(k) == R.x(k) + R.alpha(k)
            for k in (-1, 6):
                with pytest.raises(ValueError, match="out of range"):
                    R.y(k)


class TestPontrjagin:
    def test_stage3_p1_identity_exhaustive(self):
        for a in range(-4, 5):
            for b in range(-4, 5):
                for c in range(-4, 5):
                    R = coh.ring(M3(a, b, c))
                    assert R.pontrjagin_class(1) == \
                        c * (2 * b - a * c) * R.monomial([0, 1])

    def test_examples(self):
        R = coh.ring(M3(0, 1, -1))
        assert R.pontrjagin_class(1) == -2 * R.monomial([0, 1])
        I4 = BottMatrix.identity(4)
        assert coh.ring(I4).pontrjagin_total() == coh.ring(I4).one()

    def test_twist_one_pontrjagin(self):
        k = (2, -1, 3)
        R = coh.ring(BottMatrix.twist_one(k))
        expected = R.zero()
        for i in range(3):
            for j in range(i + 1, 3):
                expected = expected + 2 * k[i] * k[j] * R.monomial([i, j])
        assert R.pontrjagin_class(1) == expected

    def test_two_step_towers(self):
        A = BottMatrix.twist_two((2, -3), (1, 4, -2))
        R = coh.ring(A)
        a_n, a_top = R.alpha(2), R.alpha(3)
        p = R.pontrjagin_total()
        assert p.graded_part(2) == a_n * a_n + a_top * a_top
        assert p.graded_part(4) == (a_n * a_n) * (a_top * a_top)

    @given(bott_matrices(min_stage=1, max_stage=8, max_entry=3))
    @settings(max_examples=30, deadline=None)
    def test_p1_is_c1_squared_minus_twice_c2(self, A):
        # p_1 = c_1^2 - 2 c_2 holds for every complex manifold; for a Bott
        # manifold it is also the sum of the alpha_k^2
        R = coh.ring(A)
        c = R.chern_total()
        c1, c2 = c.graded_part(1), c.graded_part(2)
        p1 = R.pontrjagin_total().graded_part(2)
        assert p1 == c1 * c1 - 2 * c2
        assert p1 == sum((R.alpha(k) * R.alpha(k) for k in range(A.n)), R.zero())

    @given(bott_matrices(min_stage=2, max_stage=5, max_entry=3))
    @settings(max_examples=40, deadline=None)
    def test_vanishing_above_twist(self, A):
        N = normalize_twist(A)
        t = twist(N)
        p = coh.ring(N).pontrjagin_total()
        for k in range(t + 1, N.n + 1):
            assert p.graded_part(2 * k).is_zero()

    def test_half_dimension_vanishing(self):
        # n = 2m with twist 2m - 1: the top Pontrjagin class dies
        rng = random.Random(4)
        for _ in range(20):
            entries = []
            for i in range(1, 4):
                row = [rng.randint(-3, 3) for _ in range(i)]
                if not any(row):
                    row[rng.randrange(i)] = 1
                entries.extend(row)
            A = BottMatrix.from_rows([
                [1, 0, 0, 0],
                [entries[0], 1, 0, 0],
                [entries[1], entries[2], 1, 0],
                [entries[3], entries[4], entries[5], 1],
            ])
            assert twist(A) == 3
            assert coh.ring(A).pontrjagin_total().graded_part(4).is_zero()


class TestMod2AndTriviality:
    def test_w2_stage3(self):
        for a in range(-2, 3):
            for b in range(-2, 3):
                for c in range(-2, 3):
                    w2 = coh.ring(M3(a, b, c)).stiefel_whitney_2()
                    expected = set()
                    if (a + b) % 2:
                        expected.add(0b001)
                    if c % 2:
                        expected.add(0b010)
                    assert w2.masks == frozenset(expected)

    def test_q_trivial(self):
        for a in range(-3, 4):
            for b in range(-3, 4):
                for c in range(-3, 4):
                    assert coh.ring(M3(a, b, c)).is_q_trivial() == (c * (2 * b - a * c) == 0)
        assert coh.ring(BottMatrix.identity(5)).is_q_trivial()
        assert not coh.ring(M3(0, 1, 1)).is_q_trivial()

    def test_square_zero_primitives(self):
        R = coh.ring(M3(2, 0, 0))
        betas = R.square_zero_primitives()
        assert betas[0] == R.x(0)
        assert betas[1] == R.x(1) + R.x(0)          # x2 + (a/2) x1, a = 2
        R = coh.ring(M3(1, 5, 5))
        betas = R.square_zero_primitives()
        assert betas[1] == 2 * R.x(1) + R.x(0)      # odd twisting doubles
        for beta in betas:
            assert (beta * beta).is_zero()

    def test_beta3_only_when_trivial(self):
        assert len(coh.ring(M3(0, 0, 0)).square_zero_primitives()) == 3
        assert len(coh.ring(M3(0, 1, 1)).square_zero_primitives()) == 2


class TestTopologicalTwist:
    def test_examples(self):
        for a in range(-3, 4):
            for c in range(-3, 4):
                assert coh.topological_twist(M3(2 * a, 2 * a * c, 2 * c)) == 0
        assert coh.topological_twist(BottMatrix.identity(5)) == 0
        assert coh.topological_twist(M3(1, 0, 0)) == 1

    @given(bott_matrices(max_stage=5))
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_twist(self, A):
        assert coh.topological_twist(A) <= twist(A)

    def test_factorization_oracle_stage3(self):
        for a in range(-2, 3):
            for b in range(-2, 3):
                for c in range(-2, 3):
                    A = M3(a, b, c)
                    assert (coh.topological_twist(A) == 0) == \
                        topological_twist0_factorization_exists(A), (a, b, c)

    def test_factorization_oracle_stage4(self):
        samples = [
            BottMatrix.identity(4),
            BottMatrix.from_rows([[1, 0, 0, 0], [2, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
            BottMatrix.from_rows([[1, 0, 0, 0], [2, 1, 0, 0], [4, 4, 1, 0], [0, 0, 0, 1]]),
            BottMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [2, 2, 1, 0], [0, 0, 0, 1]]),
            BottMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [2, 0, 2, 1]]),
            BottMatrix.from_rows([[1, 0, 0, 0], [2, 1, 0, 0], [0, 2, 1, 0], [0, 0, 0, 1]]),
        ]
        for A in samples:
            assert (coh.topological_twist(A) == 0) == \
                topological_twist0_factorization_exists(A), A


class TestOrbitInvariance:
    @given(bott_matrices(min_stage=1, max_stage=6, max_entry=3))
    @settings(max_examples=60, deadline=None)
    @example(lower_triangular(6, [1] + [0] * 13 + [1]))
    def test_cohomology_answers_constant_on_orbit(self, A):
        # biholomorphic towers have isomorphic cohomology rings
        def answers(B):
            R = coh.CohomologyRing(B)
            return (R.topological_twist(), R.is_q_trivial(), len(R.square_zero_primitives()),
                    R.chern_total().coefficient((1 << B.n) - 1))

        expected = answers(A)
        assert expected[3] == 2 ** A.n
        for B in equivalence_orbit(A).representatives:
            assert answers(B) == expected, B


class TestMonomialBits:
    # the set-bit reader and the mask builder against the literal expressions
    # they replaced, which the round trips cannot tell from an index shifted
    # the same way in both directions
    @given(bott_matrices(min_stage=1, max_stage=11, max_entry=2), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    @example(lower_triangular(11, [1, -2] * 27 + [2]), random.Random(0))
    def test_helpers_match_old_expressions(self, A, rng):
        ring = coh.CohomologyRing(A)
        v = dense_class(ring, rng) if rng.random() < 0.5 else ring.chern_total()
        n = A.n
        json_terms = v.to_json()["terms"]
        assert [t["monomial"] for t in json_terms] == \
            [[i + 1 for i in range(n) if m >> i & 1] for m, _ in v.terms()]
        old_repr = " + ".join(
            f"{c}*{mono}" if mono != "1" else f"{c}"
            for m, c in v.terms()
            for mono in ["".join(f"x{i + 1}" for i in range(n) if m >> i & 1) or "1"]) or "0"
        assert repr(v) == old_repr
        w = v.reduce_mod2()
        assert w.monomials() == sorted(tuple(i for i in range(n) if m >> i & 1) for m in w.masks)
        for m, c in v.terms():
            indices = [i for i in range(n) if m >> i & 1]
            mask = 0
            for i in indices:
                mask |= 1 << i
            assert mask == m and v.coefficient(indices) == c
            assert ring.monomial(indices).terms() == [(m, 1)]
        assert class_from_json(A, {"terms": json_terms}).terms() == v.terms()


class TestJsonMonomials:
    # to_json extends the index list of a term's prefix, its mask without
    # the top bit, when that prefix is a term, and reads the bits otherwise
    @staticmethod
    def assert_monomials(v):
        terms = v.to_json()["terms"]
        assert [t["monomial"] for t in terms] == [coh._bits(m, 1) for m, _ in v.terms()]
        assert len({id(t["monomial"]) for t in terms}) == len(terms)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_chern_and_pontrjagin_classes(self, n):
        # every prefix of a Chern term is a term; no prefix of a Pontrjagin
        # term is, since they all have even degree
        for A in seeded_towers(n, 500 + n):
            R = coh.CohomologyRing(A)
            self.assert_monomials(R.chern_total())
            self.assert_monomials(R.pontrjagin_total())

    @pytest.mark.parametrize("seed", range(12))
    def test_sparse_classes_skip_prefixes(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 10)
        R = coh.CohomologyRing(seeded_towers(n, seed)[0])
        # x1 x2 extends x1; x3 x4 has no prefix term x3
        masks = {m for m in range(1 << n) if rng.random() < 0.3} - {0b100} | {0b1, 0b11, 0b1100}
        prefixes = {m ^ 1 << m.bit_length() - 1 for m in masks if m}
        assert prefixes & masks and prefixes - masks
        self.assert_monomials(coh.CohomologyClass(R, {m: rng.choice((-3, -1, 2, 5))
                                                      for m in masks}))


class TestSerialization:
    def test_round_trip(self):
        A = M3(3, -1, 2)
        R = coh.ring(A)
        v = R.chern_total()
        assert class_from_json(A, v.to_json()) == v

    def test_big_coefficients(self):
        A = M3(10 ** 12, 10 ** 12, 10 ** 12)
        R = coh.ring(A)
        v = R.pontrjagin_total()
        assert class_from_json(A, v.to_json()) == v
