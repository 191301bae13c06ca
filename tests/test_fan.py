import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bott import cohomology as coh
from bott import fan as bfan
from bott.core import (BottMatrix, StageTooLarge, canonical_form, cotwist, equivalence_orbit,
                       twist)
from conftest import (
    SupportFunction,
    bott_matrices,
    csc_obstructed,
    demazure_roots_vertex_oracle,
    eval_support,
    fractions,
    is_ample,
    lower_triangular,
    rays,
    stage3_roots_oracle,
    support_eval_oracle,
)

M3 = BottMatrix.stage3


def random_psi(n, rng):
    return SupportFunction.from_values(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)],
        [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)])


class TestSupportEvaluation:
    def test_ray_value(self):
        psi = SupportFunction.from_values([3, -1, 2], [5, 7, -4])
        assert eval_support(M3(1, 2, 3), psi, (1, 0, 0)) == 5

    def test_hirzebruch_example(self):
        # positive twisting: psi(u1) = r1, psi(v2) = r2, rest zero, at -a v2
        a = 3
        psi = SupportFunction.from_values([5, 0], [0, 2])
        assert eval_support(BottMatrix.stage2(a), psi, (0, -a)) == 0

    def test_against_oracle(self):
        rng = random.Random(9)
        for _ in range(250):
            n = rng.randint(2, 6)
            entries = [rng.randint(-4, 4) for _ in range(n * (n - 1) // 2)]
            it = iter(entries)
            rows = [[next(it) if j < i else (1 if i == j else 0) for j in range(n)]
                    for i in range(n)]
            A = BottMatrix.from_rows(rows)
            psi = random_psi(n, rng)
            w = [Fraction(rng.randint(-12, 12), rng.randint(1, 3)) for _ in range(n)]
            assert eval_support(A, psi, w) == support_eval_oracle(A, psi, w)

    @given(bott_matrices(min_stage=2, max_stage=4, max_entry=3),
           st.lists(fractions(), min_size=4, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_oracle_hypothesis(self, A, w):
        rng = random.Random(7)
        psi = random_psi(A.n, rng)
        vec = w[:A.n]
        assert eval_support(A, psi, vec) == support_eval_oracle(A, psi, vec)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            SupportFunction.from_values([1, 2], [3])
        with pytest.raises(ValueError):
            bfan.cone_coordinates(M3(1, 2, 3), (1, 2))
        with pytest.raises(ValueError):
            bfan.cone_coordinates(M3(1, 2, 3), (1, 2, 3, 4))

    def test_positive_homogeneity(self):
        A = M3(2, -1, 3)
        psi = SupportFunction.from_values([1, 2, 3], [4, 5, 6])
        w = (Fraction(3), Fraction(-2), Fraction(5))
        assert eval_support(A, psi, [2 * x for x in w]) == \
            2 * eval_support(A, psi, w)


class TestAmpleness:
    def test_nonpositive_matrix_first_orthant(self):
        A = M3(-2, -1, -3)
        for r in [(1, 1, 1), (5, 2, 7), (Fraction(1, 3), 1, 2)]:
            psi = SupportFunction.from_values(r, [0, 0, 0])
            assert is_ample(A, psi)
        psi = SupportFunction.from_values([0, 1, 1], [0, 0, 0])
        assert not is_ample(A, psi)
        assert is_ample(A, psi, strict=False)

    def test_nef_vs_ample(self):
        A = M3(1, 1, 1)
        psi = SupportFunction.from_values([1, 1, 1], [1, 1, 1])
        assert is_ample(A, psi, strict=False) or not is_ample(A, psi)

    def test_convexity_matches_nef(self):
        # Batyrev: nef iff the primitive-collection inequalities hold weakly
        rng = random.Random(12)
        for _ in range(50):
            A = M3(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
            psi = random_psi(3, rng)
            vectors = [vec for _, _, vec in rays(A)]
            weak = all(
                psi.s[j] + psi.t[j] >= eval_support(
                    A, psi, [x + y for x, y in zip(vectors[j], vectors[3 + j])])
                for j in range(3))
            assert is_ample(A, psi, strict=False) == weak

    def test_nonpositive_matrix_iff_positive_coefficients(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(2, 4)
            entries = [-rng.randint(0, 4) for _ in range(n * (n - 1) // 2)]
            it = iter(entries)
            A = BottMatrix.from_rows(
                [[next(it) if j < i else (1 if i == j else 0) for j in range(n)]
                 for i in range(n)])
            r = [Fraction(rng.randint(-3, 5), rng.randint(1, 3)) for _ in range(n)]
            psi = SupportFunction.from_values(r, [0] * n)
            assert is_ample(A, psi) == all(v > 0 for v in r)


class TestKahlerCone:
    def test_first_octant_criterion(self):
        for a in range(-3, 4):
            for b in range(-3, 4):
                for c in range(-3, 4):
                    expected = (a <= 0 and b * c >= 0) or (a >= 0 and (b - a * c) * c >= 0)
                    assert bfan.ample_cone_is_first_orthant(M3(a, b, c)) == expected

    def test_mixed_signs_inequality(self):
        # nonpositive first twisting with b > 0 > c: u-basis needs r1 > b r3
        ineqs, flag = bfan.kahler_cone(M3(-1, 2, -3), "uuu")
        assert not flag
        assert ineqs[0] == (1, 0, -2)
        ineqs, _ = bfan.kahler_cone(M3(-1, 2, -3), "uuv")
        assert ineqs[1] == (0, 1, -3)

    def test_hirzebruch_always_first_quadrant(self):
        for a in range(-5, 6):
            assert bfan.ample_cone_is_first_orthant(BottMatrix.stage2(a))

    def test_twist_one_mixed(self):
        ineqs, flag = bfan.kahler_cone(BottMatrix.twist_one((-2, 1, 1)), "uuuv")
        assert not flag
        assert ineqs == [(1, 0, 0, -2), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]

    def test_two_step_special_tower(self):
        q, k = 2, 3
        A = BottMatrix.from_rows([
            [1, 0, 0, 0], [0, 1, 0, 0],
            [q, -q, 1, 0], [q * (k + 1), q * (k - 1), 2, 1]])
        ineqs, _ = bfan.kahler_cone(A, "uuvv")
        assert ineqs == [(1, 0, 0, 0), (0, 1, -q, 0), (0, 0, 1, 0), (0, 0, 0, 1)]

    def test_basis_must_start_with_u(self):
        with pytest.raises(ValueError):
            bfan.kahler_cone(M3(1, 1, 1), "vuu")

    def test_scan_size(self):
        assert len(bfan.kahler_cone_scan(M3(0, 0, 0))) == 4

    @given(bott_matrices(min_stage=1, max_stage=7, max_entry=3))
    @settings(max_examples=25, deadline=None)
    def test_scan_matches_each_basis(self, A):
        choices = ["u" + "".join(t) for t in itertools.product("uv", repeat=A.n - 1)]
        scan = bfan.kahler_cone_scan(A)
        assert scan == {c: bfan.kahler_cone(A, c) for c in choices}
        for rows, _ in scan.values():
            assert all(type(row) is tuple and len(row) == A.n for row in rows)
            assert all(type(c) is int for row in rows for c in row)

    @given(bott_matrices(min_stage=1, max_stage=7, max_entry=3))
    @settings(max_examples=40, deadline=None)
    def test_first_orthant_matches_scan(self, A):
        scan = bfan.kahler_cone_scan(A)
        assert bfan.ample_cone_is_first_orthant(A) == any(flag for _, flag in scan.values())

    @given(bott_matrices(min_stage=1, max_stage=6, max_entry=3), st.data())
    @settings(max_examples=80, deadline=None)
    def test_rows_match_convexity(self, A, data):
        # psi is r_j on the basis ray of stage j and 0 on the other rays, so
        # sum r_j D_j is ample iff psi is strictly convex on every pair
        n = A.n
        basis = "u" + "".join(data.draw(st.lists(st.sampled_from("uv"),
                                                 min_size=n - 1, max_size=n - 1)))
        r = data.draw(st.lists(fractions(), min_size=n, max_size=n))
        psi = SupportFunction.from_values([x if b == "u" else 0 for x, b in zip(r, basis)],
                                          [x if b == "v" else 0 for x, b in zip(r, basis)])
        rows, _ = bfan.kahler_cone(A, basis)
        assert all(sum(c * x for c, x in zip(row, r)) > 0 for row in rows) == is_ample(A, psi)


class TestPrimitiveRelations:
    @given(bott_matrices(min_stage=1, max_stage=7, max_entry=4))
    @settings(max_examples=40, deadline=None)
    def test_relations_hold_in_integers(self, A):
        n = A.n
        vectors = {(kind, j): vec for kind, j, vec in rays(A)}
        for j, relation in enumerate(bfan.primitive_relations(A)):
            lhs = [x + y for x, y in zip(vectors["u", j], vectors["v", j])]
            rhs = [sum(c * vectors[kind, m][i] for kind, m, c in relation) for i in range(n)]
            assert lhs == rhs
            assert all(type(c) is int and c > 0 and m > j for _, m, c in relation)
            assert len({m for _, m, _ in relation}) == len(relation)

    def test_hirzebruch(self):
        # u_1 + v_1 = -a v_2 for a < 0 and a u_2 for a > 0
        assert bfan.primitive_relations(BottMatrix.stage2(-3)) == [[("v", 1, 3)], []]
        assert bfan.primitive_relations(BottMatrix.stage2(2)) == [[("u", 1, 2)], []]


class TestDemazureRoots:
    def test_projective_line(self):
        roots = bfan.demazure_roots(BottMatrix.identity(1))
        assert roots.roots == frozenset({(1,), (-1,)})

    def test_row_sign_criterion_exhaustive(self):
        for a in range(-2, 3):
            for b in range(-2, 3):
                for c in range(-2, 3):
                    roots = bfan.demazure_roots(M3(a, b, c))
                    assert ((1, 0, 0) in roots) and ((-1, 0, 0) in roots)
                    assert ((0, 1, 0) in roots) == (a >= 0)
                    assert ((0, -1, 0) in roots) == (a <= 0)
                    assert ((0, 0, 1) in roots) == (b >= 0 and c >= 0)
                    assert ((0, 0, -1) in roots) == (b <= 0 and c <= 0)

    def test_symmetric_example(self):
        assert bfan.demazure_roots(M3(0, 1, -1)).is_symmetric()

    def test_product_roots(self):
        roots = bfan.demazure_roots(BottMatrix.identity(3))
        assert len(roots) == 6 and roots.is_symmetric()

    def test_symmetry_matches_negated_set(self):
        # is_symmetric tests each negative for membership and stops at the
        # first one missing; the oracle builds the whole negated set
        rng = random.Random(44)
        towers = [M3(a, b, c) for a in range(-1, 2) for b in range(-2, 3) for c in range(-2, 3)]
        for _ in range(30):
            n = rng.randint(4, 6)
            towers.append(lower_triangular(n, [rng.choice((-2, -1, 1, 2)) if rng.random() < 0.2
                                               else 0 for _ in range(n * (n - 1) // 2)]))
        outcomes = set()
        for A in towers:
            roots = bfan.demazure_roots(A)
            symmetric = roots.roots == frozenset(tuple(-c for c in chi) for chi in roots.roots)
            assert roots.is_symmetric() == symmetric == bfan.is_reductive(A)
            outcomes.add((A.n > 3, symmetric))
        assert outcomes == {(False, False), (False, True), (True, False), (True, True)}

    def test_search_bound(self):
        # the search counts one step per level visited and n per root, so the
        # stage alone bounds nothing: the identity of stage n takes about 3n^2
        assert len(bfan.demazure_roots(BottMatrix.identity(200))) == 400
        assert bfan.is_reductive(BottMatrix.identity(200))
        for A in (BottMatrix.identity(1200), BottMatrix.stage2(bfan.ROOT_SEARCH_BOUND)):
            with pytest.raises(StageTooLarge, match=r"^root search of \d+ steps exceeds bound "):
                bfan.demazure_roots(A)
        with pytest.raises(StageTooLarge):
            bfan.is_reductive(BottMatrix.identity(1200))
        # a root whose negative is no root ends the streamed search at once
        assert not bfan.is_reductive(BottMatrix.stage2(bfan.ROOT_SEARCH_BOUND))

    def test_hirzebruch_root_count(self):
        # a > 0: besides +-eps_1 the roots are (x, 1) for -a <= x <= 0,
        # giving a + 3 in total (the automorphism group has dimension a + 5)
        for a in range(1, 8):
            roots = bfan.demazure_roots(BottMatrix.stage2(a))
            assert len(roots) == a + 3
            assert {(1, 0), (-1, 0)} <= roots.roots
            assert all((x, 1) in roots for x in range(-a, 1))
            assert not bfan.is_reductive(BottMatrix.stage2(a))
        assert len(bfan.demazure_roots(BottMatrix.stage2(0))) == 4
        assert bfan.is_reductive(BottMatrix.stage2(0))

    def test_eps_membership_higher_stage(self):
        rng = random.Random(42)
        for _ in range(15):
            n = rng.randint(4, 5)
            entries = [rng.randint(-3, 3) for _ in range(n * (n - 1) // 2)]
            it = iter(entries)
            A = BottMatrix.from_rows(
                [[next(it) if j < i else (1 if i == j else 0) for j in range(n)]
                 for i in range(n)])
            roots = bfan.demazure_roots(A)
            for i in range(n):
                eps = tuple(1 if m == i else 0 for m in range(n))
                neg = tuple(-x for x in eps)
                row = A.rows[i][:i]
                assert (eps in roots) == all(e >= 0 for e in row)
                assert (neg in roots) == all(e <= 0 for e in row)

    def test_against_box_oracle(self):
        for a in range(-2, 3):
            for b in range(-2, 3):
                for c in range(-2, 3):
                    A = M3(a, b, c)
                    assert set(bfan.demazure_roots(A).roots) == stage3_roots_oracle(A)
        rng = random.Random(41)
        for _ in range(20):
            A = M3(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
            assert set(bfan.demazure_roots(A).roots) == stage3_roots_oracle(A)

    @staticmethod
    def assert_root_definition(A):
        normals = [vec for _, _, vec in rays(A)]
        roots = bfan.demazure_roots(A).roots
        for chi in roots:
            values = [sum(u * v for u, v in zip(n, chi)) for n in normals]
            assert values.count(1) == 1
            assert all(v <= 0 for v in values if v != 1)
        return roots

    def test_root_definition_holds(self):
        self.assert_root_definition(M3(2, -3, 1))

    @pytest.mark.parametrize("n", [7, 8])
    def test_root_definition_high_stage(self, n):
        rng = random.Random(70 + n)
        for _ in range(10):
            A = lower_triangular(n, [rng.randint(-3, 3) for _ in range(n * (n - 1) // 2)])
            roots = self.assert_root_definition(A)
            # +-eps_0 pair to +-1 with v_0, u_0 and to 0 with every later ray
            assert {(1,) + (0,) * (n - 1), (-1,) + (0,) * (n - 1)} <= roots

    @given(bott_matrices(min_stage=1, max_stage=5, max_entry=3))
    @example(lower_triangular(6, [2, -1, 3, 1, -2, 3, -3, 1, 2, -1, 1, -2, 3, -1, 2]))
    @example(lower_triangular(6, [0, -2, 0, 0, 0, 3, 0, 0, 0, 0, -1, 0, 0, 0, 2]))
    @settings(max_examples=30, deadline=None)
    def test_against_vertex_oracle(self, A):
        assert bfan.demazure_roots(A).roots == demazure_roots_vertex_oracle(A)


class TestReductivity:
    def test_examples(self):
        assert not bfan.is_reductive(M3(1, 1, 1))
        assert bfan.is_reductive(BottMatrix.identity(3))
        assert bfan.is_reductive(M3(0, 1, -1))

    def test_closed_form_small_scan(self):
        for a in range(-3, 4):
            for b in range(-3, 4):
                for c in range(-3, 4):
                    expected = (a == 0 and b * c < 0) or (a == b == c == 0)
                    assert bfan.is_reductive(M3(a, b, c)) == expected


class TestCscObstruction:
    """The row test, an oracle in conftest, against the streamed root witness."""

    def test_examples(self):
        assert csc_obstructed(M3(1, 0, 0))[0]
        assert csc_obstructed(M3(0, 2, 3))[0]
        assert not csc_obstructed(BottMatrix.identity(3))[0]
        assert not csc_obstructed(M3(0, 1, -1))[0]

    def test_witness(self):
        obstructed, witness = csc_obstructed(M3(5, 0, 0))
        assert obstructed and witness == ("row", 1)

    def test_not_reductive_where_no_member_fires(self):
        # the unipotent root (0, 0, -1, 1) shows up on no row of any member
        A = BottMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [-1, 2, 1, 0], [-1, 2, 2, 1]])
        roots = bfan.demazure_roots(A)
        assert (0, 0, -1, 1) in roots and (0, 0, 1, -1) not in roots
        assert not bfan.is_reductive(A)
        reps = equivalence_orbit(A).representatives
        assert len(reps) == 8
        assert not any(csc_obstructed(B)[0] for B in reps)

    def test_matches_nonreductive_stage3(self):
        for a in range(-3, 4):
            for b in range(-3, 4):
                for c in range(-3, 4):
                    A = M3(a, b, c)
                    assert csc_obstructed(A)[0] == (not bfan.is_reductive(A))

    @given(st.integers(4, 6).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -2)),
                             min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))))
    @settings(max_examples=80, deadline=None)
    def test_fires_only_when_not_reductive(self, shape):
        # a fired row of one sign makes +-e_i a root whose negative is not a root
        A = lower_triangular(*shape)
        obstructed, witness = csc_obstructed(A)
        if obstructed:
            i = witness[1]
            sign = 1 if all(e >= 0 for e in A.rows[i][:i]) else -1
            eps = tuple(sign if m == i else 0 for m in range(A.n))
            roots = bfan.demazure_roots(A)
            assert eps in roots and tuple(-x for x in eps) not in roots
            assert not bfan.is_reductive(A)

    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, -3)),
                             min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))))
    @settings(max_examples=150, deadline=None)
    def test_row_test_covers_leading_blocks(self, shape):
        # csc_obstructed needs no leading-block test: a nontrivial leading
        # block of topological twist zero only occurs where a row fires
        A = lower_triangular(*shape)
        if csc_obstructed(A)[0]:
            return
        for m in range(2, A.n + 1):
            block = BottMatrix.from_rows([row[:m] for row in A.rows[:m]])
            assert block == BottMatrix.identity(m) or coh.topological_twist(block) > 0

    def test_depends_on_representative(self):
        A = BottMatrix.from_rows([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                                  [0, -2, 2, 1, 0], [0, 0, 0, -1, 1]])
        reps = equivalence_orbit(A).representatives
        fired = [B for B in reps if csc_obstructed(B)[0]]
        assert (len(reps), len(fired)) == (40, 20)
        assert not any(bfan.is_reductive(B) for B in reps)


class TestFano:
    FANO3 = {(1, 0, 0), (1, 1, 1), (1, -1, -1), (-1, 0, 0), (-1, 0, 1), (-1, 0, -1)} | \
            {(0, b, c) for b in (-1, 0, 1) for c in (-1, 0, 1)}

    def test_stage3_classification(self):
        for a in range(-2, 3):
            for b in range(-2, 3):
                for c in range(-2, 3):
                    assert bfan.is_fano(M3(a, b, c)) == ((a, b, c) in self.FANO3)

    def test_twist_one(self):
        for k in itertools.product(range(-2, 3), repeat=3):
            assert bfan.is_fano(BottMatrix.twist_one(k)) == all(abs(x) <= 1 for x in k)

    def test_topological_twist_zero_only_product(self):
        # among even stage-3 towers the product is the only Fano one
        for a in range(-2, 3):
            for b in range(-2, 3):
                for c in range(-2, 3):
                    A = M3(2 * a, 2 * b, 2 * c)
                    from bott.cohomology import topological_twist
                    if topological_twist(A) == 0 and bfan.is_fano(A):
                        assert A == BottMatrix.identity(3)

    @given(bott_matrices(min_stage=1, max_stage=7, max_entry=3))
    @settings(max_examples=40, deadline=None)
    def test_matches_ample_anticanonical(self, A):
        # the integer degree test against the Fraction support-function path
        ones = SupportFunction.from_values([1] * A.n, [1] * A.n)
        assert bfan.is_fano(A) == is_ample(A, ones)

    @given(bott_matrices(min_stage=2, max_stage=3, max_entry=2))
    @settings(max_examples=25, deadline=None)
    def test_orbit_invariance(self, A):
        value = bfan.is_fano(A)
        for member in equivalence_orbit(A).representatives:
            assert bfan.is_fano(member) == value


class TestKahlerEinstein:
    def test_stage3(self):
        assert bfan.kahler_einstein_stage34(M3(0, 1, -1)) == "KE"
        assert bfan.kahler_einstein_stage34(M3(0, 0, 0)) == "KE"
        assert bfan.kahler_einstein_stage34(M3(0, 1, 1)) == "NotKE"
        assert bfan.kahler_einstein_stage34(M3(0, -1, 1)) == "KE"

    def test_stage4(self):
        assert bfan.kahler_einstein_stage34(BottMatrix.identity(4)) == "KE"
        shuffled = BottMatrix.from_rows(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, -1, 0, 1]])
        assert bfan.kahler_einstein_stage34(shuffled) == "KE"
        assert bfan.kahler_einstein_stage34(BottMatrix.twist_one((1, 1, 1))) == "NotKE"

    def test_other_stages_unknown(self):
        assert bfan.kahler_einstein_stage34(BottMatrix.identity(5)) == "Unknown"
        assert bfan.kahler_einstein_stage34(BottMatrix.identity(2)) == "Unknown"

    def test_table_holds_canonical_forms(self):
        # kahler_einstein_stage34 looks canonical_form(A) up in the table
        for C in bfan._KE_STAGE3 + bfan._KE_STAGE4:
            assert canonical_form(C) == C


class TestOrbitInvariance:
    @given(bott_matrices(min_stage=1, max_stage=6, max_entry=3))
    @settings(max_examples=60, deadline=None)
    @example(lower_triangular(6, [1] + [0] * 13 + [1]))
    @example(lower_triangular(6, [0, 1, -1] + [0] * 12))
    @example(lower_triangular(5, [0, 0, 0, 0, 0, 0, 1, 0, 0, 0]))
    @example(lower_triangular(4, [0, 1, -1, 0, 0, 0]))
    def test_core_and_fan_answers_constant_on_orbit(self, A):
        # biholomorphic towers share these answers; the row test of conftest's
        # csc_obstructed fires on some members of a non-reductive orbit only
        def answers(B):
            return (twist(B), cotwist(B), bfan.is_reductive(B), len(bfan.demazure_roots(B)),
                    bfan.is_fano(B), bfan.kahler_einstein_stage34(B),
                    bfan.ample_cone_is_first_orthant(B))

        expected = answers(A)
        for B in equivalence_orbit(A).representatives:
            assert answers(B) == expected, B
