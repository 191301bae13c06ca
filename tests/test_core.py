import itertools
import random

import pytest
from hypothesis import example, given, settings

from bott.core import (
    BottMatrix,
    StageTooLarge,
    apply_signed_permutation,
    are_equivalent,
    canonical_form,
    cotwist,
    equivalence_orbit,
    fiber_inversion,
    normalize_twist,
    permutation_conjugate,
    transposition,
    twist,
)
from conftest import (
    apply_signed_permutation_generic,
    bott_matrices,
    full_scan_orbit,
    lower_triangular,
    normalize_twist_oracle,
    orbit_closure_oracle,
    signed_permutations,
)

M3 = BottMatrix.stage3


class TestTwistCotwist:
    def test_twist_examples(self):
        assert twist(M3(0, 1, -1)) == 1
        assert twist(BottMatrix.identity(4)) == 0
        assert twist(M3(1, 2, 3)) == 2

    def test_cotwist_examples(self):
        assert cotwist(M3(1, 2, 0)) == 1
        assert cotwist(BottMatrix.identity(3)) == 0
        assert cotwist(M3(0, 0, 5)) == 1

    def test_stage3_twist_thresholds(self):
        # twist <= 1 iff a = 0, cotwist <= 1 iff c = 0
        assert twist(M3(0, 5, 7)) <= 1
        assert cotwist(M3(5, 7, 0)) <= 1


class TestValidation:
    def test_rejects_upper_entries(self):
        with pytest.raises(ValueError):
            BottMatrix(((1, 1), (0, 1)))

    def test_rejects_bad_diagonal(self):
        with pytest.raises(ValueError):
            BottMatrix(((1, 0), (3, -1)))

    @pytest.mark.parametrize("bad", [2.7, 2.0, True, False, "3", None])
    def test_rejects_non_integer_entries(self, bad):
        with pytest.raises(ValueError):
            BottMatrix.from_rows([[1, 0], [bad, 1]])
        with pytest.raises(ValueError):
            BottMatrix(((1, 0), (bad, 1)))
        with pytest.raises(ValueError):
            BottMatrix.from_json({"rows": [[1, 0], [bad, 1]]})
        with pytest.raises(ValueError):
            BottMatrix.from_json({"stage3": [0, bad, 1]})

    @pytest.mark.parametrize("obj", [
        {"rows": 5}, {"rows": [1, 2]}, {"stage3": 5}, {"stage3": [1, 2]},
        {"n": True, "rows": [[1]]}, {"n": "1", "rows": [[1]]}, [[1]],
    ])
    def test_rejects_malformed_json(self, obj):
        with pytest.raises(ValueError):
            BottMatrix.from_json(obj)

    def test_json_round_trip(self):
        A = M3(4, -5, 6)
        assert BottMatrix.from_json(A.to_json()) == A
        assert BottMatrix.from_json({"stage3": [4, -5, 6]}) == A


class TestFiberInversion:
    @pytest.mark.parametrize("a,b,c", [(2, 3, 4), (-1, 5, 0), (0, 0, 0), (7, -2, 3)])
    def test_stage3_formulas(self, a, b, c):
        assert fiber_inversion(M3(a, b, c), 0) == M3(a, b, c)
        assert fiber_inversion(M3(a, b, c), 1) == M3(-a, b - a * c, c)
        assert fiber_inversion(M3(a, b, c), 2) == M3(a, -b, -c)

    @given(bott_matrices(max_stage=4))
    @settings(max_examples=60, deadline=None)
    def test_involution(self, A):
        for k in range(A.n):
            assert fiber_inversion(fiber_inversion(A, k), k) == A

    @given(bott_matrices(max_stage=5))
    @settings(max_examples=60, deadline=None)
    def test_matches_pure_flip(self, A):
        identity = tuple(range(A.n))
        for k in range(A.n):
            flips = tuple(int(j == k) for j in range(A.n))
            assert fiber_inversion(A, k) == apply_signed_permutation(A, identity, flips)

    @given(bott_matrices(max_stage=4))
    @settings(max_examples=60, deadline=None)
    def test_composite_gives_inverse(self, A):
        B = A
        for k in range(A.n):
            B = fiber_inversion(B, k)
        assert B == A.inverse()


class TestPermutationConjugation:
    def test_examples(self):
        assert permutation_conjugate(M3(0, 5, 7), (1, 0, 2)) == M3(0, 7, 5)
        assert permutation_conjugate(M3(1, 5, 7), (1, 0, 2)) is None
        A = M3(3, -4, 5)
        assert permutation_conjugate(A, (0, 1, 2)) == A

    def test_adjacent_iff_zero_entry(self):
        # (j-1 j) applies exactly when the entry at (row j, col j-1) vanishes
        for a in range(-2, 3):
            for b in range(-2, 3):
                for c in range(-2, 3):
                    A = M3(a, b, c)
                    assert (permutation_conjugate(A, transposition(3, 0, 1)) is not None) \
                        == (a == 0)
                    assert (permutation_conjugate(A, transposition(3, 1, 2)) is not None) \
                        == (c == 0)

    @given(bott_matrices(max_stage=4, max_entry=2))
    @settings(max_examples=40, deadline=None)
    def test_matches_pure_permutation(self, A):
        unflipped = (0,) * A.n
        for sigma in itertools.permutations(range(A.n)):
            assert permutation_conjugate(A, sigma) == \
                apply_signed_permutation(A, sigma, unflipped)

    def test_stage4_transposition_2_4(self):
        ok = BottMatrix.from_rows([[1, 0, 0, 0], [5, 1, 0, 0], [6, 0, 1, 0], [7, 0, 0, 1]])
        assert permutation_conjugate(ok, transposition(4, 1, 3)) is not None
        bad = BottMatrix.from_rows([[1, 0, 0, 0], [5, 1, 0, 0], [6, 1, 1, 0], [7, 0, 0, 1]])
        assert permutation_conjugate(bad, transposition(4, 1, 3)) is None


class TestSignedPermutations:
    # the stage-5 and 6 orbit tests scan with the fast path, so a few
    # stage-5 towers hold it to the generic route too
    @given(bott_matrices(max_stage=4))
    @example(lower_triangular(5, [3, -3, 2, 1, 3, -2, 3, 1, -3, -1]))
    @example(lower_triangular(5, [3, -3, -2, 2, -1, 1, 2, 1, 3, 1]))
    @example(lower_triangular(5, [1, 1, 0, 0, 0, 0, 0, 0, 2, 0]))
    @settings(max_examples=40, deadline=None)
    def test_fast_path_matches_generic(self, A):
        for sigma, flips in signed_permutations(A.n):
            fast = apply_signed_permutation(A, sigma, flips)
            slow = apply_signed_permutation_generic(A, sigma, flips)
            assert fast == slow

    def test_identity_pair(self):
        A = BottMatrix.stage3(5, -2, 7)
        assert apply_signed_permutation(A, (0, 1, 2), (0, 0, 0)) == A


class TestOrbits:
    def test_single_nonzero_entry_moves(self):
        reps = {m.stage3_params() for m in equivalence_orbit(M3(2, 0, 0)).representatives}
        assert {(2, 0, 0), (0, 2, 0), (0, 0, 2)} <= reps

    def test_identity_orbit(self):
        report = equivalence_orbit(BottMatrix.identity(3))
        assert report.representatives == (BottMatrix.identity(3),)
        assert report.canonical == BottMatrix.identity(3)

    def test_orbit_123(self):
        reps = {m.stage3_params() for m in equivalence_orbit(M3(1, 2, 3)).representatives}
        assert reps == {(1, 2, 3), (1, -2, -3), (-1, -1, 3), (-1, 1, -3)}

    def test_stage_bound(self):
        with pytest.raises(StageTooLarge):
            equivalence_orbit(BottMatrix.identity(3), stage_bound=2)

    def test_matches_generator_closure_oracle(self):
        for params in [(1, 2, 3), (2, 0, 0), (0, 4, -2), (1, 1, 1), (-2, 3, 1)]:
            report = equivalence_orbit(M3(*params))
            assert set(report.representatives) == orbit_closure_oracle(M3(*params))

    @given(bott_matrices(max_stage=4, max_entry=2))
    @settings(max_examples=30, deadline=None)
    def test_contains_inverse_and_closure(self, A):
        reps = set(equivalence_orbit(A).representatives)
        assert A in reps
        assert A.inverse() in reps
        assert orbit_closure_oracle(A) <= reps

    @given(bott_matrices(min_stage=2, max_stage=3, max_entry=2))
    @settings(max_examples=20, deadline=None)
    def test_members_share_orbit(self, A):
        reps = equivalence_orbit(A).representatives
        for member in reps:
            assert equivalence_orbit(member).representatives == reps

    @given(bott_matrices(max_stage=5, max_entry=3))
    @settings(max_examples=40, deadline=None)
    def test_matches_full_scan_oracle(self, A):
        assert set(equivalence_orbit(A).representatives) == full_scan_orbit(A)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_full_scan_sparse_and_identity(self, n):
        rng = random.Random(n)
        towers = [BottMatrix.identity(n)]
        for _ in range(2 if n < 6 else 1):
            towers.append(lower_triangular(n, [rng.choice((-2, 1, 3)) if rng.random() < 0.3
                                               else 0 for _ in range(n * (n - 1) // 2)]))
        for A in towers:
            assert set(equivalence_orbit(A).representatives) == full_scan_orbit(A)

    def test_large_stages(self):
        # sizes the 2^n n! scan could not reach in a test run
        assert equivalence_orbit(BottMatrix.identity(8)).representatives == \
            (BottMatrix.identity(8),)
        rng = random.Random(7)
        A = lower_triangular(7, [rng.randint(-2, 2) for _ in range(21)])
        report = equivalence_orbit(A)
        reps = set(report.representatives)
        assert A in reps and A.inverse() in reps
        assert orbit_closure_oracle(A) <= reps
        assert len(report.moves) >= 7 * len(reps)

    def test_canonical_is_min(self):
        report = equivalence_orbit(M3(1, 2, 3))
        assert report.canonical == min(report.representatives)
        assert canonical_form(M3(1, 2, 3)) == report.canonical

    def test_are_equivalent(self):
        assert are_equivalent(M3(2, 0, 0), M3(0, 0, 2))
        assert not are_equivalent(M3(2, 0, 0), M3(1, 0, 0))
        assert not are_equivalent(M3(0, 0, 0), BottMatrix.identity(2))
        with pytest.raises(StageTooLarge):
            are_equivalent(M3(1, 0, 0), M3(1, 0, 0), stage_bound=2)

    @given(bott_matrices(min_stage=2, max_stage=4, max_entry=2),
           bott_matrices(min_stage=2, max_stage=4, max_entry=2))
    @settings(max_examples=40, deadline=None)
    def test_are_equivalent_matches_orbit(self, A, B):
        reps = set(equivalence_orbit(A).representatives)
        assert are_equivalent(A, B) == (B in reps)
        assert all(are_equivalent(A, member) for member in reps)

    def test_edges_stay_inside(self):
        report = equivalence_orbit(M3(0, 4, 2))
        count = len(report.representatives)
        for edge in report.moves:
            assert 0 <= edge.source < count
            assert 0 <= edge.target < count

    @given(bott_matrices(max_stage=5, max_entry=2))
    @settings(max_examples=30, deadline=None)
    def test_edges_are_the_generator_moves(self, A):
        report = equivalence_orbit(A)
        reps = report.representatives
        expected = []
        for i, B in enumerate(reps):
            expected += [(i, reps.index(fiber_inversion(B, k)), "fiber_inversion", k)
                         for k in range(A.n)]
            for a in range(A.n):
                for b in range(a + 1, A.n):
                    C = permutation_conjugate(B, transposition(A.n, a, b))
                    if C is not None:
                        expected.append((i, reps.index(C), "permutation_conjugation",
                                         transposition(A.n, a, b)))
        assert [(e.source, e.target, e.move.kind,
                 e.move.index if e.move.index is not None else e.move.permutation)
                for e in report.moves] == expected

    def test_closed_under_generator_moves(self):
        for params in [(1, 2, 3), (0, 4, 2), (2, 0, 0), (-1, 1, 1)]:
            reps = set(equivalence_orbit(M3(*params)).representatives)
            for member in reps:
                for k in range(3):
                    assert fiber_inversion(member, k) in reps
                for i in range(3):
                    for j in range(i + 1, 3):
                        moved = permutation_conjugate(member, transposition(3, i, j))
                        assert moved is None or moved in reps


class TestNormalizeTwist:
    def test_middle_row_moves_down(self):
        A = BottMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [2, 3, 1, 0], [0, 0, 0, 1]])
        N = normalize_twist(A)
        assert twist(N) == twist(A) == 1
        assert all(N.rows[i][j] == 0 for i in range(3) for j in range(i))
        assert N.rows[3][:2] == (2, 3)

    def test_identity_fixed(self):
        assert normalize_twist(BottMatrix.identity(4)) == BottMatrix.identity(4)

    @given(bott_matrices(max_stage=6))
    @settings(max_examples=60, deadline=None)
    def test_matches_bubbling_oracle(self, A):
        assert normalize_twist(A) == normalize_twist_oracle(A)

    @given(bott_matrices(max_stage=5))
    @settings(max_examples=60, deadline=None)
    def test_leading_rows_trivial(self, A):
        N = normalize_twist(A)
        t = twist(A)
        assert twist(N) == t
        assert all(N.rows[i][j] == 0 for i in range(A.n - t) for j in range(i))

    def test_orbit_twist_minimum_low_twist(self):
        # for twist <= 1 stage-3 towers the orbit cannot lower the twist
        for b in range(-2, 3):
            for c in range(-2, 3):
                A = M3(0, b, c)
                orbit_min = min(twist(m) for m in
                                equivalence_orbit(A).representatives)
                assert orbit_min == twist(normalize_twist(A))

    @given(bott_matrices(min_stage=2, max_stage=4, max_entry=2))
    @settings(max_examples=25, deadline=None)
    def test_twist_constant_on_orbit(self, A):
        # the twisted-stage count only depends on the total space
        members = equivalence_orbit(A).representatives
        assert {twist(m) for m in members} == {twist(A)}
        assert {cotwist(m) for m in members} == {cotwist(A)}
