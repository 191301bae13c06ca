import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings

from bott import core
from bott.core import (
    ORBIT_STAGE_BOUND,
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
    fiber_inversion_oracle,
    flip_solve_oracle,
    full_scan_orbit,
    linear_extension_images_oracle,
    lower_triangular,
    normalize_twist_oracle,
    orbit_closure_oracle,
    orbit_edges_oracle,
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
        {"stage3": [1, 2, 3], "n": 5}, {"stage3": [1, 2, 3], "rows": [[1]]},
    ])
    def test_rejects_malformed_json(self, obj):
        with pytest.raises(ValueError):
            BottMatrix.from_json(obj)

    @pytest.mark.parametrize("rows", [((1, 0), (0,)), ((1,), (0, 1)),
                                      ((1, 0, 0), (0, 1), (0, 0, 1))])
    def test_rejects_non_square(self, rows):
        with pytest.raises(ValueError, match="square"):
            BottMatrix(rows)

    def test_twist_two_lengths(self):
        assert BottMatrix.twist_two([2], [1, 3]).rows == ((1, 0, 0), (2, 1, 0), (1, 3, 1))
        for l, k in (([1], [1]), ([], [1, 2]), ([1, 2], [1, 2])):
            with pytest.raises(ValueError):
                BottMatrix.twist_two(l, k)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_stage3_params_needs_stage_3(self, n):
        with pytest.raises(ValueError):
            BottMatrix.identity(n).stage3_params()

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
        # row s of W_F never reads the flip of stage s, so the base fiber
        # inversion is the identity
        assert fiber_inversion(A, 0) == A
        for k in range(A.n):
            assert fiber_inversion(fiber_inversion(A, k), k) == A

    @given(bott_matrices(max_stage=5))
    @settings(max_examples=60, deadline=None)
    def test_matches_pure_flip(self, A):
        # fiber_inversion is the pure flip of stage k; its closed form is the oracle
        for k in range(A.n):
            assert fiber_inversion(A, k) == fiber_inversion_oracle(A, k)

    @pytest.mark.parametrize("k", [-1, 3])
    def test_stage_out_of_range(self, k):
        with pytest.raises(ValueError):
            fiber_inversion(M3(1, 2, 3), k)

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
                apply_signed_permutation_generic(A, sigma, unflipped)

    @pytest.mark.parametrize("sigma", [(0, 0, 1), (0, 1), (1, 2, 3), (0, 1, 2, 3)])
    def test_rejects_non_permutation(self, sigma):
        with pytest.raises(ValueError):
            permutation_conjugate(M3(0, 0, 0), sigma)

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


def seeded_towers(n, seed):
    """A dense and a sparse seeded tower of stage n."""
    rng = random.Random(seed)
    size = n * (n - 1) // 2
    dense = lower_triangular(n, [rng.randint(-2, 2) for _ in range(size)])
    sparse = lower_triangular(n, [rng.choice((-2, -1, 1, 3)) if rng.random() < 0.25 else 0
                                  for _ in range(size)])
    return dense, sparse


class TestOrbitKernels:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_flip_classes_match_per_flip_set_solve(self, n):
        for A in seeded_towers(n, 100 + n):
            canonical, first = core._flip_classes(A)
            W_of = {F: W for W, F in first.items()}
            assert len(canonical) == 1 << n
            seen = {}
            for F in range(1 << n):
                W = flip_solve_oracle(A.rows, [F >> s & 1 for s in range(n)])
                assert W_of[canonical[F]] == W
                assert canonical[F] == seen.setdefault(W, F)
            assert first == seen

    @pytest.mark.parametrize("n", range(1, 9))
    def test_one_row_solve_per_suffix(self, n, monkeypatch):
        calls = []
        solve = core._flip_row
        monkeypatch.setattr(core, "_flip_row", lambda *a: calls.append(a[1]) or solve(*a))
        core._flip_classes(seeded_towers(n, 200 + n)[0])
        assert len(calls) == 2 ** n - 1
        assert Counter(calls) == {s: 2 ** (n - 1 - s) for s in range(n)}

    @pytest.mark.parametrize("n", range(1, 7))
    def test_stack_walk_matches_permutation_filter(self, n):
        for A in seeded_towers(n, 300 + n):
            for W in core._flip_classes(A)[1]:
                assert Counter(core._linear_extension_images(W)) == \
                    Counter(linear_extension_images_oracle(W))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_identity_walks_every_order(self, n):
        W = BottMatrix.identity(n).rows
        codes = [code for code, rows in core._linear_extension_images(W)]
        assert len(set(codes)) == len(codes) == math.factorial(n)
        assert Counter(core._linear_extension_images(W)) == \
            Counter(linear_extension_images_oracle(W))


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
        # the refusal text is pinned by the benchmark's digest of its n = 9 orbit
        assert ORBIT_STAGE_BOUND == 8
        with pytest.raises(StageTooLarge, match=r"^stage 9 exceeds bound 8$"):
            equivalence_orbit(BottMatrix.identity(9))
        with pytest.raises(StageTooLarge, match=r"^stage 9 exceeds bound 8$"):
            canonical_form(BottMatrix.identity(9))

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
            are_equivalent(BottMatrix.identity(9), BottMatrix.identity(9))

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
    @example(BottMatrix.identity(6))
    @example(lower_triangular(6, [0, -2, 0, -2, -2, 0, -1, -1, -1, 1, 0, -2, 0, 0, 0]))
    @example(lower_triangular(6, [-2, 1, -1, 2, -1, 0, 1, 1, 2, -2, -2, -2, -2, -2, -1]))
    @example(lower_triangular(6, [0, 3, 0, 1, 0, 0, 0, 0, 0, 0, 1, -2, 0, 0, 0]))
    @example(lower_triangular(7, [0, 0, 0, 0, 0, 0, 0, -1, 2, -1, 0,
                                  0, -2, 0, 0, 0, 0, 0, 0, 0, 0]))
    @settings(max_examples=30, deadline=None)
    def test_edges_are_the_generator_moves(self, A):
        # members, order and every edge, against edges applied from each source
        assert equivalence_orbit(A) == orbit_edges_oracle(A)

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
