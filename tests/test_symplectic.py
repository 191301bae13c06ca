from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bott import symplectic as sp
from bott.core import BottMatrix, equivalence_orbit

CENSUS_521 = {
    (0, 0, 0), (0, 1, 0), (0, 2, 0), (0, 3, 0), (0, 4, 0),
    (1, 0, 0), (2, 0, 0), (1, 2, 0), (1, 1, 0),
    (0, 0, 1), (1, 1, 1), (2, 2, 1), (3, 3, 1), (4, 4, 1),
}


class TestSplitForm:
    def test_validation(self):
        sp.count_compatible(5, 2, 1)
        with pytest.raises(ValueError):
            sp.count_compatible(2, 5, 1)
        with pytest.raises(ValueError):
            sp.hirzebruch_compat_count(2, 0)
        with pytest.raises(ValueError):
            sp.enumerate_compatible(2, 5, 1)

    def test_rational_weights(self):
        assert sp.count_compatible("11/2", 3, "1/2") == \
            sp.count_compatible(Fraction(11, 2), Fraction(3), Fraction(1, 2))
        assert sp.enumerate_compatible("11/2", 3, "1/2") == \
            sp.enumerate_compatible(Fraction(11, 2), Fraction(3), Fraction(1, 2))

    def test_form_methods(self):
        assert sp.count_compatible(11, 6, 1) == (16, 27, 43)
        assert len(sp.enumerate_compatible(11, 6, 1)) == 43


class TestHirzebruchCount:
    def test_examples(self):
        assert sp.hirzebruch_compat_count(5, 2) == 3
        assert sp.hirzebruch_compat_count(1, 1) == 1
        assert sp.hirzebruch_compat_count(11, 6) == 2

    def test_rational_weights(self):
        assert sp.hirzebruch_compat_count(Fraction(7, 2), Fraction(3, 2)) == 3

    def test_order_enforced(self):
        with pytest.raises(ValueError):
            sp.hirzebruch_compat_count(2, 5)


class TestCompatibility:
    def test_examples(self):
        assert sp.stage3_compatible(1, 2, 0, 5, 2, 1)
        assert sp.stage3_compatible(0, 0, 0, 5, 2, 1)
        assert sp.stage3_compatible(1, 1, 1, 5, 2, 1)

    def test_pontrjagin_obstruction(self):
        # c (b - a c) != 0 never embeds in the product of spheres
        assert not sp.stage3_compatible(1, 3, 1, 5, 2, 1)
        assert not sp.stage3_compatible(0, 1, 2, 100, 50, 1)

    def test_tight_inequality(self):
        assert not sp.stage3_compatible(2, 1, 0, 5, 2, 1)      # 5 - 4 - 1 = 0
        assert sp.stage3_compatible(2, 0, 0, 5, 2, 1)

    def test_class_level_is_orbit_invariant(self):
        assert sp.stage3_compatible(0, 4, 0, 5, 2, 1)
        assert not sp.stage3_compatible(4, 0, 0, 5, 2, 1)
        assert sp.stage3_compatible_class(0, 4, 0, 5, 2, 1)
        assert sp.stage3_compatible_class(4, 0, 0, 5, 2, 1)

    def test_class_level_incompatible(self):
        # M_3(10, 0, 0): every presentation needs more than k1 = 1 allows
        assert not sp.stage3_compatible_class(5, 0, 0, 1, 1, 1)

    def test_class_level_across_orbit(self):
        for params in [(1, 2, 0), (0, 3, 0), (1, 1, 1)]:
            doubled = BottMatrix.stage3(*(2 * x for x in params))
            expected = sp.stage3_compatible_class(*params, 5, 2, 1)
            for member in equivalence_orbit(doubled).representatives:
                aa, bb, cc = member.stage3_params()
                assert sp.stage3_compatible_class(aa // 2, bb // 2, cc // 2,
                                                  5, 2, 1) == expected


class TestCounts:
    def test_worked_examples(self):
        assert sp.count_compatible(11, 6, 1) == (16, 27, 43)
        assert sp.count_compatible(5, 2, 1) == (9, 5, 14)
        assert sp.count_compatible(1, 1, 1) == (1, 0, 1)

    def test_enumeration_matches_list(self):
        assert set(sp.enumerate_compatible(5, 2, 1)) == CENSUS_521

    def test_unit_weights_single_product(self):
        assert sp.enumerate_compatible(1, 1, 1) == [(0, 0, 0)]

    def test_enumeration_11_6_1(self):
        reps = sp.enumerate_compatible(11, 6, 1)
        assert len(reps) == 43
        assert (10, 50, 5) in reps          # the extreme tower in the census
        c0 = {(a, b) for a, b, c in reps if c == 0}
        assert c0 == {(0, b) for b in range(11)} | {(1, b) for b in range(5)}

    def test_count_equals_enumeration_exhaustive(self):
        for k1 in range(1, 13):
            for k2 in range(1, k1 + 1):
                for k3 in range(1, k2 + 1):
                    reps = sp.enumerate_compatible(k1, k2, k3)
                    counts = sp.count_compatible(k1, k2, k3)
                    assert len(reps) == counts[2]
                    assert len([r for r in reps if r[2] == 0]) == counts[0]
                    assert all(sp.stage3_compatible(a, b, c, k1, k2, k3)
                               for a, b, c in reps)
                    assert len(set(reps)) == len(reps)

    @given(st.integers(1, 20), st.integers(1, 20), st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_rational_scaling(self, k1, k2, k3):
        ks = sorted([k1, k2, k3], reverse=True)
        scaled = [Fraction(k, 7) for k in ks]
        assert sp.count_compatible(*ks) == sp.count_compatible(*scaled)

    def test_growth_bounds(self):
        for k1 in range(2, 31):
            for k2 in range(2, k1 + 1):
                assert sp.growth_bounds_hold(k1, k2)


class TestProductClass:
    def test_identity(self):
        assert sp.product_class_is_kahler(BottMatrix.identity(4), (3, 2, 2, 1))

    def test_hirzebruch_threshold(self):
        for m in range(4):
            A = BottMatrix.stage2(-2 * m)
            assert sp.product_class_is_kahler(A, (5, 2)) == (m < Fraction(5, 2))

    def test_stage3_example(self):
        assert sp.product_class_is_kahler(BottMatrix.stage3(-2, 0, 0), (5, 2, 1))

    def test_nontrivial_pontrjagin_rejected(self):
        assert not sp.product_class_is_kahler(BottMatrix.stage3(-2, 0, -2), (9, 2, 1))

    @pytest.mark.parametrize("k", [(5, 2), (5, 2, 1, 1), (5, 0, 1), (5, 2, -1)])
    def test_requires_one_positive_weight_per_stage(self, k):
        with pytest.raises(ValueError):
            sp.product_class_is_kahler(BottMatrix.stage3(-2, 0, 0), k)

    def test_requires_even_nonpositive(self):
        with pytest.raises(ValueError):
            sp.product_class_is_kahler(BottMatrix.stage3(-1, 0, 0), (5, 2, 1))
        with pytest.raises(ValueError):
            sp.product_class_is_kahler(BottMatrix.stage3(2, 0, 0), (5, 2, 1))


class TestTwistOneCompatibility:
    def test_examples(self):
        assert sp.twist1_compatible((-1, -1), (2, 2, 1))
        assert not sp.twist1_compatible((-3, 1), (2, 1, 1))
        assert sp.twist1_compatible((-2, -5, -1), (100, 100, 100, 1))

    @pytest.mark.parametrize("r", [(2, 2), (2, 2, 1, 1), (2, 0, 1), (2, 2, -1)])
    def test_requires_positive_coefficient_per_stage(self, r):
        with pytest.raises(ValueError):
            sp.twist1_compatible((-1, -1), r)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            sp.twist1_compatible((1, -1), (2, 2, 1))

    def test_positive_entries_unconstrained(self):
        assert sp.twist1_compatible((-1, 4, 9), (2, Fraction(1, 10), Fraction(1, 10), 1))
