import itertools
import random

import pytest
from hypothesis import given, strategies as st

from bott import topology3 as t3
from bott.core import BottMatrix, equivalence_orbit

from conftest import stage3_diffeomorphic_oracle, twist1_diffeomorphic_scan_oracle

triple = st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))


class TestInvariants:
    def test_koiso_sakane_bundle(self):
        inv = t3.stage3_invariants(0, 1, -1)
        assert inv.p == -2
        assert inv.w2 == "x1+x2"
        assert not inv.q_trivial

    def test_product(self):
        inv = t3.stage3_invariants(0, 0, 0)
        assert inv.q_trivial and inv.q_trivial_type == "product3"

    def test_even_family_is_product(self):
        for a in range(-2, 3):
            for c in range(-2, 3):
                assert t3.stage3_invariants(2 * a, 2 * a * c, 2 * c).q_trivial_type \
                    == "product3"

    def test_three_trivial_types(self):
        types = set()
        for a in range(-3, 4):
            for b in range(-3, 4):
                for c in range(-3, 4):
                    inv = t3.stage3_invariants(a, b, c)
                    if inv.q_trivial:
                        types.add(inv.q_trivial_type)
        assert types == {"product3", "m1xm2", "m3"}

    def test_json_has_key(self):
        blob = t3.stage3_invariants(0, 24, 1).to_json()
        assert "diffeo_key" in blob and blob["p"] == 48


class TestStage3Diffeomorphism:
    def test_worked_examples(self):
        assert t3.stage3_diffeomorphic((0, 24, 1), (0, 24, -1))
        assert t3.stage3_diffeomorphic((0, 24, 1), (0, 8, 3))
        assert t3.stage3_diffeomorphic((0, 12, 2), (0, 6, 4))
        assert not t3.stage3_diffeomorphic((0, 24, 1), (0, 12, 2))

    @given(triple)
    def test_reflexive(self, t):
        assert t3.stage3_diffeomorphic(t, t)

    def test_key_matches_relation(self):
        rng = range(-3, 4)
        triples = [(a, b, c) for a in rng for b in rng for c in rng]
        keys = {t: t3.stage3_invariants(*t).diffeo_key() for t in triples}
        for u in triples:
            for v in triples:
                assert stage3_diffeomorphic_oracle(u, v) == (keys[u] == keys[v])

    def test_mixed_triviality_never_diffeomorphic(self):
        assert not t3.stage3_diffeomorphic((0, 0, 0), (0, 1, 1))

    def test_orbit_members_diffeomorphic(self):
        for t in [(1, 2, 3), (0, 4, 2), (2, 0, 0), (-1, 5, -2)]:
            for member in equivalence_orbit(BottMatrix.stage3(*t)).representatives:
                assert t3.stage3_diffeomorphic(t, member.stage3_params())

    def test_invariants_agree_on_diffeomorphic_pairs(self):
        rng = range(-3, 4)
        triples = [(a, b, c) for a in rng for b in rng for c in rng]
        for u in triples:
            for v in triples:
                if t3.stage3_diffeomorphic(u, v):
                    iu, iv = t3.stage3_invariants(*u), t3.stage3_invariants(*v)
                    assert abs(iu.p) == abs(iv.p)
                    assert (iu.w2 == "zero") == (iv.w2 == "zero")


class TestTwistOneDiffeomorphism:
    def test_examples(self):
        assert t3.twist1_diffeomorphic((1, 2, 3), (-1, -2, 3))
        assert not t3.twist1_diffeomorphic((1, 2, 3), (1, 2, 4))
        assert t3.twist1_diffeomorphic((7, -5), (7, -5))

    def test_permutation_allowed(self):
        assert t3.twist1_diffeomorphic((1, 2, 3), (3, -2, 1))

    def test_parity_blocks(self):
        # same products up to sign but wrong parity
        assert not t3.twist1_diffeomorphic((2, 2), (4, 1))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            t3.twist1_diffeomorphic((1, 2), (1, 2, 3))

    @pytest.mark.parametrize("k, k2, expected", [
        ((2, 3, 0), (1, 0, 6), True),      # two nonzero entries: only |product| and parity
        ((3, 4), (2, 6), False),           # equal products, different parities
        ((2, 0, 0), (0, 4, 0), True),      # one nonzero entry: parity only
        ((1, 0), (2, 0), False),
        ((1, 2, 3), (1, 2, 0), False),     # three nonzero entries against two
        ((0, 0, 0), (0, 2, 0), True),
    ])
    def test_few_nonzero_entries(self, k, k2, expected):
        assert t3.twist1_diffeomorphic(k, k2) is expected
        assert twist1_diffeomorphic_scan_oracle(k, k2) is expected

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.lists(st.one_of(st.just(0), st.integers(-6, 6)), min_size=n, max_size=n),
        st.lists(st.one_of(st.just(0), st.integers(-6, 6)), min_size=n, max_size=n),
        st.permutations(range(n)),
        st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n),
        st.booleans())))
    def test_matches_permutation_scan(self, case):
        k, other, sigma, signs, related = case
        # half the cases compare k with a signed permutation of itself
        k2 = [signs[i] * k[sigma[i]] for i in range(len(k))] if related else other
        assert t3.twist1_diffeomorphic(k, k2) == twist1_diffeomorphic_scan_oracle(k, k2)


class TestTwistOneCount:
    def test_generic(self):
        assert t3.twist1_class_count((1, 2, 3)) == 4
        assert t3.twist1_class_count((2, 5, 9, 11)) == 8

    def test_degenerate(self):
        assert t3.twist1_class_count((1, 1, 2)) == 3

    def test_preconditions(self):
        with pytest.raises(ValueError):
            t3.twist1_class_count((1, 2))
        with pytest.raises(ValueError):
            t3.twist1_class_count((1, 0, 2))

    def test_generic_matches_brute_force(self):
        rng = random.Random(1)
        for _ in range(25):
            n = rng.randint(3, 5)
            values = rng.sample(range(1, 40), n)
            k = [v * rng.choice([1, -1]) for v in values]
            assert t3._sign_class_count(k) == 2 ** (n - 1)

    @pytest.mark.parametrize("n", [3, 4])
    def test_sign_patterns_counted_up_to_permutation_and_sign(self, n):
        # every sign pattern k of given |k_i| gives a tower diffeomorphic to
        # that of |k|, and these towers up to permutation and a global sign
        # are the twist1_class_count(k) inequivalent ones
        generic = 0
        for values in itertools.combinations_with_replacement((1, 2, 3), n):
            patterns = [[s * x for s, x in zip(signs, values)]
                        for signs in itertools.product((1, -1), repeat=n)]
            classes = {frozenset(tuple(e * x for x in p)
                                 for p in itertools.permutations(k) for e in (1, -1))
                       for k in patterns}
            for k in patterns:
                assert twist1_diffeomorphic_scan_oracle(values, k), k
                assert t3.twist1_class_count(k) == len(classes), k
            generic += len(set(values)) == n
        assert generic == (n == 3)
