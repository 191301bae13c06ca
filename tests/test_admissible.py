import random
from fractions import Fraction

import pytest
from bott import admissible as adm
from bott.polynomials import degree, pderiv, peval, pmul, poly, pscale, psub

TOL = Fraction(1, 10 ** 12)


def ks_polynomial(r):
    """Closed form of the bidegree (1,-1) family profile at parameter r."""
    r = Fraction(r)
    return pscale(pmul(poly([1, 0, -1]),
                       poly([2 - r + r * r, 4 * r - 2, r * (r - 1)])), Fraction(1, 2))


def random_data(rng, max_components=3):
    comps = []
    for _ in range(rng.randint(1, max_components)):
        d = rng.randint(1, 3)
        r = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), 10)
        s = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        comps.append((d, s, r))
    return adm.AdmissibleData.make(comps)


class TestAdmissibleData:
    def test_validation(self):
        with pytest.raises(ValueError):
            adm.AdmissibleData.make([(1, 2, 1)])        # |r| = 1
        with pytest.raises(ValueError):
            adm.AdmissibleData.make([(0, 2, Fraction(1, 2))])
        with pytest.raises(ValueError):
            adm.AdmissibleData.make([])

    def test_dimension_and_pc(self):
        data = adm.AdmissibleData.make([(2, 1, Fraction(1, 3)), (1, -1, Fraction(-1, 2))])
        assert data.dim == 4
        assert degree(data.p_c()) == 3

    def test_json_round_trip(self):
        data = adm.ks_data(Fraction(2, 7))
        assert adm.AdmissibleData.from_json(data.to_json()) == data


class TestExtremalPolynomial:
    def test_ks_closed_form(self):
        rng = random.Random(2)
        for _ in range(20):
            r = Fraction(rng.randint(1, 99), 100)
            profile = adm.extremal_polynomial(adm.ks_data(r))
            assert profile.F == ks_polynomial(r)
            assert profile.slope == 0

    def test_ke_point(self):
        profile = adm.extremal_polynomial(adm.ks_data(Fraction(1, 2)))
        expected = pscale(pmul(poly([1, 0, -1]), poly([7, 0, -1])), Fraction(1, 8))
        assert profile.F == expected
        assert profile.slope == 0

    def test_endpoint_conditions_random(self):
        rng = random.Random(13)
        for _ in range(100):
            data = random_data(rng)
            profile = adm.extremal_polynomial(data)
            pc = data.p_c()
            assert peval(profile.F, 1) == 0
            assert peval(profile.F, -1) == 0
            assert peval(pderiv(profile.F), 1) == -2 * peval(pc, 1)
            assert peval(pderiv(profile.F), -1) == 2 * peval(pc, -1)

    def test_curvature_identity_exact(self):
        rng = random.Random(14)
        for _ in range(40):
            data = random_data(rng)
            profile = adm.extremal_polynomial(data)
            lhs = psub(adm._curvature_source(data), pderiv(pderiv(profile.F)))
            rhs = pmul(poly([profile.intercept, profile.slope]), data.p_c())
            assert lhs == rhs

    def test_degree_bounds(self):
        rng = random.Random(15)
        for _ in range(40):
            data = random_data(rng)
            profile = adm.extremal_polynomial(data)
            assert degree(profile.F) <= data.dim + 2
            if profile.slope == 0:
                assert degree(profile.F) <= data.dim + 1

    def test_scalar_profile_is_affine(self):
        data = adm.ks_data(Fraction(3, 7))
        profile = adm.extremal_polynomial(data)
        for z in (Fraction(-1, 2), Fraction(0), Fraction(1, 2)):
            assert adm.scalar_profile(profile, data, z) == \
                profile.slope * z + profile.intercept

    def test_pole_hit(self):
        data = adm.AdmissibleData.make([(1, 2, Fraction(1, 2))])
        profile = adm.extremal_polynomial(data)
        with pytest.raises(adm.PoleHit):
            adm.scalar_profile(profile, data, -2)


class TestPositivity:
    def test_ke_profile_positive(self):
        assert adm.is_positive_on_interval(
            adm.extremal_polynomial(adm.ks_data(Fraction(1, 2))).F)

    def test_sign_change_detected(self):
        assert not adm.is_positive_on_interval(pmul(poly([1, 0, -1]), poly([0, 1])))

    def test_touching_zero_detected(self):
        # (1 - z^2) z^2 vanishes inside the interval
        assert not adm.is_positive_on_interval(pmul(poly([1, 0, -1]), poly([0, 0, 1])))

    def test_requires_endpoint_zeros(self):
        with pytest.raises(ValueError):
            adm.is_positive_on_interval(poly([1]))

    def test_nonnegative_curvature_data_positive(self):
        # components with s r >= 0 model nonnegative scalar curvature
        rng = random.Random(16)
        for _ in range(30):
            comps = []
            for _ in range(rng.randint(1, 3)):
                d = rng.randint(1, 2)
                r = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), 10)
                s = abs(Fraction(rng.randint(0, 6), rng.randint(1, 3)))
                if r < 0:
                    s = -s
                comps.append((d, s, r))
            profile = adm.extremal_polynomial(adm.AdmissibleData.make(comps))
            assert adm.is_positive_on_interval(profile.F)


class TestCscFamilies:
    def test_families_are_csc(self):
        rng = random.Random(17)
        for _ in range(20):
            r = Fraction(rng.randint(1, 99), 100)
            first = adm.AdmissibleData.make([(1, 2, r), (1, -2, -r)])
            assert adm.is_csc(adm.extremal_polynomial(first))
            assert adm.is_csc(adm.extremal_polynomial(adm.ks_data(r)))

    def test_off_family_not_csc(self):
        rng = random.Random(18)
        found = 0
        while found < 20:
            r1 = Fraction(rng.randint(1, 99), 100)
            r2 = -Fraction(rng.randint(1, 99), 100)
            if r2 == -r1 or r2 == r1 - 1:
                continue
            found += 1
            data = adm.AdmissibleData.make([(1, 2, r1), (1, -2, r2)])
            assert not adm.is_csc(adm.extremal_polynomial(data))

    def test_pair_predicates(self):
        assert adm.is_csc_pair(Fraction(1, 3), Fraction(-1, 3))
        assert adm.is_csc_pair(Fraction(2, 5), Fraction(-3, 5))
        assert not adm.is_csc_pair(Fraction(3, 10), Fraction(-1, 2))
        assert adm.is_ke_ks(Fraction(1, 2), Fraction(-1, 2))
        assert not adm.is_ke_ks(Fraction(1, 3), Fraction(-1, 3))


class TestCscCondition:
    def test_first_family_zero(self):
        rng = random.Random(19)
        for m in range(1, 6):
            for _ in range(20):
                r = Fraction(rng.randint(1, 99), 100)
                assert adm.csc_condition(m, r, -r) == 0

    def test_m1_second_family(self):
        assert adm.csc_condition(1, Fraction(2, 5), Fraction(-3, 5)) == 0

    def test_range_validation(self):
        with pytest.raises(ValueError):
            adm.csc_condition(1, Fraction(3, 2), Fraction(-1, 2))
        with pytest.raises(ValueError):
            adm.csc_condition(1, Fraction(1, 2), Fraction(1, 2))

    def test_interpolation_probe_raises(self, monkeypatch):
        # a corrupted sample must fail the probe, also under python -O
        real = adm.lagrange_interpolate
        monkeypatch.setattr(adm, "lagrange_interpolate",
                            lambda pts: real([(pts[0][0], pts[0][1] + 1), *pts[1:]]))
        with pytest.raises(ArithmeticError):
            adm.csc_condition_polynomial(2, Fraction(4, 5))

    def test_m2_sign_change_off_first_family(self):
        # second family crossing below -1/2 for r_plus = 4/5
        lo = adm.csc_condition(2, Fraction(4, 5), Fraction(-7, 20))
        hi = adm.csc_condition(2, Fraction(4, 5), Fraction(-3, 10))
        assert lo * hi < 0


class TestCscFamilySolve:
    def test_m1_two_roots(self):
        roots = adm.csc_family_solve(1, Fraction(2, 5), TOL)
        assert roots == [Fraction(-3, 5), Fraction(-2, 5)]

    def test_double_point(self):
        roots = adm.csc_family_solve(1, Fraction(1, 2), TOL)
        assert roots == [Fraction(-1, 2)]

    def test_second_family_deflation(self):
        for rp in (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)):
            roots = adm.csc_second_family_roots(1, rp, TOL)
            assert roots == [rp - 1]

    def test_second_family_partial_domain(self):
        # for m >= 2 the second family exists near r_plus = 1 but not near 0
        assert adm.csc_second_family_roots(2, Fraction(4, 5), TOL)
        assert adm.csc_second_family_roots(2, Fraction(1, 2), TOL) == [Fraction(-1, 2)]
        assert adm.csc_second_family_roots(2, Fraction(1, 5), TOL) == []

    def test_roots_within_tolerance(self):
        tol = Fraction(1, 10 ** 9)
        for root in adm.csc_family_solve(3, Fraction(4, 5), tol):
            lo = adm._csc_condition_raw(3, Fraction(4, 5), root - tol)
            hi = adm._csc_condition_raw(3, Fraction(4, 5), root + tol)
            assert lo == 0 or hi == 0 or lo * hi < 0


class TestCProjective:
    def test_identity(self):
        data = adm.ks_data(Fraction(2, 5))
        F = adm.extremal_polynomial(data).F
        new_F, new_data = adm.cproj_transform(F, data, 0, 1)
        assert new_F == F and new_data.r_list() == data.r_list()

    def test_ks_family_mapping(self):
        rng = random.Random(21)
        for _ in range(20):
            r = Fraction(rng.randint(1, 99), 100)
            data = adm.ks_data(r)
            F = adm.extremal_polynomial(data).F
            alpha = (2 * r - 1) / (1 - r + r * r)
            new_F, new_data = adm.cproj_transform(F, data, alpha, 1)
            assert new_data.r_list() == (1 - r, -r)
            assert new_F == ks_polynomial(1 - r)

    def test_inverse_parameters(self):
        data = adm.ks_data(Fraction(3, 8))
        F = adm.extremal_polynomial(data).F
        mid_F, mid_data = adm.cproj_transform(F, data, Fraction(1, 5), 1)
        back_F, back_data = adm.cproj_transform(mid_F, mid_data, Fraction(-1, 5), 1)
        assert back_F == F and back_data.r_list() == data.r_list()

    def test_functorial_composition(self):
        rng = random.Random(22)
        for _ in range(10):
            r = Fraction(rng.randint(30, 70), 100)
            data = adm.ks_data(r)
            F = adm.extremal_polynomial(data).F
            a1, a2 = Fraction(1, 7), Fraction(-1, 9)
            f1, d1 = adm.cproj_transform(F, data, a1, 1)
            f2, d2 = adm.cproj_transform(f1, d1, a2, 1)
            # composing momentum maps multiplies the coefficient matrices
            beta_c = 1 + a2 * a1
            alpha_c = a2 + a1
            f3, d3 = adm.cproj_transform(F, data, alpha_c, beta_c)
            assert f3 == f2 and d3.r_list() == d2.r_list()

    def test_positivity_preserved(self):
        rng = random.Random(23)
        for _ in range(20):
            r = Fraction(rng.randint(30, 70), 100)
            data = adm.ks_data(r)
            F = adm.extremal_polynomial(data).F
            alpha = Fraction(rng.randint(-3, 3), 10)
            new_F, _ = adm.cproj_transform(F, data, alpha, 1)
            assert adm.is_positive_on_interval(F) == adm.is_positive_on_interval(new_F)

    def test_degree_cap(self):
        data = adm.ks_data(Fraction(2, 5))
        too_big = poly([0] * 6 + [1])
        with pytest.raises(adm.DegreeTooHigh):
            adm.cproj_transform(too_big, data, Fraction(1, 5), 1)

    def test_singular_parameters(self):
        data = adm.ks_data(Fraction(2, 5))
        F = adm.extremal_polynomial(data).F
        with pytest.raises(adm.SingularParameters):
            adm.cproj_transform(F, data, 1, 1)
        with pytest.raises(adm.SingularParameters):
            adm.cproj_transform(F, data, 2, 1)
        with pytest.raises(adm.SingularParameters):
            adm.cproj_transform(F, data, Fraction(2, 5), 1)   # beta r = alpha
