import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bott import admissible as adm
from bott.core import StageTooLarge
from bott.polynomials import degree, ilin, over, peval, poly
from conftest import (
    cproj_transform_oracle,
    csc_condition_expansion_oracle,
    csc_condition_polynomial_oracle,
    csc_condition_raw_oracle,
    csc_family_solve_oracle,
    csc_full_search_oracle,
    extremal_polynomial_oracle,
    fractions,
    is_positive_on_interval_oracle,
    p_c_oracle,
    pderiv,
    pmul,
    pscale,
    psub,
    scalar_profile,
)

TOL = Fraction(1, 10 ** 12)
SMALL_RPLUS = sorted({Fraction(p, q) for q in range(2, 11) for p in range(1, q)})
LARGE_RPLUS = [Fraction(13, 47), Fraction(50, 99), Fraction(83, 91)]


def p_c(data):
    """p_c, the product of the (1 + r_a z)^(d_a), from the library's integer parts."""
    P, Q, _, _ = adm._profile_parts(data)
    return over(P, Q)


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
        assert degree(p_c(data)) == 3

    def test_json_round_trip(self):
        data = adm.ks_data(Fraction(2, 7))
        assert adm.AdmissibleData.from_json(data.to_json()) == data

    @pytest.mark.parametrize("d", [Fraction(3, 2), 1.5, True, "1", None])
    def test_non_integer_dimension_rejected(self, d):
        with pytest.raises(ValueError):
            adm.AdmissibleData.make([(d, 2, Fraction(2, 5))])
        with pytest.raises(ValueError):
            adm.AdmissibleData.from_json({"components": [{"d": d, "s": "2", "r": "2/5"}]})

    @pytest.mark.parametrize("obj", [
        {"components": 5}, {"components": [5]}, {"components": [{"d": 1, "s": "2"}]},
        {"components": [{"d": 1, "s": None, "r": "2/5"}]}, {"components": [[1, 2]]},
        {"component": []}, [1],
    ])
    def test_malformed_json_rejected(self, obj):
        with pytest.raises(ValueError):
            adm.AdmissibleData.from_json(obj)

    @pytest.mark.parametrize("s, r", [(2, 0.4), (2.0, "2/5"), (True, "2/5"), (2, False)])
    def test_float_and_bool_parameters_rejected(self, s, r):
        with pytest.raises(ValueError):
            adm.AdmissibleData.make([(1, s, r)])
        with pytest.raises(ValueError):
            adm.AdmissibleData.from_json({"components": [{"d": 1, "s": s, "r": r}]})

    def test_exact_parameter_forms_agree(self):
        expected = adm.AdmissibleData.make([(1, Fraction(2), Fraction(2, 5))])
        for s, r in [(2, "2/5"), ("2", "0.4"), (Fraction(2), Fraction(2, 5))]:
            assert adm.AdmissibleData.make([(1, s, r)]) == expected

    @pytest.mark.parametrize("comps", [5, [5], [(1, 2)], [(1, [2], Fraction(1, 2))]])
    def test_malformed_components_rejected(self, comps):
        with pytest.raises(ValueError):
            adm.AdmissibleData.make(comps)


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
            pc = p_c(data)
            assert peval(profile.F, 1) == 0
            assert peval(profile.F, -1) == 0
            assert peval(pderiv(profile.F), 1) == -2 * peval(pc, 1)
            assert peval(pderiv(profile.F), -1) == 2 * peval(pc, -1)

    def test_curvature_identity_exact(self):
        rng = random.Random(14)
        for _ in range(40):
            data = random_data(rng)
            profile = adm.extremal_polynomial(data)
            _, Q, S, T = adm._profile_parts(data)
            lhs = psub(over(S, Q * T), pderiv(pderiv(profile.F)))
            rhs = pmul(poly([profile.intercept, profile.slope]), p_c(data))
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
            assert scalar_profile(profile, data, z) == \
                profile.slope * z + profile.intercept

    def test_pole_hit(self):
        data = adm.AdmissibleData.make([(1, 2, Fraction(1, 2))])
        profile = adm.extremal_polynomial(data)
        with pytest.raises(ZeroDivisionError):
            scalar_profile(profile, data, -2)


class TestPositivity:
    def test_ke_profile_positive(self):
        assert adm.is_positive_on_interval(
            adm.extremal_polynomial(adm.ks_data(Fraction(1, 2))).F)

    def test_sign_change_detected(self):
        assert not adm.is_positive_on_interval(pmul(poly([1, 0, -1]), poly([0, 1])))

    def test_touching_zero_detected(self):
        # (1 - z^2) z^2 vanishes inside the interval
        assert not adm.is_positive_on_interval(pmul(poly([1, 0, -1]), poly([0, 0, 1])))

    def test_zero_polynomial_not_positive(self):
        assert not adm.is_positive_on_interval(())

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

    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_integral_oracle(self, m):
        rng = random.Random(200 + m)
        for _ in range(15):
            den = rng.choice([7, 13, 100])
            rp = Fraction(rng.randint(1, den - 1), den)
            rm = -Fraction(rng.randint(1, 96), 97)
            assert adm.csc_condition(m, rp, rm) == csc_condition_raw_oracle(m, rp, rm)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            adm.csc_condition(1, Fraction(3, 2), Fraction(-1, 2))
        with pytest.raises(ValueError):
            adm.csc_condition(1, Fraction(1, 2), Fraction(1, 2))

    def test_expansion_self_check_raises(self, monkeypatch):
        # an expansion that misses the root r_minus = -r_plus must raise
        # ArithmeticError, also under python -O (which strips asserts)
        real = adm._moment_row
        monkeypatch.setattr(adm, "_moment_row", lambda *args: ilin((1, real(*args)), (1, (1,))))
        with pytest.raises(ArithmeticError):
            adm.csc_condition_polynomial(2, Fraction(4, 5))
        script = ("import bott.admissible as adm; from bott.polynomials import ilin; "
                  "real = adm._moment_row; "
                  "adm._moment_row = lambda *args: ilin((1, real(*args)), (1, (1,))); "
                  "adm.csc_condition_polynomial(2, '4/5')")
        env = {**os.environ, "PYTHONPATH": str(Path(adm.__file__).resolve().parents[1])}
        run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 1
        assert "ArithmeticError: expanded CSC obstruction misses" in run.stderr

    @pytest.mark.parametrize("m", range(1, 9))
    def test_expansion_matches_interpolation(self, m):
        for rp in SMALL_RPLUS + LARGE_RPLUS:
            g = adm.csc_condition_polynomial(m, rp)
            assert g == csc_condition_polynomial_oracle(m, rp)
            assert degree(g) <= 2 * m

    @pytest.mark.parametrize("m, rp", [(0, Fraction(1, 2)), (-1, Fraction(1, 2)),
                                       (True, Fraction(1, 2)), (2, 0), (2, 1),
                                       (2, Fraction(3, 2)), (2, Fraction(-1, 2))])
    def test_solver_range_validation(self, m, rp):
        for call in (lambda: adm.csc_condition_polynomial(m, rp),
                     lambda: adm.csc_family_solve(m, rp, TOL),
                     lambda: adm.csc_second_family_polynomial(m, rp),
                     lambda: adm.csc_second_family_roots(m, rp, TOL),
                     lambda: adm.csc_condition(m, rp, Fraction(-1, 2))):
            with pytest.raises(ValueError):
                call()

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

    @pytest.mark.parametrize("m", range(1, 9))
    def test_roots_match_oracle_path(self, m):
        # one r_plus below 1/2 and one above, where the second family appears
        for rp in (SMALL_RPLUS[3 * m], LARGE_RPLUS[m % 3]):
            assert adm.csc_family_solve(m, rp, TOL) == csc_family_solve_oracle(m, rp, TOL)

    def test_tolerance_validation(self):
        for tol in (0, -TOL):
            with pytest.raises(ValueError):
                adm.csc_family_solve(2, Fraction(1, 2), tol)
            with pytest.raises(ValueError):
                adm.csc_second_family_roots(2, Fraction(1, 2), tol)

    def test_sweep_rows(self):
        step = Fraction(1, 8)
        rows = list(adm.csc_family_sweep(2, step, TOL))
        expected = [(k * step, root) for k in range(1, 8)
                    for root in adm.csc_family_solve(2, k * step, TOL)]
        assert rows == expected
        second = list(adm.csc_family_sweep(2, step, TOL, second_only=True))
        assert second == [(k * step, root) for k in range(1, 8)
                          for root in adm.csc_second_family_roots(2, k * step, TOL)]

    @pytest.mark.parametrize("step", [0, 1, 2, Fraction(-1, 4), Fraction(5, 4)])
    def test_sweep_step_validation(self, step):
        # rejected on the call, before any row is produced
        with pytest.raises(ValueError):
            adm.csc_family_sweep(2, step, TOL)

    def test_sweep_argument_validation(self):
        with pytest.raises(ValueError):
            adm.csc_family_sweep(0, Fraction(1, 4), TOL)
        with pytest.raises(ValueError):
            adm.csc_family_sweep(2, Fraction(1, 4), 0)

    @pytest.mark.parametrize("m", range(1, adm.MAX_CSC_M + 1))
    def test_matches_full_search(self, m):
        # the full search isolates -r_plus (and the crossing's double root)
        # like any other root; 13 seeded 12-bit r_plus per m, 208 in all
        coarse = Fraction(1, 100)
        for rp in SMALL_RPLUS:
            for tol in (TOL, coarse):
                assert adm.csc_family_solve(m, rp, tol) == csc_full_search_oracle(m, rp, tol)
        rng = random.Random(m)
        for q in [rng.randint(2, 4095) for _ in range(13)]:
            rp = Fraction(rng.randint(1, q - 1), q)
            assert adm.csc_family_solve(m, rp, TOL) == csc_full_search_oracle(m, rp, TOL)
            # bisected to 1/100, the search's -r_plus is a dyadic point near it
            roots, full = (solve(m, rp, coarse) for solve in (adm.csc_family_solve,
                                                             csc_full_search_oracle))
            assert -rp in roots and len(roots) == len(full)
            assert all(abs(r - f) <= coarse for r, f in zip(roots, full))

    @pytest.mark.parametrize("m", range(1, 5))
    def test_matches_sturm_oracle(self, m):
        # the Fraction Sturm chains take seconds per m past m = 4
        for rp in SMALL_RPLUS:
            assert adm.csc_family_solve(m, rp, TOL) == csc_family_solve_oracle(m, rp, TOL)

    @pytest.mark.parametrize("m", range(1, adm.MAX_CSC_M + 1))
    def test_balanced_root_is_exact(self, m):
        for rp in SMALL_RPLUS:
            for tol in (1, Fraction(1, 10)):
                assert -rp in adm.csc_family_solve(m, rp, tol)
        # the families cross at r_plus = 1/2: the root is in both, listed once
        half = Fraction(1, 2)
        assert -half in adm.csc_second_family_roots(m, half, TOL)
        roots = adm.csc_family_solve(m, half, TOL)
        assert roots.count(-half) == 1 and roots == sorted(set(roots))

    def test_roots_within_tolerance(self):
        tol = Fraction(1, 10 ** 9)
        for root in adm.csc_family_solve(3, Fraction(4, 5), tol):
            lo = csc_condition_raw_oracle(3, Fraction(4, 5), root - tol)
            hi = csc_condition_raw_oracle(3, Fraction(4, 5), root + tol)
            assert lo == 0 or hi == 0 or lo * hi < 0


@st.composite
def admissible_data(draw, max_components=3, max_d=3):
    comps = []
    for _ in range(draw(st.integers(1, max_components))):
        q = draw(st.integers(2, 12))
        r = Fraction(draw(st.sampled_from((-1, 1))) * draw(st.integers(1, q - 1)), q)
        comps.append((draw(st.integers(1, max_d)), draw(fractions(9, 5)), r))
    return adm.AdmissibleData.make(comps)


class TestCProjective:
    def test_with_r_needs_one_parameter_per_component(self):
        data = adm.ks_data(Fraction(2, 5))
        assert data.with_r((Fraction(1, 3), Fraction(-1, 4))).r_list() == (Fraction(1, 3),
                                                                         Fraction(-1, 4))
        for new_r in ((Fraction(1, 3),), (Fraction(1, 3),) * 3):
            with pytest.raises(ValueError):
                data.with_r(new_r)

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

    @given(admissible_data(), st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)),
           st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)))
    @settings(max_examples=80, deadline=None)
    def test_parameters_alone(self, data, alpha, beta):
        # the parameters of the image without F, with the same refusals
        F = poly([1, 0, -1])
        try:
            _, image = adm.cproj_transform(F, data, alpha, beta)
        except adm.SingularParameters as exc:
            with pytest.raises(adm.SingularParameters, match=str(exc).replace("|", r"\|")):
                adm.cproj_parameters(data, alpha, beta)
            return
        assert adm.cproj_parameters(data, alpha, beta) == image.r_list()


class TestAgainstFractionOracles:
    """The integer paths against the Fraction paths they replaced (conftest)."""

    @given(admissible_data())
    @settings(max_examples=80, deadline=None)
    def test_extremal_polynomial(self, data):
        try:
            expected = extremal_polynomial_oracle(data)
        except adm.SingularSystem:
            with pytest.raises(adm.SingularSystem):
                adm.extremal_polynomial(data)
            return
        profile = adm.extremal_polynomial(data)
        assert (profile.F, profile.slope, profile.intercept) == expected
        assert adm.is_positive_on_interval(profile.F) == is_positive_on_interval_oracle(profile.F)
        assert p_c(data) == p_c_oracle(data)

    @given(admissible_data(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_cproj_transform(self, data, draw):
        if draw.draw(st.booleans()):
            F = adm.extremal_polynomial(data).F
            F = F if degree(F) <= data.dim + 1 else F[:data.dim + 2]
        else:
            F = poly(draw.draw(st.lists(fractions(9, 6), max_size=data.dim + 2)))
        beta = draw.draw(fractions(9, 5).filter(bool))
        q = draw.draw(st.integers(2, 13))
        alpha = abs(beta) * Fraction(draw.draw(st.integers(1 - q, q - 1)), q)
        try:
            new_F, new_data = adm.cproj_transform(F, data, alpha, beta)
        except adm.SingularParameters:
            assert any(beta == alpha * r or beta * r == alpha for r in data.r_list())
            return
        assert (new_F, new_data.r_list()) == cproj_transform_oracle(F, data, alpha, beta)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_csc_expansion(self, m):
        rng = random.Random(400 + m)
        for _ in range(25):
            q = rng.randint(2, 100)
            rp = Fraction(rng.randint(1, q - 1), q)
            assert adm.csc_condition_polynomial(m, rp) == csc_condition_expansion_oracle(m, rp)


class TestSizeBounds:
    def test_dimension(self):
        big = [(adm.MAX_DIM - 2, 2, Fraction(2, 5)), (1, -2, Fraction(-3, 5))]
        data = adm.AdmissibleData.make(big)
        assert data.dim == adm.MAX_DIM
        assert adm.is_positive_on_interval(adm.extremal_polynomial(data).F)
        with pytest.raises(StageTooLarge):
            adm.AdmissibleData.make([(adm.MAX_DIM, 2, Fraction(2, 5))])

    def test_csc_m(self):
        assert Fraction(-1, 2) in adm.csc_family_solve(adm.MAX_CSC_M, Fraction(1, 2), TOL)
        for call in (lambda m: adm.csc_family_solve(m, Fraction(1, 2), TOL),
                     lambda m: adm.csc_condition(m, Fraction(1, 2), Fraction(-1, 2)),
                     lambda m: adm.csc_family_sweep(m, Fraction(1, 2), TOL)):
            with pytest.raises(StageTooLarge):
                call(adm.MAX_CSC_M + 1)

    def test_rational_bits(self):
        top = 2 ** adm.MAX_RATIONAL_BITS
        largest, refused = Fraction(top - 2, top - 1), Fraction(top - 1, top)
        assert -largest in adm.csc_family_solve(2, largest, TOL)
        adm.AdmissibleData.make([(1, top - 1, largest), (1, Fraction(-3, top - 1), -largest)])
        for call in (lambda: adm.csc_family_solve(2, refused, TOL),
                     lambda: adm.csc_second_family_roots(2, refused, TOL),
                     lambda: adm.csc_family_sweep(1, Fraction(top // 2 + 1, top), TOL),
                     lambda: adm.AdmissibleData.make([(1, 2, refused)]),
                     lambda: adm.AdmissibleData.make([(1, 2, -refused)]),
                     lambda: adm.AdmissibleData.make([(1, top, Fraction(1, 2))]),
                     lambda: adm.AdmissibleData.make([(1, Fraction(1, top), Fraction(1, 2))])):
            with pytest.raises(StageTooLarge):
                call()

    def test_tolerance_bits(self):
        top = 2 ** adm.MAX_TOLERANCE_BITS
        largest = Fraction(1, top - 1)
        assert adm.csc_family_solve(3, Fraction(1, 3), largest) == [Fraction(-1, 3)]
        # a tolerance past the interval's width ends every bisection at once
        assert adm.csc_family_solve(2, Fraction(2, 3), Fraction(top - 1, 3)) == \
            adm.csc_family_solve(2, Fraction(2, 3), 1)
        assert list(adm.csc_family_sweep(1, Fraction(1, 2), largest)) == \
            [(Fraction(1, 2), Fraction(-1, 2))]
        for refused in (Fraction(1, top), Fraction(top, 3)):
            for call in (lambda: adm.csc_family_solve(3, Fraction(1, 3), refused),
                         lambda: adm.csc_second_family_roots(3, Fraction(1, 3), refused),
                         lambda: adm.csc_family_sweep(1, Fraction(1, 2), refused)):
                with pytest.raises(StageTooLarge):
                    call()

    @given(st.sampled_from(["", "-", "+", " "]), st.text("0123456789", max_size=6),
           st.one_of(st.none(), st.text("0123456789", max_size=6)),
           st.one_of(st.none(), st.integers(-600, 600)))
    @settings(max_examples=200)
    def test_parse_rational_matches_fraction(self, sign, whole, part, exp):
        # equal to Fraction(text) where it answers; a refusal only where the
        # numerator or denominator is past the largest bit bound (or a zero
        # is written with an exponent past it)
        text = sign + whole + ("" if part is None else "." + part) + \
            ("" if exp is None else f"e{exp}")
        try:
            expected = Fraction(text)
        except ValueError:
            with pytest.raises(ValueError):
                adm.parse_rational(text)
            return
        try:
            assert adm.parse_rational(text) == expected
        except StageTooLarge:
            bits = max(abs(expected.numerator), expected.denominator).bit_length()
            assert bits > adm.MAX_TOLERANCE_BITS or (expected == 0 and abs(exp) > 256)

    @pytest.mark.parametrize("text", [
        "1e-10000000", "1E10000000", "-1e-1_000_000_000", "0e99999999", "0.5e-99999999999999999999",
        "1" * 300, "1." + "1" * 300, "1e+" + "9" * 5000,
    ])
    def test_parse_rational_refuses_at_once(self, text):
        start = time.perf_counter()
        with pytest.raises(StageTooLarge):
            adm.parse_rational(text)
        assert time.perf_counter() - start < 0.1

    def test_parse_rational_edges(self):
        bound = adm.MAX_TOLERANCE_BITS
        assert adm.parse_rational(f"1e{bound}") == 10 ** bound
        assert adm.parse_rational(f"3e-{bound}") == Fraction(3, 10 ** bound)
        assert adm.parse_rational("9" * bound) == int("9" * bound)
        # zeros around the significant digits move the power of ten only
        assert adm.parse_rational("1" + "0" * 400 + "e-400") == 1
        assert adm.parse_rational("0." + "0" * 300) == 0
        assert adm.parse_rational(" -12_5e-2 ") == Fraction(-5, 4)
        assert adm.parse_rational("1_0/3_0") == Fraction(1, 3)
        for text in (f"1e{bound + 1}", f"1e-{bound + 1}", "9" * (bound + 1)):
            with pytest.raises(StageTooLarge):
                adm.parse_rational(text)
        for text in ("1e", "1__0", "e5", "1/0x", "nan"):
            with pytest.raises(ValueError):
                adm.parse_rational(text)
        with pytest.raises(StageTooLarge):
            adm.AdmissibleData.make([(1, "2e-99999999", Fraction(1, 2))])

    def test_sweep_points(self):
        largest = Fraction(1, adm.MAX_SWEEP_POINTS + 1)
        rows = list(adm.csc_family_sweep(1, largest, Fraction(1, 1000)))
        assert len({rp for rp, _ in rows}) == adm.MAX_SWEEP_POINTS
        with pytest.raises(StageTooLarge):
            adm.csc_family_sweep(1, Fraction(1, adm.MAX_SWEEP_POINTS + 2), TOL)
