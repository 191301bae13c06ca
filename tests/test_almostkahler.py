import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bott import almostkahler as ak
from bott.polynomials import Poly2

from conftest import (
    _solve,
    certify_sign_monomial_oracle,
    certify_sign_oracle,
    check_integrability_grid_oracle,
    determinant_oracle,
    poly2_value,
)


def random_data(rng):
    while True:
        p0 = Fraction(rng.randint(1, 10), rng.choice([1, 2]))
        p1, p2 = rng.randint(-5, 8), rng.randint(-5, 8)
        try:
            return ak.SquareFiberData.make(p0, p1, p2)
        except ValueError:
            continue


def derive_system(data):
    """Re-derive the 6x6 system from the extremal residual itself.

    Each unknown is bumped by one in turn; the residual coefficients are
    affine in the unknowns, so the bumps recover the matrix columns and
    the zero solution recovers minus the right-hand side.
    """
    basis = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def residual_vector(values):
        res = ak.extremal_residual(data, ak.AkSolution(*values))
        return [res.coeffs.get(key, Fraction(0)) for key in basis]

    zero = [Fraction(0)] * 6
    base = residual_vector(zero)
    columns = []
    for i in range(6):
        bumped = zero[:]
        bumped[i] = Fraction(1)
        col = residual_vector(bumped)
        columns.append([col[j] - base[j] for j in range(6)])
    matrix = [[columns[i][j] for i in range(6)] for j in range(6)]
    rhs = [-base[j] for j in range(6)]
    return matrix, rhs


class TestData:
    def test_corner_positivity(self):
        with pytest.raises(ValueError):
            ak.SquareFiberData.make(1, -1, 0)
        with pytest.raises(ValueError):
            ak.SquareFiberData.make(1, 2, -3)
        with pytest.raises(ValueError):
            ak.SquareFiberData.make(0, 1, 1)
        ak.SquareFiberData.make(5, 3, -3)


class TestSolve:
    def test_product_case(self):
        data = ak.SquareFiberData.make(1, 0, 0)
        sol = ak.solve_ak(data)
        assert (sol.a11, sol.a12, sol.a22, sol.A1, sol.A2) == (0, 0, 0, 0, 0)
        assert sol.A3 == 12

    def test_swap_symmetry(self):
        rng = random.Random(31)
        for _ in range(25):
            data = random_data(rng)
            mirrored = ak.SquareFiberData.make(data.p0, data.p2, data.p1)
            s1, s2 = ak.solve_ak(data), ak.solve_ak(mirrored)
            assert (s1.a11, s1.A1) == (s2.a22, s2.A2)
            assert (s1.a22, s1.A2) == (s2.a11, s2.A1)
            assert s1.a12 == s2.a12 and s1.A3 == s2.A3

    def test_equal_weights_symmetric(self):
        sol = ak.solve_ak(ak.SquareFiberData.make(1, 1, 1))
        assert sol.A1 == sol.A2 and sol.a11 == sol.a22

    def test_residual_vanishes(self):
        rng = random.Random(32)
        for _ in range(100):
            data = random_data(rng)
            assert ak.extremal_residual(data, ak.solve_ak(data)).is_zero()

    def test_system_rederivation(self):
        rng = random.Random(33)
        for _ in range(20):
            data = random_data(rng)
            matrix, rhs = derive_system(data)
            expected_matrix, expected_rhs = ak.system_matrix(data)
            assert matrix == expected_matrix
            assert rhs == expected_rhs

    def test_matches_gauss_jordan_oracle(self):
        rng = random.Random(35)
        for _ in range(60):
            data = random_data(rng)
            matrix, rhs = ak.system_matrix(data)
            assert ak.solve_ak(data) == ak.AkSolution(*_solve(list(zip(*matrix)), rhs))

    def test_determinant_identity(self):
        rng = random.Random(34)
        for _ in range(40):
            data = random_data(rng)
            matrix, _ = ak.system_matrix(data)
            assert determinant_oracle(matrix) == ak.system_determinant(data)

    def test_csc_forces_product(self):
        half_steps = [Fraction(k, 2) for k in range(1, 11)]
        for p1 in range(-10, 11):
            for p2 in range(-10, 11):
                for p0 in half_steps:
                    try:
                        data = ak.SquareFiberData.make(p0, p1, p2)
                    except ValueError:
                        continue
                    sol = ak.solve_ak(data)
                    if sol.A1 == 0 and sol.A2 == 0:
                        assert p1 == 0 and p2 == 0


class TestPositivity:
    def test_positive_weights(self):
        for p0, p1, p2 in [(1, 1, 1), (1, 2, 4), (Fraction(1, 2), 1, 1), (5, 2, 4)]:
            data = ak.SquareFiberData.make(p0, p1, p2)
            assert ak.check_positivity(data, ak.solve_ak(data))

    def test_product_positive(self):
        data = ak.SquareFiberData.make(1, 0, 0)
        assert ak.check_positivity(data, ak.solve_ak(data))

    def test_injected_violation(self):
        data = ak.SquareFiberData.make(1, 1, 1)
        sol = ak.solve_ak(data)
        bad = ak.AkSolution(Fraction(-100), sol.a12, sol.a22, sol.A1, sol.A2, sol.A3)
        assert not ak.check_positivity(data, bad)

    def test_touching_zero_at_center_fails(self):
        # 2Q + a11 z1(1-z1) with a11 = -8 p0 touches zero on the center line
        data = ak.SquareFiberData.make(1, 0, 0)
        grazing = ak.AkSolution(Fraction(-8), Fraction(0), Fraction(0),
                                Fraction(0), Fraction(0), Fraction(12))
        assert not ak.check_positivity(data, grazing)

    def test_undecidable_graze_is_inconclusive(self):
        # (z1 - 1/3)^2 vanishes on a non-dyadic line: neither sign certifies
        z1 = Poly2.var(0)
        graze = (z1 - Fraction(1, 3)) * (z1 - Fraction(1, 3))
        with pytest.raises(ak.Inconclusive):
            ak._certify_sign(graze, depth=8)


def sign_outcome(certify, poly, depth):
    try:
        return certify(poly, depth)
    except ak.Inconclusive:
        return "inconclusive"


unit_fracs = st.builds(Fraction, st.integers(0, 8), st.just(8)) | \
    st.builds(Fraction, st.integers(1, 5), st.just(6))
coeff_fracs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def thin_polys(draw):
    """k1 (z1 - r)^2 + k2 (z2 - s)^2 + m z1 z2 (z1 - r) + eps: with a small
    eps the sign is decided only deep in the subdivision, or not at all."""
    z1, z2 = Poly2.var(0), Poly2.var(1)
    r, s = draw(unit_fracs), draw(unit_fracs)
    k1, k2 = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    eps = Fraction(draw(st.integers(-2, 5)), draw(st.sampled_from((1, 8, 100, 4096))))
    tilt = draw(st.integers(-2, 2))
    return (k1 * (z1 - r) * (z1 - r) + k2 * (z2 - s) * (z2 - s)
            + tilt * z1 * z2 * (z1 - r) + eps)


@st.composite
def term_polys(draw):
    terms = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), coeff_fracs),
                          max_size=6))
    return sum((Poly2({(i, j): c}) for i, j, c in terms), Poly2.constant(draw(coeff_fracs)))


def assert_refines(outcome, monomial):
    """The Bernstein test never contradicts the monomial oracle's True or
    False, and decides wherever the oracle does."""
    if monomial != "inconclusive":
        assert outcome == monomial


class TestCertifySignOracle:
    @given(thin_polys() | term_polys(), st.integers(0, 9))
    @settings(max_examples=60, deadline=None)
    def test_integer_boxes_match_fraction_boxes(self, poly, depth):
        monomial = sign_outcome(certify_sign_monomial_oracle, poly, depth)
        assert monomial == sign_outcome(certify_sign_oracle, poly, depth)
        outcome = sign_outcome(ak._certify_sign, poly, depth)
        assert_refines(outcome, monomial)
        if outcome != "inconclusive":
            # a decision the oracle lacks at this depth, it may not contradict deeper
            assert sign_outcome(certify_sign_monomial_oracle, poly, depth + 4) in \
                (outcome, "inconclusive")

    @pytest.mark.parametrize("p0, p1, p2", [(1, 2, 2), (Fraction(5, 3), 4, -1), (1, 0, 0)])
    def test_metric_polynomials_match(self, p0, p1, p2):
        data = ak.SquareFiberData.make(p0, p1, p2)
        sol = ak.solve_ak(data)
        z1, z2 = Poly2.var(0), Poly2.var(1)
        w1, w2 = z1 * (1 - z1), z2 * (1 - z2)
        b1 = 2 * data.q_poly() + sol.a11 * w1
        b2 = 2 * data.q_poly() + sol.a22 * w2
        for poly in (b1, b1 * b2 - sol.a12 * sol.a12 * w1 * w2):
            for depth in (0, 2, ak.DEFAULT_POSITIVITY_DEPTH):
                monomial = sign_outcome(certify_sign_monomial_oracle, poly, depth)
                assert monomial == sign_outcome(certify_sign_oracle, poly, depth)
                assert_refines(sign_outcome(ak._certify_sign, poly, depth), monomial)

    def test_depth_cap_boundary(self):
        # each test is certified exactly from its own first depth on and
        # inconclusive one level short of it; the Bernstein boxes need fewer
        # levels than the monomial bounds (2 against 6 here)
        z1, z2 = Poly2.var(0), Poly2.var(1)
        thin = ((z1 - Fraction(1, 3)) * (z1 - Fraction(1, 3))
                + (z2 - Fraction(2, 3)) * (z2 - Fraction(2, 3)) + Fraction(1, 30))
        firsts = []
        for certify in (certify_sign_monomial_oracle, ak._certify_sign):
            depth = next(d for d in range(20) if sign_outcome(certify, thin, d) is True)
            assert depth > 0
            assert sign_outcome(certify, thin, depth - 1) == "inconclusive"
            assert sign_outcome(certify, thin, depth + 1) is True
            firsts.append(depth)
        assert sign_outcome(certify_sign_oracle, thin, firsts[0]) is True
        assert sign_outcome(certify_sign_oracle, thin, firsts[0] - 1) == "inconclusive"
        assert firsts[1] < firsts[0]

    @pytest.mark.parametrize("p0, p1, p2", [(Fraction(10, 3), 0, -3), (Fraction(9, 4), -2, 0),
                                           (Fraction(7, 2), 0, -3)])
    def test_edge_weights_certify_on_first_box(self, p0, p1, p2):
        # Q small near an edge: thousands of monomial boxes, one Bernstein box
        data = ak.SquareFiberData.make(p0, p1, p2)
        sol = ak.solve_ak(data)
        z1, z2 = Poly2.var(0), Poly2.var(1)
        w1, w2 = z1 * (1 - z1), z2 * (1 - z2)
        b1 = 2 * data.q_poly() + sol.a11 * w1
        det_core = b1 * (2 * data.q_poly() + sol.a22 * w2) - sol.a12 * sol.a12 * w1 * w2
        for poly in (b1, det_core):
            assert ak._certify_sign(poly, 0) is True
        assert sign_outcome(certify_sign_monomial_oracle, det_core, 5) == "inconclusive"

    def test_negative_box_decides_false(self):
        # positive at the square's centre, negative near a corner: False
        # comes from the centre of a box below the first
        z1, z2 = Poly2.var(0), Poly2.var(1)
        dip = (z1 - Fraction(7, 8)) * (z1 - Fraction(7, 8)) + \
            (z2 - Fraction(7, 8)) * (z2 - Fraction(7, 8)) - Fraction(1, 100)
        assert poly2_value(dip, Fraction(1, 2), Fraction(1, 2)) > 0
        assert ak._certify_sign(dip, 8) is False
        assert certify_sign_monomial_oracle(dip, 8) is False


class TestIntegrability:
    def test_product_integrable(self):
        data = ak.SquareFiberData.make(1, 0, 0)
        assert ak.check_integrability(data, ak.solve_ak(data))

    def test_positive_weights_not_integrable(self):
        data = ak.SquareFiberData.make(1, 2, 2)
        assert not ak.check_integrability(data, ak.solve_ak(data))

    @pytest.mark.parametrize("p0, p1, p2", [
        (1, 0, 3), (2, 0, -1), (Fraction(1, 2), 4, 0), (Fraction(5, 3), -1, 0), (3, 0, 0),
    ])
    def test_axis_weights_integrable(self, p0, p1, p2):
        # Q independent of one coordinate gives an integrable structure
        data = ak.SquareFiberData.make(p0, p1, p2)
        sol = ak.solve_ak(data)
        assert sol.a12 == 0
        assert ak.check_integrability(data, sol)
        assert check_integrability_grid_oracle(data, sol)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 3), st.integers(-3, 6), st.integers(-3, 6))
    def test_exact_matches_grid_oracle(self, num, den, p1, p2):
        try:
            data = ak.SquareFiberData.make(Fraction(num, den), p1, p2)
        except ValueError:
            return
        sol = ak.solve_ak(data)
        assert ak.check_integrability(data, sol) == check_integrability_grid_oracle(data, sol)

    @pytest.mark.parametrize("p1, p2, field", [(2, 0, "a22"), (0, 2, "a11")])
    def test_one_identity_broken(self, p1, p2, field):
        # bumping one diagonal coefficient of an integrable solution breaks
        # just one of the two identities; either one decides
        data = ak.SquareFiberData.make(1, p1, p2)
        sol = ak.solve_ak(data)
        bumped = dataclasses.replace(sol, **{field: getattr(sol, field) + 1})
        assert not ak.check_integrability(data, bumped)
        assert not check_integrability_grid_oracle(data, bumped)

    def test_single_point_failure(self):
        # the oracle: one failing sample decides
        data = ak.SquareFiberData.make(5, 2, 4)
        sol = ak.solve_ak(data)
        assert not check_integrability_grid_oracle(
            data, sol, samples=[(Fraction(1, 3), Fraction(1, 3))])

    def test_positive_scan(self):
        for p1 in range(1, 6):
            for p2 in range(1, 6):
                data = ak.SquareFiberData.make(1, p1, p2)
                assert not ak.check_integrability(data, ak.solve_ak(data))

    def test_singular_sample(self):
        # the oracle refuses a corner sample, where det P vanishes
        data = ak.SquareFiberData.make(1, 1, 1)
        sol = ak.solve_ak(data)
        with pytest.raises(ZeroDivisionError):
            check_integrability_grid_oracle(data, sol, samples=[(0, 0)])


class TestBoundary:
    def test_valid_solution_passes(self):
        rng = random.Random(35)
        for _ in range(25):
            data = random_data(rng)
            assert ak.verify_boundary(data, *ak.assemble_p(data, ak.solve_ak(data)))

    def test_off_diagonal_perturbation_harmless(self):
        data = ak.SquareFiberData.make(1, 2, 2)
        sol = ak.solve_ak(data)
        perturbed = ak.AkSolution(sol.a11, sol.a12 + 7, sol.a22,
                                  sol.A1, sol.A2, sol.A3)
        assert ak.verify_boundary(data, *ak.assemble_p(data, perturbed))

    def test_wrong_normal_derivative_fails(self):
        data = ak.SquareFiberData.make(1, 2, 2)
        _, p12, p22 = ak.assemble_p(data, ak.solve_ak(data))
        z1 = Poly2.var(0)
        bad_p11 = z1 * (1 - z1)     # drops the 2Q factor
        assert not ak.verify_boundary(data, bad_p11, p12, p22)

    @pytest.mark.parametrize("entry", [0, 1, 2])
    def test_entry_not_vanishing_on_an_edge_fails(self, entry):
        # P11 on z1 = 0, 1, P12 on every edge, P22 on z2 = 0, 1
        data = ak.SquareFiberData.make(1, 2, 2)
        parts = list(ak.assemble_p(data, ak.solve_ak(data)))
        assert ak.verify_boundary(data, *parts)
        parts[entry] = parts[entry] + Poly2.constant(1)
        assert not ak.verify_boundary(data, *parts)

    def test_wrong_normal_derivative_of_p22_fails(self):
        data = ak.SquareFiberData.make(1, 2, 2)
        p11, p12, _ = ak.assemble_p(data, ak.solve_ak(data))
        z2 = Poly2.var(1)
        assert not ak.verify_boundary(data, p11, p12, z2 * (1 - z2))
