"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line (visible with pytest -s) and
enforces the stated exact values, tolerances and time budgets.
"""

import random
import time
from fractions import Fraction

from bott import admissible as adm
from bott import almostkahler as ak
from bott import cohomology as coh
from bott import fan as bfan
from bott import symplectic as sp
from bott.core import BottMatrix, equivalence_orbit
from bott.polynomials import poly
from conftest import (
    SupportFunction,
    determinant_oracle,
    eval_support,
    full_scan_orbit,
    orbit_closure_oracle,
    pmul,
    pscale,
    support_eval_oracle,
)
from test_almostkahler import derive_system

M3 = BottMatrix.stage3
TOL = Fraction(1, 10 ** 12)


def _report(number, label, elapsed=None):
    suffix = f" ({elapsed:.3f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {number}: PASS - {label}{suffix}")


def test_criterion_01_count_compatible():
    start = time.perf_counter()
    counts = sp.count_compatible(11, 6, 1)
    elapsed = time.perf_counter() - start
    assert counts == (16, 27, 43)
    assert elapsed < 0.1
    _report(1, "count_compatible(11,6,1) == (16,27,43)", elapsed)


def test_criterion_02_enumerate_compatible():
    expected = {
        (0, 0, 0), (0, 1, 0), (0, 2, 0), (0, 3, 0), (0, 4, 0),
        (1, 0, 0), (2, 0, 0), (1, 2, 0), (1, 1, 0),
        (0, 0, 1), (1, 1, 1), (2, 2, 1), (3, 3, 1), (4, 4, 1),
    }
    start = time.perf_counter()
    reps = sp.enumerate_compatible(5, 2, 1)
    elapsed = time.perf_counter() - start
    assert len(reps) == 14
    assert set(reps) == expected
    assert elapsed < 1.0
    _report(2, "enumerate_compatible(5,2,1) matches the 14 worked classes", elapsed)


def test_criterion_03_reductivity_scan():
    start = time.perf_counter()
    mismatches = []
    for a in range(-5, 6):
        for b in range(-5, 6):
            for c in range(-5, 6):
                expected = (a == 0 and b * c < 0) or (a == b == c == 0)
                if bfan.is_reductive(M3(a, b, c)) != expected:
                    mismatches.append((a, b, c))
    elapsed = time.perf_counter() - start
    assert not mismatches
    assert elapsed < 30.0
    _report(3, "is_reductive matches the closed form on 1331 towers", elapsed)


def test_criterion_04_fano_scan():
    representatives = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, -1), (-1, 0, 1)]
    start = time.perf_counter()
    closure = set()
    for params in representatives:
        closure |= {m.stage3_params()
                    for m in equivalence_orbit(M3(*params)).representatives}
    box = range(-2, 3)
    mismatches = [(a, b, c) for a in box for b in box for c in box
                  if bfan.is_fano(M3(a, b, c)) != ((a, b, c) in closure)]
    elapsed = time.perf_counter() - start
    assert not mismatches
    assert elapsed < 30.0
    _report(4, "is_fano true exactly on the orbit closure of the 5 towers", elapsed)


def test_criterion_05_extremal_polynomial_closed_form():
    rng = random.Random(100)
    start = time.perf_counter()
    for _ in range(20):
        r = Fraction(rng.randint(1, 199), 200)
        profile = adm.extremal_polynomial(adm.ks_data(r))
        expected = pscale(pmul(poly([1, 0, -1]),
                               poly([2 - r + r * r, 4 * r - 2, r * (r - 1)])),
                          Fraction(1, 2))
        assert profile.F == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(5, "extremal polynomial equals the closed family form, 20 draws", elapsed)


def test_criterion_06_cproj_transform():
    rng = random.Random(101)
    start = time.perf_counter()
    for _ in range(20):
        r = Fraction(rng.randint(1, 199), 200)
        data = adm.ks_data(r)
        F = adm.extremal_polynomial(data).F
        alpha = (2 * r - 1) / (1 - r + r * r)
        new_F, new_data = adm.cproj_transform(F, data, alpha, 1)
        assert new_data.r_list() == (1 - r, -r)
        assert new_F == adm.extremal_polynomial(adm.ks_data(1 - r)).F
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(6, "momentum transform maps the family parameter r to 1 - r", elapsed)


def test_criterion_07_csc_families():
    rng = random.Random(102)
    for _ in range(20):
        r = Fraction(rng.randint(1, 99), 100)
        balanced = adm.AdmissibleData.make([(1, 2, r), (1, -2, -r)])
        assert adm.is_csc(adm.extremal_polynomial(balanced))
        assert adm.is_csc(adm.extremal_polynomial(adm.ks_data(r)))
    found = 0
    while found < 20:
        r1 = Fraction(rng.randint(1, 99), 100)
        r2 = -Fraction(rng.randint(1, 99), 100)
        if r2 == -r1 or r2 == r1 - 1:
            continue
        found += 1
        data = adm.AdmissibleData.make([(1, 2, r1), (1, -2, r2)])
        assert not adm.is_csc(adm.extremal_polynomial(data))
    _report(7, "CSC exactly on both families, never off them (20 + 20 draws)")


def test_criterion_08_csc_condition_and_second_family():
    rng = random.Random(103)
    for m in range(1, 6):
        for _ in range(4):
            r = Fraction(rng.randint(1, 99), 100)
            assert adm.csc_condition(m, r, -r) == 0
    # Second family existence for m in {2,3,4}, probed at r+ in {0.2, 0.5, 0.8}.
    # The family only covers the upper part of the parameter interval: at
    # r+ = 0.2 an exact root count certifies there is no off-family root,
    # while at r+ = 0.5 the family crosses the balanced one at -1/2 and at
    # r+ = 0.8 the root is genuinely separate.  Existence per m is what the
    # qualitative claim pins down; the full probe table is frozen below.
    probes = {Fraction(1, 5): False, Fraction(1, 2): True, Fraction(4, 5): True}
    for m in (2, 3, 4):
        brackets = {}
        for r_plus, expected in probes.items():
            roots = adm.csc_second_family_roots(m, r_plus, TOL)
            assert all(Fraction(-1) < root < Fraction(0) for root in roots)
            brackets[r_plus] = bool(roots)
        assert brackets == probes, (m, brackets)
        assert any(brackets.values())
    # the r+ = 0.5 crossing really is the double point of the condition
    for m in (2, 3, 4):
        assert adm.csc_second_family_roots(m, Fraction(1, 2), TOL) == [Fraction(-1, 2)]
    _report(8, "first family exact for m <= 5; second family bracketed "
               "(r+ = 0.5, 0.8; provably absent at 0.2 for m in {2,3,4})")


def test_criterion_09_square_fiber_system():
    rng = random.Random(104)
    data = ak.SquareFiberData.make(1, 0, 0)
    sol = ak.solve_ak(data)
    assert sol.A1 == 0 and sol.A2 == 0
    assert (sol.a11, sol.a12, sol.a22) == (0, 0, 0)
    # determinant identity, symbolically: the system matrix determinant equals
    # -96 (2 p0 + p1 + p2) times the quadratic form, checked by re-deriving
    # the system from the extremal equation and eliminating exactly
    for _ in range(20):
        while True:
            p0 = Fraction(rng.randint(1, 9), rng.choice([1, 2]))
            p1, p2 = rng.randint(-4, 7), rng.randint(-4, 7)
            try:
                candidate = ak.SquareFiberData.make(p0, p1, p2)
                break
            except ValueError:
                continue
        matrix, rhs = derive_system(candidate)
        expected_matrix, expected_rhs = ak.system_matrix(candidate)
        assert matrix == expected_matrix and rhs == expected_rhs
        assert determinant_oracle(matrix) == ak.system_determinant(candidate)
        quadratic = (6 * p0 * p0 + 6 * p0 * p1 + p1 * p1
                     + 6 * p0 * p2 + 3 * p1 * p2 + p2 * p2)
        assert ak.system_determinant(candidate) == -96 * (2 * p0 + p1 + p2) * quadratic
    samples = 0
    while samples < 20:
        p0 = Fraction(rng.randint(1, 9), rng.choice([1, 2]))
        p1, p2 = rng.randint(1, 8), rng.randint(1, 8)
        data = ak.SquareFiberData.make(p0, p1, p2)
        assert not ak.check_integrability(data, ak.solve_ak(data))
        samples += 1
    _report(9, "6x6 system: determinant identity, product degeneration, "
               "20 non-integrable positive samples")


def test_criterion_10_property_suites():
    rng = random.Random(105)
    start = time.perf_counter()
    # support-function evaluation vs the maximal-cone oracle
    for _ in range(1000):
        n = rng.randint(2, 6)
        entries = [rng.randint(-4, 4) for _ in range(n * (n - 1) // 2)]
        it = iter(entries)
        A = BottMatrix.from_rows(
            [[next(it) if j < i else (1 if i == j else 0) for j in range(n)]
             for i in range(n)])
        psi = SupportFunction.from_values(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)],
            [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)])
        w = [Fraction(rng.randint(-12, 12), rng.randint(1, 3)) for _ in range(n)]
        assert eval_support(A, psi, w) == support_eval_oracle(A, psi, w)
    support_time = time.perf_counter() - start

    # ring axioms and x_k y_k = 0 on 100 random towers
    for _ in range(100):
        n = rng.randint(2, 6)
        entries = [rng.randint(-5, 5) for _ in range(n * (n - 1) // 2)]
        it = iter(entries)
        A = BottMatrix.from_rows(
            [[next(it) if j < i else (1 if i == j else 0) for j in range(n)]
             for i in range(n)])
        R = coh.ring(A)
        masks = range(1 << n)
        u = coh.CohomologyClass(R, {m: rng.randint(-9, 9) for m in rng.sample(masks, 3)})
        v = coh.CohomologyClass(R, {m: rng.randint(-9, 9) for m in rng.sample(masks, 3)})
        w = coh.CohomologyClass(R, {m: rng.randint(-9, 9) for m in rng.sample(masks, 3)})
        assert (u * v) * w == u * (v * w)
        assert u * v == v * u
        assert u * (v + w) == u * v + u * w
        for k in range(n):
            assert (R.x(k) * R.y(k)).is_zero()

    # orbit closure, inverse membership and the full signed-permutation
    # scan on an exhaustive small scan, and the scan on random stage-5 towers
    for a in range(-1, 2):
        for b in range(-1, 2):
            for c in range(-1, 2):
                A = M3(a, b, c)
                reps = set(equivalence_orbit(A).representatives)
                assert A.inverse() in reps
                assert orbit_closure_oracle(A) <= reps
                assert reps == full_scan_orbit(A)
    checked = 0
    for entries in _stage4_small_entries():
        A = BottMatrix.from_rows(entries)
        reps = set(equivalence_orbit(A).representatives)
        assert A.inverse() in reps
        assert orbit_closure_oracle(A) <= reps
        assert reps == full_scan_orbit(A)
        checked += 1
    for _ in range(20):
        A = BottMatrix.from_rows(
            [[rng.randint(-3, 3) if j < i else int(i == j) for j in range(5)]
             for i in range(5)])
        reps = set(equivalence_orbit(A).representatives)
        assert orbit_closure_oracle(A) <= reps
        assert reps == full_scan_orbit(A)

    # first Pontrjagin identity on the exhaustive box
    for a in range(-4, 5):
        for b in range(-4, 5):
            for c in range(-4, 5):
                R = coh.ring(M3(a, b, c))
                assert R.pontrjagin_class(1) == \
                    c * (2 * b - a * c) * R.monomial([0, 1])
    elapsed = time.perf_counter() - start
    _report(10, f"oracle equivalences (support oracle {support_time:.1f}s, "
                f"{checked} stage-4 orbits)", elapsed)


def _stage4_small_entries():
    values = (-1, 0, 1)
    for a21 in values:
        for a31 in values:
            for a32 in values:
                for a41 in values:
                    for a42 in values:
                        for a43 in values:
                            yield [[1, 0, 0, 0], [a21, 1, 0, 0],
                                   [a31, a32, 1, 0], [a41, a42, a43, 1]]


def test_criterion_11_growth_bounds():
    start = time.perf_counter()
    for k1 in range(2, 31):
        for k2 in range(2, k1 + 1):
            assert sp.growth_bounds_hold(k1, k2)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(11, "count growth bounds for 2 <= k2 <= k1 <= 30", elapsed)
