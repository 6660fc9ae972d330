import ast
import itertools
import json
import math
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from mpmath import iv, mp

from conftest import ALL_FAMILIES, POLYHEDRA, povm_for, record_nodes
from hspovm import certificate
from hspovm.bloch import EntropyKernel, SHANNON
from hspovm.catalog import (FAMILY_SPECS, HsPovm, family_spec, interpolation_set,
                            make_hs_povm, make_rectangle_povm)
from hspovm.certificate import (
    HermitePolynomial,
    _family_record,
    _horner,
    _interpolant,
    _member_certificate,
    _moment_constrained_feasible,
    assemble_lower_bound,
    certify_minimum,
    expand_in_invariants,
    hermite_interpolate,
    icosidodeca_positivity,
    verify_below,
)
from hspovm.entropy import _entropy_values, entropy_at, fibonacci_sphere, find_extrema
from hspovm.info import informational_power
from hspovm.invariants import evaluate_invariant, invariant_degree
from hspovm.q5 import GOLDEN, TAU, Q5, dot
from hspovm.sturm import _sign

DEGREE_BOUNDS = {
    "digon": 1, "tetrahedron": 2, "octahedron": 3, "cube": 5,
    "cuboctahedron": 7, "icosahedron": 5, "dodecahedron": 9,
    "icosidodecahedron": 15,
}

#: the families whose orbit minimum is proved on interval coefficients
EXPANDED = ("cube", "cuboctahedron", "dodecahedron", "icosidodecahedron")

_CERTS = {}

# the Shannon summand h and h', from which the interpolant is built
h, h_prime, _ = SHANNON.summand(float, math.log)


def assert_degree_at_most(poly, bound):
    """Every monomial coefficient of p above ``bound`` vanishes to 1e-10."""
    assert all(abs(float(c)) <= 1e-10 for c in poly.coefficients[bound + 1:]), bound


def interval_coefficients(name, bits, kernel=SHANNON):
    """tau and the invariant enclosures of the family's interpolant, built
    at the given bits."""
    mono = certificate._exact_interpolant(make_hs_povm(name), kernel, bits)[1]
    return certificate._interval_coefficients(name, mono)


def slope(poly, t):
    """p'(t) of the interpolant p."""
    return float(_horner([i * c for i, c in enumerate(poly.coefficients)][1:], t))


def cert_for(family):
    if family not in _CERTS:
        _CERTS[family] = certify_minimum(povm_for(family))
    return _CERTS[family]


class TestHermiteInterpolation:
    def test_reproduces_quadratic_exactly(self):
        # dry run with h a known quadratic, Tsallis alpha = 2's (1 - t^2)/4:
        # interpolation must return it, the enclosures exactly
        nodes = ((-1.0, 1), (0.0, 2))
        ctx = certificate._interval_context(200)
        mono = _interpolant(EntropyKernel("tsallis", 2.0), [(ctx.mpf(t), m) for t, m in nodes])
        assert [(c.a, c.b) for c in mono] == [(0.25, 0.25), (0, 0), (-0.25, -0.25)]
        poly = HermitePolynomial(coefficients=tuple(float(c.mid) for c in mono), nodes=nodes)
        ts = np.linspace(-1, 1, 100)
        assert np.max(np.abs(poly(ts) - (1.0 - ts**2) / 4.0)) < 1e-14

    def test_octahedron_nodes_give_cubic(self):
        poly = hermite_interpolate(SHANNON, [(-1.0, 1), (0.0, 2), (1.0, 1)])
        assert_degree_at_most(poly, 3)

    def test_tetrahedron_nodes_give_quadratic(self):
        poly = hermite_interpolate(SHANNON, [(-1.0, 1), (1.0 / 3.0, 2)])
        assert_degree_at_most(poly, 2)

    def test_interpolation_conditions(self):
        nodes = [(-1.0, 1), (-0.5, 2), (0.0, 2), (0.5, 2), (1.0, 1)]
        poly = hermite_interpolate(SHANNON, nodes)
        for t, mult in nodes:
            assert abs(float(poly(t)) - h(t)) < 1e-11
            if mult >= 2:
                assert abs(slope(poly, t) - h_prime(t)) < 1e-10

    def test_rejects_derivative_at_minus_one(self):
        with pytest.raises(ValueError):
            hermite_interpolate(SHANNON, [(-1.0, 2), (0.5, 2)])

    def test_rejects_duplicate_nodes(self):
        with pytest.raises(ValueError):
            hermite_interpolate(SHANNON, [(0.0, 2), (0.0, 2)])


class TestVerifyBelow:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_all_families_pass(self, family):
        nodes = [(t, 1 if abs(abs(t) - 1) < 1e-9 else 2)
                 for t in interpolation_set(povm_for(family))]
        poly = hermite_interpolate(SHANNON, nodes)
        min_gap, argmin = verify_below(poly, SHANNON)
        assert min_gap >= -1e-12

    def test_octahedron_equality_points(self):
        poly = hermite_interpolate(SHANNON, [(-1.0, 1), (0.0, 2), (1.0, 1)])
        for t in (-1.0, 0.0, 1.0):
            assert abs(float(poly(t)) - h(t)) < 1e-12
        # strictly positive gap away from the nodes
        for t in (-0.5, 0.5):
            assert h(t) - float(poly(t)) > 1e-4

    def test_perturbed_polynomial_fails(self):
        poly = hermite_interpolate(SHANNON, [(-1.0, 1), (0.0, 2), (1.0, 1)])
        bumped = HermitePolynomial(
            coefficients=tuple(
                c + (1e-3 if i == 2 else 0.0)
                for i, c in enumerate(poly.coefficients)),
            nodes=poly.nodes)
        min_gap, argmin = verify_below(bumped, SHANNON)
        assert min_gap < -1e-4     # sign change detected
        assert -1.0 <= argmin <= 1.0
        # the perturbed curve dips below h strictly inside as well
        interior = np.linspace(-0.999, 0.999, 2001)
        gaps = np.array([h(float(t)) for t in interior]) - \
            np.asarray(bumped(interior), dtype=float)
        assert gaps.min() < 0 < gaps.max()


class TestLowerBound:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_bound_below_entropy_and_tight_at_antipode(self, family):
        povm = povm_for(family)
        cert = cert_for(family)
        evaluator = assemble_lower_bound(povm, cert.polynomial)
        points = fibonacci_sphere(100_000)
        H = _entropy_values(points, povm)
        P = evaluator(points)
        assert float(np.min(H - P)) >= -1e-10
        minus_v = -povm.fiducial
        assert evaluator(minus_v.as_array()) == pytest.approx(
            entropy_at(minus_v, povm), abs=1e-10)

    @pytest.mark.parametrize("family", ("tetrahedron", "octahedron"))
    def test_constant_on_sphere(self, family):
        cert = cert_for(family)
        assert cert.constant_bound


class TestExpansions:
    def test_cube_closed_form(self):
        cert = cert_for("cube")
        assert cert.coefficients["B"] == pytest.approx(
            (3.0 / 8.0) * math.log(27.0 / 16.0), abs=1e-10)
        assert cert.coefficients["B"] > 0

    def test_cuboctahedron_closed_forms(self):
        cert = cert_for("cuboctahedron")
        B = (520.0 / 9.0) * math.log(2.0) - 37.0 * math.log(3.0)
        C = -(364.0 / 9.0) * math.log(2.0) + 26.0 * math.log(3.0)
        assert cert.coefficients["B"] == pytest.approx(B, abs=1e-9)
        assert cert.coefficients["C"] == pytest.approx(C, abs=1e-9)
        assert cert.coefficients["B"] < 0 < cert.coefficients["C"]
        assert cert.beta == pytest.approx(0.3775, abs=1e-4)

    def test_dodecahedron_value(self):
        cert = cert_for("dodecahedron")
        assert cert.coefficients["B"] == pytest.approx(-0.06509, abs=1e-4)
        assert cert.coefficients["B"] < 0

    def test_cuboctahedron_x4_candidate_identity(self):
        # at the interior critical orbit the lower bound satisfies
        # S(x4) = A + C (1 - 9b + 24b^2 - 24b^3) with b = -B/(3C)
        povm = povm_for("cuboctahedron")
        cert = cert_for("cuboctahedron")
        evaluator = assemble_lower_bound(povm, cert.polynomial)
        b = cert.beta
        assert 0.25 < b < 0.5
        x4 = np.array([math.sqrt(4 * b - 1), math.sqrt(1 - 2 * b),
                       math.sqrt(1 - 2 * b)])
        orbit_sum = (povm.k / 2.0) * (evaluator(x4) - math.log(povm.k / 2.0))
        closed = cert.coefficients["A"] + cert.coefficients["C"] * (
            1.0 - 9.0 * b + 24.0 * b**2 - 24.0 * b**3)
        assert orbit_sum == pytest.approx(closed, abs=1e-10)
        # and the vertex orbit beats it
        x2 = np.array([0.0, 1.0, 1.0]) / math.sqrt(2.0)
        assert evaluator(x2) < evaluator(x4) - 1e-6

    def test_icosidodecahedron_against_printed_forms(self):
        # the analytic forms of B, C, D in terms of arcoth and logarithms
        cert = cert_for("icosidodecahedron")
        mp.dps = 50
        s5 = mp.sqrt(5)

        def acoth(x):
            return mp.atanh(1 / x)

        B = -(mp.mpf(1) / 50) * (-2 + s5) * (
            7122 * s5 * acoth(s5) + 3 * (-3728 + 2773 * s5) * mp.log(2)
            + 39575 * mp.log(3) - 4700 * mp.log(5)
            - 8319 * s5 * mp.log(7 + 3 * s5))
        C = (mp.mpf(1) / 180) * (
            -108414 * acoth(3 / s5) + 47970 * acoth(s5)
            + s5 * (-16352 * mp.log(2) + 51120 * mp.log(3) - 5265 * mp.log(5)))
        D = (mp.mpf(29) / 900) * (9 - 4 * s5) * (
            53766 * s5 * acoth(3 / s5) - 23418 * s5 * acoth(s5)
            + 34816 * mp.log(2) - 126450 * mp.log(3) + 15075 * mp.log(5))
        assert cert.coefficients["B"] == pytest.approx(float(B), abs=1e-12)
        assert cert.coefficients["C"] == pytest.approx(float(C), abs=1e-12)
        assert cert.coefficients["D"] == pytest.approx(float(D), abs=1e-12)

    def test_expansion_rejects_unknown_family(self):
        povm = povm_for("octahedron")
        cert = cert_for("octahedron")
        evaluator = assemble_lower_bound(povm, cert.polynomial)
        with pytest.raises(ValueError):
            expand_in_invariants(povm, evaluator)

    def test_expansion_reaches_the_family_degree_only(self):
        # the record's expansion stops at the family's own interpolant
        # degree: a higher p is refused, a lower one reads as padded by zeros
        povm, poly = povm_for("cube"), cert_for("cube").polynomial
        c = poly.coefficients
        assert len(c) - 1 == _family_record("cube").degree

        def expanded(coefficients):
            p = HermitePolynomial(coefficients=coefficients, nodes=poly.nodes)
            return expand_in_invariants(povm, assemble_lower_bound(povm, p))

        with pytest.raises(ValueError, match="exceeds"):
            expanded(c + (1.0,))
        assert expanded(c[:-2]) == expanded(c[:-2] + (0.0, 0.0))


class TestCandidateComparison:
    """The candidates decider on synthetic coefficients, exact in binary, so
    that every sign it takes is decided."""

    @staticmethod
    def decide(family, *coefficients):
        ctx = certificate._interval_context(200)
        ok, reason, fields = certificate._candidate_comparison(
            FAMILY_SPECS[family], [ctx.mpf(c) for c in coefficients], GOLDEN.lift(ctx))
        return ok, ast.literal_eval(reason.split("candidate values ")[1]), fields

    @pytest.mark.parametrize("family", ["cube", "dodecahedron"])
    def test_a_tie_with_the_seed_probe_fails(self, family):
        # B = 0 makes P the constant A, so every probe ties with the seed's,
        # which undercuts none; a B of either sign breaks the tie
        ok, values, _ = self.decide(family, 1.5, 0.0)
        assert not ok and set(values.values()) == {1.5}
        assert self.decide(family, 1.5, 1.0)[0] != self.decide(family, 1.5, -1.0)[0]

    def test_the_non_inert_candidate_is_compared_at_its_point(self):
        # beta = -B/(3C) = 3/8 puts the candidate at (sqrt a, sqrt b, sqrt b)
        # with a = 4 beta - 1 = 1/2 and b = 1 - 2 beta = 1/4, on the sphere,
        # where P = A + B I4 + C I6 is -17/64 exactly
        ok, values, fields = self.decide("cuboctahedron", 0.0, -9 / 8, 1.0)
        assert fields == {"beta": 0.375}
        point = (math.sqrt(0.5), 0.5, 0.5)
        assert values["x4"] == -17 / 64 == pytest.approx(
            -9 / 8 * evaluate_invariant("I4", point) + evaluate_invariant("I6", point), abs=1e-15)
        # the seed (0, 1, 1) at -5/16 undercuts it and the other probes
        assert ok and values["x2"] == -5 / 16 == min(values.values())

    def test_no_non_inert_candidate_outside_its_beta_range(self):
        # beta = 1/5 < 1/4: a = 4 beta - 1 < 0, so no such point exists
        ok, values, fields = self.decide("cuboctahedron", 0.0, -0.6, 1.0)
        assert fields["beta"] == pytest.approx(0.2) and list(values) == ["x1", "x2", "x3"]


class TestCertificates:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_valid(self, family):
        cert = cert_for(family)
        assert cert.valid, cert.reason

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_degree_bounds(self, family):
        cert = cert_for(family)
        assert cert.degree_bound == DEGREE_BOUNDS[family]
        assert_degree_at_most(cert.polynomial, DEGREE_BOUNDS[family])

    @pytest.mark.parametrize("name", [*ALL_FAMILIES, *(f"{n}-gon" for n in range(2, 13))])
    def test_coset_degree_bound_is_one_less_than_the_conditions(self, name):
        # the paper's double-coset bound, which the constant proof uses,
        # equals N - 1 for the N interpolation conditions on every member
        cert = certify_minimum(make_hs_povm(name))
        assert cert.degree_bound == sum(m for _, m in cert.nodes) - 1

    @pytest.mark.parametrize("n", list(range(2, 25)))
    def test_polygons_constant(self, n):
        cert = certify_minimum(make_hs_povm("n-gon", n))
        assert cert.valid and cert.constant_bound
        assert_degree_at_most(cert.polynomial, n - 1)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_certified_minimum_matches_informational_power(self, family):
        povm = povm_for(family)
        cert = cert_for(family)
        expected = math.log(povm.k) - informational_power(povm)
        assert cert.certified_minimum == pytest.approx(expected, abs=1e-12)

    def test_icosidodecahedron_sturm(self):
        cert = cert_for("icosidodecahedron")
        assert cert.sturm_roots == 0
        assert cert.sturm_precision_bits <= 512

    def test_interpolation_residuals(self):
        for family in POLYHEDRA:
            cert = cert_for(family)
            for t, mult in cert.nodes:
                assert abs(float(cert.polynomial(t)) - h(t)) < 1e-11
                if mult >= 2:
                    assert abs(slope(cert.polynomial, t) - h_prime(t)) < 1e-10

    def test_custom_family_rejected(self):
        from hspovm.catalog import make_rectangle_povm
        with pytest.raises(ValueError):
            certify_minimum(make_rectangle_povm(0.9))

    def test_square_built_as_rectangle_certifies(self):
        # alpha = pi/2 degenerates to a 4-gon rotated 45 degrees; the
        # pipeline must handle the off-canonical orientation
        from hspovm.catalog import make_rectangle_povm
        cert = certify_minimum(make_rectangle_povm(math.pi / 2.0))
        assert cert.valid and cert.constant_bound


class TestIcosidodecaPositivity:
    def test_true_coefficients(self):
        cert = cert_for("icosidodecahedron")
        assert icosidodeca_positivity(cert.coefficients["B"],
                                      cert.coefficients["C"],
                                      cert.coefficients["D"])

    def test_quartic_against_numpy_roots(self):
        # independent oracle for the Sturm verdict: build the substituted
        # quartic in floats and ask numpy for its roots
        from hspovm.certificate import _parabola_quartic
        cert = cert_for("icosidodecahedron")
        B, C, D = (cert.coefficients[k] for k in "BCD")
        quartic = _parabola_quartic(B, C, D, TAU)   # ascending coefficients
        roots = np.roots(list(reversed([float(c) for c in quartic])))
        assert all(abs(r.imag) > 1e-9 for r in roots)
        # no real roots means sign-definite; here the zero-level parabola
        # stays strictly outside the orbit-map range, so the boundary
        # polynomial is negative along it away from the origin
        ts = np.linspace(-10.0, 10.0, 20001)
        values = sum(float(c) * ts**m for m, c in enumerate(quartic))
        assert values.max() < 0.0

    def test_synthetic_coefficients_rejected_by_sampling(self):
        # (-1, 1, 0): the dense-sampling oracle finds P1 < 0 on the range
        from hspovm.invariants import i6_prime, i10
        points = fibonacci_sphere(10_000)
        sampled = min(-i6_prime(w) + i10(w) for w in points)
        assert sampled < -1e-3
        assert not icosidodeca_positivity(-1.0, 1.0, 0.0)

    def test_reversed_orientation_rejected(self):
        # negating B, C, D keeps the zero-level parabola, so the quartic has
        # no real root either; only the sign at the icosahedron corner
        # rejects it
        cert = cert_for("icosidodecahedron")
        B, C, D = (cert.coefficients[k] for k in "BCD")
        assert not icosidodeca_positivity(-B, -C, -D)

    def test_degenerate_c_raises(self):
        with pytest.raises(ZeroDivisionError):
            icosidodeca_positivity(-1.0, 0.0, 1.0)

    def test_interval_coefficients_are_tight(self):
        tau, (A, B, C, D) = interval_coefficients("icosidodecahedron", 200)
        for enclosure in (A, B, C, D):
            assert float(enclosure.delta) < 1e-30

    def test_interval_pipeline_stable_across_precision(self):
        _, low = interval_coefficients("icosidodecahedron", 200)
        _, high = interval_coefficients("icosidodecahedron", 320)
        for a, b in zip(low, high):
            mid_low = (float(a.a) + float(a.b)) / 2
            mid_high = (float(b.a) + float(b.b)) / 2
            assert mid_low == pytest.approx(mid_high, abs=1e-14)
            # the tighter computation must stay inside the looser enclosure
            assert float(a.a) <= mid_high <= float(a.b)

    @pytest.mark.parametrize("kernel", [
        EntropyKernel("tsallis", 0.5), EntropyKernel("tsallis", 2.5),
        EntropyKernel("renyi", 1.4), EntropyKernel("renyi", 3.5),
    ], ids=lambda k: f"{k.kind}{k.alpha}")
    def test_alpha_interval_coefficients_enclose_floats(self, kernel):
        povm = povm_for("icosidodecahedron")
        _, enclosures = interval_coefficients("icosidodecahedron", 200, kernel)
        poly = hermite_interpolate(kernel, certify_minimum(povm).nodes)
        floats = expand_in_invariants(povm, assemble_lower_bound(povm, poly))
        for name, enclosure in zip("ABCD", enclosures):
            assert enclosure.a - 1e-12 <= floats[name] <= enclosure.b + 1e-12


class TestUniqueness:
    def test_cube_moments_need_central_symmetry(self):
        # {1, 1, -1/3 x 6} has sum 0 and square sum 8/3 = k/3, so at t = 2
        # only the +1 => -1 pairing of a centrally symmetric orbit rules it
        # out; its cube sum 16/9 is not 0, so at t = 3 that moment alone does
        witness = [Fraction(1)] * 2 + [Fraction(-1, 3)] * 6
        assert [sum(t ** s for t in witness) for s in (1, 2, 3)] == [0, Fraction(8, 3),
                                                                     Fraction(16, 9)]
        nodes = record_nodes("cube")
        assert _moment_constrained_feasible(nodes, 8, 2, False)
        assert not _moment_constrained_feasible(nodes, 8, 2, True)
        assert not _moment_constrained_feasible(nodes, 8, 3, False)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_orbit_cosines_meet_the_design_moments(self, family):
        # the orbit's own cosines with the seed have the sphere's power sums
        # k/(s + 1) (even s) and 0 (odd s) for every s <= t, and not at t + 1
        orbit = _family_record(family).orbit
        cosines = [dot(v, orbit[0]) / dot(orbit[0], orbit[0]) for v in orbit]
        k, t = len(orbit), _family_record(family).design_order

        def meets(s):
            target = Fraction(k, s + 1) if s % 2 == 0 else 0
            return sum((c ** s for c in cosines), Q5()) == target

        assert all(meets(s) for s in range(1, t + 1))
        assert not meets(t + 1)


def sampled_constant(povm, evaluator) -> bool:
    """Reference for the constancy verdict: the bound's spread over 257
    points of the circle (sets in the z = 0 plane) or of the sphere is
    below 1e-9."""
    if not np.any(povm.matrix()[:, 2]):
        phi = np.linspace(0.0, 2.0 * math.pi, 257)
        points = np.column_stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)])
    else:
        points = fibonacci_sphere(257)
    return float(np.ptp(evaluator(points))) < 1e-9


CONSTANCY_POVMS = {
    **{family: make_hs_povm(family) for family in ALL_FAMILIES},
    **{f"{n}-gon": make_hs_povm("n-gon", n) for n in range(3, 13)},
    "square-as-rectangle": make_rectangle_povm(math.pi / 2.0),
}


@pytest.mark.parametrize("kernel", [SHANNON] + [
    EntropyKernel("tsallis", alpha) for alpha in (0.5, 2.0, 3.0, 4.0, 6.0)],
    ids=lambda k: k.kind + ("" if k.alpha is None else str(k.alpha)))
@pytest.mark.parametrize("name", list(CONSTANCY_POVMS))
def test_design_order_constancy_matches_sample(name, kernel):
    # the certificate's constancy verdict, degree bound <= design order, is
    # what a sample of the bound shows; the invariant strategies of the
    # cube and beyond see a degree above the design order
    povm = CONSTANCY_POVMS[name]
    cert = certify_minimum(povm, kernel)
    poly = hermite_interpolate(kernel, cert.nodes)
    assert_degree_at_most(poly, cert.degree_bound)
    evaluator = assemble_lower_bound(povm, poly)
    assert cert.constant_bound == sampled_constant(povm, evaluator)


def circle_design_order(coords) -> int:
    """The largest t with sum_j z_j^m = 0 for m = 1..t, z_j = x_j + i y_j:
    the float circle design order the certificate once computed."""
    z = coords[:, 0] + 1j * coords[:, 1]
    return next(m - 1 for m in range(1, len(z) + 2) if abs(np.sum(z ** m)) >= 1e-9)


@pytest.mark.parametrize("n", range(3, 13))
def test_circle_design_order_of_ngon(n):
    # sum_j exp(2 pi i m j / n) vanishes exactly when n does not divide m,
    # so the certificate's circle design order n - 1 is the n-gon's; the
    # Shannon interpolant has n conditions, degree n - 1, and needs all of it
    povm = make_hs_povm("n-gon", n)
    cert = certify_minimum(povm)
    assert circle_design_order(povm.matrix()) == n - 1
    assert sum(m for _, m in cert.nodes) == n
    assert cert.constant_bound


@pytest.mark.parametrize("n", range(2, 13))
def test_polygon_simple_nodes_are_the_ends_exactly(n):
    # -1 and 1 are decided by the node's index, with no tolerance: -1 for
    # every n-gon, 1 for an even one, whose vertex -v is a node
    simple = {t for t, m in certify_minimum(make_hs_povm("n-gon", n)).nodes if m == 1}
    assert simple == ({-1.0} if n % 2 else {-1.0, 1.0})


class TestKernelPluggability:
    @pytest.mark.parametrize("kernel", [
        EntropyKernel("tsallis", 0.5), EntropyKernel("tsallis", 2.0),
        EntropyKernel("renyi", 0.7), EntropyKernel("renyi", 1.5),
    ])
    @pytest.mark.parametrize("family,n", [("digon", None), ("n-gon", 3),
                                          ("tetrahedron", None)])
    def test_degree_two_families_stay_constant(self, kernel, family, n):
        # the constant-bound verdict is kernel independent when the node
        # budget caps the degree at 2
        cert = certify_minimum(make_hs_povm(family, n), kernel)
        assert cert.constant_bound
        assert cert.orbit_min_verdict
        assert cert.below_check[0] >= -1e-12

    def test_alpha_two_reproduction_reported(self):
        # Tsallis alpha=2 makes h quadratic: the bound is exact and
        # uniqueness genuinely degenerates
        cert = certify_minimum(povm_for("tetrahedron"), EntropyKernel("tsallis", 2.0))
        assert cert.constant_bound
        assert not cert.uniqueness_verdict

    @pytest.mark.parametrize("family", ("cube", "cuboctahedron", "dodecahedron",
                                        "icosidodecahedron"))
    def test_alpha_two_reproduction_proves_by_constancy(self, family):
        # p = h makes the bound the entropy itself, constant on a 2-design,
        # so the constant proof replaces the family's invariant strategy
        cert = certify_minimum(povm_for(family), EntropyKernel("tsallis", 2.0))
        assert not cert.valid
        assert cert.constant_bound and cert.orbit_min_verdict
        assert not cert.uniqueness_verdict
        assert cert.reason == "kernel reproduced exactly; minimizers not isolated"

    def test_icosidodecahedron_alpha_3_5_bound_holds(self):
        # the remainder proves p <= h here; rounding residuals near the
        # nodes are not equality off the nodes
        cert = certify_minimum(povm_for("icosidodecahedron"),
                               EntropyKernel("tsallis", 3.5))
        assert "gap" not in cert.reason
        assert "remainder" not in cert.reason

    def test_cube_alpha_2_5_bound_fails_with_witness(self):
        cert = certify_minimum(povm_for("cube"), EntropyKernel("tsallis", 2.5))
        gap, where = cert.below_check
        ts = [t for t, _ in cert.nodes]
        assert not cert.valid and not cert.orbit_min_verdict
        assert gap < 0
        assert any(a < where < b for a, b in zip(ts, ts[1:]))
        assert min(abs(where - t) for t in ts) > 1e-3
        assert "remainder" in cert.reason

    def test_shannon_like_kernel_on_octahedron(self):
        cert = certify_minimum(povm_for("octahedron"), EntropyKernel("tsallis", 1.5))
        assert cert.valid and cert.constant_bound


class TestGlobalState:
    @pytest.mark.parametrize("kernel", [SHANNON, EntropyKernel("renyi", 1.4)],
                             ids=["shannon", "renyi"])
    def test_caller_precision_neither_read_nor_written(self, kernel):
        povm = make_hs_povm("icosidodecahedron")
        saved = iv.prec
        certs = []
        try:
            for prec in (53, 77):
                iv.prec = prec
                _member_certificate.cache_clear()
                certs.append(repr(certify_minimum(povm, kernel)))
                assert iv.prec == prec
        finally:
            iv.prec = saved
        assert certs[0] == certs[1]

    @pytest.mark.parametrize("family", EXPANDED)
    def test_certificates_side_by_side_in_threads(self, family):
        # each thread runs the three kernels from a different start, so
        # different interval precisions and kernels overlap in time; the
        # interval step is computed afresh in the threads
        povm = make_hs_povm(family)
        kernels = [SHANNON, EntropyKernel("tsallis", 0.5), EntropyKernel("renyi", 1.4)]
        serial = [repr(certify_minimum(povm, kernel)) for kernel in kernels]
        before = iv.prec

        def run(start):
            order = kernels[start:] + kernels[:start]
            return [repr(certify_minimum(povm, kernel)) for kernel in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)         # switch threads often
        _member_certificate.cache_clear()
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                results = list(pool.map(run, range(3), timeout=300))
        finally:
            sys.setswitchinterval(interval)
        for start, result in enumerate(results):
            assert result == serial[start:] + serial[:start]
        assert iv.prec == before

    @pytest.mark.parametrize("family", EXPANDED)
    def test_caller_precision_restored(self, family):
        saved = iv.prec
        iv.prec = 77
        _member_certificate.cache_clear()
        try:
            interval_coefficients(family, 200)
            assert certify_minimum(make_hs_povm(family)).valid
            icosidodeca_positivity(-1.0, 1.0, 0.0)
            assert iv.prec == 77
        finally:
            iv.prec = saved


class TestOrbitMinStep:
    """The invariant families' orbit-minimum proof: one interval step per
    (family, kernel), deciding on the enclosures alone, inside the
    certificate memoized per (family label, k, kernel)."""

    @pytest.fixture(autouse=True)
    def fresh_step(self):
        _member_certificate.cache_clear()
        yield
        _member_certificate.cache_clear()      # no mutated verdict outlives a test

    @pytest.mark.parametrize("family", EXPANDED)
    def test_second_certificate_is_a_cache_hit(self, family):
        povm, kernel = make_hs_povm(family), EntropyKernel("renyi", 1.3)
        first = repr(certify_minimum(povm, kernel))
        info = _member_certificate.cache_info()
        assert repr(certify_minimum(povm, kernel)) == first
        assert _member_certificate.cache_info().hits == info.hits + 1
        assert _member_certificate.cache_info().misses == info.misses

    @pytest.mark.parametrize("family", EXPANDED)
    def test_rotated_copy_shares_the_member_entry(self, family):
        povm = make_hs_povm(family)
        q, r = np.linalg.qr(np.random.default_rng(7).normal(size=(3, 3)))
        rotation = q * np.sign(np.diag(r)) * np.sign(np.linalg.det(q))
        rotated = HsPovm.from_json(json.dumps({"vectors": (povm.matrix() @ rotation.T).tolist(),
                                               "family": family}))
        first = repr(certify_minimum(povm))
        info = _member_certificate.cache_info()
        assert repr(certify_minimum(rotated)) == first
        assert _member_certificate.cache_info().hits == info.hits + 1
        assert _member_certificate.cache_info().misses == info.misses

    @pytest.mark.parametrize("family, other", [
        (("cube", None, SHANNON), ("cube", None, EntropyKernel("renyi", 1.3))),
        (("icosidodecahedron", None, SHANNON),
         ("icosidodecahedron", None, EntropyKernel("tsallis", 0.5))),
        (("n-gon", 5, SHANNON), ("n-gon", 6, SHANNON)),
    ], ids=["cube-kernel", "icosidodecahedron-kernel", "polygon-k"])
    def test_another_kernel_or_polygon_is_a_miss(self, family, other):
        name, n, kernel = family
        certify_minimum(make_hs_povm(name, n), kernel)
        misses = _member_certificate.cache_info().misses
        name, n, kernel = other
        certify_minimum(make_hs_povm(name, n), kernel)
        assert _member_certificate.cache_info().misses == misses + 1

    def test_polygons_labelled_ngon_differ_by_k(self):
        def ngon(n):
            angles = 2 * math.pi * np.arange(n) / n
            coords = np.column_stack([np.cos(angles), np.sin(angles), np.zeros(n)])
            return HsPovm.from_json(json.dumps({"vectors": coords.tolist(), "family": "ngon"}))

        five, six = (certify_minimum(ngon(n)) for n in (5, 6))
        assert _member_certificate.cache_info().misses == 2
        assert five.valid and six.valid and five.nodes != six.nodes

    @pytest.mark.parametrize("family", ["cube", "icosidodecahedron", "5-gon"])
    def test_repeated_find_extrema_adds_no_miss(self, family):
        povm = make_hs_povm(family)
        first = find_extrema(povm, "min")
        info = _member_certificate.cache_info()
        assert find_extrema(povm, "min") == first
        assert _member_certificate.cache_info().misses == info.misses
        assert _member_certificate.cache_info().hits == info.hits + 1

    def test_warm_entry_does_not_admit_a_mislabelled_set(self):
        assert certify_minimum(make_hs_povm("4-gon")).valid
        vectors = make_rectangle_povm(1.0).vectors
        with pytest.raises(ValueError, match="no registry member is congruent"):
            certify_minimum(HsPovm(vectors=vectors, family="4-gon"))

    @pytest.mark.parametrize("family", EXPANDED)
    def test_repeat_shares_one_read_only_certificate(self, family):
        povm = make_hs_povm(family)
        first = certify_minimum(povm)
        expected = dict(first.coefficients)
        for mutate in (lambda c: c.__setitem__("B", 0.0), lambda c: c.pop("A"),
                       lambda c: c.update(A=0.0), lambda c: c.setdefault("E", 0.0),
                       lambda c: c.__delitem__("A"), lambda c: c.popitem(),
                       lambda c: c.clear(), lambda c: c.__ior__({"A": 0.0})):
            with pytest.raises(TypeError, match="read-only"):
                mutate(first.coefficients)
        repeat = certify_minimum(povm)
        assert repeat is first and repeat.coefficients == expected
        assert list(repeat.coefficients) == list("ABCD"[:len(expected)])
        loaded = pickle.loads(pickle.dumps(first))
        assert loaded == first and repr(loaded) == repr(first)
        assert json.dumps(loaded.coefficients) == json.dumps(expected)

    # the decisive interval signs of each proof, the last ones it takes:
    # the winner's margin over each other candidate (after the two signs
    # that place beta in (1/4, 1/2) for the cuboctahedron); the quartic's
    # leading coefficient and P1 at the icosahedron corner
    DECISIVE = {"cube": ["x1 - x2"], "dodecahedron": ["x1 - x2"],
                "cuboctahedron": ["x1 - x2", "x3 - x2", "x4 - x2"],
                "icosidodecahedron": ["leading coefficient", "corner value"]}

    @pytest.mark.parametrize("family", EXPANDED)
    def test_each_interval_sign_carries_the_verdict(self, family, monkeypatch):
        seen = []

        def recorded(x):
            seen.append(x)
            return _sign(x)

        monkeypatch.setattr(certificate, "_sign", recorded)
        assert certify_minimum(make_hs_povm(family)).valid
        first = len(seen) - len(self.DECISIVE[family])
        assert first == (2 if family == "cuboctahedron" else 0)
        for mutant, name in enumerate(self.DECISIVE[family], start=first):
            def negated(x, mutant=mutant, calls=itertools.count()):
                return _sign(-x if next(calls) == mutant else x)

            monkeypatch.setattr(certificate, "_sign", negated)
            _member_certificate.cache_clear()
            cert = certify_minimum(make_hs_povm(family))
            assert not cert.valid and not cert.orbit_min_verdict, name

    @pytest.mark.parametrize("family", EXPANDED)
    def test_interpolant_built_once_per_rung(self, family, monkeypatch):
        # the certificate's interpolant serves the first rung of the proof,
        # and a climb builds one more at the next precision
        built, interpolant = [], certificate._interpolant

        def counted(kernel, nodes):
            built.append(nodes[0][0].ctx.prec)
            return interpolant(kernel, nodes)

        monkeypatch.setattr(certificate, "_interpolant", counted)
        assert certify_minimum(make_hs_povm(family)).valid
        assert built == [200]
        built.clear()
        _member_certificate.cache_clear()
        monkeypatch.setattr(certificate, "INTERVAL_PRECISIONS", (8, 200))
        assert certify_minimum(make_hs_povm(family)).valid
        assert built == [8, 200]

    @pytest.mark.parametrize("family", EXPANDED)
    def test_undecided_sign_fails_the_certificate(self, family, monkeypatch):
        # 8 bits leave a sign of every invariant proof open
        monkeypatch.setattr(certificate, "INTERVAL_PRECISIONS", (8,))
        cert = certify_minimum(make_hs_povm(family))
        assert not cert.valid and not cert.orbit_min_verdict and cert.uniqueness_verdict
        assert cert.reason.startswith("interval sign undecided: ")
        assert cert.reason.endswith("straddles zero at 8 bits")
        assert cert.sturm_precision_bits == (8 if family == "icosidodecahedron" else None)


# --------------------------------------------------------------------------
# The exact expansion, against the per-vertex interval orbit sum
# --------------------------------------------------------------------------

def reference_lift(x: float, tau):
    """Interval of the Q(sqrt 5) number the float x rounds: a quarter-integer,
    or a quarter-integer multiple of tau or 1/tau (in the context of tau)."""
    for scale, exact in ((1.0, 1), (TAU, tau), (1.0 / TAU, tau - 1)):
        quarters = 4.0 * x / scale
        if abs(quarters - round(quarters)) < 1e-6:
            return tau.ctx.mpf(round(quarters)) / 4 * exact
    raise ValueError(f"coordinate {x} is not an icosahedral symbol")


def reference_orbit_sum(povm, kernel, ctx, point):
    """The orbit sum sum_j p(v_j . x) at the unit x along the interval
    3-vector ``point``, vertex by vertex: the interpolant on nodes lifted
    from floats, Horner's rule at each of the 30 interval dots, in the
    interval context ctx."""
    tau = (1 + ctx.sqrt(ctx.mpf(5))) / 2
    verts = [[reference_lift(c, tau) for c in row] for row in povm.matrix()]
    nodes = [(reference_lift(t, tau), m) for t, m in certify_minimum(povm).nodes]
    mono = _interpolant(kernel, nodes)
    norm = ctx.sqrt(point[0] ** 2 + point[1] ** 2 + point[2] ** 2)
    x = [c / norm for c in point]
    return x, sum(_horner(mono, row[0] * x[0] + row[1] * x[1] + row[2] * x[2])
                  for row in verts)


def _rational_points(count, seed=17):
    rng = np.random.default_rng(seed)
    return [[Fraction(int(p), int(q)) for p, q in zip(rng.integers(-40, 41, 3),
                                                      rng.integers(1, 13, 3))]
            for _ in range(count)]


@pytest.mark.parametrize("bits", (200, 320))
@pytest.mark.parametrize("kernel", [
    SHANNON, EntropyKernel("tsallis", 0.5), EntropyKernel("tsallis", 2.5),
    EntropyKernel("renyi", 1.4), EntropyKernel("renyi", 3.5),
], ids=lambda k: k.kind + ("" if k.alpha is None else str(k.alpha)))
def test_moment_orbit_sums_enclose_per_vertex_sums(kernel, bits):
    # A + B I6' + C I10 + D I6'^2 from the exact expansion matrix must meet
    # the orbit sum taken vertex by vertex, at every probe and at five
    # random rational points
    povm = povm_for("icosidodecahedron")
    tau, (A, B, C, D) = interval_coefficients("icosidodecahedron", bits, kernel)
    ctx = tau.ctx
    points = [[reference_lift(float(c), tau) for c in probe]
              for probe in family_spec("icosidodecahedron").probes]
    points += [[ctx.mpf(c.numerator) / c.denominator for c in p]
               for p in _rational_points(5)]
    for point in points:
        x, reference = reference_orbit_sum(povm, kernel, ctx, point)
        theta1 = evaluate_invariant("I6p", x, tau=tau)
        expanded = A + B * theta1 + C * evaluate_invariant("I10", x, tau=tau) + D * theta1 ** 2
        assert expanded.a <= reference.b and reference.a <= expanded.b


def test_icosidodecahedron_moments_are_the_sphere_s():
    # a 5-design: sum_j (v_j . x)^i = 30, 10, 6 for i = 0, 2, 4 at unit x,
    # so the expansion rows of these degrees are constants; the odd rows
    # vanish and are not kept
    record = _family_record("icosidodecahedron")
    assert record.degree == 15 and len(record.expansion) == 8
    expansion = dict(zip(range(0, 16, 2), record.expansion))
    for i, sphere in ((0, 30), (2, 10), (4, 6)):
        assert expansion[i] == (sphere, 0, 0, 0)
    assert all(expansion[i][1] != 0 for i in range(6, 16, 2))


EXPANSION_KERNELS = (SHANNON, EntropyKernel("renyi", 1.4), EntropyKernel("tsallis", 0.5))


@pytest.mark.parametrize("family", EXPANDED)
def test_expansion_matrix_is_exact(family):
    # at rational x, exactly in Q(sqrt 5): sum_j (v_j . x)^i with unit v_j
    # equals L_i[0] |x|^i + sum_d L_i[d] I_d(x) |x|^(i - d), with L_i[d] = 0
    # whenever the degree of I_d exceeds i; the odd power sums vanish
    basis = family_spec(family).basis
    degree = sum(m for _, m in certify_minimum(povm_for(family)).nodes) - 1
    record = _family_record(family)
    assert record.degree == degree and len(record.expansion) == degree // 2 + 1
    expansion = dict(zip(range(0, degree + 1, 2), record.expansion))
    orbit = record.orbit
    square = dot(orbit[0], orbit[0])                      # |v_j|^2, the same for all j
    for point in _rational_points(4, seed=23):
        x = tuple(map(Q5.of, point))
        xx, dots = dot(x, x), [dot(v, x) for v in orbit]
        values = [evaluate_invariant(b, x, tau=GOLDEN) for b in basis]
        for i in range(degree + 1):
            power_sum = sum((t ** i for t in dots), Q5())
            if i % 2:
                assert power_sum == 0
                continue
            row = expansion[i]
            expected = row[0] * xx ** (i // 2)
            for entry, value, b in zip(row[1:], values, basis):
                d = invariant_degree(b)
                if d > i:
                    assert entry == 0, (i, b)
                else:
                    expected += entry * value * xx ** ((i - d) // 2)
            assert power_sum / square ** (i // 2) == expected, i


def probe_solve(povm, evaluator):
    """The invariant coefficients solved in floats from the lower bound's
    values at the registry probes: an independent float reference for
    expand_in_invariants."""
    spec = family_spec(povm.family)
    probes = [x / np.linalg.norm(x) for x in (np.array(p, dtype=float) for p in spec.probes)]
    rows = [[1.0] + [evaluate_invariant(b, x) for b in spec.basis] for x in probes]
    sums = [povm.k / 2 * (evaluator(x) - math.log(povm.k / 2)) for x in probes]
    return dict(zip("ABCD", np.linalg.solve(np.array(rows), np.array(sums))))


@pytest.mark.parametrize("kernel", EXPANSION_KERNELS, ids=lambda k: f"{k.kind}{k.alpha}")
@pytest.mark.parametrize("family", EXPANDED)
def test_expansion_matrix_reproduces_the_float_expansion(family, kernel):
    povm = povm_for(family)
    poly = hermite_interpolate(kernel, certify_minimum(povm).nodes)
    evaluator = assemble_lower_bound(povm, poly)
    coefficients = expand_in_invariants(povm, evaluator)
    reference = probe_solve(povm, evaluator)
    assert coefficients.keys() == reference.keys()
    for name, value in coefficients.items():
        assert value == pytest.approx(reference[name], rel=1e-9, abs=1e-10), name


@pytest.mark.parametrize("kernel", EXPANSION_KERNELS, ids=lambda k: f"{k.kind}{k.alpha}")
@pytest.mark.parametrize("family", EXPANDED)
def test_float_coefficients_sit_at_the_interval_midpoints(family, kernel):
    # the certificate reports the midpoints of the 200-bit enclosures
    # computed on the exact nodes, for the invariant coefficients and for
    # the interpolant's own; the float expansion is within 1e-14
    povm = povm_for(family)
    _, enclosures = interval_coefficients(family, 200, kernel)
    midpoints = dict(zip("ABCD", (float(enclosure.mid) for enclosure in enclosures)))
    cert = certify_minimum(povm, kernel)
    assert cert.coefficients == midpoints
    _, mono = certificate._exact_interpolant(povm, kernel, 200)
    assert cert.polynomial.coefficients == tuple(float(c.mid) for c in mono)
    poly = hermite_interpolate(kernel, certify_minimum(povm).nodes)
    coefficients = expand_in_invariants(povm, assemble_lower_bound(povm, poly))
    assert coefficients.keys() == midpoints.keys()
    for name, midpoint in midpoints.items():
        assert abs(coefficients[name] - midpoint) <= 1e-14, name


def test_permuted_orbit_gives_the_same_certificate():
    povm = povm_for("icosidodecahedron")
    shuffled = HsPovm(vectors=tuple(reversed(povm.vectors)), family="icosidodecahedron",
                      group="I")
    assert repr(certify_minimum(shuffled)) == repr(certify_minimum(povm))


# --------------------------------------------------------------------------
# The uniqueness search, against the search that recomputes its bounds
# --------------------------------------------------------------------------

def pair_power(node, s):
    """(p + q sqrt 5)^s for the integer pair (p, q), as an integer pair."""
    power = (1, 0)
    for _ in range(s):
        power = (power[0] * node[0] + 5 * power[1] * node[1],
                 power[0] * node[1] + power[1] * node[0])
    return power


def reference_feasible(exact_nodes, k, design_order, centrally_symmetric):
    """The moment-constrained search with every float bound recomputed at
    each node: the suffix minimum and maximum, d^s and the target; the
    nodes are pairs (a, b) of rationals meaning a + b sqrt 5."""
    d = math.lcm(*(Fraction(x).denominator for node in exact_nodes for x in node))
    nodes = [(int(Fraction(a) * d), int(Fraction(b) * d)) for a, b in exact_nodes]
    root5 = math.sqrt(5.0)
    values = [(p + q * root5) / d for p, q in nodes]
    banned = {i for i, t in enumerate(values) if t < -1 + 1e-12}
    if centrally_symmetric:
        banned |= {i for i, t in enumerate(values) if t > 1 - 1e-12}
    usable = [i for i in range(len(nodes)) if i not in banned]
    usable.sort(key=lambda i: -abs(values[i]))

    moments = [(s, Fraction(k, s + 1) if s % 2 == 0 else Fraction(0))
               for s in range(1, design_order + 1)]
    powers = [[pair_power(nodes[i], s) for i in usable] for s, _ in moments]
    floats = [[values[i] ** s for i in usable] for s, _ in moments]

    def dfs(pos, remaining, partials):
        if pos == len(usable):
            return remaining == 0 and all(
                q == 0 and p * target.denominator == target.numerator * d ** s
                for (p, q), (s, target) in zip(partials, moments))
        for (s, target), fvals, (p, q) in zip(moments, floats, partials):
            rest = fvals[pos:]
            partial = (p + q * root5) / d ** s
            lo = partial + remaining * min(rest)
            hi = partial + remaining * max(rest)
            t = float(target)
            if t < lo - 1e-6 or t > hi + 1e-6:
                return False
        for count in range(remaining + 1):
            nxt = [(p + count * pw[pos][0], q + count * pw[pos][1])
                   for (p, q), pw in zip(partials, powers)]
            if dfs(pos + 1, remaining - count, nxt):
                return True
        return False

    return dfs(0, k, [(0, 0) for _ in moments])


@pytest.mark.parametrize("shift", (-2, 0, 2))
@pytest.mark.parametrize("family", [name for name, spec in FAMILY_SPECS.items()
                                    if spec.group != "C"])
def test_search_verdicts_match_reference(family, shift):
    nodes = record_nodes(family)
    pairs = [(Fraction(t.a, t.d), Fraction(t.b, t.d)) for t in nodes]
    k = povm_for(family).k + shift
    for design_order in range(1, 6):
        for symmetric in (False, True):
            assert (_moment_constrained_feasible(nodes, k, design_order, symmetric)
                    == reference_feasible(pairs, k, design_order, symmetric)), \
                (design_order, symmetric)


def test_mislabelled_vectors_certified_by_their_node_set():
    # octahedron vectors labelled icosidodecahedron: the geometry names the
    # family, so the proof runs on the octahedron's exact orbit, nodes and
    # expansion, never on the label's
    povm = HsPovm(vectors=make_hs_povm("octahedron").vectors,
                  family="icosidodecahedron")
    cert = certify_minimum(povm)
    assert cert.family == "octahedron"
    assert repr(cert) == repr(certify_minimum(make_hs_povm("octahedron")))


@pytest.mark.parametrize("family, label, group", [("octahedron", "tetrahedron", "T"),
                                                   ("cube", "octahedron", "O")])
def test_tagged_set_of_another_family_certified_by_its_node_set(family, label, group):
    # neither the label nor the tag decides: the vectors are their own
    # family's member, with its group, and the uniqueness search runs on
    # their node set
    member = make_hs_povm(family)
    povm = HsPovm(vectors=member.vectors, family=label, group=group)
    assert povm.symmetry_group.order == member.symmetry_group.order
    cert = certify_minimum(povm)
    assert cert.family == family
    assert repr(cert) == repr(certify_minimum(member))


def test_uniqueness_search_shared_across_kernels(monkeypatch):
    # from empty memos: the first kernel's certificate runs the search, at
    # the family's own arguments, and the second's reads its verdict from
    # the family record
    calls, search = [], certificate._moment_constrained_feasible

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(certificate, "_moment_constrained_feasible", counted)
    _member_certificate.cache_clear()
    _family_record.cache_clear()
    povm = make_hs_povm("icosidodecahedron")
    certify_minimum(povm)
    assert calls == [(record_nodes("icosidodecahedron"), 30, 5, True)]
    renyi = certify_minimum(povm, EntropyKernel("renyi", 1.3))
    assert renyi.uniqueness_verdict
    assert len(calls) == 1


# --------------------------------------------------------------------------
# Polygon uniqueness by parity, against the float angle search
# --------------------------------------------------------------------------

def reference_polygon_uniqueness(povm):
    """Enumerate circle points whose dots all lie in T, from angles rounded
    at 1e-9, and compare them with the antipodal orbit (reads x and y)."""
    T = interpolation_set(povm)
    vertex_angles = [math.atan2(v.y, v.x) for v in povm.vectors]
    candidates = set()
    for t in T:
        base = math.acos(min(1.0, max(-1.0, t)))
        for theta in vertex_angles:
            candidates.add(round((theta + base) % (2 * math.pi), 9))
            candidates.add(round((theta - base) % (2 * math.pi), 9))
    survivors = []
    for phi in candidates:
        dots = [math.cos(phi - theta) for theta in vertex_angles]
        if all(min(abs(d - t) for t in T) < 1e-9 for d in dots):
            survivors.append(phi)
    anti = [theta + math.pi for theta in vertex_angles]

    def close(a, b):
        return math.hypot(math.cos(a) - math.cos(b),
                          math.sin(a) - math.sin(b)) < 1e-6

    hit = all(any(close(phi, a) for phi in survivors) for a in anti)
    only = all(any(close(phi, a) for a in anti) for phi in survivors)
    return hit and only


def polygon_file(n, phase=0.0, tilt=None):
    """An n-gon file, turned by phase in its plane and optionally tilted
    out of it by rotation matrix tilt."""
    angles = phase + 2 * math.pi * np.arange(n) / n
    coords = np.column_stack([np.cos(angles), np.sin(angles), np.zeros(n)])
    if tilt is not None:
        coords = coords @ tilt.T
    return HsPovm.from_json(json.dumps({"vectors": coords.tolist(),
                                        "family": f"{n}-gon"}))


@pytest.mark.parametrize("n", range(2, 65))
def test_polygon_parity_matches_float_search(n):
    povm = make_hs_povm("n-gon", n)
    verdict = certify_minimum(povm).uniqueness_verdict
    assert verdict == reference_polygon_uniqueness(povm)
    assert verdict


@pytest.mark.parametrize("n", (3, 5, 6, 12))
def test_polygon_parity_in_plane_phase(n):
    povm = polygon_file(n, phase=0.3 + 0.1 * n)
    assert povm.symmetry_group.order == 2 * n       # D_n, turned by the phase
    verdict = certify_minimum(povm).uniqueness_verdict
    assert verdict == reference_polygon_uniqueness(povm)
    assert verdict


@pytest.mark.parametrize("n", (5, 6))
def test_tilted_polygons_certify_as_the_member(n):
    # a polygon off the z = 0 plane is a rotated copy of the n-gon, and its
    # certificate is the member's
    c, s = math.cos(0.4), math.sin(0.4)
    tilt = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    cert = certify_minimum(polygon_file(n, tilt=tilt))
    assert cert.valid, cert.reason
    assert repr(cert) == repr(certify_minimum(make_hs_povm(f"{n}-gon")))


@pytest.mark.parametrize("group", ("C_4", "D2", None))
def test_mislabelled_rectangle_refused(group):
    # a rectangle is no regular 4-gon, whether the label comes with the
    # 4-gon's own tag, the rectangle's (same order) or from a file: no
    # rotation maps it onto the square or any other registry member
    vectors = make_rectangle_povm(1.0).vectors
    if group is None:
        povm = HsPovm.from_json(json.dumps(
            {"vectors": [v.as_array().tolist() for v in vectors], "family": "4-gon"}))
    else:
        povm = HsPovm(vectors=vectors, family="4-gon", group=group)
    with pytest.raises(ValueError, match="no registry member is congruent"):
        certify_minimum(povm)
