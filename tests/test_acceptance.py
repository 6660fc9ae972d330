"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured figure of merit (run with -s to see them inline).

Every tolerance is pinned here, not deferred: five-digit informational
powers at 5e-6, minimizer orbits at 1e-6 angular, certificate gaps at
-1e-12, coefficient closed forms at 1e-10/1e-9, the sphere average at
2e-3, dynamical-entropy identities at 1e-12.
"""

import math
import time

import numpy as np
import pytest

from conftest import ALL_FAMILIES, povm_for
from hspovm.bloch import SHANNON, EntropyKernel
from hspovm.catalog import (
    interpolation_set,
    make_hs_povm,
    make_rectangle_povm,
    spherical_design_order,
    validate_povm,
)
from hspovm.certificate import certify_minimum
from hspovm.dynamics import (
    UnitaryAsRotation,
    dynamical_entropy,
    empirical_entropy_rate,
    measurement_entropy,
)
from hspovm.entropy import (
    _entropy_values,
    fibonacci_sphere,
    find_extrema,
    rectangle_bifurcation_threshold,
)
from hspovm.groups import degree_bound, double_coset_profile, stabilizer
from hspovm.info import (
    TABLE_REFERENCE,
    informational_power,
    ngon_informational_power,
    sphere_average_relative_entropy,
    uncertainty_upper_bound,
)
from hspovm.q5 import TAU

LN2 = math.log(2.0)

COSET_PROFILES = {   # family -> (n_a, n_s, n(v), degree bound)
    "digon": (0, 2, 2.0, 1),
    "tetrahedron": (0, 2, 2.0, 2),
    "octahedron": (0, 3, 3.0, 3),
    "cube": (0, 4, 4.0, 5),
    "cuboctahedron": (4, 3, 5.0, 7),
    "icosahedron": (0, 4, 4.0, 5),
    "dodecahedron": (4, 4, 6.0, 9),
    "icosidodecahedron": (14, 2, 9.0, 15),
}

SQRT5 = math.sqrt(5.0)
NODE_SETS = {
    "digon": [-1, 1],
    "tetrahedron": [-1, 1 / 3],
    "octahedron": [-1, 0, 1],
    "cube": [-1, -1 / 3, 1 / 3, 1],
    "cuboctahedron": [-1, -0.5, 0, 0.5, 1],
    "icosahedron": [-1, -1 / SQRT5, 1 / SQRT5, 1],
    "dodecahedron": [-1, -SQRT5 / 3, -1 / 3, 1 / 3, SQRT5 / 3, 1],
    "icosidodecahedron": [-1, -TAU / 2, -0.5, -1 / (2 * TAU), 0,
                          1 / (2 * TAU), 0.5, TAU / 2, 1],
}


def _report(number, text):
    print(f"PASS criterion {number}: {text}")


def test_criterion_01_reference_power_table():
    start = time.perf_counter()
    max_delta = 0.0
    for family, reference in TABLE_REFERENCE.items():
        W = informational_power(povm_for(family))
        max_delta = max(max_delta, abs(W - reference))
    # ninth family: the polygon series, checked at its printed limit value
    ngon_limit = ngon_informational_power(10_000)
    max_delta = max(max_delta, abs(ngon_limit - 0.30685))
    elapsed = time.perf_counter() - start
    assert max_delta < 5e-6
    assert elapsed < 1.0
    _report(1, f"reference informational powers, max |delta| = {max_delta:.2e}, "
               f"{elapsed:.3f} s")


def test_criterion_02_global_minimizers_are_antipodal_orbit():
    worst_angle = 0.0
    worst_value = 0.0
    slowest = 0.0
    families = list(ALL_FAMILIES) + ["5-gon"]
    for family in families:
        povm = make_hs_povm(family) if family != "5-gon" else make_hs_povm("n-gon", 5)
        start = time.perf_counter()
        minima = find_extrema(povm, "min")
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        assert elapsed < 30.0, f"{family} took {elapsed:.1f} s"
        antipodes = -povm.matrix()
        assert len(minima) == povm.k, family
        for point in minima:
            chord = np.min(np.linalg.norm(
                antipodes - point.location.as_array()[None, :], axis=1))
            worst_angle = max(worst_angle, 2 * math.asin(min(1.0, chord / 2)))
        expected = math.log(povm.k) - informational_power(povm)
        worst_value = max(worst_value, abs(minima[0].value - expected))
    assert worst_angle < 1e-6
    assert worst_value < 1e-8
    _report(2, f"antipodal-orbit minimizers, worst angle {worst_angle:.1e} rad, "
               f"worst min-value delta {worst_value:.1e}, slowest family "
               f"{slowest:.1f} s")


def test_criterion_03_certification_pipeline():
    start = time.perf_counter()
    for family in list(ALL_FAMILIES) + ["5-gon"]:
        povm = make_hs_povm(family) if family != "5-gon" else make_hs_povm("n-gon", 5)
        cert = certify_minimum(povm)
        assert cert.valid, (family, cert.reason)
        assert cert.below_check[0] >= -1e-12, family
        bound = COSET_PROFILES[family][3] if family in COSET_PROFILES else 4
        above = cert.polynomial.coefficients[bound + 1:]
        assert all(abs(c) <= 1e-10 for c in above), family
        if family == "cube":
            assert abs(cert.coefficients["B"]
                       - 0.375 * math.log(27.0 / 16.0)) < 1e-10
        elif family == "cuboctahedron":
            B = (520.0 / 9.0) * LN2 - 37.0 * math.log(3.0)
            C = -(364.0 / 9.0) * LN2 + 26.0 * math.log(3.0)
            assert abs(cert.coefficients["B"] - B) < 1e-9
            assert abs(cert.coefficients["C"] - C) < 1e-9
            assert abs(cert.beta - 0.3775) < 1e-4
        elif family == "dodecahedron":
            assert abs(cert.coefficients["B"] + 0.06509) < 1e-4
        elif family == "icosidodecahedron":
            assert cert.sturm_roots == 0
            assert cert.sturm_precision_bits <= 512
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(3, f"nine certificates valid (Sturm: 0 roots), {elapsed:.1f} s")


def test_criterion_04_coset_profiles_and_node_sets_exact():
    for family, (n_a, n_s, n_v, bound) in COSET_PROFILES.items():
        povm = povm_for(family)
        group = povm.rotation_group()
        profile = double_coset_profile(group, povm.fiducial)
        orbit_size = povm.k
        stab_order = stabilizer(group, povm.fiducial).order
        assert (profile.n_a, profile.n_s, profile.n_v) == (n_a, n_s, n_v), family
        assert degree_bound(profile, orbit_size, stab_order) == bound, family
        nodes = interpolation_set(povm)
        want = NODE_SETS[family]
        assert len(nodes) == len(want), family
        assert max(abs(a - b) for a, b in zip(nodes, want)) < 1e-12, family
    _report(4, "double-coset profiles and interpolation sets exact for all "
               "families")


def test_criterion_05_sphere_average_of_relative_entropy():
    start = time.perf_counter()
    target = LN2 - 0.5
    deltas = {}
    for family, n in (("digon", None), ("n-gon", 3), ("tetrahedron", None)):
        povm = make_hs_povm(family, n)
        avg = sphere_average_relative_entropy(povm, 1_000_000)
        deltas[povm.family] = abs(avg - target)
    elapsed = time.perf_counter() - start
    assert all(d < 2e-3 for d in deltas.values()), deltas
    assert elapsed < 20.0
    worst = max(deltas.values())
    _report(5, f"sphere average = ln2 - 1/2 on {len(deltas)} families, "
               f"worst delta {worst:.1e}, {elapsed:.1f} s")


def test_criterion_06_design_orders():
    assert spherical_design_order(povm_for("tetrahedron").vectors) >= 2
    for family in ("octahedron", "cube", "cuboctahedron"):
        assert spherical_design_order(povm_for(family).vectors) >= 3, family
    for family in ("icosahedron", "dodecahedron", "icosidodecahedron"):
        assert spherical_design_order(povm_for(family).vectors) >= 5, family
    e = np.eye(3)
    disphenoid = [(e[0] + e[1]) / math.sqrt(2), (e[0] - e[1]) / math.sqrt(2),
                  (-e[0] + e[2]) / math.sqrt(2), (-e[0] - e[2]) / math.sqrt(2)]
    report = validate_povm(disphenoid)
    assert report.is_povm and report.design_order < 2
    _report(6, "design orders: >=2 tetrahedral, >=3 octahedral, >=5 "
               "icosahedral, <2 for the disphenoid counterexample")


def test_criterion_07_rectangle_bifurcation():
    threshold = rectangle_bifurcation_threshold()
    assert abs(threshold - 1.17056) < 1e-4

    below = find_extrema(make_rectangle_povm(0.8), "min")
    povm = make_rectangle_povm(0.8)
    v1, v2 = povm.vectors[0].as_array(), povm.vectors[2].as_array()
    long_diag = (v1 + v2) / np.linalg.norm(v1 + v2)
    assert len(below) == 2
    for point in below:
        assert min(np.linalg.norm(point.location.as_array() - s * long_diag)
                   for s in (1, -1)) < 1e-6

    above = find_extrema(make_rectangle_povm(1.4), "min")
    assert len(above) == 4
    assert all(point.type_label == "non-inert" for point in above)
    _report(7, f"bifurcation threshold {threshold:.5f}; inert pair below, "
               "non-inert quadruple above")


def test_criterion_08_square_uncertainty_bound_attained():
    square = make_hs_povm("n-gon", 4)
    minima = find_extrema(square, "min")
    max_relative_entropy = math.log(4) - minima[0].value
    assert abs(max_relative_entropy - 0.5 * LN2) < 1e-9
    # and the Krishna-Parthasarathy bound for the two constituent PVMs
    from hspovm.bloch import BlochVector
    from hspovm.catalog import HsPovm
    pvm1 = HsPovm(vectors=(BlochVector(1, 0, 0), BlochVector(-1, 0, 0)),
                  family="custom")
    pvm2 = HsPovm(vectors=(BlochVector(0, 1, 0), BlochVector(0, -1, 0)),
                  family="custom")
    bound = uncertainty_upper_bound(pvm1, pvm2)
    assert abs(bound - 0.5 * LN2) < 1e-12
    assert abs(max_relative_entropy - bound) < 1e-9
    _report(8, f"square POVM attains the uncertainty bound (1/2) ln 2 "
               f"(delta {abs(max_relative_entropy - bound):.1e})")


def test_criterion_09_dynamical_entropy():
    identity = UnitaryAsRotation.identity()
    for family in ALL_FAMILIES:
        povm = povm_for(family)
        assert abs(dynamical_entropy(identity, povm)
                   - measurement_entropy(povm)) < 1e-12, family
    tilt = UnitaryAsRotation.about_axis([1.0, -1.0, 0.5], 1.1)
    worst = 0.0
    for family in ("digon", "tetrahedron", "cube"):
        povm = povm_for(family)
        rate = dynamical_entropy(tilt, povm)
        for n in range(1, 5):
            worst = max(worst, abs(empirical_entropy_rate(tilt, povm, n) - rate))
    assert worst < 1e-12
    assert dynamical_entropy(identity, povm_for("digon")) == 0.0
    _report(9, f"dynamical entropy identities hold (worst enumeration "
               f"delta {worst:.1e}); digon/identity gives 0")


def test_criterion_10_property_suites():
    rng = np.random.default_rng(42)
    # group invariance of H at 1e-12
    for family in ALL_FAMILIES:
        povm = povm_for(family)
        mats = povm.rotation_group().elements
        for _ in range(100):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            g = mats[rng.integers(0, len(mats))]
            a = _entropy_values(u[None, :], povm)[0]
            b = _entropy_values((g @ u)[None, :], povm)[0]
            assert abs(a - b) < 1e-12, family
    # probability normalization at 1e-12 and entropy bounds everywhere
    points = fibonacci_sphere(5000)
    for family in ALL_FAMILIES:
        povm = povm_for(family)
        probs = (points @ povm.matrix().T + 1.0) / povm.k
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12, family
        values = _entropy_values(points, povm)
        assert values.min() >= math.log(povm.k / 2.0) - 1e-12, family
        assert values.max() <= math.log(povm.k) + 1e-12, family
    # h' against finite differences of h at 1e-6 relative, both as the
    # certificate's interpolant is built from them
    h, h_prime, _ = SHANNON.summand(float, math.log)
    step = 1e-6
    for t in np.linspace(-0.99, 0.999, 1000):
        fd = (h(float(t + step)) - h(float(t - step))) / (2 * step)
        assert h_prime(float(t)) == pytest.approx(fd, rel=1e-6)
    # alpha-kernel constant certificates for the degree <= 2 families
    for kernel in (EntropyKernel("tsallis", 0.5), EntropyKernel("renyi", 1.5),
                   EntropyKernel("tsallis", 2.0)):
        for family, n in (("digon", None), ("n-gon", 3), ("tetrahedron", None)):
            cert = certify_minimum(make_hs_povm(family, n), kernel)
            assert cert.constant_bound and cert.orbit_min_verdict, (family, kernel)
    _report(10, "invariance, normalization, bounds, derivative and "
                "alpha-kernel property suites all hold")
