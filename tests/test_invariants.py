import math
from fractions import Fraction

import numpy as np
import pytest
from mpmath import iv

from hspovm.catalog import FAMILY_SPECS
from hspovm.groups import generate_group
from hspovm.invariants import (
    J15_SQUARED_TERMS,
    evaluate_invariant,
    i4,
    i6,
    i6_prime,
    i10,
    invariant_degree,
)
from hspovm.q5 import GOLDEN, TAU, Q5

X1 = np.array([0.0, 0.0, 1.0])
X2 = np.array([0.0, 1.0, 1.0]) / math.sqrt(2.0)
X3 = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
X5 = np.array([0.0, TAU, 1.0]) / math.sqrt(TAU + 2.0)
X6 = np.array([0.0, 1.0 / TAU, TAU]) / math.sqrt(3.0)

GOLD = 2.0 + math.sqrt(5.0)


def orbit_map(w):
    """The icosahedral orbit map w -> (I6'(w), I10(w))."""
    return i6_prime(w), i10(w)


def j15_squared(theta1, theta2, tau=TAU):
    """J15^2 from its terms in (theta1, theta2), in their arithmetic."""
    return sum((a + b * tau) * theta1 ** i * theta2 ** j for a, b, i, j in J15_SQUARED_TERMS)


def in_orbit_range(theta1, theta2, tol=1e-10):
    """Whether (theta1, theta2) lies in the range of the orbit map: the
    curvilinear triangle -(2 tau + 1)/5 <= theta1 <= (2 tau + 1)/27,
    (7 - 4 tau) theta1 <= theta2 and J15^2 >= 0."""
    return (-GOLD / 5.0 - tol <= theta1 <= GOLD / 27.0 + tol
            and theta2 >= (7.0 - 4.0 * TAU) * theta1 - tol
            and j15_squared(theta1, theta2) >= -tol)


def _random_units(n, seed=5):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(n, 3))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


class TestGroupInvariance:
    @pytest.mark.parametrize("tag,names", [
        ("T", ("I4",)),
        ("O", ("I4", "I6")),
        ("I", ("I6p", "I10")),
    ])
    def test_invariant_under_group(self, tag, names):
        group = generate_group(tag)
        mats = group.elements
        rng = np.random.default_rng(23)
        for _ in range(100):
            x = rng.normal(size=3)
            g = mats[rng.integers(0, len(mats))]
            for name in names:
                a = evaluate_invariant(name, x)
                b = evaluate_invariant(name, g @ x)
                assert abs(a - b) < 1e-10 * max(1.0, abs(a))

    def test_gamma_invariant_under_cn(self):
        # C_n is generated about z, so it fixes Re (x + iy)^n
        for n in (3, 5, 8):
            group = generate_group("C", n)
            rng = np.random.default_rng(29)
            for _ in range(50):
                x = rng.normal(size=3)
                g = group.elements[rng.integers(0, n)]
                y = g @ x
                assert (complex(y[0], y[1]) ** n).real == pytest.approx(
                    (complex(x[0], x[1]) ** n).real, abs=1e-10)


class TestValues:
    def test_spot_values(self):
        assert i4(X2) == pytest.approx(0.5, abs=1e-14)
        assert i4(X1) == pytest.approx(1.0, abs=1e-14)
        assert i4(X3) == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert i6(X1) == pytest.approx(1.0, abs=1e-14)
        assert i6(X2) == pytest.approx(0.25, abs=1e-14)
        assert i6(X3) == pytest.approx(1.0 / 9.0, abs=1e-14)

    def test_icosahedral_spot_values(self):
        assert i6_prime(X1) == pytest.approx(0.0, abs=1e-14)
        assert i10(X1) == pytest.approx(0.0, abs=1e-14)
        assert i6_prime(X5) == pytest.approx(-GOLD / 5.0, abs=1e-12)
        assert i6_prime(X6) == pytest.approx(GOLD / 27.0, abs=1e-12)

    def test_i2_is_one_on_sphere(self):
        # the certificate reads an invariant of degree d at s as its value
        # at s/|s| times I2(s)^(d/2), I2 being 1 on the sphere
        rng = np.random.default_rng(31)
        for w in _random_units(100):
            scale = rng.uniform(0.5, 2.0)
            for name in ("I4", "I6", "I6p", "I10", "I6p^2"):
                at_s = evaluate_invariant(name, scale * w)
                expected = evaluate_invariant(name, w) * scale ** invariant_degree(name)
                assert at_s == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_critical_ranges_by_sampling(self):
        ws = _random_units(100_000)
        i4_vals = i4(ws.T)
        i6_vals = i6(ws.T)
        assert i4_vals.min() >= 1.0 / 3.0 - 1e-12
        assert i4_vals.max() <= 1.0 + 1e-12
        assert i6_vals.min() >= 1.0 / 9.0 - 1e-12
        assert i6_vals.max() <= 1.0 + 1e-12

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            evaluate_invariant("I8", X1)

    def test_basis_listing(self):
        # each certified family expands in primary invariants of its group
        primaries = {"O": {"I4", "I6"}, "I": {"I6p", "I10"}}
        bases = {name: spec.basis for name, spec in FAMILY_SPECS.items() if spec.basis}
        assert bases == {"cube": ("I4",), "cuboctahedron": ("I4", "I6"),
                         "dodecahedron": ("I6p",),
                         "icosidodecahedron": ("I6p", "I10", "I6p^2")}
        for name, basis in bases.items():
            assert {b.partition("^")[0] for b in basis} <= primaries[FAMILY_SPECS[name].group]


class TestOrbitMap:
    def test_x1_maps_to_origin(self):
        assert orbit_map(X1) == (0.0, 0.0)

    def test_vertex_values(self):
        theta1, _ = orbit_map(X6)
        assert theta1 == pytest.approx(GOLD / 27.0, abs=1e-12)
        theta1, _ = orbit_map(X5)
        assert theta1 == pytest.approx(-GOLD / 5.0, abs=1e-12)

    def test_orbit_map_constant_on_orbits(self):
        group = generate_group("I")
        rng = np.random.default_rng(37)
        for _ in range(20):
            w = rng.normal(size=3)
            w /= np.linalg.norm(w)
            base = orbit_map(w)
            for g in group.elements[::7]:
                got = orbit_map(g @ w)
                assert got[0] == pytest.approx(base[0], abs=1e-12)
                assert got[1] == pytest.approx(base[1], abs=1e-12)


class TestJ15Squared:
    def test_zero_at_origin(self):
        assert j15_squared(0.0, 0.0) == 0.0

    def test_nonnegative_on_range(self):
        for w in _random_units(1000, seed=41):
            assert j15_squared(*orbit_map(w)) >= -1e-10

    def test_vanishes_on_mirror_plane(self):
        # x = 0 is a mirror of the icosahedral orientation; reflections fix
        # those orbits so the secondary invariant must vanish there
        rng = np.random.default_rng(43)
        for _ in range(100):
            angle = rng.uniform(0, 2 * math.pi)
            w = np.array([0.0, math.sin(angle), math.cos(angle)])
            assert abs(j15_squared(*orbit_map(w))) < 1e-10


class TestArithmeticGeneric:
    def test_arrays_match_the_row_loop(self):
        w = _random_units(200, seed=47)
        theta1, theta2 = orbit_map(w.T)
        assert np.array_equal(theta1, [i6_prime(row) for row in w])
        assert np.array_equal(theta2, [i10(row) for row in w])

    def test_intervals_enclose_the_floats(self):
        tau = (1 + iv.sqrt(iv.mpf(5))) / 2
        for w in _random_units(20, seed=53):
            box = [iv.mpf(float(c)) for c in w]
            theta1, theta2 = orbit_map(w)
            for name, value in (("I6p", theta1), ("I10", theta2),
                                ("I6p^2", theta1 ** 2)):
                enclosure = evaluate_invariant(name, box, tau=tau)
                assert float(enclosure.a) - 1e-15 <= value <= float(enclosure.b) + 1e-15
            enclosure = j15_squared(iv.mpf(float(theta1)), iv.mpf(float(theta2)), tau)
            assert enclosure.a - 1e-13 <= j15_squared(theta1, theta2) <= enclosure.b + 1e-13

    @pytest.mark.parametrize("name", ["I4", "I6", "I6p", "I10", "I6p^2"])
    def test_exact_coordinates_give_exact_values(self, name):
        # Q(sqrt 5) coordinates stay exact and round to the float value
        for point in ((0, 0, 1), (1, 2, 3), (0, GOLDEN, 1), (Fraction(1, 2), -GOLDEN, 3)):
            exact = evaluate_invariant(name, tuple(map(Q5.of, point)), tau=GOLDEN)
            assert isinstance(exact, Q5)
            value = evaluate_invariant(name, [float(c) for c in point])
            assert float(exact) == pytest.approx(value, rel=1e-12, abs=1e-12)
        pole = evaluate_invariant(name, (Q5(0), Q5(0), Q5(1)), tau=GOLDEN)
        assert pole == (1 if name in ("I4", "I6") else 0)


class TestRangeMembership:
    def test_origin_inside(self):
        assert in_orbit_range(*orbit_map(X1))

    def test_theta1_overflow_outside(self):
        # J15^2 alone admits theta1 past (2 tau + 1)/27 at theta2 = 0; the
        # vertex X6 attains that bound and no image exceeds it
        assert j15_squared(GOLD / 27.0 + 0.01, 0.0) > 0.0
        assert not in_orbit_range(GOLD / 27.0 + 0.01, 0.0)
        theta1, _ = orbit_map(_random_units(10_000, seed=47).T)
        assert theta1.max() <= orbit_map(X6)[0] + 1e-12

    def test_images_inside(self):
        for w in _random_units(10_000, seed=47):
            assert in_orbit_range(*orbit_map(w))
