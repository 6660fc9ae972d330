import json
import math

import numpy as np
import pytest

from conftest import ALL_FAMILIES, povm_for
from hspovm.bloch import BlochVector
from hspovm.catalog import HsPovm, make_hs_povm, make_rectangle_povm
from hspovm.certificate import certify_minimum
from hspovm.entropy import find_extrema
from hspovm.info import (
    TABLE_REFERENCE,
    average_relative_entropy,
    informational_power,
    ngon_informational_power,
    sphere_average_relative_entropy,
    uncertainty_upper_bound,
)

LN2 = math.log(2.0)

TABLE_ORDER = ("digon", "tetrahedron", "octahedron", "cube", "cuboctahedron",
               "icosahedron", "dodecahedron", "icosidodecahedron")


class TestInformationalPower:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_five_digit_table(self, family):
        W = informational_power(povm_for(family))
        assert abs(W - TABLE_REFERENCE[family]) < 5e-6

    def test_tetrahedron_closed_form(self):
        W = informational_power(povm_for("tetrahedron"))
        assert W == pytest.approx(math.log(4.0 / 3.0), abs=1e-14)

    def test_octahedron_closed_form(self):
        W = informational_power(povm_for("octahedron"))
        assert W == pytest.approx(LN2 / 3.0, abs=1e-14)

    def test_strictly_decreasing_table_order(self):
        values = [informational_power(povm_for(f)) for f in TABLE_ORDER]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > average_relative_entropy(2) for v in values)

    def test_custom_square_is_the_4gon_and_rectangle_rejected(self):
        # the label decides nothing: these custom vectors are a square
        vs = (BlochVector(0, 0, 1), BlochVector(0, 0, -1),
              BlochVector(1, 0, 0), BlochVector(-1, 0, 0))
        povm = HsPovm(vectors=vs, family="custom")
        assert informational_power(povm) == informational_power(make_hs_povm("4-gon"))
        with pytest.raises(ValueError):
            informational_power(make_rectangle_povm(0.9))

    @pytest.mark.parametrize("family", ("digon", "tetrahedron", "octahedron",
                                        "cube"))
    def test_consistent_with_minimizer(self, family):
        povm = povm_for(family)
        minima = find_extrema(povm, "min")
        assert informational_power(povm) == pytest.approx(
            math.log(povm.k) - minima[0].value, abs=1e-8)

    def test_report(self):
        # W = ln k - H_min with the minimum the cube's certificate proves
        W = informational_power(povm_for("cube"))
        H_min = certify_minimum(povm_for("cube")).certified_minimum
        assert W == pytest.approx(math.log(8) - H_min, abs=1e-12)

    def test_mislabelled_rectangle_rejected(self):
        text = json.dumps({"vectors": make_rectangle_povm(0.9).matrix().tolist(),
                           "family": "tetrahedron"})
        with pytest.raises(ValueError):
            informational_power(HsPovm.from_json(text))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_rotated_file_keeps_reference_value(self, family):
        q, r = np.linalg.qr(np.random.default_rng(17).normal(size=(3, 3)))
        q = q * np.sign(np.diag(r))
        text = json.dumps({"vectors": (povm_for(family).matrix() @ q.T).tolist(),
                           "family": family})
        W = informational_power(HsPovm.from_json(text))
        assert abs(W - TABLE_REFERENCE[family]) < 5e-6


class TestNgonPower:
    def test_digon(self):
        assert ngon_informational_power(2) == pytest.approx(LN2, abs=1e-14)

    def test_square_derived(self):
        # direct evaluation of the closed form: sum of eta(sin^2(pi j/4)),
        # eta(x) = -x ln x
        xs = [math.sin(math.pi * j / 4.0) ** 2 for j in range(1, 5)]
        oracle = LN2 - 0.5 * math.fsum(-x * math.log(x) for x in xs if x > 0)
        assert oracle == pytest.approx(0.5 * LN2, abs=1e-14)
        assert ngon_informational_power(4) == pytest.approx(oracle, abs=1e-14)

    def test_matches_orbit_formula(self):
        for n in (3, 5, 8, 17):
            povm = make_hs_povm("n-gon", n)
            assert ngon_informational_power(n) == pytest.approx(
                informational_power(povm), abs=1e-12)

    def test_large_n_limit(self):
        assert ngon_informational_power(10_000) == pytest.approx(
            1.0 - LN2, abs=1e-4)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            ngon_informational_power(1)


class TestAverageRelativeEntropy:
    def test_qubit_value(self):
        assert average_relative_entropy(2) == pytest.approx(LN2 - 0.5, abs=1e-15)

    def test_qutrit_value(self):
        assert average_relative_entropy(3) == pytest.approx(
            math.log(3.0) - 5.0 / 6.0, abs=1e-14)

    def test_large_d_euler_mascheroni(self):
        gamma = 0.5772156649015329
        assert average_relative_entropy(10**6) == pytest.approx(
            1.0 - gamma, abs=1e-5)

    def test_rejects_d_one(self):
        with pytest.raises(ValueError):
            average_relative_entropy(1)

    @pytest.mark.parametrize("family", ("digon", "tetrahedron", "cube"))
    def test_sphere_average_is_measurement_independent(self, family):
        avg = sphere_average_relative_entropy(povm_for(family), 200_000)
        assert abs(avg - (LN2 - 0.5)) < 2e-3


class TestUncertaintyBounds:
    def test_identical_pvms(self):
        digon = povm_for("digon")
        assert uncertainty_upper_bound(digon, digon) == pytest.approx(
            LN2, abs=1e-14)

    def test_orthogonal_pvms_give_half_ln2(self):
        z = povm_for("digon")
        x = HsPovm(vectors=(BlochVector(1, 0, 0), BlochVector(-1, 0, 0)),
                   family="custom")
        assert uncertainty_upper_bound(z, x) == pytest.approx(
            0.5 * LN2, abs=1e-14)

    def test_rectangle_pair_formula(self):
        # two PVMs at Bloch angle alpha: bound ln2 + ln max(|sin|, |cos|)
        alpha = 0.9
        a = HsPovm(vectors=(BlochVector(math.cos(alpha / 2), math.sin(alpha / 2), 0),
                            BlochVector(-math.cos(alpha / 2), -math.sin(alpha / 2), 0)),
                   family="custom")
        b = HsPovm(vectors=(BlochVector(math.cos(alpha / 2), -math.sin(alpha / 2), 0),
                            BlochVector(-math.cos(alpha / 2), math.sin(alpha / 2), 0)),
                   family="custom")
        want = LN2 + math.log(max(abs(math.sin(alpha / 2)),
                                  abs(math.cos(alpha / 2))))
        assert uncertainty_upper_bound(a, b) == pytest.approx(want, abs=1e-12)

    def test_square_bound_attained(self):
        # the aggregated square POVM attains (1/2) ln 2 at its own states
        assert ngon_informational_power(4) == pytest.approx(0.5 * LN2, abs=1e-12)

    def test_general_d_reduces_to_qubit_form(self):
        # two PVMs whose largest normalized dot is c: the qubit bound
        # ln 2 + ln sqrt((1 + c)/2) is the d = 2 case of
        # ln d + (1/2) ln((1 - 1/d) c + 1/d)
        dot = 0.37
        z = povm_for("digon")
        w = BlochVector(math.sqrt(1.0 - dot * dot), 0.0, dot)
        tilted = HsPovm(vectors=(w, -w), family="custom")
        got = uncertainty_upper_bound(z, tilted)
        assert got == pytest.approx(LN2 + math.log(math.sqrt((1.0 + dot) / 2.0)), abs=1e-14)
        assert got == pytest.approx(LN2 + 0.5 * math.log(0.5 * dot + 0.5), abs=1e-14)


class TestEntropyBounds:
    # p_j <= 2/k for a pure state, so ln(k/2) <= H <= ln k
    @pytest.mark.parametrize("family,lo,hi", [
        ("digon", 0.0, LN2),
        ("tetrahedron", LN2, math.log(4)),
        ("icosidodecahedron", math.log(15), math.log(30)),
    ])
    def test_values(self, family, lo, hi):
        povm = povm_for(family)
        minima, maxima = find_extrema(povm, "min"), find_extrema(povm, "max")
        assert min(c.value for c in minima) >= lo - 1e-15
        assert max(c.value for c in maxima) <= hi + 1e-15
        if family == "digon":   # a PVM reaches both ends
            assert minima[0].value == pytest.approx(lo, abs=1e-15)
            assert maxima[0].value == pytest.approx(hi, abs=1e-15)
