import math
import warnings

import numpy as np
import pytest

from conftest import ALL_FAMILIES, povm_for
from hspovm.dynamics import (
    TransitionMatrix,
    UnitaryAsRotation,
    dynamical_entropy,
    empirical_entropy_rate,
    measurement_entropy,
    string_entropies,
    transition_matrix,
)
from hspovm.entropy import entropy_at

IDENTITY = UnitaryAsRotation.identity()
R_TILT = UnitaryAsRotation.about_axis([1.0, 2.0, 2.0], 0.9)


class TestUnitaryAsRotation:
    def test_identity(self):
        assert np.allclose(IDENTITY.R, np.eye(3))

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            UnitaryAsRotation(np.diag([2.0, 1.0, 0.5]))

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            UnitaryAsRotation(np.diag([1.0, 1.0, -1.0]))

    @pytest.mark.parametrize("make", [
        lambda: UnitaryAsRotation(np.full((3, 3), np.nan)),
        lambda: UnitaryAsRotation(np.diag([np.inf, 1.0, 1.0])),
        lambda: UnitaryAsRotation.about_axis([1.0, 0.0, 0.0], np.nan),
        lambda: UnitaryAsRotation.about_axis([0.0, 0.0, 0.0], 1.0),
        lambda: UnitaryAsRotation.about_axis([np.nan, 0.0, 0.0], 1.0),
    ], ids=["nan matrix", "inf matrix", "nan angle", "zero axis", "nan axis"])
    def test_rejects_non_finite_and_zero_axis(self, make):
        # refused before any arithmetic on the bad value warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                make()


class TestTransitionMatrix:
    def test_identity_digon_is_identity(self):
        P = transition_matrix(IDENTITY, povm_for("digon")).P
        assert np.allclose(P, np.eye(2), atol=1e-14)

    def test_identity_tetrahedron(self):
        P = transition_matrix(IDENTITY, povm_for("tetrahedron")).P
        assert np.allclose(np.diag(P), 0.5, atol=1e-12)
        off = P[~np.eye(4, dtype=bool)]
        assert np.allclose(off, 1.0 / 6.0, atol=1e-12)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_doubly_stochastic(self, family):
        P = transition_matrix(R_TILT, povm_for(family)).P
        assert np.max(np.abs(P.sum(axis=1) - 1.0)) < 1e-12
        assert np.max(np.abs(P.sum(axis=0) - 1.0)) < 1e-12

    def test_row_sum_validation(self):
        with pytest.raises(ValueError):
            TransitionMatrix(np.array([[0.5, 0.4], [0.5, 0.5]]))


class TestDynamicalEntropy:
    def test_digon_identity_is_zero(self):
        assert dynamical_entropy(IDENTITY, povm_for("digon")) == 0.0

    def test_digon_z_rotation_is_zero(self):
        Rz = UnitaryAsRotation.about_axis([0, 0, 1], math.pi / 2)
        assert dynamical_entropy(Rz, povm_for("digon")) == pytest.approx(
            0.0, abs=1e-15)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_identity_equals_measurement_entropy(self, family):
        povm = povm_for(family)
        assert dynamical_entropy(IDENTITY, povm) == pytest.approx(
            measurement_entropy(povm), abs=1e-12)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_bounds(self, family):
        povm = povm_for(family)
        value = dynamical_entropy(R_TILT, povm)
        assert -1e-15 <= value <= math.log(povm.k) + 1e-12
        assert value >= math.log(povm.k / 2.0) - 1e-12

    @pytest.mark.parametrize("family", ("tetrahedron", "cube", "icosahedron"))
    def test_inverse_rotation_symmetry(self, family):
        povm = povm_for(family)
        inverse = UnitaryAsRotation(R_TILT.R.T)
        assert dynamical_entropy(R_TILT, povm) == pytest.approx(
            dynamical_entropy(inverse, povm), abs=1e-13)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_symmetric_family_measurement_entropy_is_vertex_entropy(self, family):
        povm = povm_for(family)
        assert measurement_entropy(povm) == pytest.approx(
            entropy_at(povm.vectors[0], povm), abs=1e-12)

    def test_measurement_entropy_vs_minimum(self):
        # H_meas >= ln k - W with equality iff the orbit is its own
        # antipodal set; strict for the tetrahedron
        from hspovm.info import informational_power
        for family in ALL_FAMILIES:
            povm = povm_for(family)
            floor = math.log(povm.k) - informational_power(povm)
            gap = measurement_entropy(povm) - floor
            assert gap >= -1e-12
            if family == "tetrahedron":
                assert gap > 1e-3
            else:
                assert abs(gap) < 1e-12


class TestSequenceProbability:
    # p(i1 ... in) = p(i1) p_{i1 i2} ... p_{i(n-1) in}, the product that
    # string_entropies enumerates
    def test_maximally_mixed_first_step(self):
        povm = povm_for("tetrahedron")
        assert string_entropies(R_TILT, povm, 1) == [pytest.approx(math.log(4), abs=1e-15)]

    def test_digon_deterministic_repetition(self):
        # each outcome repeats with certainty, so the strings 11...1 and
        # 22...2 share all the weight
        assert string_entropies(IDENTITY, povm_for("digon"), 4) == \
            [pytest.approx(math.log(2), abs=1e-14)] * 4

    @pytest.mark.parametrize("family", ("digon", "tetrahedron", "octahedron"))
    def test_normalization_over_strings(self, family):
        povm = povm_for(family)
        P = transition_matrix(R_TILT, povm).P
        first = (1.0 + povm.matrix() @ np.array([0.1, -0.2, 0.4])) / povm.k
        strings = np.einsum("i,ij,jl->ijl", first, P, P)
        assert strings.sum() == pytest.approx(1.0, abs=1e-12)
        mixed = np.einsum("ij,jl->ijl", P, P) / povm.k
        assert string_entropies(R_TILT, povm, 3)[2] == pytest.approx(
            math.fsum(-p * math.log(p) for p in mixed.ravel() if p > 0), abs=1e-12)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            string_entropies(IDENTITY, povm_for("icosidodecahedron"), 5)   # 30^5 > 1e7
        with pytest.raises(ValueError):
            empirical_entropy_rate(IDENTITY, povm_for("digon"), 0)


class TestEntropyRate:
    @pytest.mark.parametrize("family", ("digon", "tetrahedron", "cube"))
    def test_enumeration_matches_closed_form(self, family):
        povm = povm_for(family)
        rate = dynamical_entropy(R_TILT, povm)
        for n in (1, 2, 3):
            assert empirical_entropy_rate(R_TILT, povm, n) == pytest.approx(
                rate, abs=1e-12)

    def test_increments_constant_in_n(self):
        povm = povm_for("tetrahedron")
        entropies = string_entropies(R_TILT, povm, 5)
        increments = [b - a for a, b in zip(entropies, entropies[1:])]
        assert max(increments) - min(increments) < 1e-12

    def test_digon_identity_rate_zero(self):
        assert empirical_entropy_rate(IDENTITY, povm_for("digon"), 4) == \
            pytest.approx(0.0, abs=1e-15)

    def test_budget_guard(self):
        povm = povm_for("icosidodecahedron")
        with pytest.raises(ValueError):
            empirical_entropy_rate(IDENTITY, povm, 5)   # 30^6 > 1e7
        with pytest.raises(ValueError):
            empirical_entropy_rate(IDENTITY, povm_for("digon"), 9)
