"""One family-geometry check, shared by the certificate and the closed-form
informational power, and the exact registry facts it licenses: a set that
passes has the registry orbit's design order and central symmetry."""

import json
import math

import numpy as np
import pytest

import sweep_certificates
from conftest import ALL_FAMILIES, povm_for
from hspovm import catalog, certificate, entropy
from hspovm.catalog import (HsPovm, check_family_geometry, exact_design_order,
                            exact_nodes, family_spec, make_hs_povm,
                            make_rectangle_povm, spherical_design_order)
from hspovm.certificate import certify_minimum
from hspovm.cli import main
from hspovm.entropy import find_extrema
from hspovm.info import informational_power


def _rotation(seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def _file(coords, family) -> str:
    return json.dumps({"vectors": np.asarray(coords).tolist(), "family": family})


def _float_central_symmetry(coords) -> bool:
    """The float test the certificate once ran: -v is within 1e-9 of a vector."""
    return all(np.min(np.linalg.norm(coords + v[None, :], axis=1)) < 1e-9 for v in coords)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_exact_design_order_and_symmetry_match_the_float_checks(family):
    coords = povm_for(family).matrix()
    assert exact_design_order(family) == spherical_design_order(povm_for(family).vectors)
    assert (1 in exact_nodes(family)) == _float_central_symmetry(coords)


def test_exact_design_orders():
    assert [exact_design_order(f) for f in ALL_FAMILIES] == [1, 2, 3, 3, 3, 5, 5, 5]


class TestCheckFamilyGeometry:
    @pytest.mark.parametrize("family", ALL_FAMILIES + ("5-gon",))
    def test_rotated_permuted_family_passes(self, family):
        coords = make_hs_povm(family).matrix() @ _rotation(5).T
        order = np.random.default_rng(6).permutation(len(coords))
        povm = HsPovm.from_json(_file(coords[order], family))
        assert check_family_geometry(povm) is family_spec(family)

    def test_custom_and_rectangle_refused(self):
        with pytest.raises(ValueError, match="not a registry family"):
            check_family_geometry(HsPovm(povm_for("cube").vectors, "custom"))
        with pytest.raises(ValueError, match="not a registry family"):
            check_family_geometry(make_rectangle_povm(0.9))

    @pytest.mark.parametrize("family, label", [("octahedron", "icosidodecahedron"),
                                               ("octahedron", "tetrahedron"),
                                               ("cube", "octahedron")])
    def test_other_family_refused(self, family, label):
        povm = HsPovm(povm_for(family).vectors, label)
        with pytest.raises(ValueError, match=f"{label}'s node set"):
            check_family_geometry(povm)

    def test_profile_built_once_per_label_and_k(self, monkeypatch):
        povm = povm_for("dodecahedron")
        check_family_geometry(povm)

        def unexpected(*args):
            raise AssertionError("make_hs_povm on the hot path")

        monkeypatch.setattr(catalog, "make_hs_povm", unexpected)
        assert check_family_geometry(povm).name == "dodecahedron"


#: the octahedron's fiducial +z sees the node set {-1, 0, 1}, but its
#: equator is not a square: the other vectors see other dots
SKEWED_OCTAHEDRON = ((0, 0, 1), (0, 0, -1), (1, 0, 0), (-1, 0, 0),
                     (math.cos(0.6), math.sin(0.6), 0),
                     (-math.cos(0.6), -math.sin(0.6), 0))


class TestSkewedOctahedron:
    def povm(self):
        return HsPovm.from_json(_file(SKEWED_OCTAHEDRON, "octahedron"))

    def test_fiducial_alone_looks_like_the_octahedron(self):
        povm = self.povm()
        assert povm.k == 6
        assert catalog.interpolation_set(povm) == [-1.0, 0.0, 1.0]

    def test_certificate_and_closed_form_refuse_alike(self):
        messages = []
        for call in (certify_minimum, informational_power):
            with pytest.raises(ValueError, match="octahedron's node set") as err:
                call(self.povm())
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_certify_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "skewed.json"
        path.write_text(_file(SKEWED_OCTAHEDRON, "octahedron"))
        assert main(["certify", "--in", str(path)]) == 2
        assert "octahedron's node set" in capsys.readouterr().err

    def test_minimum_falls_back_to_the_scan(self, monkeypatch):
        calls = []
        scan = entropy._scan_extrema

        def counted(povm, mode, *args):
            calls.append(mode)
            return scan(povm, mode, *args)

        monkeypatch.setattr(entropy, "_scan_extrema", counted)
        for povm in (self.povm(), HsPovm(self.povm().vectors, "octahedron", "O")):
            assert find_extrema(povm, "min", n_scan=20_000)
        assert calls == ["min", "min"]


@pytest.mark.parametrize("seed", (11, 12))
@pytest.mark.parametrize("family", ("digon", "tetrahedron", "octahedron", "icosahedron"))
def test_rotated_permuted_files_certify(family, seed):
    coords = make_hs_povm(family).matrix() @ _rotation(seed).T
    order = np.random.default_rng(seed).permutation(len(coords))
    povm = HsPovm.from_json(_file(coords[order], family))
    cert = certify_minimum(povm)
    assert cert.valid, cert.reason
    assert cert.certified_minimum == pytest.approx(
        certify_minimum(make_hs_povm(family)).certified_minimum, abs=1e-12)


def test_polyhedra_certify_without_sampling(monkeypatch):
    def sampled(vectors):
        raise AssertionError("sampled design order")

    monkeypatch.setattr(catalog, "spherical_design_order", sampled)
    monkeypatch.setattr(certificate, "spherical_design_order", sampled)
    for family in ALL_FAMILIES:
        assert certify_minimum(make_hs_povm(family)).valid, family


def test_sweep_cases_are_565_unique_labels():
    labels = [label for label, _, _ in sweep_certificates.cases()]
    assert len(labels) == 565
    assert len(set(labels)) == 565
