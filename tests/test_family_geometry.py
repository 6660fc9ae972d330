"""One family-geometry check, shared by the certificate and the closed-form
informational power: a set passes when it is a rotated copy of a registry
member, whatever its label, and then every answer is the member's."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sweep_certificates
from conftest import ALL_FAMILIES, povm_for
from hspovm import catalog, certificate, entropy
from hspovm.catalog import (HsPovm, check_family_geometry, exact_design_order,
                            exact_nodes, family_spec, make_hs_povm,
                            make_rectangle_povm, spherical_design_order)

#: the digon, the 7 polyhedra and the 3- to 12-gons
EIGHTEEN = ALL_FAMILIES + tuple(f"{n}-gon" for n in range(3, 13))
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
        spec, member, rotation = check_family_geometry(povm)
        assert spec is family_spec(family)
        assert member.matrix().tolist() == make_hs_povm(family).matrix().tolist()
        # R carries the member onto the vectors, in the permuted order
        images = member.matrix() @ rotation.T
        gaps = np.linalg.norm(images[:, None, :] - povm.matrix()[None, :, :], axis=-1)
        assert np.max(gaps.min(axis=0)) < 1e-9 and np.max(gaps.min(axis=1)) < 1e-9
        assert np.linalg.det(rotation) == pytest.approx(1.0, abs=1e-12)

    def test_member_itself_gets_the_identity(self):
        for family in EIGHTEEN:
            assert check_family_geometry(make_hs_povm(family))[2] is catalog.IDENTITY

    def test_label_without_a_member_of_that_size_recognized(self):
        # the vectors are the 6-gon's, so the 6-gon answers for them
        spec, member, rotation = check_family_geometry(
            HsPovm(make_hs_povm("6-gon").vectors, "5-gon"))
        assert spec is family_spec("6-gon") and member.family == "6-gon"
        assert rotation is catalog.IDENTITY

    def test_custom_accepted_and_rectangle_refused(self):
        spec, member, _ = check_family_geometry(HsPovm(povm_for("cube").vectors, "custom"))
        assert spec is family_spec("cube") and member.family == "cube"
        with pytest.raises(ValueError, match="no registry member is congruent"):
            check_family_geometry(make_rectangle_povm(0.9))

    @pytest.mark.parametrize("family, label", [("octahedron", "icosidodecahedron"),
                                               ("octahedron", "tetrahedron"),
                                               ("cube", "octahedron")])
    def test_other_family_recognized(self, family, label):
        povm = HsPovm(povm_for(family).vectors, label)
        spec, member, rotation = check_family_geometry(povm)
        assert spec is family_spec(family) and member.family == family
        assert rotation is catalog.IDENTITY

    def test_member_built_once_per_label_and_k(self, monkeypatch):
        povm = povm_for("dodecahedron")
        check_family_geometry(povm)

        def unexpected(*args):
            raise AssertionError("make_hs_povm on the hot path")

        monkeypatch.setattr(catalog, "make_hs_povm", unexpected)
        assert check_family_geometry(povm)[0].name == "dodecahedron"


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
            with pytest.raises(ValueError, match="no registry member is congruent") as err:
                call(self.povm())
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_certify_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "skewed.json"
        path.write_text(_file(SKEWED_OCTAHEDRON, "octahedron"))
        assert main(["certify", "--in", str(path)]) == 2
        assert "no registry member is congruent" in capsys.readouterr().err

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
    # neither the sampled design order nor the z = 0 test of a polygon
    def unexpected(*args):
        raise AssertionError("sampled design order or coplanarity test")

    monkeypatch.setattr(catalog, "spherical_design_order", unexpected)
    assert not hasattr(HsPovm, "is_coplanar")
    assert not hasattr(certificate, "spherical_design_order")
    for family in EIGHTEEN:
        assert certify_minimum(make_hs_povm(family)).valid, family


def _copy(family, seed, reflect) -> str:
    """The family's file under a random rotation and permutation, and
    optionally a reflection, drawn from the seed."""
    rng = np.random.default_rng(seed)
    q = _rotation(seed)
    if reflect:
        q = q @ np.diag([1.0, 1.0, -1.0])
    coords = make_hs_povm(family).matrix() @ q.T
    return _file(coords[rng.permutation(len(coords))], family)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(family=st.sampled_from(EIGHTEEN), seed=st.integers(0, 2 ** 32 - 1),
       reflect=st.booleans())
def test_any_rotated_copy_gives_the_member_s_answers(family, seed, reflect):
    povm = HsPovm.from_json(_copy(family, seed, reflect))
    member = make_hs_povm(family)
    assert repr(certify_minimum(povm)) == repr(certify_minimum(member))
    assert abs(informational_power(povm) - informational_power(member)) <= 1e-12


#: the centrally symmetric families with more than one antipodal pair
PAIRED = tuple(f for f in EIGHTEEN if f not in ("digon", "tetrahedron")
               and not (f.endswith("-gon") and int(f[:-4]) % 2))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(family=st.sampled_from(PAIRED), seed=st.integers(0, 2 ** 32 - 1))
def test_one_pair_turned_by_a_microradian_is_refused(family, seed):
    # the pair (v, -v) turns by 1e-6 rad towards the vector w at the least
    # |dot| with v, so v . w leaves the family's dots; the centroid stays 0
    coords = make_hs_povm(family).matrix() @ _rotation(seed).T
    j = int(np.random.default_rng(seed).integers(len(coords)))
    partner = int(np.argmin(np.linalg.norm(coords + coords[j], axis=1)))
    w = coords[np.argmin(np.abs(coords @ coords[j]))]
    axis = np.cross(coords[j], w)
    axis /= np.linalg.norm(axis)
    turned = (math.cos(1e-6) * coords[j] + math.sin(1e-6) * np.cross(axis, coords[j]))
    coords[j], coords[partner] = turned, -turned
    povm = HsPovm.from_json(_file(coords, family))
    for call in (certify_minimum, informational_power):
        with pytest.raises(ValueError, match="no registry member is congruent"):
            call(povm)


def test_sweep_cases_are_565_unique_labels():
    labels = [label for label, _, _ in sweep_certificates.cases()]
    assert len(labels) == 565
    assert len(set(labels)) == 565


def test_sweep_hash_is_pinned():
    # the 558 canonical certificates and the 7 rotated polyhedra, each of
    # which equals its canonical line
    text = "\n".join(sweep_certificates.sweep())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "16c08cb7931344f69761f19b50515e7825b2a1e3210da50ff825e6f3e0dc64fd")
