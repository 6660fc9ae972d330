import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import ALL_FAMILIES, POLYHEDRA, povm_for, record_nodes
from hspovm.bloch import BlochVector
from hspovm.catalog import (
    FAMILIES,
    FAMILY_SPECS,
    TRIVIAL_GROUP,
    HsPovm,
    _group_of_tag,
    interpolation_set,
    make_hs_povm,
    make_rectangle_povm,
    spherical_design_order,
    validate_povm,
)
from hspovm.certificate import _family_record
from hspovm.cli import main
from hspovm.entropy import find_extrema
from hspovm.groups import double_coset_profile
from hspovm.q5 import TAU, Q5

SQRT5 = math.sqrt(5.0)

EXPECTED_K = {"digon": 2, "tetrahedron": 4, "octahedron": 6, "cube": 8,
              "cuboctahedron": 12, "icosahedron": 12, "dodecahedron": 20,
              "icosidodecahedron": 30}

EXPECTED_NODES = {
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


_F = Fraction

#: the node sets once typed into the registry, as pairs (a, b) meaning
#: a + b sqrt 5; the registry now computes them from its exact orbits
NODE_LITERALS = {
    "digon": ((-1, 0), (1, 0)),
    "tetrahedron": ((-1, 0), (_F(1, 3), 0)),
    "octahedron": ((-1, 0), (0, 0), (1, 0)),
    "cube": ((-1, 0), (_F(-1, 3), 0), (_F(1, 3), 0), (1, 0)),
    "cuboctahedron": ((-1, 0), (_F(-1, 2), 0), (0, 0), (_F(1, 2), 0), (1, 0)),
    "icosahedron": ((-1, 0), (0, _F(-1, 5)), (0, _F(1, 5)), (1, 0)),
    "dodecahedron": ((-1, 0), (0, _F(-1, 3)), (_F(-1, 3), 0), (_F(1, 3), 0),
                     (0, _F(1, 3)), (1, 0)),
    "icosidodecahedron": ((-1, 0), (_F(-1, 4), _F(-1, 4)), (_F(-1, 2), 0),
                          (_F(1, 4), _F(-1, 4)), (0, 0), (_F(-1, 4), _F(1, 4)),
                          (_F(1, 2), 0), (_F(1, 4), _F(1, 4)), (1, 0)),
}

#: sha256 of each family's matrix() bytes, recorded before the registry
#: seeds became exact numbers (the n-gon entry covers n = 2..12)
MATRIX_SHA256 = {
    "digon": "081461215c663086a953125f30cfb374ecbba2d1dfe40cce0e784e762a962876",
    "tetrahedron": "e6cf1a1972553e4a71f00972644aa5c58b3454029112308efe020a1b403405e1",
    "octahedron": "2c562b2b955cf4da51bde68ee425a91b8031cecaee3331c43eb6e8f120c6b146",
    "cube": "5cd276cca5bbf20d6cd3ed91bf45374bbb0a202e0143244a17c521c9fd58ad98",
    "cuboctahedron": "54823522f6d17d96751796c7ecf0bae9e1c910ae797cf0ecf16278a322066ca8",
    "icosahedron": "91aa6f57a73c5482bb7528ee48e330fa8dd5e86ce21f3ef32aaa68a19f84cdf1",
    "dodecahedron": "19e0687eb67af125b512215f8311748d3332189485672543a35e1b2e576ec395",
    "icosidodecahedron": "bf6cab66f5fd3c9fef8c9fbeb9d3b9b3e15d8b2930a0a277db969deac3ea3af6",
    "n-gon": "ca5ac79592e10a07149be7d68a8e595a8613ddbdadad27eb9e4e8d426bd8a6a5",
}

#: the float probe literals the registry held before its probes became exact
PROBE_LITERALS = {
    "cube": ((0, 0, 1), (1, 1, 1)),
    "cuboctahedron": ((0, 0, 1), (0, 1, 1), (1, 1, 1)),
    "dodecahedron": ((0, TAU, 1), (0, 1 / TAU, TAU)),
    "icosidodecahedron": ((0, 0, 1), (0, TAU, 1), (0, 1 / TAU, TAU), (3, 4, 12)),
}


class TestExactRegistry:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_nodes_equal_the_literals(self, family):
        want = tuple(Q5.of(a) + Q5.of(b) * Q5(0, 1) for a, b in NODE_LITERALS[family])
        assert record_nodes(family) == want

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_orbit_floats_are_the_vectors(self, family):
        exact = np.array([[float(c) for c in v] for v in _family_record(family).orbit])
        exact /= np.linalg.norm(exact, axis=1, keepdims=True)
        coords = povm_for(family).matrix()
        gaps = np.linalg.norm(coords[:, None, :] - exact[None, :, :], axis=-1)
        assert len(exact) == len(coords)
        assert np.max(np.min(gaps, axis=0)) < 1e-15 and np.max(np.min(gaps, axis=1)) < 1e-15

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matrix_bytes_unchanged(self, family):
        if family == "n-gon":
            data = b"".join(make_hs_povm(family, n).matrix().tobytes() for n in range(2, 13))
        else:
            data = make_hs_povm(family).matrix().tobytes()
        assert hashlib.sha256(data).hexdigest() == MATRIX_SHA256[family]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_probe_floats_are_the_literals(self, family):
        literals = PROBE_LITERALS.get(family, ())
        floats = [np.array(probe, dtype=float) for probe in FAMILY_SPECS[family].probes]
        assert len(floats) == len(literals)
        for point, literal in zip(floats, literals):
            assert point.tobytes() == np.array(literal, dtype=float).tobytes()


class TestConstruction:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_cardinality(self, family):
        assert povm_for(family).k == EXPECTED_K[family]

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_unit_vectors_zero_centroid(self, family):
        coords = povm_for(family).matrix()
        assert np.allclose(np.linalg.norm(coords, axis=1), 1.0, atol=1e-12)
        assert np.linalg.norm(coords.sum(axis=0)) < 1e-12 * len(coords)

    def test_digon_is_z_axis(self):
        coords = povm_for("digon").matrix()
        assert np.allclose(sorted(coords[:, 2]), [-1.0, 1.0])

    def test_tetrahedron_pairwise_dot(self):
        coords = povm_for("tetrahedron").matrix()
        dots = coords @ coords.T
        off = dots[~np.eye(4, dtype=bool)]
        assert np.allclose(off, -1.0 / 3.0, atol=1e-12)

    def test_ngon_first_vertex(self):
        p = make_hs_povm("n-gon", 7)
        assert p.vectors[0].as_array() == pytest.approx([1, 0, 0])
        assert np.max(np.abs(p.matrix()[:, 2])) == 0.0

    def test_ngon_needs_n(self):
        with pytest.raises(ValueError):
            make_hs_povm("n-gon")

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            make_hs_povm("hexagonal-prism")

    def test_named_ngon_string(self):
        assert make_hs_povm("12-gon").k == 12

    def test_centroid_enforced(self):
        with pytest.raises(ValueError):
            HsPovm(vectors=(BlochVector(0, 0, 1), BlochVector(0, 0, 1)),
                   family="custom")

    def test_json_round_trip(self, tmp_path):
        q = HsPovm.from_json(generated(tmp_path, "--family", "cube"))
        assert np.array_equal(povm_for("cube").matrix(), q.matrix())


class TestRectangle:
    def test_construction(self):
        p = make_rectangle_povm(1.0)
        assert p.k == 4
        assert p.matrix()[0] @ p.matrix()[2] == pytest.approx(math.cos(1.0))
        assert np.linalg.norm(p.matrix().sum(axis=0)) < 1e-12

    def test_square_flagged_as_4gon(self):
        assert make_rectangle_povm(math.pi / 2).family == "4-gon"

    def test_range_validation(self):
        with pytest.raises(ValueError):
            make_rectangle_povm(0.0)
        with pytest.raises(ValueError):
            make_rectangle_povm(math.pi)


class TestValidate:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_catalog_passes(self, family):
        report = validate_povm(povm_for(family).vectors)
        assert report.is_povm

    @pytest.mark.parametrize("family", POLYHEDRA)
    def test_polyhedra_informationally_complete(self, family):
        assert validate_povm(povm_for(family).vectors).informationally_complete

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_polygons_not_informationally_complete(self, n):
        report = validate_povm(make_hs_povm("n-gon", n).vectors)
        assert report.is_povm and not report.informationally_complete

    def test_one_vector_refused(self):
        with pytest.raises(ValueError, match="a POVM needs at least two elements"):
            validate_povm([BlochVector(0, 0, 1)])

    def test_repeated_vector_not_povm(self):
        report = validate_povm([BlochVector(0, 0, 1), BlochVector(0, 0, 1)])
        assert not report.is_povm

    def test_tetragonal_disphenoid_frame_not_tight(self):
        e = np.eye(3)
        vs = [(e[0] + e[1]) / math.sqrt(2), (e[0] - e[1]) / math.sqrt(2),
              (-e[0] + e[2]) / math.sqrt(2), (-e[0] - e[2]) / math.sqrt(2)]
        report = validate_povm(vs)
        assert report.is_povm
        assert report.informationally_complete   # spans R^3: a frame
        assert report.design_order < 2           # but not a tight one


def _legendre_oracle(coords):
    """(s, sum_{x,y} P_s(x . y) / k^2) for s = 1..5 from numpy's Legendre series."""
    gram = coords @ coords.T
    return [(s, float(np.sum(np.polynomial.legendre.legval(gram, [0] * s + [1])))
             / len(coords) ** 2) for s in range(1, 6)]


class TestDesignOrders:
    @pytest.mark.parametrize("seed", range(6))
    def test_moments_are_the_gram_legendre_sums(self, seed):
        rng = np.random.default_rng(seed)
        half = rng.normal(size=(int(rng.integers(2, 9)), 3))
        half /= np.linalg.norm(half, axis=1)[:, None]
        sets = [np.vstack([half, -half]), make_rectangle_povm(0.3 + seed / 4).matrix(),
                povm_for(ALL_FAMILIES[seed + 2]).matrix()]
        for coords in sets:
            report = validate_povm(coords)
            assert [s for s, _ in report.moment_values] == [1, 2, 3, 4, 5]
            for (_, got), (_, want) in zip(report.moment_values, _legendre_oracle(coords)):
                assert got == pytest.approx(want, abs=1e-13)
                assert got > -1e-13             # each sum is >= 0
        # centrally symmetric random pairs: the odd sums vanish, P_2 does not
        assert validate_povm(sets[0]).design_order == 1

    def test_a_moved_vector_breaks_the_design(self):
        assert spherical_design_order(povm_for("icosahedron").vectors) == 5
        coords = povm_for("icosahedron").matrix().astype(float)
        coords[0] += 1e-4 * coords[1]
        coords /= np.linalg.norm(coords, axis=1)[:, None]
        assert spherical_design_order([BlochVector.from_array(v) for v in coords]) < 5

    @pytest.mark.parametrize("family,minimum", [
        ("tetrahedron", 2), ("octahedron", 3), ("cube", 3),
        ("cuboctahedron", 3), ("icosahedron", 5), ("dodecahedron", 5),
        ("icosidodecahedron", 5),
    ])
    def test_lower_bounds(self, family, minimum):
        assert spherical_design_order(povm_for(family).vectors) >= minimum

    def test_octahedron_is_exactly_3(self):
        assert spherical_design_order(povm_for("octahedron").vectors) == 3

    def test_icosahedron_is_5(self):
        assert spherical_design_order(povm_for("icosahedron").vectors) == 5


class TestInterpolationSet:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_table_values(self, family):
        got = interpolation_set(povm_for(family))
        want = EXPECTED_NODES[family]
        assert len(got) == len(want)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 9, 12])
    def test_polygon_nodes(self, n):
        got = interpolation_set(make_hs_povm("n-gon", n))
        sign = 1.0 if n % 2 == 0 else -1.0
        want = sorted({round(sign * math.cos(2 * math.pi * j / n), 12)
                       for j in range(1, n + 1)})
        assert len(got) == len(want)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-9

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_size_bounded_by_coset_count(self, family):
        povm = povm_for(family)
        group = povm.rotation_group()
        profile = double_coset_profile(group, povm.fiducial)
        assert len(interpolation_set(povm)) <= profile.n_v


class TestFamilyRegistry:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_spec_matches_geometry(self, name):
        spec = FAMILY_SPECS[name]
        povm = make_hs_povm(name, 6)          # the order is read by the n-gon only
        assert povm.group == (f"C_{povm.k}" if spec.group == "C" else spec.group)
        # a polygon's symmetry adds the in-plane half-turns to its tag C_n
        widened = 2 if spec.group == "C" else 1
        assert povm.symmetry_group.order == widened * povm.rotation_group().order > 1
        if spec.group != "C":
            exact = [float(t) for t in record_nodes(name)]
            assert np.max(np.abs(np.array(exact) - interpolation_set(povm))) < 1e-12
        assert len(spec.probes) == (len(spec.basis) + 1 if spec.basis else 0)
        assert spec.k == (None if spec.group == "C" else povm.k)

    def test_json_round_trip_keeps_the_symmetry_group(self, tmp_path):
        # the file holds no tag; the geometry gives the same group back
        for name in FAMILIES:
            p = make_hs_povm(name, 5)
            polygon = ("--n", "5") if name == "n-gon" else ()
            loaded = HsPovm.from_json(generated(tmp_path, "--family", name, *polygon))
            assert loaded.group == ""
            assert loaded.symmetry_group is p.symmetry_group

    def test_rotated_file_carries_its_group_and_mislabelled_file_its_own(self, tmp_path):
        q, _ = np.linalg.qr(np.random.default_rng(11).normal(size=(3, 3)))
        rotated = povm_for("cube").matrix() @ q.T
        povm = HsPovm.from_json(json.dumps({"vectors": rotated.tolist(), "family": "cube"}))
        assert povm.group == "" and povm.symmetry_group.order == 24
        assert _image_gap(povm.symmetry_group, povm.matrix()) < 1e-12
        # the label decides nothing: a rectangle labelled octahedron is a rectangle
        mislabelled = generated(tmp_path, "--family", "rectangle", "--alpha", "1.0").replace(
            "rectangle", "octahedron")
        povm = HsPovm.from_json(mislabelled)
        assert povm.frame[0].family == "rectangle" and povm.symmetry_group.order == 4
        assert _image_gap(povm.symmetry_group, povm.matrix()) < 1e-12


def generated(tmp_path, *options) -> str:
    """The POVM file that ``hspovm generate`` writes for these options."""
    path = tmp_path / "povm.json"
    assert main(["generate", *options, "--out", str(path)]) == 0
    return path.read_text()


def _image_gap(group, coords) -> float:
    """The largest distance from an image g v to the nearest vector."""
    return max(float(np.max(np.min(np.linalg.norm(
        (coords @ g.T)[:, None, :] - coords[None, :, :], axis=-1), axis=1)))
        for g in group.elements)


class TestSymmetryGroup:
    """The symmetry group is the member's carried over by the frame's R, so
    it maps the vectors onto themselves, whatever the label; a set off its
    family by 3e-8 gets the trivial group whatever its tag."""

    @pytest.mark.parametrize("family", ALL_FAMILIES + ("n-gon",))
    def test_maps_the_vectors_onto_themselves(self, family):
        member = make_hs_povm(family, 12)
        coords = member.matrix()
        q, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(3, 3)))
        candidates = [(coords, member.symmetry_group.order),
                      (coords @ q.T, member.symmetry_group.order)]
        if family != "digon":       # {v, -v} moved with zero centroid stays a digon
            # v_0 and a vector v_j off its axis move by 3e-8 in opposite
            # directions orthogonal to both: the centroid stays zero
            j = int(np.argmin(np.abs(coords @ coords[0])))
            shift = np.cross(coords[0], coords[j])
            shift *= 3e-8 / np.linalg.norm(shift)
            nudged = coords.astype(float)
            nudged[0] -= shift
            nudged[j] += shift
            candidates.append((nudged, 1))
        for candidate, order in candidates:
            povm = HsPovm(tuple(BlochVector.from_array(v) for v in candidate),
                          member.family)
            assert povm.symmetry_group.order == order > 0
            assert _image_gap(povm.symmetry_group, povm.matrix()) < 1e-12
        custom = HsPovm(member.vectors, "custom", member.group)
        assert custom.symmetry_group.order == member.symmetry_group.order

    def test_large_polygon_has_its_dihedral_group(self):
        coords = make_hs_povm("n-gon", 300).matrix()
        povm = HsPovm(tuple(BlochVector.from_array(v) for v in coords), "300-gon")
        assert povm.symmetry_group.name == "D_300" and povm.symmetry_group.order == 600
        shifted = coords.copy()
        shifted[150] = [math.cos(0.001), math.sin(0.001), 0.0]
        shifted[0] = [-math.cos(0.001), -math.sin(0.001), 0.0]
        povm = HsPovm(tuple(BlochVector.from_array(v) for v in shifted), "300-gon")
        assert povm.symmetry_group.order == 1


def test_group_memo_stays_bounded_over_a_polygon_sweep():
    # the tags come from callers: each n-gon's maxima are typed under its own
    # D_n, so a sweep of 70 polygons passes the bound of 64 groups kept; the
    # trivial group stays the module's constant
    for n in range(3, 73):
        maxima = find_extrema(make_hs_povm(f"{n}-gon"), "max")
        assert sorted(p.location.z for p in maxima) == [-1.0, 1.0]
    info = _group_of_tag.cache_info()
    assert info.currsize == info.maxsize == 64
    assert TRIVIAL_GROUP.name == "C_1" and TRIVIAL_GROUP.order == 1
