import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hspovm
from conftest import ALL_FAMILIES, POLYHEDRA, povm_for
from hspovm import catalog, certificate, entropy
from hspovm.bloch import SHANNON, BlochVector, EntropyKernel
from hspovm.catalog import (HsPovm, _group_of_tag, inert_directions, make_hs_povm,
                            make_rectangle_povm)
from hspovm.entropy import (
    CLUSTER_ANGLE,
    DEFAULT_GRID,
    DOMAIN_CENTER,
    GRID_CHUNK,
    START_ANGLE,
    TRIVIAL_GROUP,
    _entropy_of_rows,
    _entropy_values,
    _fundamental_domain,
    _half_gaps,
    _local_model,
    _lowest,
    _newton_on_circle,
    _newton_on_sphere,
    _orbit_representatives,
    _scan_extrema,
    _tangent_frames,
    _type_of_point,
    classify_inert_point,
    entropy_at,
    fibonacci_sphere,
    find_extrema,
    landscape,
    rectangle_bifurcation_threshold,
)
from hspovm.groups import generate_group
from hspovm.q5 import TAU

LN2 = math.log(2.0)


def eta(x):
    """Oracle: -x ln x, 0 at x <= 0."""
    return -x * math.log(x) if x > 0 else 0.0


def _entropy_by_definition(u, povm):
    """Independent oracle: H = sum_j eta(p_j) with p_j = (1 + u.v_j)/k."""
    dots = povm.matrix() @ np.asarray(u)
    return math.fsum(eta((1.0 + t) / povm.k) for t in dots)


class TestPointValues:
    def test_digon_pole_certain(self):
        p = povm_for("digon")
        assert entropy_at(BlochVector(0, 0, 1), p) == 0.0
        # the relative entropy ln k - H
        assert math.log(p.k) - entropy_at(BlochVector(0, 0, 1), p) == pytest.approx(LN2)

    def test_tetrahedron_antipode_is_ln3(self):
        p = povm_for("tetrahedron")
        value = entropy_at(-p.vectors[0], p)
        assert value == pytest.approx(math.log(3), abs=1e-12)
        assert value == pytest.approx(
            _entropy_by_definition(-p.vectors[0].as_array(), p), abs=1e-12)

    def test_octahedron_cube_direction(self):
        p = povm_for("octahedron")
        u = np.ones(3) / math.sqrt(3)
        value = entropy_at(BlochVector.from_array(u), p)
        assert value == pytest.approx(_entropy_by_definition(u, p), abs=1e-12)
        assert value == pytest.approx(1.6143190251316641, abs=1e-12)

    def test_square_vertex_half_ln2(self):
        p = make_hs_povm("n-gon", 4)
        assert math.log(p.k) - entropy_at(p.vectors[0], p) == pytest.approx(
            0.5 * LN2, abs=1e-12)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_matches_probability_definition(self, family):
        povm = povm_for(family)
        rng = np.random.default_rng(11)
        for _ in range(50):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            assert entropy_at(BlochVector.from_array(u), povm) == pytest.approx(
                _entropy_by_definition(u, povm), abs=1e-12)

    def test_alpha_kernels(self):
        povm = povm_for("tetrahedron")
        u = BlochVector(0, 0, 1)
        dots = povm.matrix() @ u.as_array()
        probs = (1.0 + dots) / povm.k
        for kernel in (EntropyKernel("renyi", 2.0), EntropyKernel("tsallis", 0.5)):
            assert entropy_at(u, povm, kernel) == pytest.approx(
                kernel.entropy(probs), abs=1e-12)


class TestInvariants:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_group_invariance(self, family):
        povm = povm_for(family)
        group = povm.rotation_group()
        rng = np.random.default_rng(13)
        mats = group.elements
        for _ in range(100):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            g = mats[rng.integers(0, len(mats))]
            a = entropy_at(BlochVector.from_array(u), povm)
            b = entropy_at(BlochVector.from_array(g @ u), povm)
            assert abs(a - b) < 1e-12

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_entropy_bounds(self, family):
        povm = povm_for(family)
        values = _entropy_values(fibonacci_sphere(2000), povm)
        assert values.min() >= math.log(povm.k / 2.0) - 1e-12
        assert values.max() <= math.log(povm.k) + 1e-12

    def test_concavity_in_state_space(self):
        povm = povm_for("cuboctahedron")
        rng = np.random.default_rng(17)
        for _ in range(1000):
            u1, u2 = rng.normal(size=(2, 3))
            u1 *= rng.uniform(0, 1) / np.linalg.norm(u1)   # mixed states
            u2 *= rng.uniform(0, 1) / np.linalg.norm(u2)
            lam = rng.uniform(0, 1)
            mix = lam * u1 + (1 - lam) * u2
            H_mix = _entropy_values(mix[None, :], povm)[0]
            H1 = _entropy_values(u1[None, :], povm)[0]
            H2 = _entropy_values(u2[None, :], povm)[0]
            assert H_mix >= lam * H1 + (1 - lam) * H2 - 1e-12

    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_coplanar_reduction(self, n):
        povm = make_hs_povm("n-gon", n)
        rng = np.random.default_rng(19)
        for _ in range(1000):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            projected = np.array([u[0], u[1], 0.0])
            a = _entropy_values(u[None, :], povm)[0]
            b = _entropy_values(projected[None, :], povm)[0]
            assert abs(a - b) < 1e-12


class TestFindExtrema:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_minima_are_antipodal_orbit(self, family):
        povm = povm_for(family)
        minima = find_extrema(povm, "min")
        antipodes = -povm.matrix()
        assert len(minima) == povm.k
        for point in minima:
            dist = np.min(np.linalg.norm(
                antipodes - point.location.as_array()[None, :], axis=1))
            assert 2 * math.asin(dist / 2) < 1e-6   # angular distance
            assert point.type_label == "I"

    def test_polygon_minima_on_circle(self):
        povm = make_hs_povm("n-gon", 5)
        minima = find_extrema(povm, "min")
        assert len(minima) == 5
        for point in minima:
            assert abs(point.location.z) < 1e-9

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            find_extrema(povm_for("digon"), "inflection")

    def test_max_mode_digon(self):
        maxima = find_extrema(povm_for("digon"), "max")
        assert all(abs(c.location.z) < 1e-6 for c in maxima)
        assert maxima[0].value == pytest.approx(LN2, abs=1e-9)

    @pytest.mark.parametrize("kernel", [SHANNON, EntropyKernel("renyi", 0.5),
                                        EntropyKernel("tsallis", 2.0)], ids=str)
    def test_max_of_a_pair_is_one_point_of_its_great_circle(self, kernel):
        # {v, -v}: p is uniform on the great circle orthogonal to v, so one
        # point of it is returned at the uniform value, without a scan; its
        # statistic is Shannon's, so no other kernel reports one
        for povm in (povm_for("digon"), make_hs_povm("2-gon")):
            (top,) = find_extrema(povm, "max", kernel=kernel)
            assert top.location.as_array() @ povm.matrix()[0] == 0.0
            assert top.value == kernel.entropy_of_dots(np.zeros(2), 2)
            assert top.type_label == "III"
            if kernel == SHANNON:
                assert top.classifier_statistic == 0.0
            else:
                assert math.isnan(top.classifier_statistic)

    def test_max_mode_cube_at_octahedron_vertices(self):
        # H for the cube POVM peaks on the 4-fold axes (the dual orbit)
        maxima = find_extrema(povm_for("cube"), "max", n_scan=50_000)
        assert len(maxima) == 6
        for point in maxima:
            coords = np.abs(point.location.as_array())
            assert np.sort(coords)[:2] == pytest.approx([0.0, 0.0], abs=1e-6)
            assert point.type_label == "II"
            assert point.classifier_statistic < 1.0

    def test_only_shannon_maxima_report_a_statistic(self):
        # s = 1 + tr Hess H is Shannon's: the cube's Renyi 1.4 maxima are
        # typed as its Shannon maxima, with no statistic
        cube = povm_for("cube")
        shannon = find_extrema(cube, "max", n_scan=20_000)
        renyi = find_extrema(cube, "max", n_scan=20_000, kernel=EntropyKernel("renyi", 1.4))
        assert [p.type_label for p in renyi] == [p.type_label for p in shannon] == ["II"] * 6
        assert {p.classifier_statistic for p in shannon} == {0.7603459963009466}
        assert all(math.isnan(p.classifier_statistic) for p in renyi)


class TestRectangle:
    def test_threshold_value(self):
        threshold = rectangle_bifurcation_threshold()
        assert threshold == pytest.approx(1.17056, abs=1e-5)
        residual = math.cos(threshold / 2) * math.log(
            math.tan(threshold / 4) ** 2) + 2.0
        assert abs(residual) < 1e-10

    def test_defining_function_bracket(self):
        f = lambda a: math.cos(a / 2) * math.log(math.tan(a / 4) ** 2) + 2.0
        assert f(0.5) * f(1.5) < 0.0

    def test_below_threshold_inert_minima(self):
        povm = make_rectangle_povm(0.8)
        minima = find_extrema(povm, "min")
        assert len(minima) == 2
        v1, v2 = povm.vectors[0].as_array(), povm.vectors[2].as_array()
        long_diag = (v1 + v2) / np.linalg.norm(v1 + v2)
        for point in minima:
            dist = min(np.linalg.norm(point.location.as_array() - s * long_diag)
                       for s in (1.0, -1.0))
            assert dist < 1e-6

    def test_above_threshold_non_inert_quadruple(self):
        povm = make_rectangle_povm(1.4)
        minima = find_extrema(povm, "min")
        assert len(minima) == 4
        v1, v2 = povm.vectors[0].as_array(), povm.vectors[2].as_array()
        inert = [(v1 + v2) / np.linalg.norm(v1 + v2),
                 (v1 - v2) / np.linalg.norm(v1 - v2)]
        for point in minima:
            assert point.type_label == "non-inert"
            for axis in inert:
                dist = min(np.linalg.norm(point.location.as_array() - s * axis)
                           for s in (1.0, -1.0))
                assert dist > 1e-3
        # symmetric about the long diagonal, in the polygon plane
        assert all(abs(p.location.z) < 1e-9 for p in minima)

    def test_inert_saddles_above_threshold(self):
        povm = make_rectangle_povm(1.4)
        v1, v2 = povm.vectors[0].as_array(), povm.vectors[2].as_array()
        for diag in (v1 + v2, v1 - v2):
            direction = diag / np.linalg.norm(diag)
            point = classify_inert_point(BlochVector.from_array(direction), povm)
            assert point.kind == "saddle"
            assert point.type_label == "III"
        poles = classify_inert_point(BlochVector(0, 0, 1), povm)
        assert poles.kind == "max"

    def test_type_one_locations_exact(self):
        # type-I minimizers coincide with the antipodal orbit to 1e-8
        for family in ("tetrahedron", "icosidodecahedron"):
            povm = povm_for(family)
            antipodes = -povm.matrix()
            for point in find_extrema(povm, "min"):
                assert point.type_label == "I"
                dist = np.min(np.linalg.norm(
                    antipodes - point.location.as_array()[None, :], axis=1))
                assert dist < 1e-8


class TestClassifier:
    def test_octahedron_antipode_type_one(self):
        povm = povm_for("octahedron")
        point = classify_inert_point(BlochVector(0, 0, -1), povm)
        assert point.kind == "min" and point.type_label == "I"

    def test_cube_povm_at_octahedron_vertex(self):
        # compare the one-line criterion against a finite-difference Hessian
        povm = povm_for("cube")
        u = np.array([0.0, 0.0, 1.0])
        point = classify_inert_point(BlochVector.from_array(u), povm)
        step = 1e-4
        direction = np.array([1.0, 0.0, 0.0])

        def along(delta):
            p = math.cos(delta) * u + math.sin(delta) * direction
            return _entropy_values(p[None, :], povm)[0]

        second = (along(step) - 2 * along(0.0) + along(-step)) / step**2
        assert point.type_label == "II"
        assert (point.kind == "min") == (second > 0)
        # quantitative agreement: d2 = (s - 1)/2 along any geodesic
        assert second == pytest.approx(
            (point.classifier_statistic - 1.0) / 2.0, abs=1e-5)

    def test_icosahedral_povm_at_dodecahedron_vertex(self):
        povm = povm_for("icosahedron")
        u = np.array([0.0, 1.0 / TAU, TAU]) / math.sqrt(3.0)
        point = classify_inert_point(BlochVector.from_array(u), povm)
        step = 1e-4
        direction = np.array([1.0, 0.0, 0.0])

        def along(delta):
            p = math.cos(delta) * u + math.sin(delta) * direction
            return _entropy_values(p[None, :], povm)[0]

        second = (along(step) - 2 * along(0.0) + along(-step)) / step**2
        assert (point.kind == "min") == (second > 0)

    def test_off_axis_rejected(self):
        povm = povm_for("octahedron")
        u = np.array([0.3, 0.5, 0.9])
        u /= np.linalg.norm(u)
        with pytest.raises(ValueError):
            classify_inert_point(BlochVector.from_array(u), povm)

    def test_polygon_pole_is_max(self):
        povm = make_hs_povm("n-gon", 5)
        point = classify_inert_point(BlochVector(0, 0, 1), povm)
        assert point.kind == "max"

    def test_tag_that_does_not_map_the_vectors_is_not_trusted(self):
        # the alpha = 1.0 rectangle labelled and tagged as the regular 4-gon:
        # the geometry makes it the rectangle, classified under its D2, where
        # its pole is a half-turn axis (type III) and its antipodes stay type I
        rectangle = make_rectangle_povm(1.0)
        povm = HsPovm(vectors=rectangle.vectors, family="4-gon", group="C_4")
        for u in (BlochVector(0, 0, 1), -rectangle.vectors[0]):
            assert repr(classify_inert_point(u, povm)) == repr(
                classify_inert_point(u, rectangle))
        assert classify_inert_point(BlochVector(0, 0, 1), povm).type_label == "III"
        assert classify_inert_point(-rectangle.vectors[0], povm).type_label == "I"

    @pytest.mark.parametrize("family", ("cube", "icosahedron"))
    def test_tolerance_is_the_one_of_find_extrema(self, family):
        # 1e-7 off an inert axis is that axis (type and kind); 1e-5 off is
        # no axis at all
        povm = povm_for(family)

        def off_axis(a, distance):
            p = a + distance * _tangent_frames(a[None, :])[0][0]
            return BlochVector.from_array(p / np.linalg.norm(p))

        for axis in inert_directions(povm):
            exact = classify_inert_point(axis, povm)
            near = classify_inert_point(off_axis(axis.as_array(), 1e-7), povm)
            assert (near.type_label, near.kind) == (exact.type_label, exact.kind)
            with pytest.raises(ValueError, match="not on a rotation axis"):
                classify_inert_point(off_axis(axis.as_array(), 1e-5), povm)

    @pytest.mark.parametrize("rotated", [False, True], ids=["canonical", "rotated"])
    def test_great_circle_of_a_pair_is_saddles(self, rotated):
        # the 2-gon's +-y and +-z, and the digon's +-x and +-y (the same pair
        # turned), lie on the great circle of maxima, flat along itself: the
        # Hessian's zero eigenvalue is rounding of either sign, and a saddle.
        # A pair's frame is any turn about it, so the points are carried by R
        q = _random_rotation(17) if rotated else np.eye(3)
        for name, axes in (("2-gon", (1, 2)), ("digon", (1, 2))):
            canonical = make_hs_povm(name)
            povm = HsPovm.from_json(json.dumps({"vectors": (canonical.matrix() @ q.T).tolist(),
                                                "family": name}))
            directions, rotation = inert_directions(canonical), povm.frame[1]
            for u in [sign * directions[i].as_array() for i in axes for sign in (1.0, -1.0)]:
                point = classify_inert_point(BlochVector.from_array(rotation @ u), povm)
                assert (point.type_label, point.kind) == ("III", "saddle"), (name, u)


class TestLandscape:
    def test_samples_and_bounds(self):
        povm = povm_for("octahedron")
        scape = landscape(povm, n_samples=500)
        assert len(scape.samples) == 500
        values = [v for _, v in scape.samples]
        assert min(values) >= math.log(3) - 1e-12
        assert max(values) <= math.log(6) + 1e-12

    def test_with_extrema(self):
        # the four minima of the tetrahedron bound the landscape from below
        povm = povm_for("tetrahedron")
        scape = landscape(povm, n_samples=100)
        extrema = find_extrema(povm, "min")
        assert len(extrema) == 4
        assert all(c.kind == "min" for c in extrema)
        assert min(v for _, v in scape.samples) >= max(c.value for c in extrema) - 1e-12

    @pytest.mark.parametrize("kind, alpha", [("renyi", 1.4), ("tsallis", 4.0)])
    def test_samples_follow_the_kernel(self, kind, alpha):
        # the samples are values of the kernel's functional
        povm, kernel = povm_for("cube"), EntropyKernel(kind, alpha)
        scape = landscape(povm, n_samples=500, kernel=kernel)
        for u, value in scape.samples[::25]:
            assert value == pytest.approx(entropy_at(u, povm, kernel), rel=1e-12)

    @pytest.mark.parametrize("kind, alpha", [("renyi", 1.4), ("tsallis", 4.0)])
    def test_extrema_follow_the_kernel(self, kind, alpha):
        # the minima are values of the kernel's functional, and no sample of
        # it lies below them
        povm, kernel = povm_for("cube"), EntropyKernel(kind, alpha)
        scape = landscape(povm, n_samples=500, kernel=kernel)
        expected = find_extrema(povm, "min", kernel=kernel)
        for c in expected:
            assert c.value == pytest.approx(entropy_at(c.location, povm, kernel), rel=1e-12)
        assert min(v for _, v in scape.samples) >= min(c.value for c in expected) - 1e-12


def _random_rotation(seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def _assert_antipodal_orbit(minima, coords):
    antipodes = -coords
    assert len(minima) == len(coords)
    located = np.array([c.location.as_array() for c in minima])
    gaps = np.linalg.norm(located[:, None, :] - antipodes[None, :, :], axis=2)
    assert np.max(np.min(gaps, axis=1)) < 1e-6     # every minimum is an antipode
    assert np.max(np.min(gaps, axis=0)) < 1e-6     # every antipode is found
    assert all(c.type_label == "I" and c.converged for c in minima)


class TestOrbitReduction:
    def test_tagged_group_checked_on_geometry(self):
        assert povm_for("cube").symmetry_group.order == 24
        assert povm_for("icosidodecahedron").symmetry_group.order == 60

    @pytest.mark.parametrize("family", ["tetrahedron", "cube"])
    def test_untagged_rotated_input_keeps_full_orbit(self, family):
        # the file carries no tag; its geometry gives the member's group
        coords = povm_for(family).matrix() @ _random_rotation(3).T
        povm = HsPovm.from_json(json.dumps({"vectors": coords.tolist(),
                                            "family": family}))
        assert povm.group == ""
        assert povm.symmetry_group.order == povm_for(family).symmetry_group.order
        _assert_antipodal_orbit(find_extrema(povm, "min"), povm.matrix())

    def test_frame_checked_once_per_povm(self, monkeypatch):
        checks = []
        check = catalog._is_rotated_copy
        monkeypatch.setattr(catalog, "_is_rotated_copy", lambda coords, reference: (
            checks.append(len(coords)) or check(coords, reference)))
        canonical = make_hs_povm("cube")
        rotated = HsPovm.from_json(json.dumps({
            "vectors": (canonical.matrix() @ _random_rotation(5).T).tolist(),
            "family": "cube"}))
        assert checks == []             # loading does no geometry work
        for povm in (canonical, rotated):
            find_extrema(povm, "min", n_scan=2000)
            find_extrema(povm, "max", n_scan=2000)
            classify_inert_point(inert_directions(povm)[0], povm)
        assert checks == [8]            # the canonical cube is its member

    def test_group_tag_does_not_decide_the_symmetry(self):
        coords = povm_for("cube").matrix() @ _random_rotation(5).T
        vectors = tuple(BlochVector.from_array(v) for v in coords)
        for group in ("O", "T", ""):
            povm = HsPovm(vectors=vectors, family="cube", group=group)
            assert povm.symmetry_group.order == 24
            _assert_antipodal_orbit(find_extrema(povm, "min"), povm.matrix())
        assert HsPovm(vectors=vectors, family="custom", group="O").symmetry_group.order == 24

    def test_max_mode_cube_default_scan(self):
        maxima = find_extrema(povm_for("cube"), "max")
        assert len(maxima) == 6
        for point in maxima:
            assert np.sort(np.abs(point.location.as_array()))[:2] == pytest.approx(
                [0.0, 0.0], abs=1e-6)
            assert point.type_label == "II"

    def test_renyi_minima_are_antipodal_orbit(self):
        povm = povm_for("cube")
        minima = find_extrema(povm, "min", kernel=EntropyKernel("renyi", 1.4))
        _assert_antipodal_orbit(minima, povm.matrix())


class TestCoplanarMaxima:
    """The maxima of a set spanning a plane are the plane's two unit
    normals, where every outcome has probability 1/k, in any orientation
    and under every kernel."""

    KERNELS = [SHANNON, EntropyKernel("renyi", 0.5), EntropyKernel("renyi", 1.3),
               EntropyKernel("tsallis", 0.8)]
    SETS = {**{f"{n}-gon": (lambda n=n: make_hs_povm(f"{n}-gon")) for n in range(3, 13)},
            "rectangle 0.8": lambda: make_rectangle_povm(0.8),
            "rectangle 1.4": lambda: make_rectangle_povm(1.4)}
    LATTICE = fibonacci_sphere(20_000)

    @staticmethod
    def _uniform_entropy(k, kernel):
        if kernel.kind == "tsallis":
            return (1.0 - k ** (1.0 - kernel.alpha)) / (kernel.alpha - 1.0)
        return math.log(k)                              # Shannon and Renyi

    @pytest.mark.parametrize("kernel", KERNELS, ids=str)
    @pytest.mark.parametrize("name", list(SETS))
    def test_normals_at_the_uniform_value(self, name, kernel):
        canonical = self.SETS[name]()
        rotated = HsPovm.from_json(json.dumps({
            "vectors": (canonical.matrix() @ _random_rotation(7).T).tolist(),
            "family": canonical.family}))
        uniform = self._uniform_entropy(canonical.k, kernel)
        for povm in (canonical, rotated):
            maxima = find_extrema(povm, "max", kernel=kernel)
            normals = np.array([c.location.as_array() for c in maxima])
            assert len(maxima) == 2
            assert np.max(np.abs(normals @ povm.matrix().T)) < 1e-12
            assert normals[0] == pytest.approx(-normals[1], abs=1e-15)
            for point in maxima:
                assert point.kind == "max" and point.converged
                assert point.value == pytest.approx(uniform, abs=1e-12)
            # no point of the sphere is higher
            assert np.max(_entropy_values(self.LATTICE, povm, kernel)) <= uniform + 1e-12


class TestCircleSearchWork:
    """The circle path scans one arc, the Dirichlet cell of the group, and
    starts one Newton refinement per orbit of minima, whose images under
    the group are the located minima."""

    @pytest.mark.parametrize("alpha, minima", [(0.8, 2), (1.4, 4)],
                             ids=["below bifurcation", "above bifurcation"])
    def test_one_search_per_orbit(self, monkeypatch, alpha, minima):
        starts = []
        refine = entropy._newton_on_circle
        monkeypatch.setattr(entropy, "_newton_on_circle", lambda phi, *args: (
            starts.append(len(phi)) or refine(phi, *args)))
        located = find_extrema(make_rectangle_povm(alpha), "min")
        assert starts == [1] and len(located) == minima

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 12])
    def test_arc_is_the_cell_padded_by_two_steps(self, n):
        # the circle point at phi = 1 lies in the cell of D_n between the
        # mirrors at pi j/n and pi (j + 1)/n; the rectangle's D2 is D_2
        povm = make_rectangle_povm(0.8) if n == 2 else make_hs_povm("n-gon", n)
        a, b, grid = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), 12_500
        spacing, j = 2 * math.pi / grid, math.floor(n / math.pi)
        arc = entropy._circle_arc(povm.symmetry_group, a, b, grid)
        assert -3 * spacing - 1e-12 <= arc[0] * spacing - math.pi * j / n <= -2 * spacing
        assert 2 * spacing <= arc[-1] * spacing - math.pi * (j + 1) / n <= 3 * spacing + 1e-12
        assert np.array_equal(entropy._circle_arc(TRIVIAL_GROUP, a, b, grid),
                              np.arange(-1, grid + 1))

    def test_grid_is_built_once(self, monkeypatch):
        # every canonical rectangle has the z = 0 circle and D2: one grid
        # for both angles and a repeat, and the same output after a clear
        entropy._circle_grid.cache_clear()
        arcs = []
        arc = entropy._circle_arc
        monkeypatch.setattr(entropy, "_circle_arc", lambda *args: arcs.append(args) or arc(*args))

        def located():
            return [repr(find_extrema(make_rectangle_povm(alpha), "min")) for alpha in (0.8, 1.4)]

        first = located()
        assert located() == first and len(arcs) == 1
        entropy._circle_grid.cache_clear()
        assert located() == first and len(arcs) == 2

    def test_grid_and_normal_refuse_writes(self):
        normal = make_rectangle_povm(0.8).plane_normal
        for array in (normal, *entropy._circle_grid(12_500, "D2", normal.tobytes())):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


class TestNewtonRefinement:
    """The refinements run all their starts at once, in a few rounds."""

    def test_no_starts(self):
        a, b = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
        coords = make_rectangle_povm(1.4).matrix()
        phi, converged = _newton_on_circle(np.empty(0), 1e-3, a, b, coords, SHANNON, 1.0)
        assert phi.shape == converged.shape == (0,)
        points, converged = _newton_on_sphere(np.empty((0, 3)), coords, SHANNON, 1.0)
        assert points.shape == (0, 3) and converged.shape == (0,)

    @pytest.mark.parametrize("alpha", [0.8, 1.1, 1.4])
    def test_circle_search_in_at_most_four_rounds(self, monkeypatch, alpha):
        # the Shannon rectangle's minima, on either side of the bifurcation
        povm = make_rectangle_povm(alpha)
        calls = []
        refine = entropy._newton_on_circle
        monkeypatch.setattr(entropy, "_newton_on_circle", lambda *args: (
            calls.append(args) or refine(*args)))
        find_extrema(povm, "min")
        [args] = calls
        full = refine(*args)
        monkeypatch.setattr(entropy, "NEWTON_MAXITER", 4)
        phi, converged = refine(*args)
        assert converged.all() and phi.tobytes() == full[0].tobytes()

    def test_convergence_is_reported(self, monkeypatch):
        # a cube maximum from a start 0.38 rad off it: reached within the
        # cap, and reported unconverged when the cap is one round
        start, coords = np.array([[0.3, 0.2, 0.9]]), povm_for("cube").matrix()
        point, converged = _newton_on_sphere(start, coords, SHANNON, -1.0)
        assert converged.all() and np.abs(point[0]) == pytest.approx([0, 0, 1], abs=1e-14)
        monkeypatch.setattr(entropy, "NEWTON_MAXITER", 1)
        _, capped = _newton_on_sphere(start, coords, SHANNON, -1.0)
        assert not capped.any()


def _one_start_at_a_time(refine):
    """A stand-in for a Newton refinement that runs each start alone and
    stacks the results."""
    def drive(starts, *args):
        runs = [refine(starts[i:i + 1], *args) for i in range(len(starts))]
        return tuple(np.concatenate(parts) for parts in zip(*runs))
    return drive


CIRCLE_INPUTS = {"5-gon": lambda: make_hs_povm("n-gon", 5),
                 "6-gon": lambda: make_hs_povm("n-gon", 6),
                 "rectangle 0.8": lambda: make_rectangle_povm(0.8),
                 "rectangle 1.4": lambda: make_rectangle_povm(1.4)}
REFINEMENTS = ("_newton_on_sphere", "_newton_on_circle")


@pytest.mark.parametrize("kernel", [EntropyKernel("shannon"), EntropyKernel("renyi", 1.3),
                                    EntropyKernel("tsallis", 0.8)], ids=str)
@pytest.mark.parametrize("mode", ["min", "max"])
@pytest.mark.parametrize("name", POLYHEDRA + tuple(CIRCLE_INPUTS))
def test_newton_batch_equals_one_at_a_time(monkeypatch, name, mode, kernel):
    """Refining every start of a scan at once, one kernel call per round,
    gives each start the same bits as refining it alone."""
    povm = CIRCLE_INPUTS[name]() if name in CIRCLE_INPUTS else povm_for(name)
    originals = {refine: getattr(entropy, refine) for refine in REFINEMENTS}
    runs = []
    for alone in (False, True):
        refined = []
        for refine, original in originals.items():
            refiner = _one_start_at_a_time(original) if alone else original

            def recording(starts, *args, refiner=refiner, refined=refined):
                result = refiner(starts, *args)
                refined.append([part.tobytes() for part in result])
                return result

            monkeypatch.setattr(entropy, refine, recording)
        located = _scan_extrema(povm, mode, 20_000, kernel, 2000)
        runs.append((refined, repr(located)))
    assert runs[0] == runs[1]
    [[points, converged]] = runs[0][0]
    assert points and np.frombuffer(converged, dtype=bool).all()


def _riemannian_derivatives(u, povm, kernel):
    """The Riemannian gradient (a 3-vector) and Hessian (its two eigenvalues
    on the tangent plane) at the unit vector u of S(u) = sum_j h(u . v_j),
    which H increases with under every kernel, from closed forms of h' and
    h'' written out here: h(t) = f(x) with x = (1 + t)/2, f = -x ln x or
    (x - x^a)/(a - 1)."""
    coords = povm.matrix()
    x = (1.0 + coords @ u) / 2.0
    if kernel.kind == "shannon":
        d1, d2 = -(np.log(x) + 1.0) / 2.0, -1.0 / (4.0 * x)
    else:
        a = kernel.alpha
        d1, d2 = (1.0 - a * x ** (a - 1.0)) / (2.0 * (a - 1.0)), -a * x ** (a - 2.0) / 4.0
    euclidean = d1 @ coords
    tangent = np.linalg.svd(u[None, :])[2][1:]             # rows: a basis of u's plane
    hessian = (tangent @ coords.T * d2) @ (coords @ tangent.T) - (u @ euclidean) * np.eye(2)
    return euclidean - (u @ euclidean) * u, np.linalg.eigvalsh(hessian)


CRITICAL_KERNELS = [SHANNON, EntropyKernel("tsallis", 0.8), EntropyKernel("renyi", 1.3)]
CRITICAL_INPUTS = {
    **{f"{name} max": (lambda name=name: povm_for(name), "max", CRITICAL_KERNELS)
       for name in ALL_FAMILIES},
    **{f"rectangle {a} min": (lambda a=a: make_rectangle_povm(a), "min", CRITICAL_KERNELS)
       for a in (0.8, 1.1, 1.4)},
    # orders between the circle designs' 2 and 3 that the certificate leaves open
    **{f"{n}-gon min": (lambda n=n: make_hs_povm("n-gon", n), "min",
                        [EntropyKernel("tsallis", 2.5), EntropyKernel("renyi", 2.5)])
       for n in range(3, 13)},
}


@pytest.mark.parametrize("name", list(CRITICAL_INPUTS))
def test_refined_extrema_are_critical_points(name):
    """Every located extremum off the antipodes is a critical point of H to
    1e-12, with the Hessian's sign of its kind: definite where the scan
    refined it, semidefinite on a pair's circle of maxima."""
    make, mode, kernels = CRITICAL_INPUTS[name]
    povm = make()
    for kernel in kernels:
        if mode == "min":
            assert not entropy._antipodes_certified(povm, kernel)
        located = find_extrema(povm, mode, kernel=kernel)
        assert located
        for point in located:
            assert point.kind == mode and point.converged
            if point.type_label == "I":
                continue
            gradient, curvatures = _riemannian_derivatives(point.location.as_array(),
                                                           povm, kernel)
            assert np.linalg.norm(gradient) <= 1e-12, (kernel, point)
            signed = curvatures if mode == "min" else -curvatures
            if povm.k == 2:                 # constant along the circle of maxima
                assert np.min(np.abs(curvatures)) <= 1e-12 and np.max(signed) > 0.0
            else:
                assert np.min(signed) > 0.0, (kernel, point, curvatures)


def _thinning_by_loop(points, group, angle):
    """Greedy thinning one candidate at a time against the stacked group
    images of the points already kept."""
    mats = group.elements
    threshold = math.cos(angle)
    taken = np.empty((0, 3))
    kept = []
    for i, p in enumerate(points):
        if len(taken) and np.max(taken @ p) > threshold:
            continue
        kept.append(i)
        taken = np.concatenate([taken, mats @ p])
    return kept


class TestVectorizedThinning:
    GROUPS = {"T": generate_group("T"), "O": generate_group("O"),
              "I": generate_group("I"), "C_5": generate_group("C", 5),
              "trivial": TRIVIAL_GROUP}

    @pytest.mark.parametrize("name", list(GROUPS))
    @pytest.mark.parametrize("angle", [START_ANGLE, CLUSTER_ANGLE])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_loop_reference(self, name, angle, seed):
        rng = np.random.default_rng(seed)
        group = self.GROUPS[name]
        # a patch of candidates, with near-copies and exact group images
        points = rng.normal(size=(400, 3)) * 0.3 + np.array([0.2, -0.4, 1.0])
        points /= np.linalg.norm(points, axis=1)[:, None]
        images = group.elements[rng.integers(group.order, size=100)]
        near = points[:100] + rng.normal(size=(100, 3)) * angle * 0.5
        near /= np.linalg.norm(near, axis=1)[:, None]
        points = np.vstack([points, np.einsum("nij,nj->ni", images, points[:100]), near])
        points = points[rng.permutation(len(points))]
        kept = _orbit_representatives(points, group, angle)
        assert kept == _thinning_by_loop(points, group, angle)
        assert all(isinstance(i, int) for i in kept)

    def test_single_and_empty(self):
        assert _orbit_representatives(np.array([[0.0, 0.0, 1.0]]), TRIVIAL_GROUP,
                                      START_ANGLE) == [0]
        assert _orbit_representatives(np.empty((0, 3)), TRIVIAL_GROUP, START_ANGLE) == []


@pytest.mark.parametrize("n", [0, 1, 2, 777, 200_000])
def test_fibonacci_sphere_equals_column_stack_reference(n):
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n if n else np.empty(0)
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    reference = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    points = fibonacci_sphere(n)
    assert points.shape == (n, 3) and points.tobytes() == reference.tobytes()


class TestFundamentalDomain:
    @pytest.mark.parametrize("n", [1, 2, 777, GRID_CHUNK, 3 * GRID_CHUNK + 5, 20_000])
    def test_trivial_group_domain_is_the_lattice(self, n):
        domain = _fundamental_domain(n, "C_1")
        assert domain.tobytes() == fibonacci_sphere(n).tobytes()
        assert not domain.flags.writeable

    @pytest.mark.parametrize("tag", ["D2", "C_5", "T", "O", "I"])
    def test_domain_is_the_dirichlet_cell_of_the_lattice(self, tag):
        n = 3 * GRID_CHUNK + 5
        group = _group_of_tag(tag)
        points = fibonacci_sphere(n)
        normals = DOMAIN_CENTER - group.elements @ DOMAIN_CENTER
        inside = np.all(normals @ points.T >= 0.0, axis=0)     # every image at once
        domain = _fundamental_domain(n, tag)
        assert domain.tobytes() == points[inside].tobytes()
        assert abs(len(domain) * group.order - n) < 0.01 * n

    @pytest.mark.parametrize("kernel", [EntropyKernel("shannon"), EntropyKernel("renyi", 1.3),
                                        EntropyKernel("tsallis", 0.8)], ids=str)
    @pytest.mark.parametrize("mode", ["min", "max"])
    @pytest.mark.parametrize("family", POLYHEDRA)
    def test_extrema_equal_the_trivial_group_scan(self, family, mode, kernel):
        povm = povm_for(family)
        custom = HsPovm(vectors=povm.vectors, family="custom")
        custom.__dict__["frame"] = None         # no frame: the trivial group
        assert custom.symmetry_group.order == 1
        found, reference = (
            np.array([c.location.as_array() for c in
                      _scan_extrema(p, mode, 20_000, kernel, 100)])
            for p in (povm, custom))
        assert len(found) == len(reference)
        gaps = np.linalg.norm(found[:, None, :] - reference[None, :, :], axis=2)
        assert np.max(np.min(gaps, axis=1)) < 1e-5
        assert np.max(np.min(gaps, axis=0)) < 1e-5


def _counted_scans(monkeypatch) -> list:
    """Wrap the scan of find_extrema so that each call records its mode."""
    calls = []
    scan = entropy._scan_extrema

    def counted(povm, mode, *args):
        calls.append(mode)
        return scan(povm, mode, *args)

    monkeypatch.setattr(entropy, "_scan_extrema", counted)
    return calls


class TestCertifiedMinima:
    """The minima of a POVM whose certificate proves the antipodal orbit to
    be the whole set of global minimizers are that orbit, found without a
    scan; every other input is scanned."""

    KERNELS = [EntropyKernel("shannon"), EntropyKernel("renyi", 1.3),
               EntropyKernel("tsallis", 0.8)]

    @pytest.mark.parametrize("kernel", KERNELS, ids=str)
    @pytest.mark.parametrize("family", ALL_FAMILIES + tuple(f"{n}-gon" for n in range(3, 13)))
    def test_certificate_answer_equals_the_scan(self, monkeypatch, family, kernel):
        povm = povm_for(family)
        scanned = repr(_scan_extrema(povm, "min", DEFAULT_GRID, kernel, 2000))
        calls = _counted_scans(monkeypatch)
        assert repr(find_extrema(povm, "min", kernel=kernel)) == scanned
        assert calls == []

    @pytest.mark.parametrize("n", [3, 8, 9])
    def test_polygon_minima_below_alpha_one_are_the_whole_orbit(self, n):
        # the scan alone returns 1 of the 3, 4 of the 8 and 1 of the 9 minima
        povm = povm_for(f"{n}-gon")
        minima = find_extrema(povm, "min", kernel=EntropyKernel("tsallis", 0.3))
        assert len(minima) == n
        assert {c.location for c in minima} == {-v for v in povm.vectors}
        assert np.ptp([c.value for c in minima]) < 1e-12
        assert all(c.type_label == "I" and c.converged for c in minima)

    def test_antipodes_built_once_per_povm(self):
        # every call returns the same location objects, so results kept
        # across many calls do not each hold k new vectors
        povm = povm_for("cube")
        first, second = find_extrema(povm, "min"), find_extrema(povm, "min")
        assert all(a.location is b.location for a, b in zip(first, second))

    def test_rotated_file_is_certified_without_a_scan(self, monkeypatch):
        # the rotated cube's frame is the registry cube and R, which the
        # certificate and the symmetry group share
        povm = HsPovm.from_json(json.dumps({
            "vectors": (povm_for("cube").matrix() @ _random_rotation(3).T).tolist(),
            "family": "cube"}))
        assert povm.symmetry_group.order == 24
        with monkeypatch.context() as patch:        # the scan, on the member
            patch.setattr(entropy, "_antipodes_certified", lambda povm, kernel: False)
            scanned = repr(find_extrema(povm, "min"))
        calls = _counted_scans(monkeypatch)
        assert repr(find_extrema(povm, "min")) == scanned
        assert calls == []

    UNCERTIFIED = {
        "max": lambda: (povm_for("cube"), "max", SHANNON),
        "rectangle 0.8": lambda: (make_rectangle_povm(0.8), "min", SHANNON),
        "rectangle 1.4": lambda: (make_rectangle_povm(1.4), "min", SHANNON),
        # remainder negative: p exceeds h off the nodes
        "cube renyi 2.5": lambda: (povm_for("cube"), "min", EntropyKernel("renyi", 2.5)),
        # p reproduces h: the minimizers are not isolated
        "cube tsallis 2": lambda: (povm_for("cube"), "min", EntropyKernel("tsallis", 2.0)),
        "rectangle tagged 4-gon": lambda: (HsPovm(
            vectors=make_rectangle_povm(1.0).vectors, family="4-gon", group="C_4"),
            "min", SHANNON),
    }

    @pytest.mark.parametrize("label", list(UNCERTIFIED))
    def test_uncertified_inputs_are_scanned(self, monkeypatch, label):
        povm, mode, kernel = self.UNCERTIFIED[label]()
        calls = _counted_scans(monkeypatch)
        assert find_extrema(povm, mode, n_scan=20_000, kernel=kernel)
        assert calls == [mode]

    # the geometry names the family, whatever the label or tag: the cube's
    # own vectors, and the octahedron's labelled and tagged tetrahedron (T
    # maps them onto themselves), are certified as their member
    LABELS_THAT_DO_NOT_DECIDE = {
        "untagged custom": lambda: (HsPovm(vectors=povm_for("cube").vectors,
                                           family="custom"), "cube"),
        "octahedron tagged tetrahedron": lambda: (HsPovm(
            vectors=povm_for("octahedron").vectors, family="tetrahedron", group="T"),
            "octahedron"),
    }

    @pytest.mark.parametrize("label", list(LABELS_THAT_DO_NOT_DECIDE))
    def test_members_under_another_label_are_certified(self, monkeypatch, label):
        povm, family = self.LABELS_THAT_DO_NOT_DECIDE[label]()
        calls = _counted_scans(monkeypatch)
        assert repr(find_extrema(povm, "min", n_scan=20_000)) == repr(
            find_extrema(povm_for(family), "min"))
        assert calls == []

    @pytest.mark.parametrize("refusal", ["ValueError", "AmbiguousSignError"])
    def test_refused_certificate_falls_back_to_the_scan(self, monkeypatch, refusal):
        # a refused input, or a certificate whose interval signs stay
        # undecided at the top of the precision ladder (every invariant
        # family at 8 bits), proves nothing: the minima come from the scan
        def refuse(povm, kernel):
            raise ValueError("refused")

        families = ["cube"]
        if refusal == "ValueError":
            monkeypatch.setattr(certificate, "certify_minimum", refuse)
        else:
            families += ["cuboctahedron", "dodecahedron", "icosidodecahedron"]
            monkeypatch.setattr(certificate, "INTERVAL_PRECISIONS", (8,))
        calls = _counted_scans(monkeypatch)
        certificate._member_certificate.cache_clear()
        try:
            for family in families:
                _assert_antipodal_orbit(find_extrema(povm_for(family), "min", n_scan=20_000),
                                        povm_for(family).matrix())
        finally:
            certificate._member_certificate.cache_clear()   # no undecided verdict outlives the patch
        assert calls == ["min"] * len(families)

    def test_other_certificate_errors_propagate(self, monkeypatch):
        def fail(povm, kernel):
            raise ZeroDivisionError("internal")

        monkeypatch.setattr(certificate, "certify_minimum", fail)
        with pytest.raises(ZeroDivisionError):
            find_extrema(povm_for("cube"), "min", n_scan=20_000)


def test_entropy_of_rows_equals_point_objective():
    """The trial points of the local searches and the refined images are
    evaluated in one kernel call; each value must equal the single-point
    objective bit for bit, also in the 1- to 3-row batches of the last
    rounds of the searches."""
    rng = np.random.default_rng(5)
    for family in ALL_FAMILIES:
        povm = povm_for(family)
        coords, k = povm.matrix(), povm.k
        points = rng.normal(size=(40, 3))
        points /= np.linalg.norm(points, axis=1)[:, None]
        points = np.concatenate([povm.symmetry_group.elements @ p for p in points]
                                + [-coords.astype(float)])
        for kernel in TestPointKernel.KERNELS:
            single = np.array([kernel.entropy_of_dots(coords @ p, k) for p in points])
            for size in (1, 2, 3, len(points)):
                rows = np.concatenate([_entropy_of_rows(points[i:i + size], coords, k, kernel)
                                       for i in range(0, len(points), size)])
                assert rows.tobytes() == single.tobytes()


def _tangent_frames_by_np_cross(points):
    axes = np.where(np.abs(points[:, :1]) < 0.9, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    e1 = np.cross(points, axes)
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    return e1, np.cross(points, e1)


def test_tangent_frames_equal_np_cross():
    # byte for byte, so signed zeros count: random unit rows, the six +-axes
    # (float and int) and signed-zero axes; a one-row call gives the bits of
    # the same row of the batch
    centres = np.random.default_rng(3).normal(size=(5000, 3))
    centres /= np.linalg.norm(centres, axis=1)[:, None]
    axes = np.array([[0, 0, 1], [0, 0, -1], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]])
    signed = np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, -1.0], [-0.0, -1.0, -0.0],
                       [1.0, -0.0, 0.0]])
    for points in (centres, axes.astype(float), axes, signed):
        frame, reference = _tangent_frames(points), _tangent_frames_by_np_cross(points)
        assert [e.tobytes() for e in frame] == [e.tobytes() for e in reference]
        for i in range(0, len(points), 97):
            row = _tangent_frames(points[i:i + 1])
            assert [e.tobytes() for e in row] == [e[i:i + 1].tobytes() for e in frame]


def _second_difference_by_points(u, direction, povm, step=1e-4):
    def at(delta):
        p = math.cos(delta) * u + math.sin(delta) * direction
        return _entropy_values(p[None, :], povm)[0]

    return (at(step) - 2.0 * at(0.0) + at(-step)) / (step * step)


def _inert_povms(family, n_rectangles):
    """The POVMs of one part of the catalog: a member, the 3- to 12-gons or
    ``n_rectangles`` rectangles at angles spread over (0, pi)."""
    if family == "n-gons":
        return [povm_for(f"{n}-gon") for n in range(3, 13)]
    if family == "rectangles":
        return [make_rectangle_povm(a)
                for a in math.pi * np.arange(1, n_rectangles + 1) / (n_rectangles + 1)]
    return [povm_for(family)]


def _inert_points(family, n_rectangles, labels):
    """(POVM, point, statistic) for each inert direction of the part of the
    catalog whose type is among ``labels``."""
    for povm in _inert_povms(family, n_rectangles):
        for u in inert_directions(povm):
            label, stat, _ = _type_of_point(u, povm, povm.symmetry_group)
            if label in labels:
                yield povm, u, stat


INERT_PARTS = ALL_FAMILIES + ("n-gons", "rectangles")


@pytest.mark.parametrize("family", INERT_PARTS)
def test_statistic_is_one_plus_the_trace_of_the_hessian(family):
    """The paper's statistic s = (2/k) sum_j t_j ln(1 + t_j) is 1 + tr Hess H,
    and Hess H is 2/k times the Hessian of the local model (sum_j t_j = 0)."""
    _, d1, d2 = SHANNON.summand_at_x(float, np.log)
    points = list(_inert_points(family, 30, ("II", "III")))
    assert points
    for povm, u, stat in points:
        arr, coords = u.as_array()[None, :], povm.matrix()
        x = _half_gaps(arr, coords)
        _, hessian = _local_model(coords, _tangent_frames(arr), x, d1(x), d2(x))
        trace = 2.0 / povm.k * (hessian[0][0][0] + hessian[1][1][0])
        assert abs(stat - 1.0 - trace) <= 1e-12


@pytest.mark.parametrize("family", INERT_PARTS)
def test_type_iii_kind_matches_the_geodesic_fan(family):
    """A type III point's kind, from the signs of the Hessian's eigenvalues,
    is the one second differences of H (step 1e-4) give along 8 geodesics
    evenly spread over the tangent plane: min if all exceed 1e-7, max if all
    are below -1e-7, saddle otherwise."""
    points = list(_inert_points(family, 200, ("III",)))
    # their 2-fold inert direction is a vertex, and so its antipode (type I)
    assert points or family in ("cuboctahedron", "icosidodecahedron")
    for povm, u, _ in points:
        arr = u.as_array()
        (e1,), (e2,) = _tangent_frames(arr[None, :])
        fan = [math.cos(j * math.pi / 8) * e1 + math.sin(j * math.pi / 8) * e2 for j in range(8)]
        curvatures = np.array([_second_difference_by_points(arr, d, povm) for d in fan])
        expected = ("min" if np.all(curvatures > 1e-7) else
                    "max" if np.all(curvatures < -1e-7) else "saddle")
        assert classify_inert_point(u, povm).kind == expected


def _kind_by_eigenvalues(u, coords):
    """The kind at u from numpy's eigenvalues of the local model's Hessian,
    one within k eps sum_j (|h'| + |h''|) of zero making a saddle."""
    _, d1, d2 = SHANNON.summand_at_x(float, np.log)
    x = _half_gaps(u[None, :], coords)
    h1, h2 = d1(x), d2(x)
    _, hessian = _local_model(coords, _tangent_frames(u[None, :]), x, h1, h2)
    low, high = np.linalg.eigvalsh([[hessian[a][b][0] for b in range(2)] for a in range(2)])
    if min(abs(low), abs(high)) <= len(coords) * np.finfo(float).eps * np.sum(abs(h1) + abs(h2)):
        return "saddle"
    return "min" if low > 0.0 else "max" if high < 0.0 else "saddle"


TYPE_THREE_INPUTS = {**{name: (lambda name=name: make_hs_povm(name))
                        for name in (*ALL_FAMILIES, *(f"{n}-gon" for n in range(2, 13)))},
                     **{f"rectangle {alpha}": (lambda alpha=alpha: make_rectangle_povm(alpha))
                        for alpha in (0.7, 1.4)}}


def _axis_points(group) -> np.ndarray:
    """+-the axis of each element but the identity: numpy's eigenvector of
    eigenvalue 1."""
    axes = []
    for g in group.elements:
        if np.trace(g) < 3.0 - 1e-9:
            values, vectors = np.linalg.eig(g)
            axis = np.real(vectors[:, np.argmin(np.abs(values - 1.0))])
            axes += [axis / np.linalg.norm(axis), -axis / np.linalg.norm(axis)]
    return np.array(axes)


@pytest.mark.parametrize("name", list(TYPE_THREE_INPUTS))
def test_type_three_kinds_are_orbit_invariants(monkeypatch, name):
    """The kind of the table at each type III direction s of a member holds
    at every image R g s, canonical (R = 1) and in a rotated file, by the
    Hessian there; those images are every type III axis point; the pair's
    flat great circle is saddles; and a repeated classification forms no
    Hessian."""
    canonical = TYPE_THREE_INPUTS[name]()
    rotated = HsPovm.from_json(json.dumps({
        "vectors": (canonical.matrix() @ _random_rotation(31).T).tolist(),
        "family": canonical.family}))
    member = canonical.frame[0]
    seeds, kinds = entropy._type_three_kinds(member)
    # the cuboctahedron's and icosidodecahedron's 2-fold direction is a
    # vertex, and so its antipode (type I)
    assert kinds or name in ("cuboctahedron", "icosidodecahedron")
    if name in ("digon", "2-gon"):
        assert kinds == ("saddle", "saddle")
    group = member.symmetry_group
    images = np.array([group.elements @ s for s in seeds]).reshape(-1, 3)
    for u in _axis_points(group):
        if _type_of_point(BlochVector.from_array(u), member, group)[0] == "III":
            assert np.min(np.linalg.norm(images - u, axis=1)) < 1e-9
    cases = []
    for povm in (canonical, rotated):
        rotation = povm.frame[1]
        for s, kind in zip(seeds, kinds):
            for u in (group.elements @ s) @ rotation.T:
                assert _kind_by_eigenvalues(u, povm.matrix()) == kind
                cases.append((BlochVector.from_array(u), povm, kind))
    first = [classify_inert_point(u, povm) for u, povm, _ in cases]
    assert [(c.type_label, c.kind) for c in first] == [("III", kind) for _, _, kind in cases]
    hessians = []
    local_model = entropy._local_model
    monkeypatch.setattr(entropy, "_local_model", lambda *args: hessians.append(args)
                        or local_model(*args))
    assert [classify_inert_point(u, povm) for u, povm, _ in cases] == first
    assert hessians == []


def _type_by_loop(u, povm, group):
    """The classifier of find_extrema with the stabilizer found by a loop over
    the group elements."""
    arr = u.as_array()
    coords = povm.matrix()
    if np.min(np.linalg.norm(coords + arr[None, :], axis=1)) < 1e-6:
        return "I"
    if group.order == 1:
        return "non-inert"
    fixing = [m for m in group.elements if np.linalg.norm(m @ arr - arr) < 1e-6]
    on_orbit = np.min(np.linalg.norm(coords - arr[None, :], axis=1)) < 1e-6
    if len(fixing) < 2 and not on_orbit:
        return "non-inert"
    angles = [math.acos(min(1.0, max(-1.0, (np.trace(m) - 1.0) / 2.0))) for m in fixing]
    return "II" if max([1] + [round(2 * math.pi / a) for a in angles if a > 1e-9]) > 2 else "III"


@pytest.mark.parametrize("family", POLYHEDRA)
def test_type_of_point_matches_loop_reference(family):
    povm = povm_for(family)
    group = povm.symmetry_group
    axes = group.elements @ np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 1.0], [0.0, TAU, 1.0],
                                      [1.0, 1.0, 0.0], [0.0, 1.0, TAU]]).T
    points = np.vstack([np.moveaxis(axes, 2, 1).reshape(-1, 3), povm.matrix(), -povm.matrix(),
                        np.random.default_rng(2).normal(size=(20, 3))])
    labels = set()
    for p in points:
        u = BlochVector.from_array(p / np.linalg.norm(p))
        label, stat, _ = _type_of_point(u, povm, group)
        assert label == _type_by_loop(u, povm, group)
        assert math.isnan(stat) == (label in ("I", "non-inert"))
        labels.add(label)
    assert {"I", "non-inert"} <= labels and labels & {"II", "III"}


class TestPartialSort:
    @pytest.mark.parametrize("n", [1, 7, 999, 1000, 1500])
    def test_lowest_equals_full_sort_prefix(self, n):
        values = np.random.default_rng(n).normal(size=1000)
        assert np.array_equal(_lowest(values, n), np.argsort(values)[:n])


class TestPointKernel:
    """The optimizer's objective is the grid kernel applied to coords @ p; it
    must return the grid's value for that point bit for bit."""

    KERNELS = [EntropyKernel("shannon"), EntropyKernel("tsallis", 0.6),
               EntropyKernel("tsallis", 2.0), EntropyKernel("renyi", 1.4)]

    @staticmethod
    def _assert_point_equals_row(point, povm, kernel):
        row = _entropy_values(point[None, :], povm, kernel)[0]
        value = kernel.entropy_of_dots(povm.matrix() @ point, povm.k)
        assert np.ndim(value) == 0
        assert value.tobytes() == row.tobytes()

    @pytest.mark.parametrize("kernel", KERNELS, ids=str)
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_random_points_and_antipodes(self, family, kernel):
        povm = povm_for(family)
        points = np.random.default_rng(11).normal(size=(50, 3))
        points /= np.linalg.norm(points, axis=1)[:, None]
        for point in (*points, *(-povm.matrix().astype(float))):
            self._assert_point_equals_row(point, povm, kernel)

    @pytest.mark.parametrize("kernel", KERNELS, ids=str)
    def test_digon_axis_and_a_third_point(self, kernel):
        povm = povm_for("digon")
        for point in ([0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [0.6, 0.0, 0.8]):
            self._assert_point_equals_row(np.array(point), povm, kernel)

    @pytest.mark.parametrize("kernel", KERNELS, ids=str)
    def test_type_one_antipode_is_finite(self, kernel):
        povm = povm_for("octahedron")
        dots = povm.matrix() @ -povm.matrix()[0]
        assert np.min(dots) == -1.0              # x = 0: the 0 ln 0 entry
        with np.errstate(all="raise"):
            value = kernel.entropy_of_dots(dots, povm.k)
        assert math.isfinite(value)
        self._assert_point_equals_row(-povm.matrix()[0], povm, kernel)

    @pytest.mark.parametrize("kernel", KERNELS, ids=str)
    def test_dots_beyond_unit_range(self, kernel):
        dots = np.array([1.0 + 1e-15, -(1.0 + 1e-15), 0.25, -0.25, 1e-15, -1e-15])
        value = kernel.entropy_of_dots(dots, 6)
        block = kernel.entropy_of_dots(np.vstack([dots, dots[::-1]]), 6)
        assert value.tobytes() == block[0].tobytes()
        if kernel.kind == "shannon":            # x = (1 + t)/2 is clipped to [0, 1]
            clipped = kernel.entropy_of_dots(np.clip(dots, -1.0, 1.0), 6)
            assert value.tobytes() == clipped.tobytes()
        povm = povm_for("octahedron")
        self._assert_point_equals_row(np.array([0.0, 0.0, 1.0 + 1e-15]), povm, kernel)


def _frameless_six():
    """+-x, +-(0.6, 0.8, 0), +-(0, 0.6, 0.8): congruent to no member, so its
    symmetry group is the trivial one and its extrema come from the sphere scan."""
    rows = ((1.0, 0.0, 0.0), (0.6, 0.8, 0.0), (0.0, 0.6, 0.8))
    return HsPovm(vectors=tuple(BlochVector(*(s * c for c in r)) for r in rows for s in (1, -1)),
                  family="custom")


class TestFindExtremaGolden:
    """Every field of the located extrema pinned by repr: the rectangle below
    and above its bifurcation and the Renyi cube (at DEFAULT_GRID), and at
    n_scan 20,000 the pair's great-circle point, the plane normals, the
    sphere scan's maxima (recentred and typed), the Tsallis 2.5 minima the
    certificate leaves to the scan (Hermite remainder negative) and the
    minima of a set with the trivial group."""

    GOLDEN = json.loads((Path(__file__).parent / "data" / "minimize_golden.json")
                        .read_text())["find_extrema"]
    CASES = {"rectangle 0.8": (lambda: make_rectangle_povm(0.8), "min", SHANNON, DEFAULT_GRID),
             "rectangle 1.4": (lambda: make_rectangle_povm(1.4), "min", SHANNON, DEFAULT_GRID),
             "cube renyi 1.4": (lambda: povm_for("cube"), "min", EntropyKernel("renyi", 1.4),
                                DEFAULT_GRID),
             **{f"{family} max": (lambda family=family: povm_for(family), "max", SHANNON, 20_000)
                for family in ("digon", "2-gon", "5-gon", "tetrahedron", "cube",
                               "icosidodecahedron")},
             **{f"{family} tsallis 2.5": (lambda family=family: povm_for(family), "min",
                                          EntropyKernel("tsallis", 2.5), 20_000)
                for family in ("tetrahedron", "cube")},
             "frameless 6-set": (_frameless_six, "min", SHANNON, 20_000)}

    @pytest.mark.parametrize("label", list(CASES))
    def test_fields_unchanged(self, label):
        make, mode, kernel, n_scan = self.CASES[label]
        located = []
        for point in find_extrema(make(), mode, n_scan=n_scan, kernel=kernel):
            fields = {f.name: repr(getattr(point, f.name))
                      for f in dataclasses.fields(point)}
            loc = point.location
            fields["location"] = [repr(loc.x), repr(loc.y), repr(loc.z)]
            located.append(fields)
        assert located == self.GOLDEN[label]


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(hspovm.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import hspovm, sys; "
            "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_by_location_matches_the_rounded_tuple_sort():
    # the reference is the per-point key it replaced: coordinates rounded to
    # 1e-8 compared as tuples, a stable sort, so ties (points within 1e-8,
    # and -0.0 against 0.0) keep their input order
    rng = np.random.default_rng(29)
    base = [np.array(v, dtype=float) for v in
            ((0.0, 0.0, 1.0), (-0.0, 0.0, 1.0), (0.0, -0.0, -1.0), (1.0, 0.0, -0.0),
             (0.6, 0.0, 0.8), (0.6, -0.0, 0.8))]
    base += list(rng.normal(size=(6, 3)))
    for trial in range(40):
        coords = [base[i] + rng.choice([0.0, 1e-10]) * rng.normal(size=3)
                  for i in rng.integers(len(base), size=int(rng.integers(0, 16)))]
        points = [entropy.CriticalPoint(BlochVector.from_array(c / np.linalg.norm(c)), float(i),
                                        "min")
                  for i, c in enumerate(coords)]
        reference = sorted(points, key=lambda c: tuple(np.round(c.location.as_array(), 8)))
        assert [c.value for c in entropy._by_location(list(points))] == \
            [c.value for c in reference], trial
