import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hspovm.bloch import BlochVector
from hspovm.groups import (
    degree_bound,
    double_coset_profile,
    generate_group,
    orbit,
    rotation_matrix,
    stabilizer,
)
from hspovm.q5 import TAU, dot


def _unit(*coords):
    a = np.array(coords, dtype=float)
    return BlochVector.from_array(a / np.linalg.norm(a))


# (family, group tag, seed, |orbit|, |stab|, n_a, n_s, n(v), deg bound)
TABLE_ROWS = [
    ("tetrahedron", "T", (1, 1, 1), 4, 3, 0, 2, 2.0, 2),
    ("octahedron", "O", (0, 0, 1), 6, 4, 0, 3, 3.0, 3),
    ("cube", "O", (1, 1, 1), 8, 3, 0, 4, 4.0, 5),
    ("cuboctahedron", "O", (0, 1, 1), 12, 2, 4, 3, 5.0, 7),
    ("icosahedron", "I", (0, TAU, 1), 12, 5, 0, 4, 4.0, 5),
    ("dodecahedron", "I", (0, 1 / TAU, TAU), 20, 3, 4, 4, 6.0, 9),
    ("icosidodecahedron", "I", (0, 0, 1), 30, 2, 14, 2, 9.0, 15),
]


class TestGeneration:
    @pytest.mark.parametrize("tag,n,order", [
        ("C", 1, 1), ("C", 5, 5), ("C", 12, 12), ("D", 1, 2), ("D", 5, 10), ("D", 12, 24),
        ("T", None, 12), ("O", None, 24), ("I", None, 60),
    ])
    def test_orders(self, tag, n, order):
        assert generate_group(tag, n).order == order

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 12])
    def test_dihedral_group_is_the_symmetry_of_the_polygon(self, n):
        # C_n first, element for element, then n half-turns about in-plane
        # axes; together they map the n-gon onto itself and form a group
        dihedral, cyclic = generate_group("D", n), generate_group("C", n)
        assert dihedral.name == f"D_{n}"
        assert all(a.tobytes() == b.tobytes() for a, b in zip(dihedral.elements, cyclic.elements))
        for m in dihedral.elements[n:]:
            assert np.trace(m) == pytest.approx(-1.0, abs=1e-12)    # a half-turn
            assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigh((m + m.T) / 2)[1][:, -1][2] == pytest.approx(0.0, abs=1e-12)
        angles = 2 * math.pi * np.arange(n) / n
        polygon = np.column_stack([np.cos(angles), np.sin(angles), np.zeros(n)])
        stack = dihedral.elements
        for images in (stack @ polygon.T).transpose(0, 2, 1):
            gaps = np.linalg.norm(images[:, None, :] - polygon[None, :, :], axis=-1)
            assert np.max(gaps.min(axis=1)) < 1e-12
        products = np.einsum("aij,bjk->abik", stack, stack).reshape(-1, 3, 3)
        gaps = np.linalg.norm(products[:, None] - stack[None], axis=(2, 3))
        assert np.max(gaps.min(axis=1)) < 1e-12

    @pytest.mark.parametrize("n", range(1, 13))
    def test_dihedral_group_is_exact_on_its_axis(self, n):
        # C_n fixes (0, 0, 1) and the half-turns reverse it, bit for bit
        images = generate_group("D", n).elements @ np.array([0.0, 0.0, 1.0])
        assert images.tolist() == [[0.0, 0.0, 1.0]] * n + [[0.0, 0.0, -1.0]] * n

    def test_elements_orthogonal(self):
        for tag in ("T", "O", "I"):
            for m in generate_group(tag).elements:
                assert np.linalg.norm(m @ m.T - np.eye(3)) < 1e-10
                assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("tag,digest", [
        # sha256 of the element bytes in group order, recorded while the
        # closure still ran in floats snapped to the exact entries
        ("T", "697d591e0d2be8c7c3d24f57a65f2607ac610dbad17cecf2dc6bd64edb2ec83e"),
        ("O", "cf61ec979d658d761b60f4e19ad3083a5561d6e88b471c2e96001801f99ad87d"),
        ("I", "df7d223188c3d1978d7532a8fd16182b5e0e2c66e7ee989782ce85d8e73dd06e"),
    ])
    def test_element_bytes_unchanged(self, tag, digest):
        data = b"".join(m.tobytes() for m in generate_group(tag).elements)
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("tag", ["D2", "T", "O", "I"])
    def test_exact_elements_orthogonal_and_float_images(self, tag):
        group = generate_group(tag)
        identity = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
        for m, floats in zip(group.exact, group.elements):
            assert tuple(tuple(dot(r, s) for s in m) for r in m) == identity   # M M^T = I
            assert np.array_equal(floats, [[float(x) for x in row] for row in m])
        assert len(set(group.exact)) == group.order

    def test_closed_under_product(self):
        g = generate_group("O")
        mats = list(g.elements)
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = rng.integers(0, len(mats), size=2)
            prod = mats[a] @ mats[b]
            assert min(np.linalg.norm(prod - m) for m in mats) < 1e-8

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            generate_group("H")

    def test_cn_needs_n(self):
        with pytest.raises(ValueError):
            generate_group("C")


class TestOrbitsAndStabilizers:
    @pytest.mark.parametrize("fam,tag,seed,osize,ssize,na,ns,nv,bound", TABLE_ROWS)
    def test_table_rows(self, fam, tag, seed, osize, ssize, na, ns, nv, bound):
        group = generate_group(tag)
        v = _unit(*seed)
        orb = orbit(group, v)
        stab = stabilizer(group, v)
        assert len(orb) == osize
        assert stab.order == ssize
        profile = double_coset_profile(group, v)
        assert (profile.n_a, profile.n_s, profile.n_v) == (na, ns, nv)
        assert degree_bound(profile, osize, ssize) == bound

    @pytest.mark.parametrize("n,na,ns,nv,bound", [
        (4, 2, 2, 3.0, 3), (5, 4, 1, 3.0, 4), (6, 4, 2, 4.0, 5),
        (7, 6, 1, 4.0, 6), (12, 10, 2, 7.0, 11),
    ])
    def test_polygon_rows(self, n, na, ns, nv, bound):
        group = generate_group("C", n)
        v = BlochVector(1, 0, 0)
        profile = double_coset_profile(group, v)
        assert (profile.n_a, profile.n_s, profile.n_v) == (na, ns, nv)
        assert degree_bound(profile, n, 1) == bound
        assert stabilizer(group, v).order == 1

    def test_orbit_stabilizer_theorem(self):
        for fam, tag, seed, *_ in TABLE_ROWS:
            group = generate_group(tag)
            v = _unit(*seed)
            assert len(orbit(group, v)) * stabilizer(group, v).order == group.order

    def test_orbit_deterministic_order(self):
        group = generate_group("I")
        v = _unit(0, 0, 1)
        first = [p.as_array() for p in orbit(group, v)]
        second = [p.as_array() for p in orbit(group, v)]
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_orbit_centroid_zero(self):
        for fam, tag, seed, *_ in TABLE_ROWS:
            group = generate_group(tag)
            pts = np.array([p.as_array() for p in orbit(group, _unit(*seed))])
            assert np.linalg.norm(pts.sum(axis=0)) < 1e-12 * len(pts)

    @pytest.mark.parametrize("tag", ["T", "O", "I", "C5", "D2"])
    def test_orbit_matches_pairwise_loop(self, tag):
        # greedy deduplication one image at a time, then the rounded sort
        group = generate_group("C", 5) if tag == "C5" else generate_group(tag)
        seeds = [(0, 0, 1), (1, 1, 1), (0, 1, 1), (0, TAU, 1), (1, 0, 0),
                 (0.3, -0.2, 0.9), (-1, 2, 0)]
        for seed in seeds:
            v = _unit(*seed)
            unique = []
            for p in group.elements @ v.as_array():
                if not any(np.linalg.norm(p - q) < 1e-8 for q in unique):
                    unique.append(p)
            unique.sort(key=lambda p: tuple(np.round(p, 8)))
            assert orbit(group, v) == [BlochVector.from_array(p) for p in unique]


class TestDoubleCosets:
    @pytest.mark.parametrize("fam,tag,seed,osize,ssize,na,ns,nv,bound", TABLE_ROWS)
    def test_coset_sizes_partition(self, fam, tag, seed, osize, ssize, na, ns,
                                   nv, bound):
        group = generate_group(tag)
        profile = double_coset_profile(group, _unit(*seed))
        assert sum(profile.coset_sizes) == group.order
        assert set(profile.coset_sizes) <= {ssize, ssize * ssize}

    @settings(derandomize=True, database=None, deadline=None, max_examples=120)
    @given(tag=st.sampled_from(["D2", "T", "O", "I", "C", "D"]), n=st.integers(1, 12),
           seed=st.integers(0, 2 ** 32 - 1), on_axis=st.booleans())
    def test_cosets_are_stabilizer_orbits(self, tag, n, seed, on_axis):
        # K a K v = K (a v) for K = Stab(v): the coset sizes add up to |G|,
        # and each is |K| times the size of one K-orbit of the orbit points
        group = generate_group(tag, n if tag in "CD" else None)
        rng = np.random.default_rng(seed)
        v = rng.normal(size=3)
        if on_axis:     # the axis of a random element, where K is larger
            v = np.linalg.svd(group.elements[rng.integers(group.order)] - np.eye(3))[2][-1]
        v = _unit(*v)
        stab = stabilizer(group, v)
        k_orbits = {}
        for p in orbit(group, v):
            k_orbit = orbit(stab, p)
            k_orbits[tuple(np.round(k_orbit[0].as_array(), 6))] = len(k_orbit)
        profile = double_coset_profile(group, v)
        assert sum(profile.coset_sizes) == group.order
        assert list(profile.coset_sizes) == sorted(stab.order * m for m in k_orbits.values())

    def test_antipodal_flags(self):
        assert double_coset_profile(generate_group("O"),
                                    _unit(0, 0, 1)).antipodal_in_orbit
        assert not double_coset_profile(generate_group("T"),
                                        _unit(1, 1, 1)).antipodal_in_orbit


class TestRotationMatrix:
    def test_rodrigues_round_trip(self):
        axis = np.array([1.0, 2.0, 2.0]) / 3.0
        m = rotation_matrix(axis, 0.7)
        assert np.allclose(m @ axis, axis)
        assert np.linalg.det(m) == pytest.approx(1.0)

    def test_angle(self):
        m = rotation_matrix([0, 0, 1], 2 * math.pi / 5)
        trace_angle = math.acos((np.trace(m) - 1) / 2)
        assert trace_angle == pytest.approx(2 * math.pi / 5, abs=1e-12)

    @pytest.mark.parametrize("axis", [[1, 2], [1, 2, 3, 4], [[0, 0, 1]], 1.0])
    def test_axis_must_be_three_numbers(self, axis):
        with pytest.raises(ValueError, match="is not three numbers"):
            rotation_matrix(axis, 1.0)


@pytest.mark.parametrize("tag", ["C_5", "D2", "T", "O", "I"])
def test_elements_are_one_read_only_array(tag):
    # the group, and the stabilizer that is a mask of it, each hold one
    # (order, 3, 3) float array that no caller can write
    group = generate_group("C", 5) if tag == "C_5" else generate_group(tag)
    v = _unit(0, 0, 1)
    stab = stabilizer(group, v)
    for g in (group, stab):
        assert g.elements.shape == (g.order, 3, 3) and g.elements.dtype == float
        assert not g.elements.flags.writeable
        with pytest.raises(ValueError):
            g.elements[0, 0, 0] = 2.0
    fixing = [m for m in group.elements if np.linalg.norm(m @ v.as_array() - v.as_array()) < 1e-8]
    assert stab.elements.tobytes() == np.array(fixing).tobytes()
