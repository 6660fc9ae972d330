"""One frame per input: vectors that are R times a member (a registry
family, or a rectangle), whatever their label, are answered on the member,
and the answer is carried back by R, so a rotated, permuted or reflected
file gets the canonical extrema, types and classifications, at the cost of
the canonical scan."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import sweep_classify
from hspovm import catalog, entropy
from hspovm.catalog import (HsPovm, inert_directions, make_hs_povm,
                            make_rectangle_povm)
from hspovm.bloch import SHANNON, EntropyKernel
from hspovm.certificate import certify_minimum
from hspovm.entropy import (classify_inert_point, find_extrema,
                            rectangle_bifurcation_threshold)

#: the digon, the 7 polyhedra, the 3- to 12-gons and a rectangle on each
#: side of the bifurcation (alpha ~ 1.1706)
CANONICAL = {
    **{f: make_hs_povm(f) for f in ("digon", "tetrahedron", "octahedron", "cube",
                                    "cuboctahedron", "icosahedron", "dodecahedron",
                                    "icosidodecahedron")},
    **{f"{n}-gon": make_hs_povm(f"{n}-gon") for n in range(3, 13)},
    "rectangle 0.8": make_rectangle_povm(0.8),
    "rectangle 1.4": make_rectangle_povm(1.4),
}


def _transform(seed, reflect) -> np.ndarray:
    """A rotation drawn from the seed, followed by a reflection if asked."""
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    q[:, 0] *= np.sign(np.linalg.det(q))
    return q @ np.diag([1.0, 1.0, -1.0]) if reflect else q


def _moved(name, q, seed) -> HsPovm:
    """The canonical input's file with its vectors moved by q and permuted."""
    canonical = CANONICAL[name]
    coords = canonical.matrix() @ q.T
    order = np.random.default_rng(seed).permutation(len(coords))
    return HsPovm.from_json(json.dumps({"vectors": coords[order].tolist(),
                                        "family": canonical.family}))


_ANSWERS = {}


def _extrema(povm, mode) -> list:
    """find_extrema of a canonical set or frame member, computed once."""
    key = (povm.family, povm.matrix().tobytes(), mode)
    if key not in _ANSWERS:
        _ANSWERS[key] = find_extrema(povm, mode)
    return _ANSWERS[key]


def _assert_carried(found, expected, rotation):
    """Each found point is R times one expected point, one to one: location
    to 1e-7, value to 1e-12, the same kind and type."""
    assert len(found) == len(expected)
    carried = np.array([c.location.as_array() for c in expected]) @ rotation.T
    for point in found:
        gaps = np.linalg.norm(carried - point.location.as_array(), axis=1)
        i = int(np.argmin(gaps))
        assert gaps[i] < 1e-7
        match = expected[i]
        assert abs(point.value - match.value) <= 1e-12
        assert (point.kind, point.type_label) == (match.kind, match.type_label)
    located = np.array([c.location.as_array() for c in found])
    assert np.max(np.min(np.linalg.norm(carried[:, None] - located[None], axis=2), axis=1)) < 1e-7


def _summary(points) -> list:
    return sorted((c.kind, c.type_label, round(c.value, 12)) for c in points)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(name=st.sampled_from(sorted(CANONICAL)), seed=st.integers(0, 2 ** 32 - 1),
       reflect=st.booleans())
def test_moved_file_gets_the_canonical_answers(name, seed, reflect):
    canonical = CANONICAL[name]
    povm = _moved(name, _transform(seed, reflect), seed)
    # the frame: a proper R carrying the member onto the vectors; the member
    # is the canonical set (a rectangle's may be its twin turned by pi/2,
    # the same rectangle: its diameters meet at alpha and at pi - alpha)
    member, rotation = povm.frame
    assert np.linalg.det(rotation) == pytest.approx(1.0, abs=1e-12)
    gaps = np.linalg.norm((member.matrix() @ rotation.T)[:, None] - povm.matrix()[None], axis=2)
    assert np.max(gaps.min(axis=0)) < 1e-9 and np.max(gaps.min(axis=1)) < 1e-9
    assert member.family == canonical.family
    if member.family != "rectangle":
        assert member.matrix().tobytes() == canonical.matrix().tobytes()
    for mode in ("min", "max"):
        found = find_extrema(povm, mode)
        assert _summary(found) == _summary(_extrema(canonical, mode))
        if name != "digon" or mode == "min":    # the digon's maxima are a circle
            _assert_carried(found, _extrema(member, mode), rotation)
    kinds = []
    for u in inert_directions(povm):
        found = classify_inert_point(u, povm)
        # R^T u is where the member sees u (H(Ru; RV) = H(u; V))
        expected = classify_inert_point(type(u).from_array(rotation.T @ u.as_array()), member)
        assert found.location == u
        assert np.linalg.norm(rotation @ expected.location.as_array() - u.as_array()) < 1e-7
        assert abs(found.value - expected.value) <= 1e-12
        assert (found.kind, found.type_label) == (expected.kind, expected.type_label)
        assert np.isnan(found.classifier_statistic) == np.isnan(expected.classifier_statistic)
        kinds.append(found)
    assert _summary(kinds) == _summary(
        classify_inert_point(u, canonical) for u in inert_directions(canonical))


class TestWork:
    """A moved file costs what its canonical member costs: the same scan of
    one fundamental domain, or the same circle search."""

    @staticmethod
    def _counted(monkeypatch, name) -> list:
        calls = []
        original = getattr(entropy, name)
        monkeypatch.setattr(entropy, name, lambda *args: calls.append(args) or original(*args))
        return calls

    def test_moved_cube_max_scans_one_fundamental_domain(self, monkeypatch):
        n_scan = 24_000
        points = self._counted(monkeypatch, "_entropy_values")
        work = []
        for povm in (CANONICAL["cube"], _moved("cube", _transform(3, False), 3)):
            points.clear()
            find_extrema(povm, "max", n_scan=n_scan)
            work.append(sum(len(args[0]) for args in points))
        assert work[0] == work[1]
        assert abs(work[1] - n_scan / 24) < 0.02 * n_scan / 24     # not n_scan

    @pytest.mark.parametrize("alpha", [0.8, 1.4])
    def test_moved_rectangle_min_takes_the_circle_path(self, monkeypatch, alpha):
        name = f"rectangle {alpha}"
        povm = _moved(name, _transform(5, True), 5)
        expected = _extrema(povm.frame[0], "min")
        circles = self._counted(monkeypatch, "_circle_refined")
        domains = self._counted(monkeypatch, "_fundamental_domain")
        _assert_carried(find_extrema(povm, "min"), expected, povm.frame[1])
        assert len(circles) == 1 and domains == []

    @pytest.mark.parametrize("alpha", [0.8, 1.4])
    def test_tilted_custom_plane_is_framed_as_a_rectangle(self, monkeypatch, alpha):
        # no label, yet the geometry names the rectangle: its circle is
        # searched once, on the member, and carried back
        q = _transform(7, False)
        coords = make_rectangle_povm(alpha).matrix() @ q.T
        povm = HsPovm.from_json(json.dumps({"vectors": coords.tolist()}))
        assert povm.frame[0].family == "rectangle" and povm.symmetry_group.order == 4
        expected = _extrema(CANONICAL[f"rectangle {alpha}"], "min")
        circles = self._counted(monkeypatch, "_circle_refined")
        domains = self._counted(monkeypatch, "_fundamental_domain")
        found = find_extrema(povm, "min")
        assert len(circles) == 1 and domains == []
        assert len(found) == len(expected)
        carried = np.array([c.location.as_array() for c in expected]) @ q.T
        for point in found:
            assert np.min(np.linalg.norm(carried - point.location.as_array(), axis=1)) < 1e-7
            assert point.value == pytest.approx(expected[0].value, abs=1e-12)


def test_sweep_cases_are_850_unique_labels():
    labels = [label for label, _, _ in sweep_classify.cases()]
    assert len(labels) == len(set(labels)) == 850


def test_classify_sweep_hash_is_pinned():
    # rotated lines equal to their canonical ones in kind, type and value;
    # the canonical digon's vectors and antipodes print as floats; the
    # canonical polygons' n-fold axis has the statistic 0, as D_n's
    # half-turns map it to (0, 0, -1) exactly (~1e-32 once rotated)
    text = "\n".join(sweep_classify.sweep())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2fd3c898b6964fb81909a7d9acc0a3c323acbf8b24cf918b6ec2672d32622756")


def _certificate_repr(povm) -> str:
    """The certificate's repr, or the refusal's type for a rectangle."""
    try:
        return repr(certify_minimum(povm))
    except ValueError as err:
        return type(err).__name__


def _zero_centroid_set(rng) -> np.ndarray:
    """3 to 6 random antipodal pairs, with an equilateral triangle in a random
    plane half the time: unit vectors with zero centroid and no symmetry."""
    pairs = rng.normal(size=(int(rng.integers(3, 7)), 3))
    pairs /= np.linalg.norm(pairs, axis=1)[:, None]
    rows = [pairs, -pairs]
    if rng.integers(2):
        angles = 2 * np.pi * np.arange(3) / 3
        triangle = np.column_stack([np.cos(angles), np.sin(angles), np.zeros(3)])
        rows.append(triangle @ _transform(int(rng.integers(2 ** 32)), False).T)
    return np.concatenate(rows)


#: CANONICAL and the 2-gon, whose custom copy is the digon (the two are congruent)
UNLABELLED = {**CANONICAL, "2-gon": make_hs_povm("2-gon")}


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(name=st.sampled_from(sorted(UNLABELLED)), seed=st.integers(0, 2 ** 32 - 1),
       reflect=st.booleans())
def test_custom_file_is_named_by_its_geometry(name, seed, reflect):
    canonical = UNLABELLED[name]
    coords = canonical.matrix() @ _transform(seed, reflect).T
    order = np.random.default_rng(seed).permutation(len(coords))
    povm = HsPovm.from_json(json.dumps({"vectors": coords[order].tolist(),
                                        "family": "custom"}))
    family = "digon" if name == "2-gon" else canonical.family
    member, rotation = povm.frame
    assert member.family == family
    if name != "2-gon" and family != "rectangle":     # the canonical set is the member
        assert member.matrix().tobytes() == canonical.matrix().tobytes()
    for mode in ("min", "max"):
        _assert_carried(find_extrema(povm, mode), _extrema(member, mode), rotation)
        assert _summary(find_extrema(povm, mode)) == _summary(_extrema(member, mode))
    labelled = canonical if name != "2-gon" else make_hs_povm("digon")
    assert _certificate_repr(povm) == _certificate_repr(labelled)
    # a set congruent to no member keeps the trivial group
    noise = HsPovm.from_json(json.dumps({
        "vectors": _zero_centroid_set(np.random.default_rng(seed)).tolist()}))
    assert noise.frame is None and noise.symmetry_group.order == 1


@pytest.mark.parametrize("name", [n for n in sorted(CANONICAL) if " " not in n])
def test_rotated_labelled_file_is_checked_once(monkeypatch, name):
    # the label's member is tried first, and it is congruent: one check, once
    calls = []
    check = catalog._is_rotated_copy
    monkeypatch.setattr(catalog, "_is_rotated_copy", lambda coords, reference: (
        calls.append(len(coords)) or check(coords, reference)))
    povm = _moved(name, _transform(9, False), 9)
    assert povm.frame[0].family == CANONICAL[name].family
    find_extrema(povm, "min")
    certify_minimum(povm)
    assert calls == [CANONICAL[name].k]


def _reference_frame(a, b) -> np.ndarray:
    """catalog._frame written with np.linalg.norm."""
    e1 = a / np.linalg.norm(a)
    e2 = b - (b @ e1) * e1
    e2 /= np.linalg.norm(e2)
    (x, y, z), (p, q, r) = e1.tolist(), e2.tolist()
    return np.array([e1, e2, [y * r - z * q, z * p - x * r, x * q - y * p]])


def _reference_rotated_copy(coords, reference):
    """catalog._is_rotated_copy on the reference frame, with the gaps as
    np.linalg.norm distances."""
    dots = coords @ coords[0]
    j = int(np.argmin(np.abs(dots)))
    second = coords[j]
    targets = reference[np.abs(reference @ reference[0] - dots[j]) <= catalog.GEOMETRY_TOL]
    if abs(dots[j]) > 1.0 - 1e-6:
        second = np.eye(3)[np.argmin(np.abs(coords[0]))]
        targets = np.eye(3)[[np.argmin(np.abs(reference[0]))]]
    source = _reference_frame(coords[0], second).T
    for target in targets:
        rotation = source @ _reference_frame(reference[0], target)
        gaps = np.linalg.norm((coords @ rotation)[:, None, :] - reference[None, :, :], axis=-1)
        if max(np.max(gaps.min(0)), np.max(gaps.min(1))) < catalog.GEOMETRY_TOL:
            return rotation
    return None


def test_frame_equals_the_norm_form_bit_for_bit():
    rng = np.random.default_rng(29)
    pairs = rng.normal(size=(20_000, 2, 3))
    pairs[::2] /= np.linalg.norm(pairs[::2], axis=-1)[..., None]    # unit rows, as in a file
    for a, b in pairs:
        assert catalog._frame(a, b).tobytes() == _reference_frame(a, b).tobytes()


@pytest.mark.parametrize("name", sorted(CANONICAL))
@pytest.mark.parametrize("seed", [3, 29, 540])
def test_rotation_equals_the_norm_form_bit_for_bit(name, seed):
    povm = _moved(name, _transform(seed, seed % 2 == 0), seed)
    member, rotation = povm.frame
    expected = _reference_rotated_copy(povm.matrix(), member.matrix())
    assert rotation.tobytes() == expected.tobytes()


BIFURCATION = rectangle_bifurcation_threshold()


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(n=st.one_of(st.just(2), st.integers(3, 12)),
       alpha=st.one_of(st.floats(0.3, BIFURCATION - 1e-3), st.floats(BIFURCATION + 1e-3, 1.5)),
       renyi=st.booleans(), order=st.floats(2.001, 3.999), seed=st.integers(0, 2 ** 32 - 1))
def test_circle_minima_are_closed_orbits_at_the_dense_scan_minimum(n, alpha, renyi,
                                                                   order, seed):
    # n = 2 draws a Shannon rectangle at alpha, on either side of the
    # bifurcation (at it, the four minima merge into the two inert ones);
    # n >= 3 the n-gon under a Tsallis or Renyi order that the certificate
    # does not settle.  Orders within 1e-3 of 2 and 3 are left out: the
    # n-gons are circle 2-designs (and 3-designs from n = 4 on), so there H
    # is constant on the circle to rounding, and find_extrema does not yet
    # call a landscape constant
    if n == 2:
        canonical, kernel = make_rectangle_povm(alpha), SHANNON
    else:
        canonical = make_hs_povm("n-gon", n)
        kernel = EntropyKernel("renyi" if renyi else "tsallis", order)
        assume(abs(order - 3.0) >= 1e-3 and not entropy._antipodes_certified(canonical, kernel))
    coords = canonical.matrix() @ _transform(seed, False).T
    coords = coords[np.random.default_rng(seed).permutation(len(coords))]
    povm = HsPovm.from_json(json.dumps({"vectors": coords.tolist(), "family": "custom"}))
    found = find_extrema(povm, "min", kernel=kernel)
    located = np.array([c.location.as_array() for c in found])
    # every minimum is as low as a dense scan of the plane's circle
    plane = np.linalg.svd(coords)[2][:2]
    phi = 2.0 * np.pi * np.arange(65_536) / 65_536
    circle = np.cos(phi)[:, None] * plane[0] + np.sin(phi)[:, None] * plane[1]
    scan = np.min(kernel.entropy_of_dots(circle @ coords.T, povm.k))
    assert max(c.value for c in found) <= scan + 1e-12
    # and the located set is closed under the frame's group
    images = np.einsum("gij,mj->gmi", povm.symmetry_group.elements, located)
    gaps = np.linalg.norm(images.reshape(-1, 1, 3) - located[None], axis=2)
    assert np.max(np.min(gaps, axis=1)) < 1e-12
    if n == 2:
        assert len(found) == (2 if alpha < BIFURCATION else 4)
