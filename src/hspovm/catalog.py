"""Construction and validation of normalized rank-1 POVMs on the qubit.

A normalized rank-1 POVM is, in the Bloch picture, a finite set of unit
vectors with zero centroid.  This module holds the registry of the nine
highly symmetric families (regular polygons including the digon, the five
Platonic solids, and the two quasiregular solids), one :class:`FamilySpec`
each, which every other module reads; it builds them, the rectangle family
and custom sets, and runs frame/design diagnostics on any of them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain

import numpy as np

from .bloch import BlochVector
from .groups import RotationGroup, _location_order, generate_group, orbit
from .q5 import GOLDEN, TAU

CENTROID_TOL = 1e-12
DESIGN_T_MAX = 5         # highest degree of the float design check
DESIGN_TOL = 1e-12       # largest sum_{x,y} P_s(x . y) / k^2 of a float s-design
GEOMETRY_TOL = 1e-9      # vectors closer than this to the rotated registry member match
NODE_TOL = 1e-9          # node values closer than this are one node
IDENTITY = np.eye(3)     # the rotation of a POVM that is its member bit for bit
IDENTITY.setflags(write=False)


@dataclass(frozen=True)
class FamilySpec:
    """What the package knows about one highly symmetric family.

    The family is the orbit of ``seed``, ``k`` vectors, under the group
    ``group`` ("C" is C_n for the n-gon, any k).  ``seed`` and ``probes``
    are exact (ints and :class:`hspovm.q5.Q5`; floats through ``float()``):
    the exact orbit, nodes and expansion they fix are built once, in a
    :class:`hspovm.certificate.FamilyRecord`.
    ``strategy`` names the proof of a non-constant bound (candidates or
    sturm; see :mod:`hspovm.certificate`), which expands in the invariants
    ``basis`` through the exact expansion matrix solved at the ``probes``
    (candidates compares P there, seed included).
    ``inert`` seeds the classifier of symmetry-forced critical points;
    ``reference_W`` is the five-digit informational power.
    """

    name: str
    group: str
    seed: tuple
    strategy: str = ""
    basis: tuple = ()
    probes: tuple = ()
    inert: tuple = ()
    reference_W: float | None = None
    k: int | None = None


_AXES = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
_T_AXES = ((0, 0, 1), (1, 1, 1), (-1, -1, -1))
_O_AXES = ((0, 0, 1), (0, 1, 1), (1, 1, 1))
_I_AXES = ((0, 0, 1), (0, TAU, 1), (0, 1 / TAU, TAU))

#: the family registry, in catalog-table order
FAMILY_SPECS = {spec.name: spec for spec in (
    FamilySpec("digon", "D2", (0, 0, 1), k=2,
               inert=_AXES, reference_W=0.69315),
    FamilySpec("n-gon", "C", (1, 0, 0)),
    FamilySpec("tetrahedron", "T", (1, 1, 1), k=4,
               inert=_T_AXES, reference_W=0.28768),
    FamilySpec("octahedron", "O", (0, 0, 1), k=6,
               inert=_O_AXES, reference_W=0.23105),
    FamilySpec("cube", "O", (1, 1, 1), "candidates", basis=("I4",), k=8,
               probes=((0, 0, 1), (1, 1, 1)),
               inert=_O_AXES, reference_W=0.21576),
    FamilySpec("cuboctahedron", "O", (0, 1, 1), "candidates", basis=("I4", "I6"), k=12,
               probes=((0, 0, 1), (0, 1, 1), (1, 1, 1)),
               inert=_O_AXES, reference_W=0.20273),
    FamilySpec("icosahedron", "I", (0, GOLDEN, 1), k=12,
               inert=_I_AXES, reference_W=0.20189),
    FamilySpec("dodecahedron", "I", (0, 1 / GOLDEN, GOLDEN), "candidates", k=20,
               basis=("I6p",), probes=((0, GOLDEN, 1), (0, 1 / GOLDEN, GOLDEN)),
               inert=_I_AXES, reference_W=0.19686),
    FamilySpec("icosidodecahedron", "I", (0, 0, 1), "sturm", k=30,
               basis=("I6p", "I10", "I6p^2"),
               probes=((0, 0, 1), (0, GOLDEN, 1), (0, 1 / GOLDEN, GOLDEN), (3, 4, 12)),
               inert=_I_AXES, reference_W=0.19486),
)}

FAMILIES = tuple(FAMILY_SPECS)


def family_spec(name: str) -> FamilySpec | None:
    """Registry entry for a family label ("5-gon" and "ngon" name the
    n-gon); None for rectangles and custom sets."""
    if name == "ngon" or (name.endswith("-gon") and name[:-4].isdigit()):
        name = "n-gon"
    return FAMILY_SPECS.get(name)


def _legendre_sums(cosines):
    """sum_c P_s(c) over the array of cosines for s = 1, 2, ..., with the
    Legendre recurrence in the entries' arithmetic (float, or object Q5)."""
    previous, current, s = 1, cosines, 1                        # P_0, P_1
    while True:
        yield current.sum()
        previous, current = current, ((2 * s + 1) * cosines * current - s * previous) / (s + 1)
        s += 1


@dataclass(frozen=True)
class HsPovm:
    """Ordered list of unit Bloch vectors with zero centroid.

    ``family`` is the label the set came with (a catalog name,
    ``"rectangle"`` or ``"custom"``) and ``group`` the group of the
    construction (C_n for the n-gon, empty for files).  Neither decides
    anything: the geometry names the family (:attr:`frame`).
    """

    vectors: tuple
    family: str
    group: str = ""

    def __post_init__(self):
        coords = np.array([(v.x, v.y, v.z) for v in self.vectors])
        coords.setflags(write=False)
        object.__setattr__(self, "_coords", coords)
        centroid = coords.sum(axis=0)
        if np.abs(centroid).max() > CENTROID_TOL * max(1, len(self.vectors)):
            raise ValueError(
                f"Bloch vectors do not sum to zero (|centroid|={np.linalg.norm(centroid):.2e})"
            )

    @property
    def k(self) -> int:
        return len(self.vectors)

    @property
    def fiducial(self) -> BlochVector:
        return self.vectors[0]

    def matrix(self) -> np.ndarray:
        """k x 3 coordinate matrix (read-only, built once)."""
        return self._coords

    def rotation_group(self) -> RotationGroup:
        if not self.group:
            raise ValueError(f"POVM family {self.family!r} carries no group tag")
        return _group_of_tag(self.group)

    @cached_property
    def frame(self):
        """(member, R) for the first member congruent to the vectors: they
        are R member, to GEOMETRY_TOL up to permutation (R is IDENTITY when
        equal).  Tried in turn: the label's member (so a labelled set pays
        one check, and a "2-gon" is no digon), every registry member with k
        vectors (a square is the 4-gon), the rectangle.  None when none is
        congruent; computed on first use, once per POVM."""
        for member in filter(None, _candidates(self._coords, self.family)):
            if (self._coords == member.matrix()).all():
                return member, IDENTITY
            rotation = _is_rotated_copy(self._coords, member.matrix())
            if rotation is not None:
                return member, rotation
        return None

    @cached_property
    def symmetry_group(self) -> RotationGroup:
        """The frame member's group (its tag's, with a polygon's C_n widened
        to D_n) carried over by R, or the trivial group without a frame."""
        if self.frame is None:
            return TRIVIAL_GROUP
        member, rotation = self.frame
        tag = member.group
        group = _group_of_tag("D" + tag[1:] if tag.startswith("C_") else tag)
        if rotation is IDENTITY:
            return group
        carried = rotation @ group.elements @ rotation.T      # R g R^T
        return RotationGroup(f"R {group.name} R^T", carried)   # a name no tag parses

    @cached_property
    def antipodes(self) -> tuple:
        """The states -v_j orthogonal to the POVM states, in vector order;
        built once per POVM, so every caller shares them."""
        return tuple(BlochVector.from_array(p) for p in -self._coords)

    @cached_property
    def antipode_order(self) -> tuple:
        """The indices j of the antipodes in ``groups._location_order``, the
        order :func:`hspovm.entropy.find_extrema` lists them in; built once."""
        return tuple(_location_order(-self._coords).tolist())

    @cached_property
    def plane_normal(self):
        """The unit normal of the vectors' plane (read-only), from their
        largest cross product with the first; None unless they have rank 2
        (to GEOMETRY_TOL).  Computed on first use, once per POVM."""
        crosses = np.cross(self._coords[0], self._coords)
        norms = np.linalg.norm(crosses, axis=1)
        normal = crosses[np.argmax(norms)] / max(np.max(norms), GEOMETRY_TOL)
        if np.max(norms) <= GEOMETRY_TOL or np.max(np.abs(self._coords @ normal)) >= GEOMETRY_TOL:
            return None
        normal.setflags(write=False)
        return normal

    @classmethod
    def from_json(cls, text: str) -> "HsPovm":
        """Load a POVM file: its vectors, each exactly three JSON numbers,
        and family label (a string, default "custom").  Anything else is a
        ValueError."""
        payload = json.loads(text)
        if not isinstance(payload, dict) or "vectors" not in payload:
            raise ValueError('a POVM file is a JSON object with a "vectors" list')
        family, rows = payload.get("family", "custom"), payload["vectors"]
        if not isinstance(family, str):
            raise ValueError(f'"family" must be a string, not {family!r}')
        try:
            coords = np.array(rows, dtype=float)
        except (TypeError, ValueError, OverflowError):
            coords = None
        # numpy reads true and "1" as 1.0: every coordinate must be a JSON number
        if (coords is None or coords.ndim != 2 or coords.shape[1] != 3
                or not set(map(type, chain.from_iterable(rows))) <= {int, float}):
            raise ValueError('"vectors" must be a list of [x, y, z] lists of numbers')
        return cls(vectors=tuple(BlochVector(*row) for row in coords.tolist()), family=family)


@lru_cache(maxsize=64)
def _group_of_tag(tag: str) -> RotationGroup:
    name, _, n = tag.partition("_")         # "C_5" is C with n = 5
    return generate_group(name, int(n) if n else None)


TRIVIAL_GROUP = _group_of_tag("C_1")


@lru_cache(maxsize=64)
def _member(family: str, k: int) -> HsPovm | None:
    """The registry member make_hs_povm(family, k), built once per (label,
    k) while it stays among the 64 cached; None when the label has no
    member with k vectors."""
    try:
        member = make_hs_povm(family, k)
    except ValueError:
        return None
    return member if member.k == k else None


def _candidates(coords: np.ndarray, label: str):
    """The members :attr:`HsPovm.frame` tries, in order, each built when
    reached (None: no member of that size).  The rectangle's alpha is the
    angle of its diameters through u = coords[0] and the w least aligned
    with it, cos(alpha/2) = |u + w|/2, so a canonical rectangle is its own."""
    k = len(coords)
    first = _member(label, k)
    yield first
    for spec in FAMILY_SPECS.values():
        if spec.k in (None, k) and (member := _member(spec.name, k)) is not first:
            yield member
    if k == 4:
        u, w = coords[0], coords[np.argmin(np.abs(coords @ coords[0]))]
        yield _rectangle(np.linalg.norm(u + w) / 2, np.linalg.norm(u - w) / 2, "rectangle")


def _frame(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows: the unit a, the unit part of b orthogonal to a, their cross
    product, written out by components (the operations of ``np.cross``)."""
    e1 = a / math.sqrt(a.dot(a))                # np.linalg.norm(a), bit for bit
    e2 = b - b.dot(e1) * e1
    e2 /= math.sqrt(e2.dot(e2))
    (x, y, z), (p, q, r) = e1.tolist(), e2.tolist()
    return np.array([(x, y, z), (p, q, r), (y * r - z * q, z * p - x * r, x * q - y * p)])


def _is_rotated_copy(coords: np.ndarray, reference: np.ndarray):
    """The rotation R with R reference = coords up to permutation, to
    GEOMETRY_TOL, or None.  R takes the first reference vector m onto the
    first vector u, and a reference vector at the same dot with m onto a
    vector at the least |dot| with u; it passes when R^T coords and the
    reference are each near the other.  A set {u, -u} has no second
    direction, and any turn about u will do."""
    dots = coords @ coords[0]
    j = int(np.argmin(np.abs(dots)))
    second, targets = coords[j], reference[np.abs(reference @ reference[0] - dots[j])
                                           <= GEOMETRY_TOL]
    if abs(dots[j]) > 1.0 - 1e-6:
        second = np.eye(3)[np.argmin(np.abs(coords[0]))]
        targets = np.eye(3)[[np.argmin(np.abs(reference[0]))]]
    source = _frame(coords[0], second).T
    for target in targets:
        rotation = source @ _frame(reference[0], target)
        offsets = (coords @ rotation)[:, None, :] - reference[None, :, :]
        gaps = (offsets * offsets).sum(-1)              # squared distances
        if max(gaps.min(0).max(), gaps.min(1).max()) < GEOMETRY_TOL ** 2:
            return rotation
    return None


def check_family_geometry(povm: HsPovm) -> tuple:
    """(spec, member, R): the registry entry of the POVM's frame member,
    which names the family, and its :attr:`HsPovm.frame`.

    H(Ru; RV) = H(u; V), so every statement about the entropy of the member
    (its node set, design order, central symmetry, minimizers and their
    certificate) holds for the vectors, rotated by R; a reflected copy of
    these achiral families is a rotated one.  Vectors congruent to no
    registry member (a rectangle among them: its entropy minimizers lie
    off the antipodal orbit) are refused.
    """
    spec = povm.frame and family_spec(povm.frame[0].family)
    if spec is None:
        raise ValueError("no registry member is congruent to the vectors, so they have "
                         "no closed form; minimize their entropy with entropy.find_extrema")
    return (spec, *povm.frame)


def inert_directions(povm: HsPovm) -> list:
    """Unit directions on rotation axes of the POVM's symmetry group, where
    the classifier of symmetry-forced critical points starts: its frame
    member's seeds carried over by R.  A set congruent to no member is refused."""
    if povm.frame is None:
        raise ValueError("no registry member or rectangle is congruent to the vectors, so "
                         "no symmetry forces a critical point; name the point to classify")
    member, rotation = povm.frame
    spec, n = family_spec(member.family), member.k
    if spec is None:            # a rectangle
        seeds = _AXES
    elif spec.group == "C":     # a vertex, an edge midpoint, the axis
        seeds = ((1, 0, 0), (math.cos(math.pi / n), math.sin(math.pi / n), 0), (0, 0, 1))
    else:
        seeds = spec.inert
    return [BlochVector.from_array(rotation @ (np.array(s, float) / np.linalg.norm(s)))
            for s in seeds]             # IDENTITY @ p is p, bit for bit


@dataclass(frozen=True)
class DesignReport:
    """Frame and spherical-design diagnostics for a candidate POVM."""

    is_povm: bool
    informationally_complete: bool
    design_order: int
    moment_values: tuple  # (t, sum_{x,y} P_t(x . y) / k^2)


def _orbit_povm(spec: FamilySpec) -> tuple:
    seed = np.array(spec.seed, dtype=float)
    v = BlochVector.from_array(seed / np.linalg.norm(seed))
    points = orbit(_group_of_tag(spec.group), v)
    # fiducial convention: the canonical seed leads the ordered list
    points.remove(min(points, key=lambda p: np.linalg.norm(p.as_array() - v.as_array())))
    return (v, *points)


def make_hs_povm(family: str, n: int = None) -> HsPovm:
    """Build a named highly symmetric POVM in canonical orientation.

    Polygons lie in the z=0 plane with first vertex (1,0,0) ("5-gon" is the
    n-gon with n = 5); the other families are group orbits of their seeds.
    """
    spec = family_spec(family)
    if spec is None:
        raise ValueError(f"unknown POVM family {family!r}")
    if spec.group != "C":
        return HsPovm(vectors=_orbit_povm(spec), family=spec.name, group=spec.group)
    if family[:-4].isdigit():
        n = int(family[:-4])
    if n is None or n < 2:
        raise ValueError("polygon POVMs need n >= 2")
    vectors = tuple(
        BlochVector(math.cos(2 * math.pi * j / n), math.sin(2 * math.pi * j / n), 0)
        for j in range(n)
    )
    return HsPovm(vectors=vectors, family=f"{n}-gon", group=f"C_{n}")


def make_rectangle_povm(alpha: float) -> HsPovm:
    """Four coplanar vectors {v1, -v1, v2, -v2} with angle alpha between
    the diagonals; alpha = pi/2 degenerates to the square (a 4-gon)."""
    if not 0.0 < alpha < math.pi:
        raise ValueError("rectangle angle must lie in (0, pi)")
    half = alpha / 2.0
    family = "4-gon" if abs(alpha - math.pi / 2.0) < 1e-12 else "rectangle"
    return _rectangle(math.cos(half), math.sin(half), family)


def _rectangle(cos_half: float, sin_half: float, family: str) -> HsPovm:
    v1, v2 = BlochVector(cos_half, sin_half, 0), BlochVector(cos_half, -sin_half, 0)
    return HsPovm(vectors=(v1, -v1, v2, -v2), family=family, group="D2")


def spherical_design_order(vectors) -> int:
    """Largest t <= DESIGN_T_MAX with sum_{x,y} P_s(x . y) <= k^2 DESIGN_TOL
    for s = 1..t: each sum is >= 0, and a set is an s-design for every
    s <= t exactly when they vanish (the addition theorem)."""
    return _design_moments(np.array([v.as_array() for v in vectors]))[0]


def _design_moments(coords: np.ndarray) -> tuple:
    """The design order of the rows x, y and their moments: the pairs
    (s, sum_{x,y} P_s(x . y) / k^2) for s = 1..DESIGN_T_MAX."""
    sums = _legendre_sums((coords @ coords.T).ravel())
    moments = tuple((s, float(next(sums)) / len(coords) ** 2) for s in range(1, DESIGN_T_MAX + 1))
    return next((s - 1 for s, moment in moments if moment > DESIGN_TOL), DESIGN_T_MAX), moments


def validate_povm(vectors) -> DesignReport:
    """Frame diagnostics for a list of unit Bloch vectors.

    is_povm holds iff the centroid vanishes (tolerance 1e-10);
    informational completeness iff the coordinate matrix has full rank 3
    (singular-value threshold 1e-8); the design order and its moments are
    :func:`spherical_design_order`'s (order 0 for a non-POVM), from one
    Gram matrix.
    """
    vectors = [v if isinstance(v, BlochVector) else BlochVector.from_array(v)
               for v in vectors]
    if len(vectors) < 2:
        raise ValueError("a POVM needs at least two elements")
    coords = np.array([v.as_array() for v in vectors])
    is_povm = bool(np.linalg.norm(coords.sum(axis=0)) < 1e-10 * len(vectors))
    rank = int(np.sum(np.linalg.svd(coords, compute_uv=False) > 1e-8))
    order, moments = _design_moments(coords)
    return DesignReport(
        is_povm=is_povm,
        informationally_complete=rank == 3,
        design_order=order if is_povm else 0,
        moment_values=moments,
    )


def interpolation_set(povm: HsPovm) -> list:
    """Sorted distinct node values {-v . u} over the orbit, v the fiducial;
    values within NODE_TOL of the previous one are that node."""
    v = povm.fiducial.as_array()
    raw = sorted(np.clip(-povm.matrix() @ v, -1.0, 1.0))
    nodes = []
    for value in raw:
        if not nodes or value - nodes[-1] > NODE_TOL:
            nodes.append(float(value))
    return nodes
