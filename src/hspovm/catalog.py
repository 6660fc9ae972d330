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

import numpy as np

from .bloch import BlochVector
from .groups import POINT_TOL, RotationGroup, generate_group, orbit
from .q5 import GOLDEN, TAU, Q5, dot

CENTROID_TOL = 1e-12
DESIGN_SEED = 42         # fixed seed for the random-direction design check
DESIGN_DIRECTIONS = 200
DESIGN_T_MAX = 5         # highest degree of the sampled design check
GEOMETRY_TOL = 1e-9      # vectors closer than this to the rotated registry member match
IMAGE_BATCH = 1 << 16    # image-vector pairs per batch of the symmetry check
NODE_TOL = 1e-9          # node values closer than this are one node


@dataclass(frozen=True)
class FamilySpec:
    """What the package knows about one highly symmetric family.

    The family is the orbit of ``seed`` under the rotation group ``group``
    ("C" is C_n for the n-gon).  ``seed`` and ``probes`` are exact (ints
    and :class:`hspovm.q5.Q5`; floats through ``float()``), and the exact
    orbit and node set {-gv . v} are computed from them.  ``strategy``
    picks the certificate's orbit-minimum proof (constant, sign of B with
    expected ``sign``, candidates or sturm; see :mod:`hspovm.certificate`),
    which expands in the invariants ``basis`` through the exact expansion
    matrix solved at the ``probes``.
    ``inert`` seeds the classifier of symmetry-forced critical points;
    ``reference_W`` is the five-digit informational power.
    """

    name: str
    group: str
    seed: tuple
    strategy: str
    sign: int = 0
    basis: tuple = ()
    probes: tuple = ()
    inert: tuple = ()
    reference_W: float | None = None

    def tag(self, k: int) -> str:
        """Group tag of the family member with k vectors."""
        return f"C_{k}" if self.group == "C" else self.group

    def probe_points(self) -> list:
        points = [np.array(p, dtype=float) for p in self.probes]    # float() of each
        return [p / np.linalg.norm(p) for p in points]


_AXES = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
_T_AXES = ((0, 0, 1), (1, 1, 1), (-1, -1, -1))
_O_AXES = ((0, 0, 1), (0, 1, 1), (1, 1, 1))
_I_AXES = ((0, 0, 1), (0, TAU, 1), (0, 1 / TAU, TAU))

#: the family registry, in catalog-table order
FAMILY_SPECS = {spec.name: spec for spec in (
    FamilySpec("digon", "D2", (0, 0, 1), "constant",
               inert=_AXES, reference_W=0.69315),
    FamilySpec("n-gon", "C", (1, 0, 0), "constant"),
    FamilySpec("tetrahedron", "T", (1, 1, 1), "constant",
               inert=_T_AXES, reference_W=0.28768),
    FamilySpec("octahedron", "O", (0, 0, 1), "constant",
               inert=_O_AXES, reference_W=0.23105),
    FamilySpec("cube", "O", (1, 1, 1), "sign", sign=1, basis=("I4",),
               probes=((0, 0, 1), (1, 1, 1)),
               inert=_O_AXES, reference_W=0.21576),
    FamilySpec("cuboctahedron", "O", (0, 1, 1), "candidates", basis=("I4", "I6"),
               probes=((0, 0, 1), (0, 1, 1), (1, 1, 1)),
               inert=_O_AXES, reference_W=0.20273),
    FamilySpec("icosahedron", "I", (0, GOLDEN, 1), "constant",
               inert=_I_AXES, reference_W=0.20189),
    FamilySpec("dodecahedron", "I", (0, 1 / GOLDEN, GOLDEN), "sign", sign=-1,
               basis=("I6p",), probes=((0, GOLDEN, 1), (0, 1 / GOLDEN, GOLDEN)),
               inert=_I_AXES, reference_W=0.19686),
    FamilySpec("icosidodecahedron", "I", (0, 0, 1), "sturm",
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


@lru_cache(maxsize=None)
def exact_orbit(name: str) -> tuple:
    """The distinct images g s of the family's exact seed s under its exact
    group, in group order (every family but the n-gon)."""
    seed = tuple(map(Q5.of, FAMILY_SPECS[name].seed))
    group = _group_of_tag(FAMILY_SPECS[name].group)
    return tuple(dict.fromkeys(tuple(dot(row, seed) for row in g) for g in group.exact))


@lru_cache(maxsize=None)
def exact_nodes(name: str) -> tuple:
    """The sorted distinct values -(g s) . s / (s . s): the exact node set."""
    seed = exact_orbit(name)[0]         # the identity comes first
    return tuple(sorted({-dot(v, seed) / dot(seed, seed) for v in exact_orbit(name)}))


@lru_cache(maxsize=None)
def exact_design_order(name: str) -> int:
    """Design order of the family's exact orbit: the largest t with
    sum_{v in orbit} P_s(v . s / (s . s)) = 0 for s = 1..t, the Legendre
    polynomials P_s taken by their three-term recurrence in Q(sqrt 5).  By
    the addition theorem (Delsarte, Goethals and Seidel 1977) the orbit is
    a t-design exactly then; a finite set is not a design of every order,
    so the loop ends."""
    orbit = exact_orbit(name)
    cosines = [dot(v, orbit[0]) / dot(orbit[0], orbit[0]) for v in orbit]
    previous, current, s = [Q5(1)] * len(orbit), cosines, 1      # P_0, P_1
    while sum(current, Q5()) == 0:
        previous, current = current, [((2 * s + 1) * x * p - s * q) / (s + 1)
                                      for x, p, q in zip(cosines, current, previous)]
        s += 1
    return s - 1


@dataclass(frozen=True)
class HsPovm:
    """Ordered list of unit Bloch vectors with zero centroid.

    ``family`` is one of the named catalog tags, ``"rectangle"`` or
    ``"custom"``; ``group`` names the rotation group acting transitively
    on the vectors (empty for custom sets).
    """

    vectors: tuple
    family: str
    group: str = ""

    def __post_init__(self):
        coords = np.array([v.as_array() for v in self.vectors])
        coords.setflags(write=False)
        object.__setattr__(self, "_coords", coords)
        centroid = np.sum(coords, axis=0)
        if np.max(np.abs(centroid)) > CENTROID_TOL * max(1, len(self.vectors)):
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
    def symmetry_group(self) -> RotationGroup:
        """The tagged group if it maps the vectors onto themselves, else the
        trivial group; checked on the coordinates, once per POVM."""
        if self.group and _maps_onto_itself(_group_of_tag(self.group), self._coords):
            return _group_of_tag(self.group)
        return _group_of_tag("C_1")

    @cached_property
    def antipodes(self) -> tuple:
        """The states -v_j orthogonal to the POVM states, in vector order;
        built once per POVM, so every caller shares them."""
        return tuple(BlochVector.from_array(p) for p in -self._coords)

    def is_coplanar(self) -> bool:
        return bool(np.max(np.abs(self.matrix()[:, 2])) < 1e-12)

    def to_json(self) -> str:
        return json.dumps({"vectors": self.matrix().tolist(), "family": self.family})

    @classmethod
    def from_json(cls, text: str) -> "HsPovm":
        """Load a POVM file; a registry family gets its group tag back only
        if that group maps the vectors onto themselves."""
        payload = json.loads(text)
        vectors = tuple(BlochVector.from_array(v) for v in payload["vectors"])
        family = payload.get("family", "custom")
        spec = family_spec(family)
        povm = cls(vectors=vectors, family=family, group=spec.tag(len(vectors)) if spec else "")
        return povm if povm.symmetry_group.name == povm.group else cls(vectors, family)


@lru_cache(maxsize=None)
def _group_of_tag(tag: str) -> RotationGroup:
    if tag.startswith("C_"):
        return generate_group("C", int(tag[2:]))
    return generate_group(tag)


def _maps_onto_itself(group: RotationGroup, coords: np.ndarray) -> bool:
    """Whether every element maps every vector within POINT_TOL of a vector,
    decided on the squared distances of all images to all vectors.  The
    elements are taken in batches of doubling size, at most IMAGE_BATCH
    image-vector pairs each, so a set that an early element moves is
    rejected after a few elements, as by a loop."""
    mats = group.matrix_stack().transpose(0, 2, 1)
    limit = max(1, IMAGE_BATCH // max(1, len(coords) ** 2))
    start, step = 0, 1
    while start < len(mats):
        images = coords @ mats[start:start + step]
        squares = sum((images[:, :, c, None] - coords[:, c]) ** 2 for c in range(3))
        if math.sqrt(np.max(np.min(squares, axis=2))) >= POINT_TOL:
            return False
        start, step = start + step, min(2 * step, limit)
    return True


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


def _frame(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows: the unit a, the unit part of b orthogonal to a, their cross
    product, written out by components (the operations of ``np.cross``)."""
    e1 = a / np.linalg.norm(a)
    e2 = b - (b @ e1) * e1
    e2 /= np.linalg.norm(e2)
    (x, y, z), (p, q, r) = e1.tolist(), e2.tolist()
    return np.array([e1, e2, [y * r - z * q, z * p - x * r, x * q - y * p]])


def _is_rotated_copy(coords: np.ndarray, reference: np.ndarray) -> bool:
    """Whether R reference = coords up to permutation, to GEOMETRY_TOL, for
    some rotation R.  R takes the first vector u of coords onto the first
    reference vector m, and a vector of coords at the least |dot| with u
    onto each reference vector at the same dot with m; a candidate passes
    when every image is near one reference vector and every reference
    vector near one image.  A set {u, -u} has no second direction, and any
    turn about u will do."""
    dots = coords @ coords[0]
    j = int(np.argmin(np.abs(dots)))
    second, targets = coords[j], reference[np.abs(reference @ reference[0] - dots[j])
                                           <= GEOMETRY_TOL]
    if abs(dots[j]) > 1.0 - 1e-6:
        second = np.eye(3)[np.argmin(np.abs(coords[0]))]
        targets = np.eye(3)[[np.argmin(np.abs(reference[0]))]]
    source = coords @ _frame(coords[0], second).T
    for target in targets:
        images = source @ _frame(reference[0], target)
        gaps = np.linalg.norm(images[:, None, :] - reference[None, :, :], axis=-1)
        if max(np.max(gaps.min(0)), np.max(gaps.min(1))) < GEOMETRY_TOL:
            return True
    return False


def check_family_geometry(povm: HsPovm) -> tuple:
    """(spec, member): the registry entry of the POVM's family and its
    registry member with k vectors (:func:`make_hs_povm`), once the vectors
    are checked to be R member for some rotation R, to GEOMETRY_TOL and up
    to permutation.

    H(Ru; RV) = H(u; V), so every statement about the entropy of the member
    (its node set, design order, central symmetry, minimizers and their
    certificate) holds for the vectors, rotated by R; a reflected copy of
    these achiral families is a rotated one.  Rectangles and custom sets
    have no registry entry (their entropy minimizers lie off the antipodal
    orbit) and are refused.
    """
    spec = family_spec(povm.family)
    if spec is None:
        raise ValueError(f"{povm.family!r} is not a registry family and has no closed "
                         "form; minimize its entropy with entropy.find_extrema")
    member = _member(povm.family, povm.k)
    if member is None or not _is_rotated_copy(povm.matrix(), member.matrix()):
        raise ValueError(f"the vectors do not realize the {povm.family}'s node set as a "
                         "rotated copy of its registry member; the family label does "
                         "not match the geometry")
    return spec, member


def inert_directions(povm: HsPovm) -> list:
    """Unit rotation-axis directions of the POVM's family group, where the
    classifier of symmetry-forced critical points starts; the coordinate
    axes when the family is unknown or its group is not the one tagged."""
    spec = family_spec(povm.family)
    n = povm.k
    if spec is None or povm.group != spec.tag(n):
        seeds = _AXES
    elif spec.group == "C":     # a vertex, an edge midpoint, the axis
        seeds = ((1, 0, 0), (math.cos(math.pi / n), math.sin(math.pi / n), 0), (0, 0, 1))
    else:
        seeds = spec.inert
    return [BlochVector.from_array(np.array(s, float) / np.linalg.norm(s))
            for s in seeds]


@dataclass(frozen=True)
class DesignReport:
    """Frame and spherical-design diagnostics for a candidate POVM."""

    is_povm: bool
    informationally_complete: bool
    design_order: int
    moment_values: tuple  # (t, worst deviation from the sphere average)


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
    if spec.group == "D2":       # the digon: the seed and its antipode, exactly
        v = BlochVector(*spec.seed)
        return HsPovm(vectors=(v, -v), family=spec.name, group=spec.group)
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
    v1 = BlochVector(math.cos(half), math.sin(half), 0)
    v2 = BlochVector(math.cos(half), -math.sin(half), 0)
    family = "4-gon" if abs(alpha - math.pi / 2.0) < 1e-12 else "rectangle"
    return HsPovm(vectors=(v1, -v1, v2, -v2), family=family, group="D2")


@lru_cache(maxsize=1)
def _design_directions() -> np.ndarray:
    """The unit directions w of the design check, drawn once (read-only);
    drawn on first use, so importing the package does not load numpy.random."""
    w = np.random.default_rng(DESIGN_SEED).normal(size=(DESIGN_DIRECTIONS, 3))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    w.setflags(write=False)
    return w


def spherical_design_order(vectors) -> int:
    """Largest t <= DESIGN_T_MAX such that the point set averages monomials
    (w . v)^s like the uniform sphere for all s <= t.

    The sphere average of (w . v)^s is 0 for odd s and 1/(s+1) for even s;
    the check samples 200 fixed random directions at tolerance 1e-9.
    """
    return _order_of_moments(_design_moments(vectors))


def _order_of_moments(moments) -> int:
    """The largest t whose moments of degrees 1..t all deviate by <= 1e-9."""
    return next((s - 1 for s, deviation in moments if deviation > 1e-9), len(moments))


def _design_moments(vectors) -> tuple:
    coords = np.array([v.as_array() for v in vectors])
    dots = _design_directions() @ coords.T
    out = []
    for s in range(1, DESIGN_T_MAX + 1):
        target = 0.0 if s % 2 == 1 else 1.0 / (s + 1)
        out.append((s, float(np.max(np.abs(np.mean(dots ** s, axis=1) - target)))))
    return tuple(out)


def validate_povm(vectors) -> DesignReport:
    """Frame diagnostics for a list of unit Bloch vectors.

    is_povm holds iff the centroid vanishes (tolerance 1e-10);
    informational completeness iff the coordinate matrix has full rank 3
    (singular-value threshold 1e-8).
    """
    vectors = [v if isinstance(v, BlochVector) else BlochVector.from_array(v)
               for v in vectors]
    if len(vectors) < 2:
        raise ValueError("a POVM needs at least two elements")
    coords = np.array([v.as_array() for v in vectors])
    is_povm = bool(np.linalg.norm(coords.sum(axis=0)) < 1e-10 * len(vectors))
    rank = int(np.sum(np.linalg.svd(coords, compute_uv=False) > 1e-8))
    moments = _design_moments(vectors)
    return DesignReport(
        is_povm=is_povm,
        informationally_complete=rank == 3,
        design_order=_order_of_moments(moments) if is_povm else 0,
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
