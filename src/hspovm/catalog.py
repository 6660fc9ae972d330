"""Construction and validation of normalized rank-1 POVMs on the qubit.

A normalized rank-1 POVM is, in the Bloch picture, a finite set of unit
vectors with zero centroid.  This module builds the nine highly symmetric
families (regular polygons including the digon, the five Platonic solids,
and the two quasiregular solids), the rectangle family, and custom sets,
and runs frame/design diagnostics on any of them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bloch import BlochVector
from .groups import TAU, RotationGroup, generate_group, orbit

CENTROID_TOL = 1e-12
DESIGN_SEED = 42         # fixed seed for the random-direction design check
DESIGN_DIRECTIONS = 200

#: named family -> (group tag, seed vector); polygons handled separately
_POLYHEDRA = {
    "tetrahedron": ("T", (1.0, 1.0, 1.0)),
    "octahedron": ("O", (0.0, 0.0, 1.0)),
    "cube": ("O", (1.0, 1.0, 1.0)),
    "cuboctahedron": ("O", (0.0, 1.0, 1.0)),
    "icosahedron": ("I", (0.0, TAU, 1.0)),
    "dodecahedron": ("I", (0.0, 1.0 / TAU, TAU)),
    "icosidodecahedron": ("I", (0.0, 0.0, 1.0)),
}

FAMILIES = ("digon", "n-gon", "tetrahedron", "octahedron", "cube",
            "cuboctahedron", "icosahedron", "dodecahedron",
            "icosidodecahedron")


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
    ngon_n: int = None        # type: ignore[assignment]
    alpha: float = None       # type: ignore[assignment]

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

    def is_coplanar(self) -> bool:
        return bool(np.max(np.abs(self.matrix()[:, 2])) < 1e-12)

    def to_json(self) -> str:
        return json.dumps({"vectors": self.matrix().tolist(), "family": self.family})

    @classmethod
    def from_json(cls, text: str) -> "HsPovm":
        payload = json.loads(text)
        vectors = tuple(BlochVector.from_array(v) for v in payload["vectors"])
        return cls(vectors=vectors, family=payload.get("family", "custom"))


@lru_cache(maxsize=None)
def _group_of_tag(tag: str) -> RotationGroup:
    if tag.startswith("C_"):
        return generate_group("C", int(tag[2:]))
    return generate_group(tag)


@dataclass(frozen=True)
class DesignReport:
    """Frame and spherical-design diagnostics for a candidate POVM."""

    is_povm: bool
    informationally_complete: bool
    design_order: int
    moment_values: tuple  # (t, worst deviation from the sphere average)


def _orbit_povm(family: str) -> tuple:
    tag, seed = _POLYHEDRA[family]
    group = generate_group(tag)
    v = BlochVector.from_array(np.array(seed) / np.linalg.norm(seed))
    points = orbit(group, v)
    # fiducial convention: the canonical seed leads the ordered list
    points.remove(min(points, key=lambda p: np.linalg.norm(p.as_array() - v.as_array())))
    return (v, *points)


def make_hs_povm(family: str, n: int = None) -> HsPovm:
    """Build a named highly symmetric POVM in canonical orientation.

    Polygons lie in the z=0 plane with first vertex (1,0,0); the solids
    are group orbits of the documented seed vectors.
    """
    if family == "digon":
        # D2 (the three coordinate half-turns) acts transitively on {+-z}
        # and carries the equatorial 2-fold axes as well
        return HsPovm(vectors=(BlochVector(0, 0, 1), BlochVector(0, 0, -1)),
                      family="digon", group="D2")
    if family in ("n-gon", "ngon"):
        if n is None or n < 2:
            raise ValueError("polygon POVMs need n >= 2")
        vectors = tuple(
            BlochVector(math.cos(2 * math.pi * j / n), math.sin(2 * math.pi * j / n), 0)
            for j in range(n)
        )
        return HsPovm(vectors=vectors, family=f"{n}-gon", group=f"C_{n}", ngon_n=n)
    if family.endswith("-gon") and family[:-4].isdigit():
        return make_hs_povm("n-gon", int(family[:-4]))
    if family in _POLYHEDRA:
        tag, _ = _POLYHEDRA[family]
        return HsPovm(vectors=_orbit_povm(family), family=family, group=tag)
    raise ValueError(f"unknown POVM family {family!r}")


def make_rectangle_povm(alpha: float) -> HsPovm:
    """Four coplanar vectors {v1, -v1, v2, -v2} with angle alpha between
    the diagonals; alpha = pi/2 degenerates to the square (a 4-gon)."""
    if not 0.0 < alpha < math.pi:
        raise ValueError("rectangle angle must lie in (0, pi)")
    half = alpha / 2.0
    v1 = BlochVector(math.cos(half), math.sin(half), 0)
    v2 = BlochVector(math.cos(half), -math.sin(half), 0)
    family = "4-gon" if abs(alpha - math.pi / 2.0) < 1e-12 else "rectangle"
    return HsPovm(vectors=(v1, -v1, v2, -v2), family=family,
                  group="D2", alpha=alpha)


def _design_directions(count: int = DESIGN_DIRECTIONS) -> np.ndarray:
    rng = np.random.default_rng(DESIGN_SEED)
    w = rng.normal(size=(count, 3))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def spherical_design_order(vectors, t_max: int = 5) -> int:
    """Largest t <= t_max such that the point set averages monomials
    (w . v)^s like the uniform sphere for all s <= t.

    The sphere average of (w . v)^s is 0 for odd s and 1/(s+1) for even s;
    the check samples 200 fixed random directions at tolerance 1e-9.
    """
    coords = np.array([v.as_array() for v in vectors])
    dots = _design_directions() @ coords.T          # (200, k)
    order = 0
    for s in range(1, t_max + 1):
        target = 0.0 if s % 2 == 1 else 1.0 / (s + 1)
        moments = np.mean(dots ** s, axis=1)
        if np.max(np.abs(moments - target)) > 1e-9:
            break
        order = s
    return order


def _design_moments(vectors, t_max: int = 5) -> tuple:
    coords = np.array([v.as_array() for v in vectors])
    dots = _design_directions() @ coords.T
    out = []
    for s in range(1, t_max + 1):
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
    return DesignReport(
        is_povm=is_povm,
        informationally_complete=rank == 3,
        design_order=spherical_design_order(vectors) if is_povm else 0,
        moment_values=_design_moments(vectors),
    )


def interpolation_set(povm: HsPovm, tol: float = 1e-9) -> list:
    """Sorted distinct node values {-v . u} over the orbit, v the fiducial."""
    v = povm.fiducial.as_array()
    raw = sorted(np.clip(-povm.matrix() @ v, -1.0, 1.0))
    nodes = []
    for value in raw:
        if not nodes or value - nodes[-1] > tol:
            nodes.append(float(value))
    return nodes
