"""Finite rotation groups on the sphere: generation, orbits, double cosets.

Groups are stored as explicit lists of 3x3 matrices (orders are at most 60,
so brute force beats cleverness everywhere).  Canonical orientations are
fixed once and for all so that the invariant polynomials in
:mod:`hspovm.invariants` apply verbatim:

* ``C_n``  rotations about the z-axis,
* ``T``    3-fold axes through the even-sign vertices (+-1, +-1, +-1),
* ``O``    4-fold axes along the coordinate axes,
* ``I``    5-fold axes through the icosahedron vertices (0, +-tau, +-1),
  (+-tau, +-1, 0), (+-1, 0, +-tau), with tau the golden ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import BlochVector

TAU = (1.0 + math.sqrt(5.0)) / 2.0

MATRIX_TOL = 1e-8     # Frobenius tolerance for matrix equality
POINT_TOL = 1e-8      # orbit point dedup tolerance

# Entries of T, O and I elements in canonical orientation are exactly these
# algebraic numbers; snapping stabilizes the double-coset partition.
_SNAP_VALUES = np.array(
    [0.0, 0.5, -0.5, 1.0, -1.0, TAU / 2.0, -TAU / 2.0,
     1.0 / (2.0 * TAU), -1.0 / (2.0 * TAU)]
)

EXPECTED_ORDER = {"T": 12, "O": 24, "I": 60}


@dataclass(frozen=True)
class RotationGroup:
    """Finite subgroup of SO(3) given by an explicit element list."""

    name: str
    elements: tuple  # tuple of 3x3 ndarrays (read-only)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def matrix_stack(self) -> np.ndarray:
        return np.stack(self.elements)


@dataclass(frozen=True)
class DoubleCosetProfile:
    """Double-coset counts of a stabilizer, driving the degree bound."""

    n_s: int                 # self-inverse double cosets
    n_a: int                 # non self-inverse double cosets
    n_v: float               # n_s + n_a / 2
    antipodal_in_orbit: bool
    coset_sizes: tuple = ()


def _freeze(m: np.ndarray) -> np.ndarray:
    m = np.array(m, dtype=float)
    m.setflags(write=False)
    return m


def _snap(m: np.ndarray) -> np.ndarray:
    """Snap matrix entries to the exact algebraic candidate set."""
    flat = m.ravel()
    idx = np.argmin(np.abs(flat[:, None] - _SNAP_VALUES[None, :]), axis=1)
    nearest = _SNAP_VALUES[idx]
    good = np.abs(flat - nearest) < 1e-6
    out = np.where(good, nearest, flat)
    return out.reshape(3, 3)


def rotation_matrix(axis, angle: float) -> np.ndarray:
    """Rotation by ``angle`` about ``axis`` (Rodrigues formula)."""
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    c, s = math.cos(angle), math.sin(angle)
    cross = np.array([[0.0, -n[2], n[1]],
                      [n[2], 0.0, -n[0]],
                      [-n[1], n[0], 0.0]])
    return c * np.eye(3) + s * cross + (1.0 - c) * np.outer(n, n)


def _matrix_key(m: np.ndarray) -> bytes:
    return np.round(m, 9).tobytes()


def _closure(generators, expected_order: int, snap: bool) -> list:
    elements = {_matrix_key(np.eye(3)): np.eye(3)}
    frontier = [np.eye(3)]
    gens = [(_snap(g) if snap else g) for g in generators]
    while frontier:
        new_frontier = []
        for a in frontier:
            for g in gens:
                prod = g @ a
                if snap:
                    prod = _snap(prod)
                key = _matrix_key(prod)
                if key not in elements:
                    elements[key] = prod
                    new_frontier.append(prod)
                    if len(elements) > expected_order:
                        raise RuntimeError(
                            "group closure exceeded expected order "
                            f"{expected_order}; generator orientation is off"
                        )
        frontier = new_frontier
    if len(elements) != expected_order:
        raise RuntimeError(
            f"group closure reached {len(elements)} elements, "
            f"expected {expected_order}"
        )
    return list(elements.values())


def generate_group(name: str, n: int = None) -> RotationGroup:
    """Build a rotation group by tag: C_n (needs n), T, O or I.

    Elements are produced by generator closure, deduplicated at 1e-8 and
    snapped to exact algebraic entries for the polyhedral groups.
    """
    if name in ("C", "C_n"):
        if n is None or n < 1:
            raise ValueError("C_n needs n >= 1")
        mats = [rotation_matrix([0, 0, 1], 2.0 * math.pi * j / n) for j in range(n)]
        return RotationGroup(f"C_{n}", tuple(_freeze(m) for m in mats))
    if name == "T":
        gens = [
            # 120 deg about (1,1,1): cyclic coordinate shift
            np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            np.diag([-1.0, -1.0, 1.0]),
        ]
    elif name == "O":
        gens = [
            np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            rotation_matrix([0, 0, 1], math.pi / 2.0),
        ]
    elif name == "I":
        axis5 = np.array([0.0, TAU, 1.0]) / math.sqrt(TAU + 2.0)
        gens = [
            np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            rotation_matrix(axis5, 2.0 * math.pi / 5.0),
        ]
    elif name == "D2":
        # digon/rectangle symmetry: the three coordinate-axis half-turns
        mats = [np.eye(3), np.diag([1.0, -1.0, -1.0]),
                np.diag([-1.0, 1.0, -1.0]), np.diag([-1.0, -1.0, 1.0])]
        return RotationGroup("D2", tuple(_freeze(m) for m in mats))
    else:
        raise ValueError(f"unknown group tag {name!r}")
    mats = _closure(gens, EXPECTED_ORDER[name], snap=True)
    for m in mats:
        if np.linalg.norm(m @ m.T - np.eye(3)) > 1e-10:
            raise RuntimeError("non-orthogonal element after closure")
    return RotationGroup(name, tuple(_freeze(m) for m in mats))


def orbit(g: RotationGroup, v: BlochVector) -> list:
    """Deduplicated orbit of v, sorted lexicographically on rounded coords.

    The images are taken in group order, and one is dropped when it lies
    within POINT_TOL of an image already kept; the closeness of all pairs
    comes from one distance matrix.
    """
    points = g.matrix_stack() @ v.as_array()
    close = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1) < POINT_TOL
    covered = np.zeros(len(points), dtype=bool)
    kept = []
    for i in range(len(points)):
        if not covered[i]:
            kept.append(i)
            covered |= close[i]
    unique = points[kept]
    rounded = np.round(unique, 8)
    order = np.lexsort(rounded.T[::-1])
    return [BlochVector.from_array(p) for p in unique[order]]


def stabilizer(g: RotationGroup, v: BlochVector) -> RotationGroup:
    """Subgroup of g fixing v within 1e-8."""
    arr = v.as_array()
    fixed = tuple(m for m in g.elements if np.linalg.norm(m @ arr - arr) < POINT_TOL)
    return RotationGroup(f"{g.name}_stab", fixed)


def _stabilizer_indices(g: RotationGroup, v: np.ndarray) -> list:
    return [i for i, m in enumerate(g.elements)
            if np.linalg.norm(m @ v - v) < POINT_TOL]


def double_coset_profile(g: RotationGroup, v: BlochVector) -> DoubleCosetProfile:
    """Partition g into double cosets K_v a K_v of the stabilizer of v.

    Every element of a double coset attains the same node value a v . v
    (and the inverse coset attains it too, since the matrices are
    orthogonal).  Cosets are therefore counted per node value: a value
    carried by a single coset contributes to ``n_s``, and cosets sharing
    their value with a partner coset contribute to ``n_a``.  The count
    ``n_v = n_s + n_a/2`` bounds the size of the interpolation node set
    and drives the degree bound.
    """
    arr = v.as_array()
    mats = list(g.elements)
    stab_idx = _stabilizer_indices(g, arr)
    keys = [_matrix_key(_snap(m)) for m in mats]
    index_of = {k: i for i, k in enumerate(keys)}

    def locate(m: np.ndarray) -> int:
        key = _matrix_key(_snap(m))
        if key in index_of:
            return index_of[key]
        for i, other in enumerate(mats):  # tolerance fallback
            if np.linalg.norm(m - other) < MATRIX_TOL:
                return i
        raise RuntimeError("product left the group; closure is broken")

    assigned = [None] * len(mats)
    cosets = []
    for i in range(len(mats)):
        if assigned[i] is not None:
            continue
        members = set()
        for a in stab_idx:
            for b in stab_idx:
                members.add(locate(mats[a] @ mats[i] @ mats[b]))
        label = len(cosets)
        for j in members:
            assigned[j] = label
        cosets.append(members)

    values = [float((mats[next(iter(c))] @ arr) @ arr) for c in cosets]
    classes = {}
    for label, value in enumerate(values):
        for seen in classes:
            if abs(seen - value) < 1e-9:
                classes[seen].append(label)
                break
        else:
            classes[value] = [label]
    if any(len(labels) > 2 for labels in classes.values()):
        raise RuntimeError("more than two double cosets share a node value")
    n_s = sum(1 for labels in classes.values() if len(labels) == 1)
    n_a = sum(len(labels) for labels in classes.values() if len(labels) == 2)
    antipodal = any(np.linalg.norm(m @ arr + arr) < POINT_TOL for m in mats)
    return DoubleCosetProfile(
        n_s=n_s, n_a=n_a, n_v=n_s + n_a / 2.0,
        antipodal_in_orbit=antipodal,
        coset_sizes=tuple(sorted(len(c) for c in cosets)),
    )


def degree_bound(profile: DoubleCosetProfile, orbit_size: int,
                 stabilizer_order: int) -> int:
    """Upper bound for the degree of the node-set interpolant.

    (|orbit|-2)/|stab| + n_s - 1 when -v is in the orbit, with -2
    replaced by -1 otherwise; the quotient is always an integer.
    """
    offset = 2 if profile.antipodal_in_orbit else 1
    quotient, remainder = divmod(orbit_size - offset, stabilizer_order)
    if remainder != 0:
        raise ValueError("inconsistent orbit/stabilizer counts")
    return quotient + profile.n_s - 1
