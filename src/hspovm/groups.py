"""Finite rotation groups on the sphere: generation, orbits, double cosets.

A group is stored as one read-only (order, 3, 3) array of its elements
(orders are at most 60, so brute force beats cleverness everywhere).
Canonical orientations are fixed once and for all so that the invariant
polynomials in :mod:`hspovm.invariants` apply verbatim:

* ``C_n``  rotations about the z-axis,
* ``D_n``  C_n and the half-turns about the in-plane axes at angles pi j/n,
* ``D2``   the three coordinate-axis half-turns,
* ``T``    3-fold axes through the even-sign vertices (+-1, +-1, +-1),
* ``O``    4-fold axes along the coordinate axes,
* ``I``    5-fold axes through the icosahedron vertices (0, +-tau, +-1),
  (+-tau, +-1, 0), (+-1, 0, +-tau), with tau the golden ratio.

D2, T, O and I are closed exactly in Q(sqrt 5) (:mod:`hspovm.q5`); their
float elements are the images of the exact ones, so nothing is snapped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import BlochVector
from .q5 import Q5, dot

POINT_TOL = 1e-8      # orbit point dedup tolerance

_HALF, _TAU_2, _INV_2TAU = Q5(1, 0, 2), Q5(1, 1, 4), Q5(-1, 1, 4)
_SHIFT = ((0, 0, 1), (1, 0, 0), (0, 1, 0))      # 120 deg about (1, 1, 1)

_GENERATORS = {
    "D2": (((1, 0, 0), (0, -1, 0), (0, 0, -1)), ((-1, 0, 0), (0, 1, 0), (0, 0, -1))),
    "T": (_SHIFT, ((-1, 0, 0), (0, -1, 0), (0, 0, 1))),
    "O": (_SHIFT, ((0, -1, 0), (1, 0, 0), (0, 0, 1))),   # quarter-turn about z
    "I": (_SHIFT, ((_INV_2TAU, -_HALF, _TAU_2),          # 2 pi/5 about (0, tau, 1)
                   (_HALF, _TAU_2, _INV_2TAU),
                   (-_TAU_2, _INV_2TAU, _HALF))),
}
EXPECTED_ORDER = {"D2": 4, "T": 12, "O": 24, "I": 60}


@dataclass(frozen=True)
class RotationGroup:
    """Finite subgroup of SO(3) given by its elements."""

    name: str
    elements: np.ndarray  # (order, 3, 3), read-only
    exact: tuple = ()  # the same elements as rows of Q5 (D2, T, O, I only)

    def __post_init__(self):
        elements = np.array(self.elements, dtype=float)
        elements.setflags(write=False)
        object.__setattr__(self, "elements", elements)

    @property
    def order(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class DoubleCosetProfile:
    """Double-coset counts of a stabilizer, driving the degree bound."""

    n_s: int                 # self-inverse double cosets
    n_a: int                 # non self-inverse double cosets
    n_v: float               # n_s + n_a / 2
    antipodal_in_orbit: bool
    coset_sizes: tuple = ()


def rotation_matrix(axis, angle: float) -> np.ndarray:
    """Rotation by ``angle`` about ``axis`` (Rodrigues formula)."""
    n = np.asarray(axis, dtype=float)
    if n.shape != (3,):
        raise ValueError(f"rotation axis {n.tolist()} is not three numbers")
    norm = np.linalg.norm(n)
    if not 0.0 < norm < math.inf:
        raise ValueError(f"rotation axis {n.tolist()} is zero or not finite")
    n = n / norm
    c, s = math.cos(angle), math.sin(angle)
    cross = np.array([[0.0, -n[2], n[1]],
                      [n[2], 0.0, -n[0]],
                      [-n[1], n[0], 0.0]])
    return c * np.eye(3) + s * cross + (1.0 - c) * np.outer(n, n)


def _closure(generators, expected_order: int) -> list:
    """The group generated by exact matrices (rows of Q5), breadth first
    from the identity, keyed by the exact entries."""
    def exact(m):
        return tuple(tuple(Q5.of(x) for x in row) for row in m)

    def product(g, a):
        cols = tuple(zip(*a))
        return tuple(tuple(dot(row, col) for col in cols) for row in g)

    identity = exact(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    gens = [exact(g) for g in generators]
    elements = {identity: None}
    frontier = [identity]
    while frontier:
        new_frontier = []
        for a in frontier:
            for g in gens:
                prod = product(g, a)
                if prod not in elements:
                    elements[prod] = None
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
    return list(elements)


def generate_group(name: str, n: int = None) -> RotationGroup:
    """Build a rotation group by tag: "C" or "D" with n for C_n or D_n
    (written out by their entries, C_n first), D2, T, O or I (exact
    generator closure, floats the images)."""
    if name in ("C", "D"):
        if n is None or n < 1:
            raise ValueError(f"{name}_n needs n >= 1")
        turns = [(math.cos(2.0 * math.pi * j / n), math.sin(2.0 * math.pi * j / n))
                 for j in range(n)]
        mats = [((c, 0.0 - s, 0), (s, c, 0), (0, 0, 1)) for c, s in turns]   # no -0.0
        if name == "D":         # R(2 pi j/n) diag(1, -1, -1), the half-turn about pi j/n
            mats += [((c, s, 0), (s, -c, 0), (0, 0, -1)) for c, s in turns]
        return RotationGroup(f"{name}_{n}", mats)
    if name not in _GENERATORS:
        raise ValueError(f"unknown group tag {name!r}")
    exact = tuple(_closure(_GENERATORS[name], EXPECTED_ORDER[name]))
    return RotationGroup(name, [[[float(x) for x in row] for row in m] for m in exact], exact)


def _distinct(points: np.ndarray) -> np.ndarray:
    """The rows of ``points`` in order, each dropped when it lies within
    POINT_TOL of a row already kept; the closeness of all pairs comes from
    one distance matrix."""
    close = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1) < POINT_TOL
    covered = np.zeros(len(points), dtype=bool)
    kept = []
    for i in range(len(points)):
        if not covered[i]:
            kept.append(i)
            covered |= close[i]
    return points[kept]


def _fixing(images: np.ndarray, v: np.ndarray, radius: float) -> np.ndarray:
    """The mask of the images g v within ``radius`` of v: the elements fixing v."""
    return np.linalg.norm(images - v, axis=1) < radius


def _location_order(points: np.ndarray) -> np.ndarray:
    """The indices that sort the (n, 3) ``points`` by their coordinates
    rounded to 1e-8, x first; a stable sort, so ties keep their order."""
    return np.lexsort(np.round(points, 8).T[::-1])


def orbit(g: RotationGroup, v: BlochVector) -> list:
    """Deduplicated orbit of v, sorted by ``_location_order``: the images
    in group order, each dropped within POINT_TOL of one kept."""
    unique = _distinct(g.elements @ v.as_array())
    return [BlochVector.from_array(p) for p in unique[_location_order(unique)]]


def stabilizer(g: RotationGroup, v: BlochVector) -> RotationGroup:
    """Subgroup of g fixing v within POINT_TOL."""
    arr = v.as_array()
    return RotationGroup(f"{g.name}_stab", g.elements[_fixing(g.elements @ arr, arr, POINT_TOL)])


def double_coset_profile(g: RotationGroup, v: BlochVector) -> DoubleCosetProfile:
    """Partition g into double cosets K a K of the stabilizer K of v.

    K a K v = K (a v), so the double cosets are in bijection with the
    K-orbits of the orbit points a v: K a K has |K| elements per point of
    the K-orbit of a v, and every element attains the node value
    (a v) . v, as K fixes v (the inverse coset attains it too, since the
    matrices are orthogonal).  Cosets are therefore counted per node
    value: a value carried by a single coset contributes to ``n_s``, and
    cosets sharing their value with a partner coset contribute to ``n_a``.
    The count ``n_v = n_s + n_a/2`` bounds the size of the interpolation
    node set and drives the degree bound.
    """
    arr = v.as_array()
    images = g.elements @ arr
    stab = g.elements[_fixing(images, arr, POINT_TOL)]
    points = _distinct(images)
    # the K-orbit of each orbit point, named by its first point
    moved = points @ stab.transpose(0, 2, 1)            # k p_i, indexed (k, i)
    same = np.linalg.norm(moved[:, :, None, :] - points[None, None, :, :], axis=-1) < POINT_TOL
    sizes = np.bincount(np.argmax(same.any(axis=0), axis=1), minlength=len(points))
    firsts = np.flatnonzero(sizes)
    values = (points[firsts] @ arr).tolist()
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
    antipodal = bool(np.any(np.linalg.norm(points + arr, axis=1) < POINT_TOL))
    return DoubleCosetProfile(
        n_s=n_s, n_a=n_a, n_v=n_s + n_a / 2.0,
        antipodal_in_orbit=antipodal,
        coset_sizes=tuple(sorted((len(stab) * sizes[firsts]).tolist())),
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
