"""Entropy of measurement on the Bloch sphere and its global optimization.

For a k-outcome normalized rank-1 POVM with unit Bloch vectors v_j, the
entropy of measurement at a pure state u is

    H(u) = ln(k/2) + (2/k) sum_j h(u . v_j),

and the relative entropy is ln k - H(u).  The global minima of a highly
symmetric POVM are the antipodal orbit {-v_j} wherever the interpolation
certificate proves it (the paper's theorem).  Other global extrema are
located (on the member that the vectors are a rotated copy of, if any) by a
Fibonacci-lattice scan of one fundamental domain of the symmetry group (H is
invariant under it, so every orbit of critical points has a representative
there; Michel's argument), followed by one Newton refinement per symmetry
orbit on the kernel's own derivatives h' and h'' (Riemannian Newton on the
sphere, Newton in the angle on a coplanar set's circle), whose result is
mapped through the group.  Every kernel's H increases with sum_j h(u . v_j),
so that sum is what is refined.  H fails to be twice differentiable at the
antipodes of the POVM vectors, so a refinement that reaches one stops there
and leaves it to the re-centring on inert points.  All the starts of one
call are refined at once, with one evaluation of h' and h'' per round.
Coplanar maxima are the plane's normals, and a pair's maxima its great
circle.
Critical points forced by symmetry (inert states) are classified by the
sign of a one-line statistic wherever the isotropy group acts irreducibly
on the tangent plane, and by the signs of the Hessian's eigenvalues
otherwise.  The statistic is 1 + tr Hess H, and Hess H is 2/k times the
Hessian of ``_local_model``, the one second-order model that also gives
the Newton steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .bloch import BlochVector, EntropyKernel, SHANNON
from .catalog import GEOMETRY_TOL, IDENTITY, TRIVIAL_GROUP, HsPovm, _group_of_tag
from .groups import RotationGroup, _fixing, _location_order

DEFAULT_GRID = 200_000
NEWTON_MAXITER = 50       # rounds of a Newton refinement before it is unconverged
N_CANDIDATES = 2000       # lowest scan points kept, over |G| per domain
START_ANGLE = 0.05        # rad, minimum spacing of refinement starts
CLUSTER_ANGLE = 1e-4
GRID_CHUNK = 4096         # rows per block of a large point grid
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
# centre of the Dirichlet cell scanned by find_extrema: on no rotation axis
# of T, O, I, D2 or any C_n or D_n, so its images under each are distinct
DOMAIN_CENTER = np.array([0.3, 0.2, 0.9]) / math.sqrt(0.94)
DOMAIN_CACHE = 4          # (n_scan, group) domains kept: T, O, I and C_1 at one n_scan
AXIS_RADIUS = 1e-6        # a point this close to an antipode -v_j or a rotation axis is on it


@dataclass(frozen=True, slots=True)
class CriticalPoint:
    """Located extremum or saddle of the entropy of measurement."""

    location: BlochVector
    value: float
    kind: str                 # min | max | saddle | unclassified
    type_label: str = ""      # I | II | III | non-inert | degenerate
    classifier_statistic: float = math.nan
    converged: bool = True    # local refinement hit its tolerance


@dataclass(frozen=True)
class EntropyLandscape:
    povm: HsPovm
    samples: tuple            # (BlochVector, H) pairs


def _entropy_values(points: np.ndarray, povm: HsPovm,
                    kernel: EntropyKernel = SHANNON) -> np.ndarray:
    """Vectorized entropy at an (n, 3) array of Bloch points (norm <= 1).

    Large grids are evaluated in blocks of at most GRID_CHUNK rows, so the
    n x k temporaries stay in cache; every block goes through the same
    kernel call, ``EntropyKernel.entropy_of_dots``, as the single points of
    the optimizer.
    """
    if len(points) > GRID_CHUNK:
        blocks = np.array_split(points, -(-len(points) // GRID_CHUNK))
        return np.concatenate([_entropy_values(b, povm, kernel) for b in blocks])
    return kernel.entropy_of_dots(points @ povm.matrix().T, povm.k)


def _entropy_of_rows(points: np.ndarray, coords: np.ndarray, k: int,
                     kernel: EntropyKernel) -> np.ndarray:
    """Entropy at each row p of ``points`` in one kernel call, equal bit for
    bit to ``kernel.entropy_of_dots(coords @ p, k)``: the dots come from a
    stack of the same matrix-vector products.  (The block product
    points @ coords.T rounds differently in the last bit on many rows.)"""
    return kernel.entropy_of_dots((coords @ points[:, :, None])[..., 0], k)


def entropy_at(u: BlochVector, povm: HsPovm,
               kernel: EntropyKernel = SHANNON) -> float:
    """Entropy of measurement at the pure state u."""
    return float(_entropy_values(u.as_array()[None, :], povm, kernel)[0])


def fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic low-discrepancy lattice of n points on the sphere."""
    return _fibonacci_rows(0, n, n)


def _fibonacci_rows(i0: int, i1: int, n: int) -> np.ndarray:
    """Rows i0 .. i1-1 of fibonacci_sphere(n), equal to them bit for bit
    (every entry is computed from its own index alone)."""
    z = 1.0 - np.arange(2 * i0 + 1, 2 * i1, 2) / n
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    phi = np.arange(i0, i1) * GOLDEN_ANGLE
    out = np.empty((len(z), 3))     # columns written in place: fewer temporaries
    np.multiply(r, np.cos(phi), out=out[:, 0])
    np.multiply(r, np.sin(phi), out=out[:, 1])
    out[:, 2] = z
    return out


@lru_cache(maxsize=DOMAIN_CACHE)
def _fundamental_domain(n: int, tag: str) -> np.ndarray:
    """The rows of fibonacci_sphere(n) in the Dirichlet cell of DOMAIN_CENTER
    c under the group with this tag: the points p with p . (c - g c) >= 0
    for every element g, so a point equidistant from c and another image
    counts for c.  Every orbit of the group meets the cell; for the trivial
    group it is the whole lattice.

    The lattice is generated in GRID_CHUNK blocks and never held whole.  A
    block is tested first against the images across the cell's facets, and
    only its survivors against every image.  The result is read-only: the
    cache hands the same array to every caller.
    """
    images = _group_of_tag(tag).elements @ DOMAIN_CENTER
    normals = DOMAIN_CENTER - images[np.any(images != DOMAIN_CENTER, axis=1)]
    facets = _cell_facets(normals)
    kept = [np.empty((0, 3))]
    for i0 in range(0, n, GRID_CHUNK):
        block = _fibonacci_rows(i0, min(i0 + GRID_CHUNK, n), n)
        # normals @ block.T, not its transpose: the reduction runs along
        # the long axis, about 4x faster on a 4096-row block
        block = block[np.all(facets @ block.T >= 0.0, axis=0)]
        kept.append(block[np.all(normals @ block.T >= 0.0, axis=0)])
    domain = np.concatenate(kept)
    domain.setflags(write=False)
    return domain


def _cell_facets(normals: np.ndarray) -> np.ndarray:
    """The rows of ``normals`` whose half-spaces p . normal >= 0 bound the
    cell they cut out of the sphere: the two through each of its vertices.
    A vertex is a point on two of the planes inside every half-space.  With
    no vertex (at most one plane) every row is returned."""
    i, j = np.triu_indices(len(normals), 1)
    corners = np.cross(normals[i], normals[j])
    corners /= np.linalg.norm(corners, axis=1)[:, None]
    dots = corners @ normals.T
    vertex = np.all(dots >= -1e-12, axis=1) | np.all(dots <= 1e-12, axis=1)  # or its antipode
    facet = np.zeros(len(normals), dtype=bool)
    facet[i[vertex]] = facet[j[vertex]] = True
    return normals[facet] if facet.any() else normals


def landscape(povm: HsPovm, n_samples: int = 1000,
              kernel: EntropyKernel = SHANNON) -> EntropyLandscape:
    points = fibonacci_sphere(n_samples)
    values = _entropy_values(points, povm, kernel)
    samples = tuple((BlochVector.from_array(p), float(v))
                    for p, v in zip(points, values))
    return EntropyLandscape(povm=povm, samples=samples)


def _tangent_frames(points: np.ndarray) -> tuple:
    """An orthonormal basis (e1, e2) of the plane orthogonal to each unit
    row c of ``points``, e1 = c x a / |c x a| for a = (1, 0, 0), or (0, 1, 0)
    where |c_x| >= 0.9, and e2 = c x e1, formed row by row.  The cross
    products are written out by components: the operations of ``np.cross``,
    in its order, at about half its cost."""
    x, y, z = points.T
    a0 = np.where(np.abs(x) < 0.9, 1.0, 0.0)
    a1, a2 = 1.0 - a0, np.zeros(len(x))
    e1 = np.stack([y * a2 - z * a1, z * a0 - x * a2, x * a1 - y * a0], axis=1)
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    b0, b1, b2 = e1.T
    return e1, np.stack([y * b2 - z * b1, z * b0 - x * b2, x * b1 - y * b0], axis=1)


def _on_circle(phi: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The points cos(phi) a + sin(phi) b, one row per angle (no -0.0)."""
    return np.cos(phi)[:, None] * a + np.sin(phi)[:, None] * b + 0.0


def _half_gaps(points: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """x_j = (1 + u . v_j)/2 for each row u of ``points`` and vector v_j,
    formed as |u + v_j|^2/4: free of the cancellation in 1 + u . v_j near
    an antipode, where the derivatives of every kernel blow up."""
    gaps = points[:, None, :] + coords[None, :, :]
    return np.add.reduce(gaps * gaps, axis=-1) * 0.25


def _at_antipode(x: np.ndarray) -> np.ndarray:
    """Whether each row of ``_half_gaps`` x lies within AXIS_RADIUS of an
    antipode -v_j: |u + v_j| < AXIS_RADIUS for some j."""
    return np.min(x, axis=-1) < AXIS_RADIUS ** 2 / 4


def _newton(starts: np.ndarray, coords: np.ndarray, kernel: EntropyKernel, sign: float,
            embed, propose) -> tuple:
    """Safeguarded Newton for the minima of F = sign sum_j h(u . v_j), from
    every start at once.  Each round forms x_j = (1 + u . v_j)/2 at the
    points u = ``embed(start)`` and the summand's h', h'' there, and
    ``propose(rows, starts, x, h', h'')`` returns the trial starts, the step
    lengths, whether each is a Newton step, and the gradient's terms (one
    (n, k) array per component).  A start ends when its gradient is zero to
    the rounding bound of its k-term sums, when it stops moving, when a
    Newton step is no shorter than the last, or within AXIS_RADIUS of an
    antipode -v_j, where h'' diverges (left to ``_recenter_on_inert``); after
    NEWTON_MAXITER rounds it is unconverged.  Every operation is row by
    row: each start gets the bits it would get alone.  Returns the starts
    and the convergence flags."""
    state = np.array(starts, dtype=float)
    last = np.full(len(state), np.inf)          # length of the last Newton step
    converged = np.zeros(len(state), dtype=bool)
    active = np.arange(len(state))
    _, d1, d2 = kernel.summand_at_x(float, np.log)
    floor = len(coords) * np.finfo(float).eps    # rounding bound of a k-term sum
    for _ in range(NEWTON_MAXITER):
        if not len(active):
            break
        x = _half_gaps(embed(state[active]), coords)
        far = ~_at_antipode(x)
        x, rows = x[far], active[far]
        trial, step, taken, gradient = propose(rows, state[rows], x, sign * d1(x),
                                               sign * d2(x))
        done = (np.all([np.abs(np.add.reduce(t, axis=-1))
                        <= floor * np.add.reduce(np.abs(t), axis=-1) for t in gradient], axis=0)
                | np.all(trial == state[rows], axis=tuple(range(1, trial.ndim)))
                | (taken & (step >= last[rows])))
        last[rows] = np.where(taken, step, np.inf)
        state[rows[~done]] = trial[~done]
        converged[active[~far]] = True
        converged[rows[done]] = True
        active = rows[~done]
    return state, converged


def _local_model(coords: np.ndarray, tangents, x: np.ndarray, h1: np.ndarray,
                 h2: np.ndarray) -> tuple:
    """The second-order model of F = sum_j h(t_j), t_j = u . v_j, at each
    row u along the unit tangents e_a there (one (n, 3) array each), from
    x_j = (1 + t_j)/2 and the summand's h'(t_j) and h''(t_j): the gradient's
    terms h'(t_j)(e_a . v_j), one (n, k) array per tangent, and the Riemannian
    Hessian H_ab = sum h''(t_j)(e_a . v_j)(e_b . v_j) - (sum h'(t_j) t_j) delta_ab,
    a symmetric nested list of (n,) arrays.  Every operation is row by row."""
    slopes = [(coords @ e[:, :, None])[..., 0] for e in tangents]
    radial = np.add.reduce(h1 * (2.0 * x - 1.0), axis=-1)
    hessian = [[None] * len(slopes) for _ in slopes]
    for a, sa in enumerate(slopes):
        hessian[a][a] = np.add.reduce(h2 * sa * sa, axis=-1) - radial
        for b in range(a + 1, len(slopes)):
            hessian[a][b] = hessian[b][a] = np.add.reduce(h2 * sa * slopes[b], axis=-1)
    return [h1 * s for s in slopes], hessian


def _newton_on_circle(phi: np.ndarray, spacing: float, a, b, coords: np.ndarray,
                      kernel: EntropyKernel, sign: float) -> tuple:
    """Minima of F along the circle cos(phi) a + sin(phi) b, refined from
    the angles ``phi`` by ``_newton`` in phi, with F' and F'' from the
    ``_local_model`` along the circle's tangent -sin(phi) a + cos(phi) b.
    Each start keeps a bracket, phi +- 2 spacing narrowed by the sign of F';
    a step that leaves it, or is taken where F'' <= 0, is replaced by the
    bracket's midpoint."""
    lo, hi = phi - 2.0 * spacing, phi + 2.0 * spacing

    def propose(rows, p, x, h1, h2):
        tangent = np.cos(p)[:, None] * b - np.sin(p)[:, None] * a
        terms, ((f2,),) = _local_model(coords, (tangent,), x, h1, h2)
        f1 = np.add.reduce(terms[0], axis=-1)
        lo[rows] = np.where(f1 < 0.0, p, lo[rows])
        hi[rows] = np.where(f1 > 0.0, p, hi[rows])
        newton = p - f1 / np.where(f2 > 0.0, f2, 1.0)
        taken = (f2 > 0.0) & (lo[rows] < newton) & (newton < hi[rows])
        trial = np.where(taken, newton, 0.5 * (lo[rows] + hi[rows]))
        return trial, np.abs(trial - p), taken, terms

    return _newton(phi, coords, kernel, sign, lambda p: _on_circle(p, a, b), propose)


def _newton_on_sphere(starts: np.ndarray, coords: np.ndarray, kernel: EntropyKernel,
                      sign: float) -> tuple:
    """Minima of F on the sphere, refined from the rows of ``starts`` by
    ``_newton`` as Riemannian Newton (Absil, Mahony & Sepulchre 2008,
    ch. 6).  The gradient and Hessian are the ``_local_model`` in the frame
    (e1, e2) of ``_tangent_frames`` at u; the step solves the 2 x 2 system
    and is retracted onto the sphere by normalizing u + s_1 e1 + s_2 e2.
    Where the Hessian is not positive definite, the step is the descent
    direction -gradient over the Hessian's largest absolute eigenvalue.  A
    step that would reach an antipode -v_j where F falls towards it
    (h'(t_j) > 0), past which h'' diverges, is cut back to half the
    distance."""

    def propose(rows, u, x, h1, h2):
        e1, e2 = _tangent_frames(u)
        terms, ((h11, h12), (_, h22)) = _local_model(coords, (e1, e2), x, h1, h2)
        g1, g2 = (np.add.reduce(t, axis=-1) for t in terms)
        det = h11 * h22 - h12 * h12
        taken = (h11 > 0.0) & (det > 0.0)
        det = np.where(taken, det, 1.0)
        largest = np.abs(0.5 * (h11 + h22)) + np.hypot(0.5 * (h11 - h22), h12)
        largest = np.where(largest > 0.0, largest, 1.0)
        s1 = np.where(taken, (h12 * g2 - h22 * g1) / det, -g1 / largest)
        s2 = np.where(taken, (h12 * g1 - h11 * g2) / det, -g2 / largest)
        closest = np.arange(len(x)), np.argmin(x, axis=1)
        reach = np.where(h1[closest] > 0.0, np.sqrt(x[closest]), np.inf)   # |u + v_j|/2
        step = np.hypot(s1, s2)
        cut = np.minimum(reach / np.where(step > 0.0, step, 1.0), 1.0)
        trial = u + (cut * s1)[:, None] * e1 + (cut * s2)[:, None] * e2
        return (trial / np.linalg.norm(trial, axis=1)[:, None], cut * step, taken & (cut == 1.0),
                terms)

    starts = starts / np.linalg.norm(starts, axis=1)[:, None]
    return _newton(starts, coords, kernel, sign, lambda u: u, propose)


def _orbit_representatives(points: np.ndarray, group: RotationGroup,
                           angle: float) -> list:
    """Indices of the points kept by greedy thinning in the given order: a
    point is dropped when it lies within ``angle`` of a group image of a
    point already kept.  Each kept point covers, in one product, every
    point near one of its images; the next kept point is the first one not
    covered."""
    threshold = math.cos(angle)
    covered = np.zeros(len(points), dtype=bool)
    kept = []
    i = 0
    while i < len(points):
        kept.append(i)
        covered |= np.max(points @ (group.elements @ points[i]).T, axis=1) > threshold
        uncovered = np.flatnonzero(~covered[i + 1:])
        if not len(uncovered):
            break
        i += 1 + int(uncovered[0])
    return kept


def _lowest(values: np.ndarray, n: int) -> np.ndarray:
    """Indices of the n lowest values in ascending order of value, by a
    partial sort."""
    if n >= len(values):
        return np.argsort(values)
    lowest = np.argpartition(values, n - 1)[:n]
    return lowest[np.argsort(values[lowest])]


def _recenter_on_inert(p, value, povm: HsPovm, group: RotationGroup, rows):
    """Re-center a refined point on the inert point it lies at, if that is
    no worse than its value plus 1e-10 (``rows`` gives the objective at each
    row of an array): the antipode -v_j within AXIS_RADIUS, else
    the axis point that is the normalized mean of its images under the two
    or more elements of ``group`` keeping it in its cluster (CLUSTER_ANGLE)."""
    x = _half_gaps(p[None, :], povm.matrix())
    if _at_antipode(x)[0]:
        candidate = -povm.matrix()[int(np.argmin(x))]
    else:
        images = group.elements @ p
        fixing = images[_fixing(images, p, CLUSTER_ANGLE)]
        if len(fixing) < 2:
            return p, value
        candidate = np.mean(fixing, axis=0)
        candidate = candidate / np.linalg.norm(candidate) + 0.0     # no -0.0
    candidate_value = rows(candidate[None, :])[0]
    if candidate_value <= value + 1e-10:
        return candidate, candidate_value
    return p, value


def _lowest_distinct(points, values, flags, povm: HsPovm, group: RotationGroup,
                     rows) -> list:
    """Keep the lowest of each CLUSTER_ANGLE neighbourhood of the refined
    points (``values`` is the objective ``rows`` at each), re-center those on the
    inert points they lie at and return the (point, value, converged)
    triples within 1e-8 of the best value."""
    order = np.argsort(values, kind="stable")
    kept = [order[i] for i in _orbit_representatives(points[order], TRIVIAL_GROUP,
                                                      CLUSTER_ANGLE)]
    located = [(*_recenter_on_inert(points[i], values[i], povm, group, rows), flags[i])
               for i in kept]
    best = min(v for _, v, _ in located)
    return [t for t in located if t[1] <= best + 1e-8]


def _circle_refined(povm: HsPovm, normal, group: RotationGroup, values, n_scan: int,
                    kernel: EntropyKernel, sign: float) -> tuple:
    """1D search for the minima of a coplanar POVM, which lie on the circle
    orthogonal to ``normal`` (H depends on u only through its projection and
    is concave in the Bloch ball).  ``values`` is the signed entropy of the
    (n, 3) scan grid.  On the circle, one arc (``_circle_arc``) is scanned;
    its lowest 4k grid points no higher than their two neighbours, within
    1e-3 of the lowest, start ``_newton_on_circle``.  Returns the refined
    points and whether each converged."""
    n = max(n_scan, 4096)
    # the z = 0 circle is (cos phi, sin phi, 0), bit for bit
    (e1,), (e2,) = _tangent_frames((normal if normal[2] >= 0.0 else -normal)[None, :])
    a, b = -e2, e1
    spacing = 2.0 * math.pi / n
    params = _circle_arc(group, a, b, n) % n * spacing
    vals = values(_on_circle(params, a, b))
    inner = vals[1:-1]
    minima = np.flatnonzero((inner <= vals[:-2]) & (inner <= vals[2:])) + 1
    minima = minima[np.argsort(vals[minima])][: 4 * povm.k]
    minima = minima[vals[minima] <= vals[minima[0]] + 1e-3]
    phi, converged = _newton_on_circle(params[minima], spacing, a, b, povm.matrix(),
                                       kernel, sign)
    return _on_circle(phi, a, b), converged


def _circle_arc(group: RotationGroup, a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The grid indices j (phi = 2 pi j / n on cos(phi) a + sin(phi) b,
    unwrapped) of the Dirichlet cell of the circle point c at phi = 1 under
    ``group``, the points p with p . (c - g c) >= 0 for every g (for D_n an
    arc of pi/n), padded by two steps so that a minimum on a mirror (an end)
    is bracketed; for the trivial group the circle and one step beyond."""
    c = math.cos(1.0) * a + math.sin(1.0) * b
    images = group.elements @ c
    normals = c - images[np.any(images != c, axis=1)]
    if not len(normals):
        return np.arange(-1, n + 1)
    # each half-plane is a half circle centred within pi/2 of c's angle
    offsets = (np.arctan2(normals @ b, normals @ a) - 1.0 + math.pi) % (2.0 * math.pi) - math.pi
    spacing = 2.0 * math.pi / n
    lo = (1.0 + np.max(offsets) - math.pi / 2.0) / spacing
    hi = (1.0 + np.min(offsets) + math.pi / 2.0) / spacing
    return np.arange(math.floor(lo) - 2, math.ceil(hi) + 3)


def find_extrema(povm: HsPovm, mode: str = "min", n_scan: int = DEFAULT_GRID,
                 kernel: EntropyKernel = SHANNON) -> list:
    """Locate the global extrema of H over pure states.

    Vectors that are R times a registry member or rectangle, whatever
    their label (:attr:`HsPovm.frame`), get the member's extrema carried
    over by R, as H(Ru; RV) = H(u; V).

    Minima of a highly symmetric POVM come from the paper's theorem: when
    the family is in the registry and
    :func:`hspovm.certificate.certify_minimum` proves for this kernel that
    the antipodal orbit {-v_j} is the whole set of global minimizers (in
    any orientation of the family), the k antipodes are returned at their
    entropy (one ``_entropy_of_rows`` call), type I and ``converged=True``,
    and nothing is scanned.  The maxima of a set spanning a plane are its
    unit normals +-n: only there is p uniform (p is affine and injective in
    the projection of u onto the plane), where every kernel is largest.
    Those of a pair {v, -v} (every set of two; its frame is the digon) fill
    the great circle orthogonal to v, whose point e1 of ``_tangent_frames``
    at v is returned.
    All other inputs go to the scan (``_scan_extrema``): other maxima,
    rectangles, sets congruent to no member and kernels the certificate
    does not settle.  ``n_scan`` matters only for these.

    The scan: H is invariant under the POVM's symmetry group G (its
    member's, or the trivial group without a frame), so it covers one
    fundamental domain of G, and each refined point is mapped through G.
    On the sphere the domain is the part of the n_scan-point Fibonacci
    lattice in the Dirichlet cell of a fixed generic point (memoized per
    (n_scan, G) in a small cache); its lowest ceil(N_CANDIDATES/|G|)
    points are thinned against the group images of the starts already
    taken (0.05 rad) and refined by Riemannian Newton
    (``_newton_on_sphere``).  Coplanar minima are searched on one arc of
    their circle, the cell of a generic circle point, and refined by Newton
    in the angle (``_newton_on_circle``).  Both refine every start of the
    call at once, with the summand's h' and h'' from the kernel
    (:meth:`EntropyKernel.summand_at_x`), and give each start the same bits
    as refining it alone.
    Points within 1e-4 rad of a lower one are dropped, the rest re-centred
    on the inert point they lie on, and those within 1e-8 of the best value
    returned.  Either way the points are sorted by their coordinates.
    """
    if mode not in ("min", "max"):
        raise ValueError("mode must be 'min' or 'max'")
    member, rotation = povm.frame or (povm, IDENTITY)
    if rotation is not IDENTITY:
        carried = [replace(c, location=BlochVector.from_array(rotation @ c.location.as_array()))
                   for c in find_extrema(member, mode, n_scan, kernel)]
        return _by_location(carried)
    coords, k = povm.matrix(), povm.k
    if mode == "min" and _antipodes_certified(povm, kernel):
        values = _entropy_of_rows(-coords, coords, k, kernel).tolist()
        return _by_location([CriticalPoint(u, v, mode, "I")
                             for u, v in zip(povm.antipodes, values)])
    normal = _plane_normal(coords) if mode == "max" else None
    if normal is not None or (mode == "max" and k == 2):
        value = float(kernel.entropy_of_dots(np.zeros(k), k))     # p_j = 1/k
        tops = ([s * normal + 0.0 for s in (1.0, -1.0)] if normal is not None   # no -0.0
                else _tangent_frames(coords[:1])[0])
        return _by_location([CriticalPoint(u, value, mode, *_type_of_point(
            u, povm, povm.symmetry_group)) for u in map(BlochVector.from_array, tops)])
    return _scan_extrema(povm, mode, n_scan, kernel, N_CANDIDATES)


def _plane_normal(coords: np.ndarray):
    """The unit normal of the vectors' plane, from their largest cross
    product with the first; None unless they have rank 2 (to GEOMETRY_TOL)."""
    crosses = np.cross(coords[0], coords)
    norms = np.linalg.norm(crosses, axis=1)
    normal = crosses[np.argmax(norms)] / max(np.max(norms), GEOMETRY_TOL)
    planar = np.max(norms) > GEOMETRY_TOL and np.max(np.abs(coords @ normal)) < GEOMETRY_TOL
    return normal if planar else None


def _antipodes_certified(povm: HsPovm, kernel: EntropyKernel) -> bool:
    """Whether the certificate proves the antipodal orbit to be the whole
    set of global minimizers of H under this kernel: a valid certificate
    (orbit minimum and uniqueness), whose own check refuses vectors that
    are no rotated copy of a registry member.  A refused input is not
    certified."""
    # imported on use: the scan needs neither the certificate nor mpmath
    from .certificate import certify_minimum
    try:
        return certify_minimum(povm, kernel).valid
    except ValueError:
        return False


def _scan_extrema(povm: HsPovm, mode: str, n_scan: int, kernel: EntropyKernel,
                  n_candidates: int) -> list:
    """The extrema of H located by the scan described in :func:`find_extrema`."""
    sign = 1.0 if mode == "min" else -1.0
    coords, k = povm.matrix(), povm.k

    def values(points):
        return sign * _entropy_values(points, povm, kernel)

    def rows(points):
        return sign * _entropy_of_rows(points, coords, k, kernel)

    group, normal = povm.symmetry_group, _plane_normal(coords)
    if normal is not None:
        refined, converged = _circle_refined(povm, normal, group, values, n_scan // 16,
                                             kernel, sign)
    else:
        domain = _fundamental_domain(n_scan, group.name)
        candidates = domain[_lowest(values(domain), -(-n_candidates // group.order))]
        starts = candidates[_orbit_representatives(candidates, group, START_ANGLE)]
        refined, converged = _newton_on_sphere(starts, coords, kernel, sign)
    points = np.concatenate([group.elements @ p for p in refined])
    flags = np.repeat(converged, group.order).tolist()
    located = _lowest_distinct(points, rows(points), flags, povm, group, rows)

    out = []
    for p, value, converged in located:
        u = BlochVector.from_array(p)
        label, stat = _type_of_point(u, povm, group)
        out.append(CriticalPoint(location=u, value=float(sign * value),
                                 kind=mode, type_label=label,
                                 classifier_statistic=stat,
                                 converged=bool(converged)))
    return _by_location(out)


def _by_location(points: list) -> list:
    """The critical points, sorted in place by ``_location_order``."""
    order = _location_order(np.array([c.location.as_array() for c in points]).reshape(-1, 3))
    points[:] = [points[i] for i in order]
    return points


def _type_of_point(u: BlochVector, povm: HsPovm, group: RotationGroup) -> tuple:
    """The type of u and its statistic s (NaN for I and non-inert) from the
    images g u, formed once: u within AXIS_RADIUS of an antipode is on it,
    and the elements moving u by less than AXIS_RADIUS (a net looser than
    the ~1e-8 of refined extrema) fix it, and each orbit point
    is |Stab(u)| images, so s = (2/|G|) sum_g (gu . v) ln(1 + gu . v)."""
    arr = u.as_array()
    if _at_antipode(_half_gaps(arr[None, :], povm.matrix()))[0]:
        return "I", math.nan
    images = group.elements @ arr
    fixing = np.count_nonzero(_fixing(images, arr, AXIS_RADIUS))
    if fixing < 2:
        return "non-inert", math.nan
    ts = np.clip(images @ povm.fiducial.as_array(), -1.0, 1.0)
    stat = (2.0 * math.fsum((ts * np.log1p(ts)).tolist()) / len(ts)
            if np.min(ts) > -1.0 + 1e-15 else -math.inf)    # type I geometry: inapplicable
    # the rotations fixing u turn about u, a cyclic group: more than two of
    # them means one of order > 2 (and its inverse, which moves u as far)
    return ("II" if fixing > 2 else "III"), stat


def classify_inert_point(u: BlochVector, povm: HsPovm) -> CriticalPoint:
    """Classify a symmetry-forced critical point of H.

    Antipodes of POVM vectors (type I) are local minima of H.  Points
    whose stabilizer contains a rotation of order > 2 are classified by
    the statistic s = (2/|Gu|) sum (w.v) ln(1 + w.v): s > 1 means local
    minimum of H, s < 1 local maximum; s is 1 + tr Hess H.  At the
    remaining axis points (type III) the Hessian of the ``_local_model`` in
    the frame of ``_tangent_frames`` at u decides: positive definite is a
    minimum, negative definite a maximum, anything else a saddle.  The type
    comes from the classifier of :func:`find_extrema` under the same group
    (trivial for a set without a frame, which keeps only its antipodes),
    so a point within AXIS_RADIUS of an axis or antipode is classified as
    that point.  Vectors R member are classified as the member at R^T u.
    """
    member, rotation = povm.frame or (povm, IDENTITY)
    if rotation is not IDENTITY:
        seen = BlochVector.from_array(rotation.T @ u.as_array())     # where the member sees u
        return replace(classify_inert_point(seen, member), location=u)
    value = entropy_at(u, povm)
    label, stat = _type_of_point(u, povm, povm.symmetry_group)
    if label == "non-inert":
        raise ValueError("point is not on a rotation axis of the POVM symmetry")
    if label == "I":
        return CriticalPoint(location=u, value=value, kind="min",
                             type_label="I")
    if label == "II":
        if abs(stat - 1.0) < 1e-9:
            return CriticalPoint(location=u, value=value, kind="unclassified",
                                 type_label="degenerate",
                                 classifier_statistic=stat)
        kind = "min" if stat > 1.0 else "max"
        return CriticalPoint(location=u, value=value, kind=kind,
                             type_label="II", classifier_statistic=stat)
    # type III: the signs of the Hessian's eigenvalues
    arr, coords = u.as_array()[None, :], povm.matrix()
    x = _half_gaps(arr, coords)
    _, d1, d2 = SHANNON.summand_at_x(float, np.log)
    _, ((h11, h12), (_, h22)) = _local_model(coords, _tangent_frames(arr), x, d1(x), d2(x))
    det = h11[0] * h22[0] - h12[0] * h12[0]
    kind = "saddle" if det <= 0.0 else "min" if h11[0] > 0.0 else "max"
    return CriticalPoint(location=u, value=value, kind=kind,
                         type_label="III", classifier_statistic=stat)


def rectangle_bifurcation_threshold() -> float:
    """Root of cos(a/2) ln(tan^2(a/4)) + 2 on (0, pi/2), by bisection.

    Below the root the rectangle POVM has its entropy minima at the inert
    states along the long diagonal; above it those become saddles and two
    pairs of non-inert minimizers take over.
    """

    def f(a):
        return math.cos(a / 2.0) * math.log(math.tan(a / 4.0) ** 2) + 2.0

    lo, hi = 1e-9, math.pi / 2.0 - 1e-9
    if f(lo) >= 0.0 or f(hi) <= 0.0:
        raise RuntimeError("bisection bracket lost")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
