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
there; Michel's argument), followed by one derivative-free refinement per
symmetry orbit (an in-repo Nelder-Mead on tangent charts; H fails to be
twice differentiable exactly at the entropy minima, the antipodes of the
POVM vectors, so gradient steps are not trusted there), whose result is
mapped through the group.  Coplanar minima are searched by golden-section
on one arc of their circle; coplanar maxima are the plane's normals, and
a pair's maxima its great circle.
The local searches are generators that yield their trial points; all the
starts of one call advance side by side, with one kernel call per round.
Critical points forced by symmetry (inert states) are classified by the
sign of a one-line statistic wherever the isotropy group acts irreducibly
on the tangent plane, and by geodesic second-difference probing otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .bloch import BlochVector, EntropyKernel, SHANNON
from .catalog import GEOMETRY_TOL, IDENTITY, HsPovm, _group_of_tag
from .groups import RotationGroup, generate_group

DEFAULT_GRID = 200_000
REFINE_FTOL = 1e-13
REFINE_XTOL = 1e-9
REFINE_MAXITER = 600
MAX_RECENTER = 6          # tangent charts per sphere refinement
N_CANDIDATES = 2000       # lowest scan points kept, over |G| per domain
LINE_XTOL = 1e-12         # bracket width ending a golden-section search
START_ANGLE = 0.05        # rad, minimum spacing of refinement starts
CLUSTER_ANGLE = 1e-4
GRID_CHUNK = 4096         # rows per block of a large point grid
TRIVIAL_GROUP = generate_group("C", 1)
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
# centre of the Dirichlet cell scanned by find_extrema: on no rotation axis
# of T, O, I, D2 or any C_n or D_n, so its images under each are distinct
DOMAIN_CENTER = np.array([0.3, 0.2, 0.9]) / math.sqrt(0.94)
DOMAIN_CACHE = 4          # (n_scan, group) domains kept: T, O, I and C_1 at one n_scan


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
    extrema: tuple = field(default_factory=tuple)


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


def relative_entropy_at(u: BlochVector, povm: HsPovm) -> float:
    """Relative entropy ln k - H(u), in [0, ln 2]."""
    return math.log(povm.k) - entropy_at(u, povm)


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
    images = _group_of_tag(tag).matrix_stack() @ DOMAIN_CENTER
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
              kernel: EntropyKernel = SHANNON,
              with_extrema: bool = False) -> EntropyLandscape:
    points = fibonacci_sphere(n_samples)
    values = _entropy_values(points, povm, kernel)
    samples = tuple((BlochVector.from_array(p), float(v))
                    for p, v in zip(points, values))
    extrema = tuple(find_extrema(povm, "min", kernel=kernel)) if with_extrema else ()
    return EntropyLandscape(povm=povm, samples=samples, extrema=extrema)


def _tangent_frame(c: np.ndarray) -> tuple:
    """An orthonormal basis (e1, e2) of the plane orthogonal to the unit
    vector c, with e1 = c x a / |c x a| and e2 = c x e1.  The cross products
    are written out by components: the same operations as ``np.cross``, in
    the same order, at a tenth of its cost on 3-vectors."""
    x, y, z = c.tolist()
    a0, a1, a2 = (1.0, 0.0, 0.0) if abs(x) < 0.9 else (0.0, 1.0, 0.0)
    e1 = np.array([y * a2 - z * a1, z * a0 - x * a2, x * a1 - y * a0])
    e1 /= np.linalg.norm(e1)
    b0, b1, b2 = e1.tolist()
    return e1, np.array([y * b2 - z * b1, z * b0 - x * b2, x * b1 - y * b0])


def _nelder_mead(point, x0: tuple, maxiter: int = REFINE_MAXITER):
    """Downhill simplex (Nelder-Mead 1965, standard coefficients) in the
    plane, started from x0 and x0 + 2.5e-4 along each coordinate.

    A generator: for each trial x it yields ``point(x)`` and is sent the
    objective's value there (see ``_lockstep``).  Stops when every vertex
    lies within REFINE_XTOL of the best one in each coordinate and their
    values within REFINE_FTOL, or after ``maxiter`` iterations; returns
    (x, f(x), tolerance reached).  The vertices are tuples of two floats:
    the same operations in the same order as on numpy rows, without the
    per-operation cost of 2-element arrays.
    """
    x, y = x0
    simplex = [(x, y), (x + 2.5e-4, y), (x, y + 2.5e-4)]
    fvals = []
    for v in simplex:
        fvals.append((yield point(v)))
    converged = False
    for _ in range(maxiter):
        (f0, best), (f1, mid), (f2, worst) = sorted(zip(fvals, simplex),
                                                    key=lambda fv: fv[0])
        simplex, fvals = [best, mid, worst], [f0, f1, f2]
        if (max(abs(mid[0] - best[0]), abs(mid[1] - best[1]),
                abs(worst[0] - best[0]), abs(worst[1] - best[1])) <= REFINE_XTOL
                and max(abs(f1 - f0), abs(f2 - f0)) <= REFINE_FTOL):
            converged = True
            break
        c0, c1 = (best[0] + mid[0]) / 2, (best[1] + mid[1]) / 2
        w0, w1 = worst
        reflected = (2.0 * c0 - w0, 2.0 * c1 - w1)
        f_reflected = yield point(reflected)
        if f_reflected < f0:
            expanded = (3.0 * c0 - 2.0 * w0, 3.0 * c1 - 2.0 * w1)
            f_expanded = yield point(expanded)
            if f_expanded < f_reflected:
                simplex[2], fvals[2] = expanded, f_expanded
            else:
                simplex[2], fvals[2] = reflected, f_reflected
            continue
        if f_reflected < f1:
            simplex[2], fvals[2] = reflected, f_reflected
            continue
        if f_reflected < f2:                        # outside contraction
            trial = (1.5 * c0 - 0.5 * w0, 1.5 * c1 - 0.5 * w1)
            value = yield point(trial)
            accept = value <= f_reflected
        else:                                       # inside contraction
            trial = (0.5 * (c0 + w0), 0.5 * (c1 + w1))
            value = yield point(trial)
            accept = value < f2
        if accept:
            simplex[2], fvals[2] = trial, value
        else:                                       # shrink towards the best
            for i in (1, 2):
                v = simplex[i]
                simplex[i] = (best[0] + 0.5 * (v[0] - best[0]),
                              best[1] + 0.5 * (v[1] - best[1]))
                fvals[i] = yield point(simplex[i])
    i = min(range(3), key=fvals.__getitem__)
    return simplex[i], fvals[i], converged


def _golden_section(point, lo: float, hi: float):
    """Minimize f on [lo, hi] by golden-section search until the bracket is
    narrower than LINE_XTOL.  A generator like ``_nelder_mead``: it yields
    ``point(x)`` for each trial x and is sent f(x); returns (x, f(x)) at the
    best point evaluated (the minimizer when f is unimodal on the interval).
    """
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    fc = yield point(c)
    fd = yield point(d)
    while hi - lo > LINE_XTOL:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - shrink * (hi - lo)
            fc = yield point(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + shrink * (hi - lo)
            fd = yield point(d)
    return (c, fc) if fc <= fd else (d, fd)


def _lockstep(searches: list, values) -> list:
    """Run generator searches side by side and return their results in
    order.  Each round the pending points of every unfinished search are
    stacked and evaluated in one call ``values(points)``, and each search
    is sent its point's value."""
    results = [None] * len(searches)
    active = [(i, s, next(s)) for i, s in enumerate(searches)]
    while active:
        fvals = values(np.array([p for _, _, p in active])).tolist()
        stepped = []
        for (i, s, _), f in zip(active, fvals):
            try:
                stepped.append((i, s, s.send(f)))
            except StopIteration as done:
                results[i] = done.value
        active = stepped
    return results


def _refine_on_sphere(start: np.ndarray):
    """Nelder-Mead on local tangent charts, re-centred until stationary
    (at most MAX_RECENTER charts).

    A generator that yields the sphere point of each trial (see
    ``_lockstep``); returns the refined point and whether the last chart's
    simplex reached its tolerance within the iteration cap.
    """
    center = start / np.linalg.norm(start)
    for _ in range(MAX_RECENTER):
        e1, e2 = _tangent_frame(center)

        def chart(st):
            p = center + st[0] * e1 + st[1] * e2
            return p / np.linalg.norm(p)

        step, _, converged = yield from _nelder_mead(chart, (0.0, 0.0))
        new = chart(step)
        moved = np.linalg.norm(new - center)
        center = new
        if moved < 1e-10:
            break
    return center, converged


def _orbit_representatives(points: np.ndarray, group: RotationGroup,
                           angle: float) -> list:
    """Indices of the points kept by greedy thinning in the given order: a
    point is dropped when it lies within ``angle`` of a group image of a
    point already kept.  Each kept point covers, in one product, every
    point near one of its images; the next kept point is the first one not
    covered."""
    mats = group.matrix_stack()
    threshold = math.cos(angle)
    covered = np.zeros(len(points), dtype=bool)
    kept = []
    i = 0
    while i < len(points):
        kept.append(i)
        covered |= np.max(points @ (mats @ points[i]).T, axis=1) > threshold
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


def _recenter_on_inert(p, value, povm: HsPovm, group: RotationGroup, objective):
    """Re-center a refined point on the inert point it lies at, if that is
    no worse than its value plus 1e-10: the antipode -v_j within 1e-6, else
    the axis point that is the normalized mean of its images under the two
    or more elements of ``group`` keeping it in its cluster (CLUSTER_ANGLE)."""
    antipodes = -povm.matrix()
    candidate = antipodes[int(np.argmin(np.linalg.norm(antipodes - p[None, :], axis=1)))]
    if np.linalg.norm(candidate - p) >= 1e-6:
        images = group.matrix_stack() @ p
        fixing = images[np.linalg.norm(images - p, axis=1) < CLUSTER_ANGLE]
        if len(fixing) < 2:
            return p, value
        candidate = np.mean(fixing, axis=0)
        candidate = candidate / np.linalg.norm(candidate) + 0.0     # no -0.0
    candidate_value = objective(candidate)
    if candidate_value <= value + 1e-10:
        return candidate, candidate_value
    return p, value


def _lowest_distinct(points, values, flags, povm: HsPovm, group: RotationGroup,
                     objective) -> list:
    """Keep the lowest of each CLUSTER_ANGLE neighbourhood of the refined
    points (``values`` is the objective at each), re-center those on the
    inert points they lie at and return the (point, value, converged)
    triples within 1e-8 of the best value."""
    order = np.argsort(values, kind="stable")
    kept = [order[i] for i in _orbit_representatives(points[order], TRIVIAL_GROUP,
                                                      CLUSTER_ANGLE)]
    located = [(*_recenter_on_inert(points[i], values[i], povm, group, objective), flags[i])
               for i in kept]
    best = min(v for _, v, _ in located)
    return [t for t in located if t[1] <= best + 1e-8]


def _circle_refined(povm: HsPovm, normal, group: RotationGroup, values, rows,
                    n_scan: int) -> np.ndarray:
    """1D search for the minima of a coplanar POVM, which lie on the circle
    orthogonal to ``normal`` (H depends on u only through its projection and
    is concave in the Bloch ball).  ``values`` is the signed entropy of the
    (n, 3) scan grid, ``rows`` that of the stacked trial points of the
    golden-section searches, which run side by side, one per grid point no
    higher than its two neighbours: on the circle, one arc (``_circle_arc``),
    its lowest 4k such points within 1e-3 of the lowest, and the refined
    points mapped through ``group``."""
    n = max(n_scan, 4096)
    # the z = 0 circle is (cos phi, sin phi, 0), bit for bit
    e1, e2 = _tangent_frame(normal if normal[2] >= 0.0 else -normal)
    a, b = -e2, e1
    spacing = 2.0 * math.pi / n
    params = _circle_arc(group, a, b, n) % n * spacing
    pts = np.cos(params)[:, None] * a + np.sin(params)[:, None] * b + 0.0

    def embed(phi):
        return math.cos(phi) * a + math.sin(phi) * b + 0.0

    vals = values(pts)
    inner = vals[1:-1]
    minima = np.flatnonzero((inner <= vals[:-2]) & (inner <= vals[2:])) + 1
    minima = minima[np.argsort(vals[minima])][: 4 * povm.k]
    minima = minima[vals[minima] <= vals[minima[0]] + 1e-3]
    searches = [_golden_section(embed, params[i] - 2 * spacing, params[i] + 2 * spacing)
                for i in minima]
    refined = [embed(x) for x, _ in _lockstep(searches, rows)]
    return np.concatenate([group.matrix_stack() @ p for p in refined])


def _circle_arc(group: RotationGroup, a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The grid indices j (phi = 2 pi j / n on cos(phi) a + sin(phi) b,
    unwrapped) of the Dirichlet cell of the circle point c at phi = 1 under
    ``group``, the points p with p . (c - g c) >= 0 for every g (for D_n an
    arc of pi/n), padded by two steps so that a minimum on a mirror (an end)
    is bracketed; for the trivial group the circle and one step beyond."""
    c = math.cos(1.0) * a + math.sin(1.0) * b
    images = group.matrix_stack() @ c
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
    the great circle orthogonal to v, whose point e1 of ``_tangent_frame(v)``
    is returned.
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
    taken (0.05 rad) and refined by Nelder-Mead on tangent charts.
    Coplanar minima are searched by golden-section on one arc of their
    circle, the cell of a generic circle point.  All the searches of a call
    advance side by side (``_lockstep``), each round's trial points evaluated
    in one call of ``_entropy_of_rows``, equal bit for bit to the
    single-point objective.
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
                else [_tangent_frame(coords[0])[0]])
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

    def objective(p):
        return sign * kernel.entropy_of_dots(coords @ p, k)

    group, normal = povm.symmetry_group, _plane_normal(coords)
    if normal is not None:
        points = _circle_refined(povm, normal, group, values, rows, n_scan // 16)
        flags = [True] * len(points)
    else:
        domain = _fundamental_domain(n_scan, group.name)
        candidates = domain[_lowest(values(domain), -(-n_candidates // group.order))]
        starts = candidates[_orbit_representatives(candidates, group, START_ANGLE)]
        refined = _lockstep([_refine_on_sphere(p) for p in starts], rows)
        points = np.concatenate([group.matrix_stack() @ p for p, _ in refined])
        flags = [ok for _, ok in refined for _ in range(group.order)]
    located = _lowest_distinct(points, rows(points), flags, povm, group, objective)

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
    """The critical points, sorted in place by their coordinates rounded to 1e-8."""
    points.sort(key=lambda c: tuple(np.round(c.location.as_array(), 8)))
    return points


def _type_of_point(u: BlochVector, povm: HsPovm, group: RotationGroup) -> tuple:
    """The type of u and its statistic s (NaN for I and non-inert) from the
    images g u, formed once: the elements moving u by less than 1e-6 (a net
    looser than the ~1e-8 of refined extrema) fix it, and each orbit point
    is |Stab(u)| images, so s = (2/|G|) sum_g (gu . v) ln(1 + gu . v)."""
    arr = u.as_array()
    if np.min(np.linalg.norm(povm.matrix() + arr[None, :], axis=1)) < 1e-6:
        return "I", math.nan
    images = group.matrix_stack() @ arr
    fixing = np.count_nonzero(np.linalg.norm(images - arr, axis=1) < 1e-6)
    if fixing < 2:
        return "non-inert", math.nan
    ts = np.clip(images @ povm.fiducial.as_array(), -1.0, 1.0)
    stat = (2.0 * math.fsum((ts * np.log1p(ts)).tolist()) / len(ts)
            if np.min(ts) > -1.0 + 1e-15 else -math.inf)    # type I geometry: inapplicable
    # the rotations fixing u turn about u, a cyclic group: more than two of
    # them means one of order > 2 (and its inverse, which moves u as far)
    return ("II" if fixing > 2 else "III"), stat


def _geodesic_second_differences(u: np.ndarray, directions: np.ndarray,
                                  povm: HsPovm, step: float = 1e-4) -> np.ndarray:
    """Second difference of H along the geodesic from u towards each row of
    ``directions``, from the 2 n + 1 distinct points of the fan evaluated in
    one kernel call."""
    points = np.vstack([u, math.cos(step) * u + math.sin(step) * directions,
                        math.cos(-step) * u + math.sin(-step) * directions])
    h = _entropy_of_rows(points, povm.matrix(), povm.k, SHANNON)
    n = len(directions)
    return (h[1:n + 1] - 2.0 * h[0] + h[n + 1:]) / (step * step)


def classify_inert_point(u: BlochVector, povm: HsPovm) -> CriticalPoint:
    """Classify a symmetry-forced critical point of H.

    Antipodes of POVM vectors (type I) are local minima of H.  Points
    whose stabilizer contains a rotation of order > 2 are classified by
    the statistic s = (2/|Gu|) sum (w.v) ln(1 + w.v): s > 1 means local
    minimum of H, s < 1 local maximum.  Remaining axis points (type III)
    are probed along several geodesics with second differences.  The type
    comes from the classifier of :func:`find_extrema` under the same group
    (trivial for a set without a frame, which keeps only its antipodes),
    so a point within 1e-6 of an axis or antipode is classified as that
    point.  Vectors R member are classified as the member at R^T u.
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
    # type III: probe curvature along a fan of geodesics
    arr = u.as_array()
    e1, e2 = _tangent_frame(arr)
    fan = np.array([math.cos(j * math.pi / 8) * e1 + math.sin(j * math.pi / 8) * e2
                    for j in range(8)])
    signs = _geodesic_second_differences(arr, fan, povm)
    if np.all(signs > 1e-7):
        kind = "min"
    elif np.all(signs < -1e-7):
        kind = "max"
    else:
        kind = "saddle"
    return CriticalPoint(location=u, value=value, kind=kind,
                         type_label="III", classifier_statistic=stat)


def rectangle_bifurcation_threshold(tol: float = 1e-12) -> float:
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
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
