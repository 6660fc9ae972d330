"""Interpolation certificates for the entropy minimizers of HS-POVMs.

The pipeline, per family:

1. take the node set T = {-gv . v} of the orbit (catalog);
2. build the Hermite interpolant p of the entropy summand h on T, with
   value+derivative matching at interior nodes and value-only at +-1
   (h' blows up at -1);
3. verify p <= h on [-1, 1] with equality only on T — this holds by the
   sign pattern of the derivatives of h, and is checked on a dense grid;
4. form the invariant lower bound P(u) = ln(k/2) + (2/k) sum_j p(v_j . u),
   which coincides with the entropy H at the antipodal orbit;
5. show -v is a global minimizer of P: either P is constant (polygons,
   tetrahedron, octahedron, icosahedron), or P restricted to the sphere is
   a short combination of primary invariants whose extrema are known
   (cube, cuboctahedron, dodecahedron), or — for the icosidodecahedron —
   a quartic obtained from the boundary curve of the orbit-map range must
   have no real roots, which a Sturm chain over interval arithmetic
   certifies;
6. close uniqueness: any further global minimizer w would need all its
   dots {w . u} inside T, which the exact moment bookkeeping of the
   design conditions rules out unless -1 is among them.

Interpolation and grid verification run in 80-bit extended precision;
the Sturm step runs in mpmath interval arithmetic with adaptive precision.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import iv

from .bloch import EntropyKernel, SHANNON
from .catalog import HsPovm, interpolation_set, make_hs_povm, spherical_design_order
from .entropy import fibonacci_sphere
from .groups import TAU
from .invariants import i4, i6, i6_prime, i10
from .sturm import AmbiguousSignError, sturm_root_count

GAP_TOL = 1e-12            # certificate passes iff min(h - p) >= -GAP_TOL
NODE_MATCH_TOL = 1e-6      # near-zero gaps must sit this close to a node
GRID_SIZE = 100_001
STURM_PRECISIONS = (200, 320, 512)

_LD = np.longdouble


@contextmanager
def _interval_precision(bits: int):
    """Run a block at the given mpmath interval precision and restore the
    caller's afterwards (mpmath's iv context has no workprec of its own)."""
    saved = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = saved


@dataclass(frozen=True)
class HermitePolynomial:
    """Interpolant in monomial basis (ascending), with its node data.

    Coefficients are kept in extended precision (np.longdouble).
    """

    coefficients: tuple
    nodes: tuple              # ((t, multiplicity), ...)

    @property
    def degree(self) -> int:
        deg = 0
        for i, c in enumerate(self.coefficients):
            if abs(float(c)) > 1e-10:
                deg = i
        return deg

    def __call__(self, t):
        t = np.asarray(t, dtype=_LD)
        acc = np.full(t.shape, self.coefficients[-1], dtype=_LD)
        for c in reversed(self.coefficients[:-1]):
            acc = acc * t + c
        return acc

    def derivative_at(self, t: float) -> float:
        acc = _LD(0)
        for i, c in reversed(list(enumerate(self.coefficients))[1:]):
            acc = acc * _LD(t) + i * c
        return float(acc)

    def coefficients_float(self) -> tuple:
        return tuple(float(c) for c in self.coefficients)


@dataclass(frozen=True)
class HermiteCertificate:
    """Outcome of the certification pipeline for one POVM family."""

    family: str
    nodes: tuple
    polynomial: HermitePolynomial
    coefficients: dict              # invariant expansion, subset of A..D
    below_check: tuple              # (min gap h - p, argmin)
    orbit_min_verdict: bool
    uniqueness_verdict: bool
    certified_minimum: float
    constant_bound: bool = False
    beta: float = None              # type: ignore[assignment]
    sturm_roots: int = None         # type: ignore[assignment]
    sturm_precision_bits: int = None  # type: ignore[assignment]
    reason: str = ""

    @property
    def valid(self) -> bool:
        return (self.below_check[0] >= -GAP_TOL
                and self.orbit_min_verdict and self.uniqueness_verdict)


# --------------------------------------------------------------------------
# Hermite interpolation (arithmetic-generic: longdouble or mpmath interval)
# --------------------------------------------------------------------------

def _newton_coefficients(node_ids, ts, values, derivs):
    n = len(node_ids)
    prev = [values[node_ids[i]] for i in range(n)]
    coeffs = [prev[0]]
    for order in range(1, n):
        cur = []
        for i in range(n - order):
            if node_ids[i + order] == node_ids[i]:
                cur.append(derivs[node_ids[i]])
            else:
                cur.append((prev[i + 1] - prev[i]) / (ts[i + order] - ts[i]))
        coeffs.append(cur[0])
        prev = cur
    return coeffs


def _newton_to_monomial(coeffs, ts, zero):
    poly = [coeffs[-1]]
    for i in range(len(coeffs) - 2, -1, -1):
        new = [zero] * (len(poly) + 1)
        for j, c in enumerate(poly):
            new[j + 1] = new[j + 1] + c
            new[j] = new[j] - c * ts[i]
        new[0] = new[0] + coeffs[i]
        poly = new
    return poly


def _expand_nodes(nodes):
    node_ids, ts = [], []
    for idx, (t, mult) in enumerate(nodes):
        if mult not in (1, 2):
            raise ValueError("node multiplicities are 1 or 2")
        node_ids.extend([idx] * mult)
        ts.extend([t] * mult)
    return node_ids, ts


def _kernel_h_longdouble(kernel: EntropyKernel):
    one, half = _LD(1), _LD(0.5)
    if kernel.kind == "shannon":
        def f(t):
            x = (one + _LD(t)) * half
            return _LD(0) if x <= 0 else -x * np.log(x)

        def fp(t):
            return -half * (np.log((one + _LD(t)) * half) + one)
    else:
        a = _LD(kernel.alpha)

        def f(t):
            x = (one + _LD(t)) * half
            return _LD(0) if x <= 0 else (x - x ** a) / (a - one)

        def fp(t):
            x = (one + _LD(t)) * half
            return half * (one - a * x ** (a - one)) / (a - one)
    return f, fp


def hermite_interpolate(kernel: EntropyKernel, nodes) -> HermitePolynomial:
    """Hermite interpolant of the kernel summand h on the given nodes.

    ``nodes`` is a sequence of (t, multiplicity) with strictly increasing
    t in [-1, 1]; multiplicity 2 requests slope matching, which is never
    allowed at t = -1 where h' diverges.  Construction uses Newton divided
    differences with repeated abscissae in extended precision.
    """
    nodes = tuple((float(t), int(m)) for t, m in nodes)
    ts_only = [t for t, _ in nodes]
    if sorted(set(ts_only)) != ts_only:
        raise ValueError("nodes must be strictly increasing and distinct")
    if any(t < -1.0 - 1e-12 or t > 1.0 + 1e-12 for t in ts_only):
        raise ValueError("nodes must lie in [-1, 1]")
    for t, mult in nodes:
        if mult >= 2 and t <= -1.0 + 1e-15:
            raise ValueError("no derivative constraint at t = -1 (h' singular)")
    f, fp = (kernel if isinstance(kernel, tuple) else _kernel_h_longdouble(kernel))
    node_ids, ts = _expand_nodes(nodes)
    ts = [_LD(t) for t in ts]
    values = [f(t) for t, _ in nodes]
    derivs = [fp(t) if m >= 2 else None for t, m in nodes]
    newton = _newton_coefficients(node_ids, ts, values, derivs)
    mono = _newton_to_monomial(newton, ts, _LD(0))
    return HermitePolynomial(coefficients=tuple(mono), nodes=nodes)


# --------------------------------------------------------------------------
# One-sidedness check
# --------------------------------------------------------------------------

def _kernel_h_grid(kernel: EntropyKernel, ts: np.ndarray) -> np.ndarray:
    x = (1 + ts) * _LD(0.5)
    safe = np.where(x > 0, x, _LD(1))
    if kernel.kind == "shannon":
        vals = -safe * np.log(safe)
    else:
        a = _LD(kernel.alpha)
        vals = (safe - safe ** a) / (a - 1)
    return np.where(x > 0, vals, _LD(0))


def _verify_below_details(p: HermitePolynomial, kernel: EntropyKernel):
    ts = np.linspace(_LD(-1), _LD(1), GRID_SIZE, dtype=_LD)
    gap = _kernel_h_grid(kernel, ts) - p(ts)
    spacing = 2.0 / (GRID_SIZE - 1)

    def chebyshev_min(center):
        lo = max(-1.0, center - 2 * spacing)
        hi = min(1.0, center + 2 * spacing)
        j = np.arange(129, dtype=float)
        local = _LD(0.5) * (_LD(lo + hi) + _LD(hi - lo) * np.cos(np.pi * j / 128).astype(_LD))
        vals = _kernel_h_grid(kernel, local) - p(local)
        i = int(np.argmin(vals))
        return float(vals[i]), float(local[i])

    min_gap, argmin = float(gap.min()), float(ts[int(np.argmin(gap))])
    near_zero = [argmin] if min_gap < 1e-9 else []
    interior = gap[1:-1]
    locals_mask = (interior <= gap[:-2]) & (interior <= gap[2:])
    for i in np.nonzero(locals_mask)[0] + 1:
        if float(gap[i]) < 1e-6:
            refined, where = chebyshev_min(float(ts[i]))
            if refined < min_gap:
                min_gap, argmin = refined, where
            if refined < 1e-9:
                near_zero.append(where)
    for endpoint in (-1.0, 1.0):   # simple zeros at the interval ends
        refined, where = chebyshev_min(endpoint)
        if refined < min_gap:
            min_gap, argmin = refined, where
        if refined < 1e-9:
            near_zero.append(where)
    node_ts = [t for t, _ in p.nodes]
    offending = [t for t in near_zero
                 if min(abs(t - n) for n in node_ts) > NODE_MATCH_TOL]
    # a polynomial kernel of degree < #constraints is reproduced exactly
    # (gap identically zero); that is equality everywhere, not a failure
    exact_reproduction = float(np.max(np.abs(gap))) < 1e-14
    return min_gap, argmin, offending, exact_reproduction


def verify_below(p: HermitePolynomial, kernel: EntropyKernel = SHANNON):
    """Minimum of h - p over [-1, 1] and its location.

    The certificate accepts iff the minimum is >= -1e-12 and every
    near-zero gap sits within 1e-6 of an interpolation node.
    """
    min_gap, argmin, _, _ = _verify_below_details(p, kernel)
    return min_gap, argmin


# --------------------------------------------------------------------------
# Invariant lower bound and its expansion
# --------------------------------------------------------------------------

def assemble_lower_bound(povm: HsPovm, p: HermitePolynomial):
    """Evaluator u -> ln(k/2) + (2/k) sum_j p(v_j . u), a lower bound for
    the entropy H with equality on the antipodal orbit."""
    coords = povm.matrix().astype(_LD)
    k = povm.k
    offset = _LD(math.log(k / 2.0))

    def evaluator(u):
        u = np.asarray(u, dtype=_LD)
        dots = u @ coords.T
        vals = offset + (_LD(2) / k) * np.sum(p(dots), axis=-1)
        return float(vals) if vals.ndim == 0 else vals.astype(float)

    return evaluator


_X1 = np.array([0.0, 0.0, 1.0])
_X2 = np.array([0.0, 1.0, 1.0]) / math.sqrt(2.0)
_X3 = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
_X5 = np.array([0.0, TAU, 1.0]) / math.sqrt(TAU + 2.0)
_X6 = np.array([0.0, 1.0 / TAU, TAU]) / math.sqrt(3.0)
_W0 = np.array([3.0, 4.0, 12.0]) / 13.0

#: family -> (probe points, invariant basis beyond the constant)
_EXPANSIONS = {
    "cube": ((_X1, _X3), (i4,)),
    "cuboctahedron": ((_X1, _X2, _X3), (i4, i6)),
    "dodecahedron": ((_X5, _X6), (i6_prime,)),
    "icosidodecahedron": ((_X1, _X5, _X6, _W0),
                          (i6_prime, i10, lambda w: i6_prime(w) ** 2)),
}

_COEFF_NAMES = "ABCD"


def expand_in_invariants(povm: HsPovm, evaluator) -> dict:
    """Coefficients of the orbit sum sum_j p(v_j . u) restricted to the
    sphere in the family's primary invariants, solved from probe-point
    values and verified on random checkpoints (residual < 1e-9).

    The orbit-sum normalization, i.e. (k/2)(P - ln(k/2)), is the one in
    which the family constants are usually quoted; signs and the ratio
    beta = -B/(3C) are unaffected by the overall positive scale.
    """
    family = povm.family
    if family not in _EXPANSIONS:
        raise ValueError(f"no invariant expansion defined for {family!r}")
    probes, basis = _EXPANSIONS[family]
    scale = povm.k / 2.0
    shift = math.log(povm.k / 2.0)

    def orbit_sum(x):
        return scale * (evaluator(x) - shift)

    rows = np.array([[1.0] + [b(x) for b in basis] for x in probes])
    rhs = np.array([orbit_sum(x) for x in probes])
    solution = np.linalg.solve(rows, rhs)
    coefficients = {_COEFF_NAMES[i]: float(c) for i, c in enumerate(solution)}
    rng = np.random.default_rng(7)
    w = rng.normal(size=(50, 3))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    predicted = solution[0] + np.array(
        [sum(c * b(x) for c, b in zip(solution[1:], basis)) for x in w])
    residual = float(np.max(np.abs(predicted - np.array([orbit_sum(x) for x in w]))))
    if residual > 1e-9:
        raise RuntimeError(
            f"invariant expansion residual {residual:.2e} for {family}; "
            "probe system ill-conditioned")
    return coefficients


# --------------------------------------------------------------------------
# Uniqueness bookkeeping (exact arithmetic in Q(sqrt 5))
# --------------------------------------------------------------------------

class _Q5(tuple):
    """Number a + b sqrt(5) with exact rational components."""

    def __new__(cls, a, b=0):
        return super().__new__(cls, (Fraction(a), Fraction(b)))

    def __add__(self, other):
        return _Q5(self[0] + other[0], self[1] + other[1])

    def __mul__(self, other):
        a1, b1 = self
        a2, b2 = other
        return _Q5(a1 * a2 + 5 * b1 * b2, a1 * b2 + b1 * a2)

    def scaled(self, n: int):
        return _Q5(self[0] * n, self[1] * n)

    def __float__(self):
        return float(self[0]) + float(self[1]) * math.sqrt(5.0)

    def is_zero(self) -> bool:
        return self[0] == 0 and self[1] == 0


_F = Fraction
#: exact node sets (components of a + b sqrt 5) for the polyhedral families
_EXACT_NODES = {
    "tetrahedron": [(-1, 0), (_F(1, 3), 0)],
    "octahedron": [(-1, 0), (0, 0), (1, 0)],
    "cube": [(-1, 0), (_F(-1, 3), 0), (_F(1, 3), 0), (1, 0)],
    "cuboctahedron": [(-1, 0), (_F(-1, 2), 0), (0, 0), (_F(1, 2), 0), (1, 0)],
    "icosahedron": [(-1, 0), (0, _F(-1, 5)), (0, _F(1, 5)), (1, 0)],
    "dodecahedron": [(-1, 0), (0, _F(-1, 3)), (_F(-1, 3), 0),
                     (_F(1, 3), 0), (0, _F(1, 3)), (1, 0)],
    "icosidodecahedron": [(-1, 0), (_F(-1, 4), _F(-1, 4)), (_F(-1, 2), 0),
                          (_F(1, 4), _F(-1, 4)), (0, 0), (_F(-1, 4), _F(1, 4)),
                          (_F(1, 2), 0), (_F(1, 4), _F(1, 4)), (1, 0)],
}


def _moment_constrained_feasible(family: str, k: int, design_order: int,
                                 centrally_symmetric: bool) -> bool:
    """Whether the node multiset equations admit a solution avoiding -1.

    A further global minimizer w would give k dots {w . u} drawn from the
    node set with centroid zero, second moment k/3 (2-designs) and fourth
    moment k/5 (4-designs); for centrally symmetric orbits a dot of +1
    forces a dot of -1.  Infeasibility proves w must realize -1, i.e. lie
    on the antipodal orbit.
    """
    nodes = [_Q5(a, b) for a, b in _EXACT_NODES[family]]
    banned = {i for i, t in enumerate(nodes) if float(t) < -1 + 1e-12}
    if centrally_symmetric:
        banned |= {i for i, t in enumerate(nodes) if float(t) > 1 - 1e-12}
    usable = [i for i in range(len(nodes)) if i not in banned]
    usable.sort(key=lambda i: -abs(float(nodes[i])))

    targets = [(_Q5(0), [nodes[i] for i in usable])]                 # sum t
    if design_order >= 2:
        targets.append((_Q5(_F(k, 3)), [nodes[i] * nodes[i] for i in usable]))
    if design_order >= 4:
        targets.append((_Q5(_F(k, 5)),
                        [nodes[i] * nodes[i] * nodes[i] * nodes[i]
                         for i in usable]))
    floats = [[float(v) for v in vals] for _, vals in targets]

    def dfs(pos, remaining, partials):
        if pos == len(usable):
            return remaining == 0 and all(
                (partial + target.scaled(-1)).is_zero()
                for partial, (target, _) in zip(partials, targets))
        # float bounds: can the remaining counts still reach each target?
        for (target, _), fvals, partial in zip(targets, floats, partials):
            rest = fvals[pos:]
            lo = float(partial) + remaining * min(rest)
            hi = float(partial) + remaining * max(rest)
            t = float(target)
            if t < lo - 1e-6 or t > hi + 1e-6:
                return False
        for count in range(remaining + 1):
            nxt = [partial + vals[pos].scaled(count)
                   for partial, (_, vals) in zip(partials, targets)]
            if dfs(pos + 1, remaining - count, nxt):
                return True
        return False

    return dfs(0, k, [_Q5(0) for _ in targets])


def _polygon_uniqueness(povm: HsPovm) -> bool:
    """Enumerate circle points whose dots all lie in T; they must be
    exactly the antipodal orbit (minimizers are confined to the circle
    because H is concave on the Bloch ball and planar here)."""
    if povm.family == "digon":
        return True   # w . v in {-1, 1} forces w = +-v, the orbit itself
    T = interpolation_set(povm)
    vertex_angles = [math.atan2(v.y, v.x) for v in povm.vectors]
    candidates = set()
    for t in T:
        base = math.acos(min(1.0, max(-1.0, t)))
        for theta in vertex_angles:
            candidates.add(round((theta + base) % (2 * math.pi), 9))
            candidates.add(round((theta - base) % (2 * math.pi), 9))
    survivors = []
    for phi in candidates:
        dots = [math.cos(phi - theta) for theta in vertex_angles]
        if all(min(abs(d - t) for t in T) < 1e-9 for d in dots):
            survivors.append(phi)
    anti = [theta + math.pi for theta in vertex_angles]

    def close(a, b):     # compare as unit vectors; immune to 2 pi wrap
        return math.hypot(math.cos(a) - math.cos(b),
                          math.sin(a) - math.sin(b)) < 1e-6

    hit = all(any(close(phi, a) for phi in survivors) for a in anti)
    only = all(any(close(phi, a) for a in anti) for phi in survivors)
    return hit and only


# --------------------------------------------------------------------------
# Icosidodecahedral positivity: interval pipeline + Sturm
# --------------------------------------------------------------------------

#: J15^2 = sum (a + b tau) theta1^i theta2^j over these (a, b, i, j)
_J15SQ_TERMS = (
    (4, 0, 2, 0), (-24, -32, 1, 1), (-273, 182, 3, 0), (20, 32, 0, 2),
    (159, -318, 2, 1), (8944, -5504, 4, 0), (325, 650, 1, 2),
    (-5040, 2880, 3, 1), (-95040, 58752, 5, 0), (-275, -450, 0, 3),
)


def _parabola_quartic(B, C, D, tau):
    """Coefficients of Q(t) = J15^2(t, -(B/C) t - (D/C) t^2) / t^2 in any
    arithmetic supporting +,-,*,/ and integer powers."""
    zero = B - B
    b = -B / C
    c = -D / C
    acc = {}
    for (ra, rb, i, j) in _J15SQ_TERMS:
        base = ra + rb * tau
        for ell in range(j + 1):
            power = i + j + ell
            coef = base * math.comb(j, ell) * b ** (j - ell) * c ** ell
            acc[power] = acc.get(power, zero) + coef
    if any(power < 2 for power in acc):
        raise RuntimeError("unexpected low-order term in the quartic substitution")
    return [acc.get(m, zero) for m in range(2, 7)]


def _iv_symbols():
    sqrt5 = iv.sqrt(iv.mpf(5))
    tau = (1 + sqrt5) / 2
    table = {
        0.0: iv.mpf(0), 1.0: iv.mpf(1), -1.0: iv.mpf(-1),
        0.5: iv.mpf(0.5), -0.5: iv.mpf(-0.5),
        TAU / 2: tau / 2, -TAU / 2: -tau / 2,
        1 / (2 * TAU): (tau - 1) / 2, -1 / (2 * TAU): (1 - tau) / 2,
    }

    def lift(x: float):
        for key, value in table.items():
            if abs(x - key) < 1e-6:
                return value
        raise ValueError(f"coordinate {x} is not an icosahedral symbol")

    return tau, lift


def _icosi_interval_coefficients(povm: HsPovm, precision: int):
    """Enclosures of the expansion coefficients B, C, D at the given
    working precision (nodes, interpolation, probe values and the linear
    solve all in interval arithmetic)."""
    with _interval_precision(precision):
        tau, lift = _iv_symbols()
        verts = [[lift(c) for c in row] for row in povm.matrix()]
        node_list = interpolation_set(povm)
        nodes_iv = [lift(t) for t in node_list]
        mults = [1 if abs(abs(t) - 1.0) < 1e-9 else 2 for t in node_list]

        def h_iv(t):
            x = (1 + t) / 2
            if x == 0:
                return iv.mpf(0)
            return -x * iv.log(x)

        def hp_iv(t):
            x = (1 + t) / 2
            return -(iv.log(x) + 1) / 2

        node_ids, ts = [], []
        for idx, (t, m) in enumerate(zip(nodes_iv, mults)):
            node_ids.extend([idx] * m)
            ts.extend([t] * m)
        values = [h_iv(t) for t in nodes_iv]
        derivs = [hp_iv(t) if m >= 2 else None for t, m in zip(nodes_iv, mults)]
        newton = _newton_coefficients(node_ids, ts, values, derivs)
        mono = _newton_to_monomial(newton, ts, iv.mpf(0))

        def p_iv(t):
            acc = mono[-1]
            for c in reversed(mono[:-1]):
                acc = acc * t + c
            return acc

        def P_iv(point):
            # orbit sum sum_j p(v_j . x): the quoted-constant normalization
            total = iv.mpf(0)
            for row in verts:
                dot = row[0] * point[0] + row[1] * point[1] + row[2] * point[2]
                total = total + p_iv(dot)
            return total

        def i6p_iv(p):
            t2 = tau * tau
            x2, y2, z2 = p[0] ** 2, p[1] ** 2, p[2] ** 2
            return (t2 * x2 - y2) * (t2 * y2 - z2) * (t2 * z2 - x2)

        def i10_iv(p):
            x, y, z = p
            t2 = tau * tau
            x2, y2, z2 = x ** 2, y ** 2, z ** 2
            linear = (x + y + z) * (x - y - z) * (y - z - x) * (z - y - x)
            return linear * (x2 / t2 - t2 * y2) * (y2 / t2 - t2 * z2) * (z2 / t2 - t2 * x2)

        one = iv.mpf(1)
        x1 = (iv.mpf(0), iv.mpf(0), one)
        s_tau2 = iv.sqrt(tau + 2)
        x5 = (iv.mpf(0), tau / s_tau2, one / s_tau2)
        s3 = iv.sqrt(iv.mpf(3))
        x6 = (iv.mpf(0), (tau - 1) / s3, tau / s3)   # 1/tau = tau - 1
        w0 = (iv.mpf(3) / 13, iv.mpf(4) / 13, iv.mpf(12) / 13)

        probes = (x1, x5, x6, w0)
        rows = []
        rhs = []
        for x in probes:
            th1 = i6p_iv(x)
            rows.append([one, th1, i10_iv(x), th1 ** 2])
            rhs.append(P_iv(x))
        # Gaussian elimination (first row is (1, 0, 0, 0): benign pivots)
        m = [row[:] + [val] for row, val in zip(rows, rhs)]
        size = 4
        for col in range(size):
            pivot_row = None
            for r in range(col, size):
                entry = m[r][col]
                if entry.a > 0 or entry.b < 0:
                    pivot_row = r
                    break
            if pivot_row is None:
                raise AmbiguousSignError("pivot straddles zero in interval solve")
            m[col], m[pivot_row] = m[pivot_row], m[col]
            for r in range(size):
                if r == col:
                    continue
                factor = m[r][col] / m[col][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
        solution = [m[r][size] / m[r][r] for r in range(size)]
    return tau, solution            # [A, B, C, D]


def _certified_sturm_verdict(povm: HsPovm):
    """Run the interval Sturm step at increasing precision until every
    sign decision is unambiguous; returns (root count, bits used, B, C, D
    midpoints)."""
    last_error = None
    for precision in STURM_PRECISIONS:
        try:
            with _interval_precision(precision):
                tau, (A, B, C, D) = _icosi_interval_coefficients(povm, precision)
                if not (C.a > 0 or C.b < 0):
                    raise AmbiguousSignError("C enclosure straddles zero")
                quartic = _parabola_quartic(B, C, D, tau)
                count = sturm_root_count(quartic)
            mid = [(float(x.a) + float(x.b)) / 2 for x in (A, B, C, D)]
            return count, precision, mid
        except AmbiguousSignError as err:
            last_error = err
    raise RuntimeError(
        f"interval Sturm verdict still ambiguous at {STURM_PRECISIONS[-1]} bits: "
        f"{last_error}")


def _float_quartic_roots(B: float, C: float, D: float, precision: int) -> int:
    """Interval Sturm root count of the parabola quartic, taking the float
    coefficients B, C, D as exact, at the given working precision."""
    with _interval_precision(precision):
        tau = (1 + iv.sqrt(iv.mpf(5))) / 2
        return sturm_root_count(_parabola_quartic(iv.mpf(B), iv.mpf(C),
                                                  iv.mpf(D), tau))


def icosidodeca_positivity(B: float, C: float, D: float,
                           samples: int = 10_000) -> bool:
    """Whether P1 = B th1 + C th2 + D th1^2 is nonnegative on the
    orbit-map range with zero only at the origin.

    Substitutes the zero-level parabola of P1 into the boundary polynomial,
    divides by th1^2 and counts real roots of the resulting quartic with an
    interval Sturm chain (the input coefficients are taken as exact);
    additionally samples the orbit-map image of ``samples`` quasi-random
    sphere points as a belt-and-braces check.
    """
    if abs(C) < 1e-12:
        raise ZeroDivisionError("C vanishes; parabola substitution undefined")
    try:
        roots = _float_quartic_roots(B, C, D, STURM_PRECISIONS[0])
    except AmbiguousSignError:
        roots = _float_quartic_roots(B, C, D, STURM_PRECISIONS[-1])
    points = fibonacci_sphere(samples)
    theta1 = np.array([i6_prime(w) for w in points])
    theta2 = np.array([i10(w) for w in points])
    sampled_min = float(np.min(B * theta1 + C * theta2 + D * theta1 ** 2))
    return roots == 0 and sampled_min >= -1e-12


# --------------------------------------------------------------------------
# The full pipeline
# --------------------------------------------------------------------------

_CONSTANT_FAMILIES = {"digon", "tetrahedron", "octahedron", "icosahedron"}


def _constant_on_domain(povm: HsPovm, evaluator) -> bool:
    if povm.is_coplanar():
        phis = np.linspace(0.0, 2.0 * math.pi, 257)
        pts = np.column_stack([np.cos(phis), np.sin(phis), np.zeros_like(phis)])
    elif povm.family == "digon":
        angles = np.linspace(0.0, math.pi, 129)
        pts = np.column_stack([np.sin(angles), np.zeros_like(angles), np.cos(angles)])
    else:
        pts = fibonacci_sphere(257)
    values = evaluator(pts)
    return float(np.max(values) - np.min(values)) < 1e-9


def certify_minimum(povm: HsPovm, kernel: EntropyKernel = SHANNON) -> HermiteCertificate:
    """Full certification that the antipodal orbit minimizes the entropy.

    Dispatches on the family: constant lower bound for polygons, the
    tetrahedron, octahedron and icosahedron; sign of the leading invariant
    coefficient for cube and dodecahedron; candidate comparison for the
    cuboctahedron; interval Sturm for the icosidodecahedron.
    """
    family = povm.family
    is_polygon = family == "digon" or family.endswith("-gon")
    if not is_polygon and family not in _EXACT_NODES:
        raise ValueError(f"certification needs a named HS family, got {family!r}")

    node_values = interpolation_set(povm)
    nodes = tuple((t, 1 if abs(abs(t) - 1.0) < 1e-9 else 2) for t in node_values)
    poly = hermite_interpolate(kernel, nodes)
    min_gap, argmin, offending, exact_repro = _verify_below_details(poly, kernel)
    below_ok = min_gap >= -GAP_TOL and (exact_repro or not offending)
    evaluator = assemble_lower_bound(povm, poly)

    minus_v = -povm.fiducial.as_array()
    certified_minimum = float(evaluator(minus_v))

    coefficients: dict = {}
    beta = None
    sturm_roots = None
    sturm_bits = None
    reason = "" if below_ok else (
        f"gap {min_gap:.2e} with equality off nodes at "
        f"{offending[:4]}{'...' if len(offending) > 4 else ''}")

    if is_polygon or family in _CONSTANT_FAMILIES:
        constant = _constant_on_domain(povm, evaluator)
        coefficients = {"A": certified_minimum}
        orbit_ok = constant
        if not constant:
            reason = reason or "lower bound unexpectedly non-constant"
    else:
        constant = False
        coefficients = expand_in_invariants(povm, evaluator)
        if family == "cube":
            orbit_ok = coefficients["B"] > 0
            if not orbit_ok:
                reason = reason or "cube coefficient B not positive"
        elif family == "dodecahedron":
            orbit_ok = coefficients["B"] < 0
            if not orbit_ok:
                reason = reason or "dodecahedron coefficient B not negative"
        elif family == "cuboctahedron":
            B, C = coefficients["B"], coefficients["C"]
            beta = -B / (3.0 * C)
            candidates = {"x1": float(evaluator(_X1)),
                          "x2": float(evaluator(_X2)),
                          "x3": float(evaluator(_X3))}
            if 0.25 < beta < 0.5:
                x4 = np.array([math.sqrt(4 * beta - 1), math.sqrt(1 - 2 * beta),
                               math.sqrt(1 - 2 * beta)])
                candidates["x4"] = float(evaluator(x4))
            others = [v for key, v in candidates.items() if key != "x2"]
            orbit_ok = all(candidates["x2"] < v - 1e-12 for v in others)
            if not orbit_ok:
                reason = reason or f"cuboctahedron candidate values {candidates}"
        elif family == "icosidodecahedron":
            if kernel.kind == "shannon":
                sturm_roots, sturm_bits, mid = _certified_sturm_verdict(povm)
            else:
                sturm_bits = STURM_PRECISIONS[0]
                sturm_roots = _float_quartic_roots(
                    coefficients["B"], coefficients["C"], coefficients["D"],
                    sturm_bits)
            positive_inside = icosidodeca_positivity(
                coefficients["B"], coefficients["C"], coefficients["D"])
            orbit_ok = sturm_roots == 0 and positive_inside
            if not orbit_ok:
                reason = reason or (f"Sturm found {sturm_roots} roots / "
                                    f"sampled positivity {positive_inside}")
        else:   # pragma: no cover - family table is exhaustive
            raise AssertionError(family)

    if exact_repro:
        # the kernel summand is itself a low-degree polynomial (Tsallis
        # alpha = 2): the bound is an identity and minimizers degenerate
        uniqueness = False
        reason = reason or "kernel reproduced exactly; minimizers not isolated"
    elif is_polygon:
        uniqueness = _polygon_uniqueness(povm)
    else:
        coords = povm.matrix()
        centrally_symmetric = all(
            np.min(np.linalg.norm(coords + v[None, :], axis=1)) < 1e-9
            for v in coords)
        design = spherical_design_order(povm.vectors)
        uniqueness = not _moment_constrained_feasible(
            family, povm.k, design, centrally_symmetric)
    if not uniqueness:
        reason = reason or "uniqueness bookkeeping admits a stray minimizer"

    return HermiteCertificate(
        family=family, nodes=nodes, polynomial=poly,
        coefficients=coefficients, below_check=(min_gap, argmin),
        orbit_min_verdict=bool(below_ok and orbit_ok),
        uniqueness_verdict=bool(uniqueness),
        certified_minimum=certified_minimum,
        constant_bound=constant, beta=beta,
        sturm_roots=sturm_roots, sturm_precision_bits=sturm_bits,
        reason=reason,
    )


def certify_family(family: str, n: int = None,
                   kernel: EntropyKernel = SHANNON) -> HermiteCertificate:
    return certify_minimum(make_hs_povm(family, n), kernel)
