"""Interpolation certificates for the entropy minimizers of HS-POVMs.

The pipeline, per family:

1. take the node set T = {-gv . v} of the orbit (catalog);
2. build the Hermite interpolant p of the entropy summand h on T, with
   value+derivative matching at interior nodes and value-only at +-1
   (h' blows up at -1);
3. prove p <= h on [-1, 1] with equality only on T by the Hermite
   remainder theorem: the sign of h - p is that of h^(N) times the node
   product, both fixed by exact sign logic (no sampling), the first by the
   kernel (:meth:`hspovm.bloch.EntropyKernel.derivative_sign`);
4. form the invariant lower bound P(u) = ln(k/2) + (2/k) sum_j p(v_j . u),
   which coincides with the entropy H at the antipodal orbit;
5. show -v is a global minimizer of P: constant when deg p <= t, by the
   paper's Michel bound on deg p (groups.degree_bound, or alpha when p
   reproduces h) and the orbit's design order t (on the circle for
   polygons, t = n - 1; otherwise catalog.exact_design_order) -- polygons,
   tetrahedron, octahedron, icosahedron; else by the family's decider in
   the registry (:class:`hspovm.catalog.FamilySpec`): on interval
   enclosures of its coefficients in the primary invariants, P restricted
   to the sphere has known extrema, by comparing its values at the
   candidate critical points (cube, cuboctahedron, dodecahedron), or by a
   Sturm chain showing that the zero-level parabola of P misses the
   orbit-map range except at the origin, with P positive at a corner of
   the range (icosidodecahedron).  The coefficients are sum_i c_i L_i for
   p = sum_i c_i t^i, the c_i enclosed on the exact nodes, and the family's
   exact L, sum_j (v_j . x)^i = L_i . (1, I_1, ...)(x) on the sphere;
6. close uniqueness: any further global minimizer w would need all its
   dots {w . u} inside T, which every moment s <= t of the design, decided
   in integers on the registry's exact nodes, rules out unless -1 is among
   them; the orbit is centrally symmetric, so that a dot +1 forces a dot
   -1, exactly when 1 is an exact node.  Polygons close it by parity.

Every step runs on the registry member that catalog.check_family_geometry
finds the vectors to be a rotated copy of: the entropy is rotation
invariant, so the member's certificate is the vectors'.

The interpolant is built once, on the exact nodes in an interval context
at the first of INTERVAL_PRECISIONS; the interval proofs climb the ladder
while a sign is undecided, and one still open at the top fails the
certificate.  Every float it carries is the midpoint of an enclosure (a
polyhedron's nodes: the exact node rounded once), on every platform the
same.  Each interval proof builds its own interval context, so the
caller's ``mpmath.iv`` is never read or written and certificates computed
side by side in threads do not interfere.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np
from mpmath.ctx_iv import MPIntervalContext

from .bloch import EntropyKernel, SHANNON
from .catalog import (FAMILY_SPECS, HsPovm, _member, check_family_geometry, exact_design_order,
                      exact_node_counts, exact_nodes, exact_orbit, family_spec)
from .groups import degree_bound, double_coset_profile, stabilizer
from .invariants import (J15_SQUARED_TERMS, evaluate_invariant, i6_prime, i10,
                         invariant_degree)
from .q5 import GOLDEN, Q5, dot, pair_sign
from .sturm import AmbiguousSignError, _sign, sturm_root_count

INTERVAL_PRECISIONS = (200, 320, 512)


def _horner(coefficients, t):
    """Ascending coefficients evaluated at t, in t's arithmetic."""
    acc = coefficients[-1]
    for c in reversed(coefficients[:-1]):
        acc = acc * t + c
    return acc


def _interval_context(bits: int) -> MPIntervalContext:
    """A fresh mpmath interval context at the given precision, private to
    one proof."""
    ctx = MPIntervalContext()
    ctx.prec = bits
    return ctx


@dataclass(frozen=True)
class HermitePolynomial:
    """Interpolant in monomial basis (ascending), with its node data: the
    float midpoints of the interval coefficients it was built with."""

    coefficients: tuple
    nodes: tuple              # ((t, multiplicity), ...)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return _horner(self.coefficients, t) + np.zeros_like(t)


class ReadOnlyDict(dict):
    """A dict that refuses mutation; it compares, prints, serializes and
    pickles as the plain dict of its items."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a certificate's coefficients are read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return dict, (dict(self),)


@dataclass(frozen=True)
class HermiteCertificate:
    """Outcome of the certification pipeline for one POVM family."""

    family: str
    nodes: tuple
    polynomial: HermitePolynomial
    degree_bound: int               # deg p <= it: double-coset bound, or deg h if p = h
    coefficients: ReadOnlyDict      # invariant expansion, subset of A..D; shared, read-only
    below_check: tuple              # (min h - p at nodes/midpoints, where)
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
        return self.orbit_min_verdict and self.uniqueness_verdict


# --------------------------------------------------------------------------
# Hermite interpolation, in interval arithmetic
# --------------------------------------------------------------------------

def _interpolant(kernel: EntropyKernel, nodes) -> list:
    """The one builder of p: enclosures of the monomial coefficients
    (ascending) of the Hermite interpolant of the kernel summand h on
    ((t, multiplicity), ...), the t enclosed in one interval context.
    Newton divided differences on the t repeated by multiplicity, with the
    slope h' where a difference spans a double node, then expanded."""
    if any(m not in (1, 2) for _, m in nodes):
        raise ValueError("node multiplicities are 1 or 2")
    ctx = nodes[0][0].ctx
    f, fp, _ = kernel.summand(ctx.mpf, ctx.log)
    ids = [i for i, (_, m) in enumerate(nodes) for _ in range(m)]
    ts, values = [nodes[i][0] for i in ids], [f(t) for t, _ in nodes]
    column, newton = [values[i] for i in ids], []
    for order in range(1, len(ts) + 1):
        newton.append(column[0])
        column = [fp(ts[i]) if ids[i + order] == ids[i] else
                  (column[i + 1] - column[i]) / (ts[i + order] - ts[i])
                  for i in range(len(column) - 1)]
    poly, zero = newton[-1:], ctx.mpf(0)
    for c, t in zip(newton[-2::-1], ts[len(ts) - 2::-1]):   # p <- p (x - t) + c
        poly = [s - a * t for s, a in zip([zero] + poly, poly + [zero])]
        poly[0] = poly[0] + c
    return poly


def hermite_interpolate(kernel: EntropyKernel, nodes) -> HermitePolynomial:
    """Hermite interpolant of the kernel summand h on the given nodes.

    ``nodes`` is a sequence of (t, multiplicity) with strictly increasing
    t in [-1, 1]; multiplicity 2 requests slope matching, which is never
    allowed at t = -1 where h' diverges.  The coefficients are the
    midpoints of their interval enclosures, the nodes taken as exact.
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
    ctx = _interval_context(INTERVAL_PRECISIONS[0])
    mono = _interpolant(kernel, [(ctx.mpf(t), m) for t, m in nodes])
    return HermitePolynomial(coefficients=tuple(float(c.mid) for c in mono), nodes=nodes)


def _member_nodes(member: HsPovm, ctx) -> tuple:
    """The registry member's nodes, ascending, as (float, enclosure in ctx,
    multiplicity: 1 at +-1, else 2, number of orbit dots -g v . v there).
    An n-gon's are -cos(2 pi j/n) = sin(pi (4j - n)/(2n)), j = 0..n/2,
    exactly 0 at 4j = n and +-1 at the ends by index, each the dot of j and
    n - j; any other member's are its exact nodes."""
    spec = family_spec(member.family)
    if spec.group == "C":
        n, nodes = member.k, []
        for j in range(n // 2 + 1):
            m = 1 if j == 0 or 2 * j == n else 2
            t = ctx.mpf(1 if j else -1) if m == 1 else ctx.sin(ctx.pi * (4 * j - n) / (2 * n))
            nodes.append((float(t.mid), t, m, m))
        return tuple(nodes)
    return tuple((float(t), t.lift(ctx), 1 if t in (-1, 1) else 2, n)
                 for t, n in exact_node_counts(spec.name))


# --------------------------------------------------------------------------
# One-sidedness: the Hermite remainder theorem
# --------------------------------------------------------------------------

def _remainder_sign(kernel: EntropyKernel, nodes):
    """Sign of h - p off the nodes, or None when the theorem fixes none.

    h(t) - p(t) = h^(N)(xi)/N! prod_i (t - t_i)^(m_i) with N = sum m_i and
    xi in (-1, 1); this holds on [-1, 1] because h is continuous there and
    smooth inside, and -1 is only ever a simple node.  h^(N) keeps one sign
    on (-1, 1), the kernel's derivative_sign(N).  Double nodes leave the
    product's sign alone, a simple node at +1 flips it, and a simple node
    inside (-1, 1), or N < 2, leaves the sign of h - p open.

    1 proves p <= h with equality exactly on the nodes, -1 proves p > h
    off them, 0 means p reproduces h.
    """
    n = sum(m for _, m in nodes)
    simple = [t for t, m in nodes if m == 1]
    if n < 2 or any(t not in (-1.0, 1.0) for t in simple):
        return None
    derivative = kernel.derivative_sign(n)
    return -derivative if 1.0 in simple else derivative


def verify_below(p: HermitePolynomial, kernel: EntropyKernel = SHANNON):
    """Smallest h - p over the nodes of p and the midpoints between
    consecutive nodes, and where it sits: the midpoints of interval
    enclosures, with p's floats taken as exact.

    A diagnostic; the proof is the remainder sign.  Where that proves
    p <= h this is the interpolant's rounding residual at the nodes; where
    it proves the bound fails, every midpoint gives a strictly negative gap.
    """
    ctx = _interval_context(INTERVAL_PRECISIONS[0])
    f = kernel.summand(ctx.mpf, ctx.log)[0]
    ts, mono = [ctx.mpf(t) for t, _ in p.nodes], [ctx.mpf(c) for c in p.coefficients]
    points = ts + [(a + b) / 2 for a, b in zip(ts, ts[1:])]
    gaps = [float((f(t) - _horner(mono, t)).mid) for t in points]
    i = gaps.index(min(gaps))
    return gaps[i], float(points[i].mid)


_REMAINDER_FAILURES = {
    None: "Hermite remainder has no fixed sign on these nodes",
    -1: "Hermite remainder negative: p exceeds h off the nodes",
}


# --------------------------------------------------------------------------
# Invariant lower bound and its expansion
# --------------------------------------------------------------------------

def assemble_lower_bound(povm: HsPovm, p: HermitePolynomial):
    """Evaluator u -> ln(k/2) + (2/k) sum_j p(v_j . u), a lower bound for
    the entropy H with equality on the antipodal orbit, in floats."""
    coords, k = povm.matrix(), povm.k

    def evaluator(u):
        vals = math.log(k / 2.0) + (2.0 / k) * np.sum(p(np.asarray(u, dtype=float) @ coords.T),
                                                      axis=-1)
        return float(vals) if vals.ndim == 0 else vals

    evaluator.polynomial = p
    return evaluator


@lru_cache(maxsize=None)
def _probe_invariants(name: str) -> tuple:
    """(1, I_1, ...) of the family's basis at the unit vector along each
    registry probe S, exactly: I_d(S) / (S . S)^(d/2), no square root, as
    every basis invariant has even degree d."""
    spec = FAMILY_SPECS[name]
    return tuple((Q5(1),) + tuple(evaluate_invariant(b, s, tau=GOLDEN)
                                  / dot(s, s) ** (invariant_degree(b) // 2) for b in spec.basis)
                 for s in (tuple(map(Q5.of, probe)) for probe in spec.probes))


@lru_cache(maxsize=None)
def _expansion_matrix(name: str, degree: int) -> dict:
    """The exact expansion matrix of a family with an invariant basis,
    {i: L_i} for even i <= degree: sum_j (v_j . x)^i = L_i . (1, I_1(x), ...)
    on the unit sphere for the family's basis invariants I_d, by Gauss-Jordan
    elimination at the probes.  Both sides are homogeneous, so at a probe S
    the left side is sum_j ((V_j . S)^2 / (V_j . V_j S . S))^(i/2), and the
    right side reads :func:`_probe_invariants`.  The odd power sums of the
    (checked) centrally symmetric orbit vanish."""
    orbit = exact_orbit(name)
    if 1 not in exact_nodes(name):             # -s is not in the orbit
        raise ValueError(f"the {name} orbit is not centrally symmetric")
    m = []                                  # rows [invariants | power sums]
    for probe, invariants in zip(FAMILY_SPECS[name].probes, _probe_invariants(name)):
        s = tuple(map(Q5.of, probe))
        m.append(list(invariants))
        cosines = Counter(dot(v, s) ** 2 / (dot(orbit[0], orbit[0]) * dot(s, s)) for v in orbit)
        terms = [Q5(n) for n in cosines.values()]   # n c^(i/2) per distinct squared cosine c
        for _ in range(0, degree + 1, 2):
            m[-1].append(sum(terms, Q5()))
            terms = [t * c for t, c in zip(terms, cosines)]
    size = len(m)
    for c in range(size):
        pivot = next(r for r in range(c, size) if m[r][c] != 0)
        m[c], m[pivot] = m[pivot], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        m = [row if r == c or row[c] == 0 else [x - row[c] * y for x, y in zip(row, m[c])]
             for r, row in enumerate(m)]
    return {i: tuple(row[size + i // 2] for row in m) for i in range(0, degree + 1, 2)}


def _expand(expansion: dict, mono, lift) -> list:
    """sum_i c_i L_i for the ascending monomial coefficients c_i, with each
    exact entry of L taken through ``lift`` into the arithmetic of the c_i."""
    return [sum(mono[i] * lift(row[d]) for i, row in expansion.items())
            for d in range(len(expansion[0]))]


def expand_in_invariants(povm: HsPovm, evaluator) -> dict:
    """Coefficients of the orbit sum sum_j p(v_j . u) restricted to the
    sphere in the family's primary invariants: float(sum_i c_i L_i) for
    the coefficients c_i of the interpolant p of ``evaluator`` (from
    :func:`assemble_lower_bound`) and the family's exact expansion matrix.

    The orbit-sum normalization, i.e. (k/2)(P - ln(k/2)), is the one in
    which the family constants are usually quoted; signs and the ratio
    beta = -B/(3C) are unaffected by the overall positive scale.  The
    invariants are those of the registry orientation, so ``povm`` should be
    the family's registry member.
    """
    spec = check_family_geometry(povm)[0]
    if not spec.basis:
        raise ValueError(f"no invariant expansion defined for {spec.name!r}")
    c = evaluator.polynomial.coefficients
    expansion = _expansion_matrix(spec.name, len(c) - 1)
    return dict(zip("ABCD", map(float, _expand(expansion, c, float))))


# --------------------------------------------------------------------------
# Uniqueness bookkeeping (exact arithmetic in Q(sqrt 5))
# --------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _moment_constrained_feasible(exact_nodes: tuple, k: int, design_order: int,
                                 centrally_symmetric: bool) -> bool:
    """Whether the node multiset equations admit a solution avoiding -1.

    A further global minimizer w would give k dots {w . u} drawn from the
    node set with the power sums the t-design fixes, those of the sphere:
    sum t^s = k/(s + 1) for even s and 0 for odd s, s = 1..t (Delsarte,
    Goethals and Seidel 1977); for centrally symmetric orbits a dot of +1
    forces a dot of -1.  Infeasibility proves w must realize -1, i.e. lie
    on the antipodal orbit.

    Each node (a :class:`hspovm.q5.Q5`) times the common denominator d is
    an integer pair (a, b), a + b sqrt 5, so moment s times (s + 1) d^s is
    an equation in integer pairs.  The search prunes by the exact sign of
    a pair and tests the equations at its leaves, in integers alone.  The
    verdict does not depend on the kernel, so it is memoized on these
    exact arguments.
    """
    d = math.lcm(*(node.d for node in exact_nodes))
    usable = sorted((node * d for node in exact_nodes
                     if node != -1 and not (centrally_symmetric and node == 1)),
                    key=lambda x: -(x * x))
    moments = range(1, design_order + 1)
    powers = [[(s + 1) * x ** s for x in usable] for s in moments]
    targets = [(k * d ** s if s % 2 == 0 else 0, 0) for s in moments]
    # per moment, fixed for the whole search: the target and the smallest
    # and largest power over each suffix of the usable nodes
    bounds = [(target, [(x.a, x.b) for x in accumulate(reversed(f), min)][::-1],
               [(x.a, x.b) for x in accumulate(reversed(f), max)][::-1])
              for (target, _), f in zip(targets, powers)]
    powers = [[(x.a, x.b) for x in f] for f in powers]

    def dfs(pos, remaining, partials):
        if pos == len(usable):
            return remaining == 0 and partials == targets
        # can the remaining count still reach each target?  the gap
        # target - partial must lie in remaining * [low, high]
        for (p, q), (target, low, high) in zip(partials, bounds):
            (la, lb), (ha, hb) = low[pos], high[pos]
            if (pair_sign(target - p - remaining * la, -q - remaining * lb) < 0
                    or pair_sign(remaining * ha - target + p, remaining * hb + q) < 0):
                return False
        steps = [pw[pos] for pw in powers]
        for count in range(remaining + 1):
            nxt = [(p + count * a, q + count * b)
                   for (p, q), (a, b) in zip(partials, steps)]
            if dfs(pos + 1, remaining - count, nxt):
                return True
        return False

    return dfs(0, k, [(0, 0) for _ in moments])


# --------------------------------------------------------------------------
# Orbit-minimum proofs of the invariant families, on interval coefficients
# --------------------------------------------------------------------------

def _parabola_quartic(B, C, D, tau):
    """Coefficients of Q(t) = J15^2(t, -(B/C) t - (D/C) t^2) / t^2 in any
    arithmetic supporting +,-,*,/ and integer powers."""
    zero = B - B
    b = -B / C
    c = -D / C
    acc = {}
    for (ra, rb, i, j) in J15_SQUARED_TERMS:
        base = ra + rb * tau
        for ell in range(j + 1):
            power = i + j + ell
            coef = base * math.comb(j, ell) * b ** (j - ell) * c ** ell
            acc[power] = acc.get(power, zero) + coef
    if any(power < 2 for power in acc):
        raise RuntimeError("unexpected low-order term in the quartic substitution")
    return [acc.get(m, zero) for m in range(2, 7)]


def _exact_interpolant(member: HsPovm, kernel: EntropyKernel, precision: int) -> tuple:
    """(:func:`_member_nodes`, :func:`_interpolant` on them) in a fresh
    interval context at the given precision."""
    nodes = _member_nodes(member, _interval_context(precision))
    return nodes, _interpolant(kernel, [(t, m) for _, t, m, _ in nodes])


def _interval_coefficients(name: str, mono):
    """tau and enclosures of the invariant coefficients (A plus whichever of
    B, C, D the basis has) of the family: sum_i c_i L_i with the interval
    monomial coefficients c_i of the interpolant on the exact nodes and the
    exact expansion matrix L, in the interval context of the c_i."""
    ctx = mono[0].ctx
    expansion = _expansion_matrix(name, len(mono) - 1)
    return GOLDEN.lift(ctx), _expand(expansion, mono, lambda q: q.lift(ctx))


def _positivity(B, C, D, tau):
    """Real-root count of the parabola quartic for interval B, C, D, and
    whether they prove P1 = B th1 + C th2 + D th1^2 > 0 on the orbit-map
    range minus the origin: a quartic with no real root and a negative
    leading coefficient keeps J15^2 < 0 along the zero-level parabola of P1
    off the origin, so the parabola misses the range (inside J15^2 >= 0),
    which is connected without the origin; P1 there has the sign it takes
    at the icosahedron corner, the image of (0, tau, 1)/sqrt(tau + 2).
    Works in the interval context of tau; raises AmbiguousSignError when an
    interval sign is undecided."""
    if not (C.a > 0 or C.b < 0):
        raise AmbiguousSignError("C enclosure straddles zero")
    quartic = _parabola_quartic(B, C, D, tau)
    roots = sturm_root_count(quartic)
    ctx = tau.ctx
    norm = ctx.sqrt(tau + 2)
    corner = [ctx.mpf(0), tau / norm, 1 / norm]
    theta1, theta2 = i6_prime(corner, tau), i10(corner, tau)
    return roots, (roots == 0 and _sign(quartic[-1]) < 0
                   and _sign(B * theta1 + C * theta2 + D * theta1 ** 2) > 0)


def _at_rising_precision(decide):
    """decide(precision) at each of INTERVAL_PRECISIONS in turn until no
    interval sign is ambiguous; returns (its result, bits used), or raises
    the last AmbiguousSignError, naming the bits."""
    for precision in INTERVAL_PRECISIONS:
        try:
            return decide(precision), precision
        except AmbiguousSignError as err:
            last_error = err
    raise AmbiguousSignError(f"{last_error} at {INTERVAL_PRECISIONS[-1]} bits")


def icosidodeca_positivity(B: float, C: float, D: float) -> bool:
    """Whether P1 = B th1 + C th2 + D th1^2 is positive on the orbit-map
    range except at the origin, taking the coefficients as exact.

    Substitutes the zero-level parabola of P1 into the boundary polynomial,
    divides by th1^2 and counts real roots of the resulting quartic with an
    interval Sturm chain; no root, a negative leading coefficient and
    P1 > 0 at the icosahedron corner prove the claim.
    """
    if abs(C) < 1e-12:
        raise ZeroDivisionError("C vanishes; parabola substitution undefined")

    def decide(precision):
        ctx = _interval_context(precision)
        return _positivity(ctx.mpf(B), ctx.mpf(C), ctx.mpf(D), GOLDEN.lift(ctx))[1]

    return _at_rising_precision(decide)[0]


# Deciders, one per invariant FamilySpec.strategy.  Each takes (spec, the
# coefficient enclosures, tau in their interval context), reads only them
# and exact numbers, and returns (verdict, reason if it fails, certificate
# fields), or raises AmbiguousSignError.

def _candidate_comparison(spec, coefficients, tau):
    """P = (A, B, ...) . (1, I_1, ...) on the sphere is critical on the
    inert probe axes.  With one invariant I these are the extremes of I,
    so P has its extremes there too.  With two, P = A + B I4 + C I6 is also
    critical, when 1/4 < beta = -B/(3C) < 1/2, at the non-inert point
    (sqrt a, sqrt b, sqrt b) with a = 4 beta - 1 and b = 1 - 2 beta, where
    I4 = a^2 + 2 b^2 and I6 = a^3 + 2 b^3.  The probe on the antipodal
    orbit, the seed's, must undercut all the others."""
    ctx = tau.ctx
    values = [sum(c * i.lift(ctx) for c, i in zip(coefficients, invariants))
              for invariants in _probe_invariants(spec.name)]
    fields = {}
    if len(coefficients) == 3:
        A, B, C = coefficients
        beta = -B / (3 * C)
        a, b = 4 * beta - 1, 1 - 2 * beta
        if _sign(a) > 0 and _sign(b) > 0:
            values.append(A + B * (a ** 2 + 2 * b ** 2) + C * (a ** 3 + 2 * b ** 3))
        fields["beta"] = float(beta.mid)
    winner = values[spec.probes.index(spec.seed)]
    ok = all(_sign(v - winner) > 0 for v in values if v is not winner)
    candidates = {f"x{i + 1}": float(v.mid) for i, v in enumerate(values)}
    return ok, f"{spec.name} candidate values {candidates}", fields


def _boundary_sturm(spec, coefficients, tau):
    roots, positive = _positivity(*coefficients[1:], tau)
    return positive, f"Sturm found {roots} roots; positivity not proved", {"sturm_roots": roots}


_ORBIT_MIN_DECIDERS = {"candidates": _candidate_comparison, "sturm": _boundary_sturm}


def _orbit_min_step(member: HsPovm, kernel: EntropyKernel, mono) -> tuple:
    """The family's decider on the interval coefficients of the kernel's
    bound, at rising precision from the interpolant ``mono`` of the first
    rung, rebuilt on a climb; returns (verdict, reason if it fails, the
    coefficient midpoints as floats, certificate fields: beta, or the Sturm
    root count and bits used).  A sign still undecided at the top of the
    ladder fails the proof."""
    spec, enclosures = family_spec(member.family), ()

    def decide(precision):
        nonlocal enclosures
        p = mono if precision == mono[0].ctx.prec else _exact_interpolant(member, kernel,
                                                                         precision)[1]
        tau, enclosures = _interval_coefficients(spec.name, p)
        return _ORBIT_MIN_DECIDERS[spec.strategy](spec, enclosures, tau)

    try:
        (verdict, failure, fields), bits = _at_rising_precision(decide)
    except AmbiguousSignError as err:
        verdict, failure, fields = False, f"interval sign undecided: {err}", {}
        bits = INTERVAL_PRECISIONS[-1]
    if spec.strategy == "sturm":
        fields["sturm_precision_bits"] = bits
    return verdict, failure, tuple(float(c.mid) for c in enclosures), fields


# --------------------------------------------------------------------------
# The full pipeline
# --------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _member_certificate(label: str, k: int, kernel: EntropyKernel) -> HermiteCertificate:
    """The certificate of the registry member _member(label, k), memoized."""
    spec, member = family_spec(label), _member(label, k)
    enclosed, mono = _exact_interpolant(member, kernel, INTERVAL_PRECISIONS[0])
    nodes = tuple((t, m) for t, _, m, _ in enclosed)
    poly = HermitePolynomial(coefficients=tuple(float(c.mid) for c in mono), nodes=nodes)
    sign = _remainder_sign(kernel, nodes)
    # deg p: the kernel's when p reproduces the summand h, else the paper's
    # double-coset bound of the member's group G at the fiducial v
    group, v = member.symmetry_group, member.fiducial
    degree = (kernel.polynomial_degree() if sign == 0 else
              degree_bound(double_coset_profile(group, v), k, stabilizer(group, v).order))
    # the design order on the domain of the minimizers: the circle for an n-gon
    design = member.k - 1 if spec.group == "C" else exact_design_order(spec.name)
    # P(-v) = ln(k/2) + (2/k) sum_j p(-v . v_j), and p = h at every dot
    ctx = mono[0].ctx
    h = kernel.summand(ctx.mpf, ctx.log)[0]
    certified_minimum = float((ctx.log(ctx.mpf(k) / 2)
                               + 2 * sum(n * h(t) for _, t, _, n in enclosed) / k).mid)
    reason = _REMAINDER_FAILURES.get(sign, "")

    # deg p <= t makes P constant.  p = h makes P the entropy H itself; the
    # deciders cannot decide it (their coefficients vanish on the designs,
    # where H is constant), so the constant proof stands in for any family
    constant = degree <= design
    if constant or sign == 0:
        orbit_ok, failure = constant, "lower bound unexpectedly non-constant"
        coefficients, fields = (certified_minimum,), {"constant_bound": constant}
    else:
        orbit_ok, failure, coefficients, fields = _orbit_min_step(member, kernel, mono)
    if not orbit_ok:
        reason = reason or failure

    if sign == 0:
        # the kernel summand is itself a polynomial of degree < N (integer
        # alpha): the bound is an identity and minimizers degenerate
        uniqueness = False
        reason = reason or "kernel reproduced exactly; minimizers not isolated"
    elif spec.group == "C":
        # parity: T = {cos(pi + 2 pi j/n)}, so a circle point whose dot with
        # the fiducial lies in T sits at an angle m pi/n from it with
        # m = n (mod 2), on the antipodal orbit (minimizers are confined to
        # the circle because H is concave on the Bloch ball and planar here)
        uniqueness = True
    else:
        exact = exact_nodes(spec.name)      # node 1: -v is in the orbit
        uniqueness = not _moment_constrained_feasible(exact, member.k, design, 1 in exact)
    if not uniqueness:
        reason = reason or "uniqueness bookkeeping admits a stray minimizer"

    return HermiteCertificate(
        family=label, nodes=nodes, polynomial=poly, degree_bound=degree,
        below_check=verify_below(poly, kernel),
        orbit_min_verdict=bool(sign is not None and sign >= 0 and orbit_ok),
        uniqueness_verdict=bool(uniqueness),
        coefficients=ReadOnlyDict(zip("ABCD", coefficients)),
        certified_minimum=certified_minimum, reason=reason, **fields,
    )


def certify_minimum(povm: HsPovm, kernel: EntropyKernel = SHANNON) -> HermiteCertificate:
    """Full certification that the antipodal orbit minimizes the entropy.

    The orbit-minimum step is a constant lower bound wherever the degree
    bound of the interpolant is at most the design order: polygons, the
    tetrahedron, octahedron and icosahedron.  Elsewhere it is the family's
    registry decider on interval coefficients: candidate comparison for
    the cube, cuboctahedron and dodecahedron and a Sturm chain for the
    icosidodecahedron.  Every step runs on the registry
    member the vectors are a rotated copy of, whatever their label (see
    :func:`hspovm.catalog.check_family_geometry`, which raises ValueError
    without one), and the certificate carries its label.  Memoized per
    (member label, k, kernel): a repeat pays only the frame and returns the
    same certificate, shared by every caller, so its ``coefficients`` are
    a :class:`ReadOnlyDict`.
    """
    member = check_family_geometry(povm)[1]
    return _member_certificate(member.family, member.k, kernel)
