"""Output oracles for every benchmark op.

Each check recomputes the expected answer from the POVM's Bloch vectors
(a k x 3 numpy array) with numpy alone, never through ``hspovm``'s own
functions, and raises ``Mismatch`` when the program's output disagrees.
The tolerances are the ones the acceptance suite pins: 1e-6 rad for
minimizer orbits, 1e-8 for minimum values, 1e-10/1e-9 for certificate
coefficients, 2e-3 for the sphere average and 1e-12 for the entropy map
and the enumerated entropy rate.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)
TAU = (1.0 + math.sqrt(5.0)) / 2.0

ANGLE_TOL = 1e-6          # rad, minimizer to antipodal orbit
VALUE_TOL = 1e-8          # minimum value against the closed form
POINT_VALUE_TOL = 1e-12   # program entropy against the numpy entropy
TIE_TOL = 1e-9            # sampled value counted as a second minimizer
FAR_ANGLE = 0.05          # rad, "away from the antipodal orbit"


class Mismatch(Exception):
    """The program's output disagrees with the oracle."""


def expect(condition: bool, message: str):
    if not condition:
        raise Mismatch(message)


def as_point(bloch) -> np.ndarray:
    return np.array([bloch.x, bloch.y, bloch.z], dtype=float)


# ---------------------------------------------------------------- entropies

def xlogx(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, 0.0, 1.0)
    safe = np.where(x > 0.0, x, 1.0)
    return np.where(x > 0.0, x * np.log(safe), 0.0)


def entropy(points, V: np.ndarray, kind: str = "shannon", alpha=None) -> np.ndarray:
    """Entropy of the outcome distribution p_j = (1 + u . v_j)/k."""
    p = np.clip((1.0 + np.asarray(points, float) @ V.T) / len(V), 0.0, 1.0)
    if kind == "shannon":
        return -np.sum(xlogx(p), axis=-1)
    power_sum = np.sum(p ** alpha, axis=-1)
    if kind == "tsallis":
        return (1.0 - power_sum) / (alpha - 1.0)
    return np.log(power_sum) / (1.0 - alpha)


def summand(x: np.ndarray, kind: str, alpha=None) -> np.ndarray:
    """Additive summand the certificates interpolate: -x ln x for Shannon,
    (x - x^alpha)/(alpha - 1) for the Renyi/Tsallis kernels."""
    x = np.clip(x, 0.0, 1.0)
    if kind == "shannon":
        return -xlogx(x)
    return (x - x ** alpha) / (alpha - 1.0)


def summand_bound(points, V, kind, alpha=None) -> np.ndarray:
    """ln(k/2) + (2/k) sum_j f((1 + u . v_j)/2): equals the entropy for
    Shannon and is a monotone stand-in for the alpha-kernels."""
    k = len(V)
    x = (1.0 + np.asarray(points, float) @ V.T) / 2.0
    return math.log(k / 2.0) + (2.0 / k) * np.sum(summand(x, kind, alpha), axis=-1)


def informational_power(V: np.ndarray) -> float:
    """Closed form W = ln 2 - (2/k) sum_j eta((1 - v_j . v_0)/2)."""
    x = (1.0 - V @ V[0]) / 2.0
    return LN2 + (2.0 / len(V)) * float(np.sum(xlogx(x)))


def sphere_lattice(n: int) -> np.ndarray:
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def plane_circle(V: np.ndarray, n: int) -> np.ndarray:
    """n points on the great circle spanned by a coplanar POVM."""
    _, _, vt = np.linalg.svd(V)
    e1, e2 = vt[0], vt[1]
    phi = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2


def rank(V: np.ndarray) -> int:
    return int(np.sum(np.linalg.svd(V, compute_uv=False) > 1e-9))


def angle_to(points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Angle from each point to the nearest target (rad)."""
    chord = np.min(np.linalg.norm(points[:, None, :] - targets[None, :, :], axis=2),
                   axis=1)
    return 2.0 * np.arcsin(np.minimum(1.0, chord / 2.0))


def distinct(points: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    kept = []
    for p in points:
        if not any(np.linalg.norm(p - q) < tol for q in kept):
            kept.append(p)
    return np.array(kept)


# ---------------------------------------------------------------- solve

def check_minima(result, V, kind="shannon", alpha=None):
    """Global minimizers: exactly the antipodal orbit, at the closed-form
    value (ln k - W for Shannon, the kernel entropy at -v_0 otherwise)."""
    antipodes = distinct(-V)
    locations = np.array([as_point(c.location) for c in result])
    expect(len(result) == len(antipodes),
           f"{len(result)} minima, expected {len(antipodes)}")
    worst = float(np.max(angle_to(locations, antipodes)))
    expect(worst < ANGLE_TOL, f"minimum {worst:.2e} rad off the antipodal orbit")
    covered = float(np.max(angle_to(antipodes, locations)))
    expect(covered < ANGLE_TOL, "an antipode is missing from the minima")
    if kind == "shannon":
        target = math.log(len(V)) - informational_power(V)
    else:
        target = float(entropy(-V[0], V, kind, alpha))
    for c in result:
        expect(abs(c.value - target) < VALUE_TOL,
               f"minimum value {c.value!r} vs closed form {target!r}")


def long_diagonal(V: np.ndarray) -> np.ndarray:
    v1 = V[0]
    others = [v for v in V[1:] if np.linalg.norm(v + v1) > 1e-9]
    v2 = max(others, key=lambda v: float(v @ v1))
    d = v1 + v2
    return d / np.linalg.norm(d)


def check_rectangle(result, V, below: bool):
    """Acceptance criterion 7: below the bifurcation the minima are the
    inert pair on the long diagonal; above it, four non-inert minimizers.
    Either way the reported value is the minimum of a dense circle scan."""
    d = long_diagonal(V)
    scan = float(np.min(entropy(plane_circle(V, 1 << 16), V)))
    for c in result:
        u = as_point(c.location)
        expect(abs(c.value - float(entropy(u, V))) < POINT_VALUE_TOL,
               "reported value is not the entropy at the reported point")
        expect(c.value <= scan + POINT_VALUE_TOL,
               f"value {c.value!r} above the circle-scan minimum {scan!r}")
    if below:
        expect(len(result) == 2, f"{len(result)} minima below the threshold, expected 2")
        for c in result:
            gap = min(np.linalg.norm(as_point(c.location) - s * d) for s in (1, -1))
            expect(gap < ANGLE_TOL, f"minimum {gap:.2e} off the long diagonal")
    else:
        expect(len(result) == 4, f"{len(result)} minima above the threshold, expected 4")
        expect(all(c.type_label == "non-inert" for c in result),
               "minima above the threshold must be non-inert")
        expect(result[0].value < float(entropy(d, V)) - TIE_TOL,
               "long-diagonal point still minimal above the threshold")


def probe_kind(u: np.ndarray, V: np.ndarray, step: float = 1e-3) -> str:
    """min / max / saddle from the entropy on a small geodesic circle."""
    a = np.array([1.0, 0.0, 0.0]) if abs(u[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(u, a)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(u, e1)
    phi = np.arange(16) * math.pi / 8
    dirs = np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2
    ring = math.cos(step) * u + math.sin(step) * dirs
    delta = entropy(ring, V) - float(entropy(u, V))
    if np.all(delta > 0.0):
        return "min"
    if np.all(delta < 0.0):
        return "max"
    return "saddle"


def check_classification(result, u, V):
    expect(abs(result.value - float(entropy(u, V))) < POINT_VALUE_TOL,
           "classified value is not the entropy at the point")
    if float(np.min(np.linalg.norm(V + u, axis=1))) < 1e-8:
        expect(result.kind == "min" and result.type_label == "I",
               f"antipode classified {result.kind}/{result.type_label}, expected min/I")
        return
    want = probe_kind(u, V)
    expect(result.kind == want, f"classified {result.kind}, probe says {want}")


# ---------------------------------------------------------------- certify

def antipodal_minimum_is_unique(V, kind, alpha=None) -> bool:
    """Whether the antipodal orbit is the only set of global minimizers of
    the summand bound, judged on a dense sample (the great circle for a
    coplanar POVM, where the program confines its minimizers)."""
    samples = plane_circle(V, 1 << 14) if rank(V) == 2 else sphere_lattice(20_000)
    values = summand_bound(samples, V, kind, alpha)
    best = float(summand_bound(-V[0], V, kind, alpha))
    if float(np.min(values)) < best - TIE_TOL:
        return False
    far = angle_to(samples, distinct(-V)) > FAR_ANGLE
    return not bool(np.any(values[far] < best + TIE_TOL))


def check_certificate(cert, V, family, kind="shannon", alpha=None):
    """Certificate verdicts and the closed forms pinned by criterion 3."""
    target = float(summand_bound(-V[0], V, kind, alpha))
    expect(abs(cert.certified_minimum - target) < 1e-9,
           f"certified minimum {cert.certified_minimum!r} vs {target!r}")
    want_valid = antipodal_minimum_is_unique(V, kind, alpha)
    expect(cert.valid == want_valid,
           f"valid={cert.valid}, oracle says {want_valid} ({cert.reason})")
    if family in ("digon", "3-gon", "tetrahedron"):
        expect(cert.constant_bound and cert.orbit_min_verdict,
               "constant-bound verdict missing")
    if not want_valid:
        return
    expect(cert.below_check[0] >= -1e-12, f"gap {cert.below_check[0]!r} < -1e-12")
    if kind != "shannon":
        return
    coeff = cert.coefficients
    if family == "cube":
        B = 0.375 * math.log(27.0 / 16.0)
        expect(abs(coeff["B"] - B) < 1e-10, f"cube B {coeff['B']!r} vs {B!r}")
    elif family == "cuboctahedron":
        B = (520.0 / 9.0) * LN2 - 37.0 * math.log(3.0)
        C = -(364.0 / 9.0) * LN2 + 26.0 * math.log(3.0)
        expect(abs(coeff["B"] - B) < 1e-9, f"cuboctahedron B {coeff['B']!r} vs {B!r}")
        expect(abs(coeff["C"] - C) < 1e-9, f"cuboctahedron C {coeff['C']!r} vs {C!r}")
        expect(abs(cert.beta - 0.3775) < 1e-4, f"cuboctahedron beta {cert.beta!r}")
    elif family == "dodecahedron":
        expect(abs(coeff["B"] + 0.06509) < 1e-4, f"dodecahedron B {coeff['B']!r}")
    elif family == "icosidodecahedron":
        expect(cert.sturm_roots == 0, f"Sturm roots {cert.sturm_roots!r}")
        expect(cert.sturm_precision_bits is not None
               and cert.sturm_precision_bits <= 512,
               f"Sturm precision {cert.sturm_precision_bits!r}")


# ---------------------------------------------------------------- grid

def check_entropy_map(path, V, rows: int) -> dict:
    """Every CSV row parsed back; H and Hrel recomputed at 1e-12."""
    with open(path) as fh:
        header = fh.readline().strip()
    expect(header == "x,y,z,H,Hrel", f"CSV header {header!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    expect(data.shape == (rows, 5), f"CSV shape {data.shape}, expected ({rows}, 5)")
    points = data[:, :3]
    expect(float(np.max(np.abs(np.linalg.norm(points, axis=1) - 1.0))) < 1e-12,
           "CSV points are not unit vectors")
    H = entropy(points, V)
    expect(float(np.max(np.abs(data[:, 3] - H))) < 1e-12, "CSV H off by > 1e-12")
    rel = math.log(len(V)) - H
    expect(float(np.max(np.abs(data[:, 4] - rel))) < 1e-12, "CSV Hrel off by > 1e-12")
    return {"rows": int(data.shape[0])}


def check_sphere_average(value: float):
    target = LN2 - 0.5
    expect(abs(value - target) < 2e-3, f"sphere average {value!r} vs ln2 - 1/2")


def check_landscape(result, V, kind, alpha, n: int):
    expect(len(result.samples) == n, f"{len(result.samples)} samples, expected {n}")
    points = np.array([as_point(b) for b, _ in result.samples])
    values = np.array([v for _, v in result.samples])
    expect(float(np.max(np.abs(np.linalg.norm(points, axis=1) - 1.0))) < 1e-12,
           "landscape points are not unit vectors")
    worst = float(np.max(np.abs(values - entropy(points, V, kind, alpha))))
    expect(worst < POINT_VALUE_TOL, f"landscape value off by {worst:.2e}")


def dynamical_entropy(R: np.ndarray, V: np.ndarray) -> float:
    """(1/k) sum_ij eta(p_ij), p_ij = (1 + (R v_i) . v_j)/k."""
    P = (1.0 + (V @ R.T) @ V.T) / len(V)
    return -float(np.sum(xlogx(P))) / len(V)


def check_entropy_rate(value: float, R, V):
    target = dynamical_entropy(R, V)
    expect(abs(value - target) < 1e-12, f"entropy rate {value!r} vs {target!r}")
