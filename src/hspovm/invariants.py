"""Primary invariant polynomials of the prismatic and polyhedral groups.

In the canonical orientations of :mod:`hspovm.groups` the rings of
invariant polynomials are generated as follows (tau the golden ratio):

====== ==========================
group  primary invariants
====== ==========================
D_nh   z^2, rho, gamma_n
T_d    I2, I3, I4
O_h    I2, I4, I6
I_h    I2, I6', I10
====== ==========================

The icosahedral group additionally has a single secondary invariant of
degree 15 whose square, expressed through the orbit map
w -> (I6'(w), I10(w)), cuts out the boundary of the orbit-map range; that
squared form is what the icosidodecahedral certificate manipulates.
"""

from __future__ import annotations

import math

from .q5 import TAU

#: J15^2 = sum (a + b tau) theta1^i theta2^j over these (a, b, i, j)
J15_SQUARED_TERMS = (
    (4, 0, 2, 0), (-24, -32, 1, 1), (-273, 182, 3, 0), (20, 32, 0, 2),
    (159, -318, 2, 1), (8944, -5504, 4, 0), (325, 650, 1, 2),
    (-5040, 2880, 3, 1), (-95040, 58752, 5, 0), (-275, -450, 0, 3),
)


def rho(p) -> float:
    x, y, _ = p
    return float(x * x + y * y)


def gamma_n(p, n: int) -> float:
    """Real part of (x + iy)^n."""
    x, y, _ = p
    return float((complex(x, y) ** n).real)


def i2(p):
    x, y, z = p
    return x * x + y * y + z * z


def i3(p):
    x, y, z = p
    return x * y * z


def i4(p):
    x, y, z = p
    return x ** 4 + y ** 4 + z ** 4


def i6(p):
    x, y, z = p
    return x ** 6 + y ** 6 + z ** 6


def i6_prime(p, tau=TAU):
    """I6' in the arithmetic of p and tau (floats, arrays of coordinates,
    Q(sqrt 5) or mpmath intervals), like i2 to i6 in that of p."""
    x, y, z = p
    t2 = tau * tau
    x2, y2, z2 = x * x, y * y, z * z
    return (t2 * x2 - y2) * (t2 * y2 - z2) * (t2 * z2 - x2)


def i10(p, tau=TAU):
    """I10 in the arithmetic of p and tau, like :func:`i6_prime`."""
    x, y, z = p
    t2 = tau * tau
    x2, y2, z2 = x * x, y * y, z * z
    linear = (x + y + z) * (x - y - z) * (y - z - x) * (z - y - x)
    quad = ((x2 / t2 - t2 * y2)
            * (y2 / t2 - t2 * z2)
            * (z2 / t2 - t2 * x2))
    return linear * quad


_EVALUATORS = {
    "rho": rho, "I2": i2, "I3": i3, "I4": i4, "I6": i6,
    "I6p": i6_prime, "I10": i10,
}

#: group tag -> primary invariant names (z2 evaluated as I2 - rho)
_BASES = {
    "D_nh": ("z2", "rho", "gamma_n"),
    "T_d": ("I2", "I3", "I4"),
    "O_h": ("I2", "I4", "I6"),
    "I_h": ("I2", "I6p", "I10"),
}


def invariant_basis(group: str) -> tuple:
    """Primary invariant names for a group tag (D_nh, T_d, O_h, I_h)."""
    if group not in _BASES:
        raise ValueError(f"no invariant basis for group {group!r}")
    return _BASES[group]


def invariant_degree(name: str) -> int:
    """Degree of an invariant named I<d>, I<d>p or a power ("I6p^2": 12)."""
    base, _, power = name.partition("^")
    return int(base[1:].rstrip("p")) * int(power or 1)


def evaluate_invariant(name: str, p, n: int = None, tau=TAU):
    """Evaluate a named invariant at a 3-vector (canonical orientation).

    ``"I6p^2"`` names a power of an invariant; I2 to I10 are in the
    arithmetic of p, and I6p and I10 take the golden ratio ``tau`` in it.
    """
    base, _, power = name.partition("^")
    if power:
        return evaluate_invariant(base, p, n, tau) ** int(power)
    if name == "gamma_n":
        if n is None:
            raise ValueError("gamma_n needs the polygon order n")
        return gamma_n(p, n)
    if name == "z2":
        return float(p[2] * p[2])
    if name == "J15sq":
        return j15_squared(*orbit_map_icosahedral(p))
    if name in ("I6p", "I10"):
        return _EVALUATORS[name](p, tau)
    if name not in _EVALUATORS:
        raise ValueError(f"unknown invariant {name!r}")
    return _EVALUATORS[name](p)


def orbit_map_icosahedral(w) -> tuple:
    """Orbit map of the icosahedral action: w -> (I6'(w), I10(w)).

    Injective on orbits of unit vectors; its range is the curvilinear
    triangle tested by :func:`range_membership_icosahedral`.
    """
    return (i6_prime(w), i10(w))


def j15_squared(theta1, theta2, tau=TAU):
    """Square of the degree-15 secondary icosahedral invariant, written in
    the primary-invariant coordinates (theta1, theta2) = (I6', I10), in the
    arithmetic of its arguments."""
    return sum((a + b * tau) * theta1 ** i * theta2 ** j
               for a, b, i, j in J15_SQUARED_TERMS)


# Extreme values of I6' on the unit sphere (attained at the icosahedron
# and dodecahedron orbits respectively).
I6P_MIN = -(2.0 + math.sqrt(5.0)) / 5.0
I6P_MAX = (2.0 + math.sqrt(5.0)) / 27.0


def range_membership_icosahedral(theta1: float, theta2: float,
                                 tol: float = 1e-10) -> bool:
    """Whether (theta1, theta2) lies in the orbit-map range.

    The range is cut out by -(2tau+1)/5 <= theta1 <= (2tau+1)/27,
    (7-4tau) theta1 <= theta2 and J15^2 >= 0.
    """
    if theta1 < I6P_MIN - tol or theta1 > I6P_MAX + tol:
        return False
    if theta2 < (7.0 - 4.0 * TAU) * theta1 - tol:
        return False
    return j15_squared(theta1, theta2) >= -tol
