"""Primary invariant polynomials of the octahedral and icosahedral groups.

In the canonical orientations of :mod:`hspovm.groups` the rings of
invariant polynomials are generated as follows (tau the golden ratio; I2
is 1 on the sphere, so the certificates expand in the others):

====== ==========================
group  primary invariants
====== ==========================
O_h    I2, I4, I6
I_h    I2, I6', I10
====== ==========================

The icosahedral group additionally has a single secondary invariant of
degree 15 whose square, written in the coordinates (I6', I10), cuts out
the boundary of the range of the orbit map w -> (I6'(w), I10(w)); its
terms, J15_SQUARED_TERMS, are what the icosidodecahedral certificate
manipulates.
"""

from __future__ import annotations

from .q5 import TAU

#: J15^2 = sum (a + b tau) theta1^i theta2^j over these (a, b, i, j)
J15_SQUARED_TERMS = (
    (4, 0, 2, 0), (-24, -32, 1, 1), (-273, 182, 3, 0), (20, 32, 0, 2),
    (159, -318, 2, 1), (8944, -5504, 4, 0), (325, 650, 1, 2),
    (-5040, 2880, 3, 1), (-95040, 58752, 5, 0), (-275, -450, 0, 3),
)


def i4(p):
    x, y, z = p
    return x ** 4 + y ** 4 + z ** 4


def i6(p):
    x, y, z = p
    return x ** 6 + y ** 6 + z ** 6


def i6_prime(p, tau=TAU):
    """I6' in the arithmetic of p and tau (floats, arrays of coordinates,
    Q(sqrt 5) or mpmath intervals), like i4 and i6 in that of p."""
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


_EVALUATORS = {"I4": i4, "I6": i6, "I6p": i6_prime, "I10": i10}


def invariant_degree(name: str) -> int:
    """Degree of an invariant named I<d>, I<d>p or a power ("I6p^2": 12)."""
    base, _, power = name.partition("^")
    return int(base[1:].rstrip("p")) * int(power or 1)


def evaluate_invariant(name: str, p, tau=TAU):
    """Evaluate a named invariant at a 3-vector (canonical orientation).

    ``"I6p^2"`` names a power of an invariant; I4 to I10 are in the
    arithmetic of p, and I6p and I10 take the golden ratio ``tau`` in it.
    """
    base, _, power = name.partition("^")
    if power:
        return evaluate_invariant(base, p, tau) ** int(power)
    if name in ("I6p", "I10"):
        return _EVALUATORS[name](p, tau)
    if name not in _EVALUATORS:
        raise ValueError(f"unknown invariant {name!r}")
    return _EVALUATORS[name](p)
