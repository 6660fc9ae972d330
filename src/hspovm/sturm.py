"""Sturm chains for certified real-root counting.

Two coefficient regimes share one chain construction:

* exact rationals (``fractions.Fraction``) — the textbook algorithm;
* mpmath intervals (``ivmpf``, from ``mpmath.iv`` or any other interval
  context, at that context's precision) — every sign decision must hold
  for the entire interval, otherwise :class:`AmbiguousSignError` is raised
  and the caller retries at higher precision.

The number of distinct real roots of q in (a, b) equals the difference of
the sign-change counts of the chain evaluated at a and at b; at infinite
endpoints the signs come from the leading coefficients and degree parity.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath.ctx_iv import ivmpf


class AmbiguousSignError(ArithmeticError):
    """An interval sign could not be decided; raise the working precision."""


def _sign(x) -> int:
    """Sign of a coefficient; raises AmbiguousSignError for an interval
    that contains zero and other numbers."""
    if isinstance(x, ivmpf):
        if x.a > 0:
            return 1
        if x.b < 0:
            return -1
        if x.a == 0 and x.b == 0:
            return 0
        raise AmbiguousSignError(f"interval {x} straddles zero")
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def _trim(coeffs: list) -> list:
    """Drop zero leading coefficients (highest degree last)."""
    out = list(coeffs)
    while out and _sign(out[-1]) == 0:
        out.pop()
    return out


def _poly_derivative(coeffs: list) -> list:
    return [c * i for i, c in enumerate(coeffs)][1:]


def _poly_rem(num: list, den: list) -> list:
    """Remainder of polynomial division (coefficients ascending)."""
    num = list(num)
    lead = den[-1]
    dd = len(den) - 1
    while len(num) - 1 >= dd and num:
        factor = num[-1] / lead
        shift = len(num) - 1 - dd
        for i, c in enumerate(den):
            num[shift + i] = num[shift + i] - factor * c
        num.pop()           # leading term cancels by construction
        num = _trim(num)
    return num


def sturm_chain(coeffs) -> list:
    """Sturm chain q, q', -rem(...), ... for ascending coefficients."""
    q0 = _trim(list(coeffs))
    if len(q0) <= 1:
        return [q0] if q0 else [[0]]
    chain = [q0, _trim(_poly_derivative(q0))]
    while len(chain[-1]) > 1:
        rem = _poly_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _horner(coefficients, t):
    """Ascending coefficients evaluated at t, in t's arithmetic."""
    acc = coefficients[-1]
    for c in reversed(coefficients[:-1]):
        acc = acc * t + c
    return acc


def _signs_at(chain: list, point) -> list:
    signs = []
    for poly in chain:
        if point == math.inf:
            signs.append(_sign(poly[-1]))
        elif point == -math.inf:
            signs.append(_sign(poly[-1]) * (-1 if (len(poly) - 1) % 2 else 1))
        else:
            signs.append(_sign(_horner(poly, point)))
    return signs


def _sign_changes(signs: list) -> int:
    filtered = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(filtered, filtered[1:]) if a * b < 0)


def sturm_root_count(coeffs, interval=(-math.inf, math.inf)) -> int:
    """Number of distinct real roots of q in the open interval (a, b).

    ``coeffs`` ascending by degree; Fractions/ints give the exact count,
    mpmath intervals a certified one (or AmbiguousSignError).
    """
    a, b = interval
    if not a < b:
        raise ValueError("need a < b")
    coeffs = list(coeffs)
    if all(isinstance(c, (int, float, Fraction)) for c in coeffs):
        coeffs = [Fraction(c) for c in coeffs]   # Fraction(float) is exact
        if not math.isinf(a):
            a = Fraction(a)
        if not math.isinf(b):
            b = Fraction(b)
    chain = sturm_chain(coeffs)
    if len(chain[0]) <= 1:
        return 0
    return _sign_changes(_signs_at(chain, a)) - _sign_changes(_signs_at(chain, b))
