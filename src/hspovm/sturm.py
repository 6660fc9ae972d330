"""Sturm chains for certified real-root counting over mpmath intervals.

The coefficients are ``ivmpf`` intervals (from ``mpmath.iv`` or any other
interval context, at that context's precision).  Every sign decision must
hold for the entire interval, otherwise :class:`AmbiguousSignError` is
raised and the caller retries at higher precision.

The number of distinct real roots of q equals the difference of the
sign-change counts of the chain at -infinity and at +infinity, where the
signs come from the leading coefficients and degree parity.
"""

from __future__ import annotations


class AmbiguousSignError(ArithmeticError):
    """An interval sign could not be decided; raise the working precision."""


def _sign(x) -> int:
    """Sign of an interval; raises AmbiguousSignError when it contains zero
    and other numbers."""
    if x.a > 0:
        return 1
    if x.b < 0:
        return -1
    if x.a == 0 and x.b == 0:
        return 0
    raise AmbiguousSignError(f"interval {x} straddles zero")


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
        return [q0]
    chain = [q0, _trim(_poly_derivative(q0))]
    while len(chain[-1]) > 1:
        rem = _poly_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _sign_changes(signs: list) -> int:
    filtered = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(filtered, filtered[1:]) if a * b < 0)


def sturm_root_count(coeffs) -> int:
    """Number of distinct real roots of q, whose interval coefficients
    ``coeffs`` ascend by degree; certified, or AmbiguousSignError."""
    chain = sturm_chain(coeffs)
    if len(chain[0]) <= 1:
        return 0
    at_plus = [_sign(poly[-1]) for poly in chain]
    at_minus = [s if len(poly) % 2 else -s for s, poly in zip(at_plus, chain)]
    return _sign_changes(at_minus) - _sign_changes(at_plus)
