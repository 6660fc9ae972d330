"""Exact numbers (a + b sqrt 5)/d of Q(sqrt 5), in integer arithmetic.

``float()`` maps r tau^e (rational r, e in {-1, 0, 1}) to float(r) times
1.0, TAU or 1/TAU and anything else to float(a/d) + float(b/d) sqrt 5: the
floats the package has always used (1/(2*TAU) is 0.3090169943749474; the
correctly rounded (sqrt 5 - 1)/4 ends in ...745).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering

TAU = (1.0 + math.sqrt(5.0)) / 2.0


@total_ordering
class Q5:
    """The immutable number (a + b sqrt 5)/d, in lowest terms with d > 0."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: int = 0, b: int = 0, d: int = 1):
        if not (type(a) is type(b) is type(d) is int and d):
            raise TypeError(f"Q5 needs integers a, b and d != 0, got {a!r}, {b!r}, {d!r}")
        g = math.gcd(a, b, d) * (1 if d > 0 else -1)
        object.__setattr__(self, "a", a // g)
        object.__setattr__(self, "b", b // g)
        object.__setattr__(self, "d", d // g)

    def __setattr__(self, name, value):
        raise AttributeError("Q5 is immutable")

    def __reduce__(self):             # pickle and copy through the constructor
        return Q5, (self.a, self.b, self.d)

    @staticmethod
    def of(x) -> Q5:
        """x as a Q5: a Q5, an int or a Fraction."""
        if isinstance(x, Q5):
            return x
        if isinstance(x, (int, Fraction)):
            return Q5(x.numerator, 0, x.denominator)
        raise TypeError(f"not an exact number: {x!r}")

    def __add__(self, other):
        o = Q5.of(other)
        return Q5(self.a * o.d + o.a * self.d, self.b * o.d + o.b * self.d, self.d * o.d)

    def __mul__(self, other):
        o = Q5.of(other)
        return Q5(self.a * o.a + 5 * self.b * o.b, self.a * o.b + self.b * o.a, self.d * o.d)

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return Q5(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + -Q5.of(other)

    def __truediv__(self, other):
        """x / y = x y' / (y y'), with the conjugate y' and y y' rational."""
        o = Q5.of(other)
        norm = o.a * o.a - 5 * o.b * o.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 5)")
        return Q5((self.a * o.a - 5 * self.b * o.b) * o.d,
                  (self.b * o.a - self.a * o.b) * o.d, self.d * norm)

    def __rtruediv__(self, other):
        return Q5.of(other) / self

    def __pow__(self, exponent: int):
        power = math.prod([self] * abs(exponent), start=Q5(1))
        return power if exponent >= 0 else 1 / power

    def __eq__(self, other):
        o = Q5.of(other) if isinstance(other, (int, Fraction)) else other
        return isinstance(o, Q5) and (self.a, self.b, self.d) == (o.a, o.b, o.d)

    def __hash__(self):
        # a rational value hashes as the int or Fraction it equals
        if self.b == 0:
            return hash(self.a if self.d == 1 else Fraction(self.a, self.d))
        return hash((self.a, self.b, self.d))

    def sign(self) -> int:
        """The exact sign, -1, 0 or 1."""
        return pair_sign(self.a, self.b)

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __float__(self):
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return a / d
        if abs(a) == abs(b):        # r tau or r / tau, with r = 2b/d
            return (2 * b / d) * (TAU if a == b else 1.0 / TAU)
        return a / d + b / d * math.sqrt(5.0)

    def lift(self, ctx):
        """The enclosing interval in the mpmath interval context ctx, with
        sqrt 5 enclosed once per context and precision (not for a rational)."""
        if self.b and getattr(ctx, "_q5_root5", (None,))[0] != ctx.prec:
            ctx._q5_root5 = ctx.prec, ctx.sqrt(ctx.mpf(5))
        return (ctx.mpf(self.a) + (self.b and ctx.mpf(self.b) * ctx._q5_root5[1])) / self.d

    def __repr__(self):
        return f"Q5({self.a}, {self.b}, {self.d})"


def pair_sign(a: int, b: int) -> int:
    """The exact sign of a + b sqrt 5 for integers a and b: -1, 0 or 1."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    return sa if a * a > 5 * b * b else sb


#: the golden ratio (1 + sqrt 5)/2, exactly
GOLDEN = Q5(1, 1, 2)


def dot(u, v) -> Q5:
    """sum_k u_k v_k for two sequences of Q5, in one pass."""
    a, b, d = 0, 0, 1
    for x, y in zip(u, v):
        e = x.d * y.d
        a, b, d = (a * e + (x.a * y.a + 5 * x.b * y.b) * d,
                   b * e + (x.a * y.b + x.b * y.a) * d, d * e)
    return Q5(a, b, d)
