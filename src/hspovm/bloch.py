"""Qubit states on the Bloch sphere and the entropy kernels.

Pure qubit states are represented by unit vectors in R^3 (the Bloch
representation, normalized to radius 1).  An EntropyKernel (Shannon,
Renyi or Tsallis) is all the package knows of a kernel: its summand h,
h' and h'' in any arithmetic, the sign of the higher derivatives of h,
and the entropy at a block of dots u . v_j.  The Shannon summand
eta(x) = -x ln x is written here only: on float arrays by _eta_in_place,
in any arithmetic by EntropyKernel.summand_at_x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

RENORM_TOL = 1e-9      # construction renormalizes within this, errors beyond


@dataclass(frozen=True, slots=True)
class BlochVector:
    """Unit vector in R^3 representing a pure qubit state."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        norm = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        if not math.isfinite(norm):
            raise ValueError(f"Bloch vector norm {norm} is not finite")
        if abs(norm - 1.0) > RENORM_TOL:
            raise ValueError(f"Bloch vector norm {norm} too far from 1")
        if norm != 1.0:
            object.__setattr__(self, "x", self.x / norm)
            object.__setattr__(self, "y", self.y / norm)
            object.__setattr__(self, "z", self.z / norm)

    @classmethod
    def from_array(cls, a) -> "BlochVector":
        a = np.asarray(a, dtype=float)
        return cls(float(a[0]), float(a[1]), float(a[2]))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def __neg__(self) -> "BlochVector":
        return BlochVector(-self.x, -self.y, -self.z)


def _eta_in_place(x: np.ndarray) -> np.ndarray:
    """eta of the float array x, which is overwritten: -x ln x with x
    clipped to [0, 1].  x = 0 is set to 1 before the logarithm, so no
    logarithm of zero (and no floating-point warning) arises, and 0 - x
    gives +0 there, as 0 ln 0 = 0 does."""
    np.fmax(x, 0.0, out=x)                  # fmax also maps NaN to 0
    np.fmin(x, 1.0, out=x)
    out = np.subtract(0.0, x)
    np.copyto(x, 1.0, where=x == 0.0)
    np.log(x, out=x)
    out *= x
    return out


def h_array(t: np.ndarray) -> np.ndarray:
    """The Shannon summand h(t) = eta((t+1)/2), entrywise."""
    x = np.array(t, dtype=float)
    x += 1.0
    x *= 0.5
    return _eta_in_place(x)


@dataclass(frozen=True)
class EntropyKernel:
    """Entropy functional applied to POVM outcome distributions.

    kind:
        "shannon"  sum of eta(p_j)
        "tsallis"  (1 - sum p_j^alpha)/(alpha - 1)
        "renyi"    ln(sum p_j^alpha)/(1 - alpha)

    Renyi entropy is a monotone function of the Tsallis power sum, so both
    share the additive summand (x - x^alpha)/(alpha - 1) wherever only the
    location of extrema matters (in particular in the interpolation
    certificates, whose bound p <= h holds or fails per alpha and node
    count by the sign of the Hermite remainder).
    """

    kind: str = "shannon"
    alpha: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.kind not in ("shannon", "renyi", "tsallis"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "shannon":
            if self.alpha is not None:
                raise ValueError("shannon kernel takes no alpha")
        else:
            if self.alpha is None or not 0.0 < self.alpha or self.alpha == 1.0:
                raise ValueError("renyi/tsallis kernels need alpha > 0, alpha != 1")

    # ---- the additive summand, as the certificates see it ----

    def summand(self, num, log):
        """h(t) = f((1 + t)/2) for the summand f (eta, or the power summand)
        and its derivatives h' and h'', in the arithmetic of ``num`` (float,
        or the ``mpf`` of an mpmath interval context) with the matching
        ``log``."""
        half = num(0.5)
        return tuple((lambda t, g=g: g((num(1) + t) * half))
                     for g in self.summand_at_x(num, log))

    def summand_at_x(self, num, log):
        """h, h' and h'' as functions of x = (1 + t)/2, which a caller near
        t = -1 can form without the cancellation in 1 + t; with ``np.log``
        the derivatives apply entrywise to arrays."""
        one, half = num(1), num(0.5)
        if self.kind == "shannon":
            return (lambda x: num(0) if x <= 0 else -x * log(x),
                    lambda x: -half * (log(x) + one),
                    lambda x: -half * half / x)
        a = num(self.alpha)
        return (lambda x: num(0) if x <= 0 else (x - x ** a) / (a - one),
                lambda x: half * (one - a * x ** (a - one)) / (a - one),
                lambda x: -half * half * a * x ** (a - num(2)))

    def derivative_sign(self, order: int) -> int:
        """The sign h^(order) keeps on (-1, 1), for order >= 2: (-1)^(order-1)
        for Shannon, whose h^(n)(t) = (1/2)(-1)^(n-1) (n-2)! (1+t)^(1-n),
        and -sign prod_{j=2}^{order-1} (alpha - j) for the power summand, 0
        exactly when h is a polynomial of degree < order."""
        if order < 2:
            raise ValueError("h' changes sign on (-1, 1); orders start at 2")
        if self.kind == "shannon":
            return (-1) ** (order - 1)
        factors = [self.alpha - j for j in range(2, order)]
        return 0 if 0.0 in factors else -(-1) ** sum(f < 0 for f in factors)

    def polynomial_degree(self):
        """Degree of h where the power summand is a polynomial (integer
        alpha), else None."""
        if self.kind != "shannon" and self.alpha == round(self.alpha):
            return round(self.alpha)
        return None

    # ---- full entropy of a distribution ----

    def entropy(self, p: np.ndarray, axis: int = None):
        """Entropy of the distribution p, a float; with ``axis`` given, the
        entropies of the distributions along that axis, as an array."""
        p = np.asarray(p, dtype=float)
        if self.kind == "shannon":
            out = np.sum(_eta_in_place(p.copy()), axis=axis)
        else:
            power_sum = np.sum(np.clip(p, 0.0, 1.0) ** self.alpha, axis=axis)
            if self.kind == "tsallis":
                out = (1.0 - power_sum) / (self.alpha - 1.0)
            else:
                out = np.log(power_sum) / (1.0 - self.alpha)
        return float(out) if axis is None else out

    def entropy_of_dots(self, dots: np.ndarray, k: int):
        """Entropy of a k-outcome qubit POVM from the dots u . v_j along the
        last axis of ``dots``: an array for a block of points, a scalar for
        the k dots of one point."""
        if self.kind == "shannon":
            return math.log(k / 2.0) + (2.0 / k) * np.add.reduce(h_array(dots), axis=-1)
        return self.entropy((dots + 1.0) / k, axis=-1)


SHANNON = EntropyKernel("shannon")
