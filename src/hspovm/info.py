"""Informational power, an uncertainty bound, and average relative entropy.

For a symmetric POVM the maximal relative entropy over input states is the
informational power W of the measurement (the classical capacity of the
induced quantum-classical channel), and for the highly symmetric catalog
the maximizers are known analytically, giving the closed form

    W = ln 2 - (2/k) sum_j eta((1 - v_j . v)/2)

with v any fiducial vector and eta(x) = -x ln x the Shannon kernel's
summand (:meth:`hspovm.bloch.EntropyKernel.summand_at_x`).  All values are
in nats.
"""

from __future__ import annotations

import math

import numpy as np

from .bloch import SHANNON
from .catalog import FAMILY_SPECS, HsPovm, check_family_geometry
from .entropy import _entropy_values, fibonacci_sphere

#: five-digit reference values for the catalog families
TABLE_REFERENCE = {name: spec.reference_W for name, spec in FAMILY_SPECS.items()
                   if spec.reference_W is not None}

#: eta on floats; every x this module forms lies in [0, 1]
_eta = SHANNON.summand_at_x(float, math.log)[0]


def informational_power(povm: HsPovm) -> float:
    """Closed-form informational power of a highly symmetric POVM, taken on
    the registry member that the vectors are checked to be a rotated copy
    of (:func:`hspovm.catalog.check_family_geometry`)."""
    _, member, _ = check_family_geometry(povm)
    dots = member.matrix() @ member.fiducial.as_array()
    return math.log(2.0) - (2.0 / member.k) * math.fsum(
        _eta((1.0 - t) / 2.0) for t in dots)


def ngon_informational_power(n: int) -> float:
    """W = ln 2 - (2/n) sum_j eta(sin^2(pi j / n)) for the regular n-gon."""
    if n < 2:
        raise ValueError("polygons need n >= 2")
    return math.log(2.0) - (2.0 / n) * math.fsum(
        _eta(math.sin(math.pi * j / n) ** 2) for j in range(1, n + 1))


def average_relative_entropy(d: int) -> float:
    """Sphere average of the relative entropy: ln d - sum_{j=2}^d 1/j.

    Independent of the measurement; tends to 1 - gamma (Euler-Mascheroni)
    as d grows.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    return math.log(d) - math.fsum(1.0 / j for j in range(2, d + 1))


def uncertainty_upper_bound(povm1: HsPovm, povm2: HsPovm) -> float:
    """Upper bound ln 2 + ln max |cos theta_jl| for the relative entropy
    of the aggregated POVM (1/2 Pi^1, 1/2 Pi^2), where theta_jl is half
    the Bloch angle between elements of the two parts."""
    dots = povm1.matrix() @ povm2.matrix().T
    max_cos = math.sqrt((1.0 + float(dots.max())) / 2.0)
    return math.log(2.0) + math.log(max_cos)


def sphere_average_relative_entropy(povm: HsPovm, n_points: int = 1_000_000) -> float:
    """Quasi-random estimate of the sphere average of the relative entropy
    (which should match average_relative_entropy(2) for any POVM)."""
    points = fibonacci_sphere(n_points)
    values = _entropy_values(points, povm)
    return math.log(povm.k) - float(np.mean(values))
