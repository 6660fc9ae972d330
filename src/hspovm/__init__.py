"""Highly symmetric qubit POVMs: entropy of measurement, certified minimizers,
informational power, and quantum dynamical entropy.

The package namespace holds what callers reach through ``hspovm.``; every
other name is imported from its module (``hspovm.catalog``, ...)."""

from . import bloch
from .bloch import SHANNON, BlochVector, EntropyKernel
from .catalog import (HsPovm, interpolation_set, make_hs_povm, make_rectangle_povm,
                      spherical_design_order)
from .certificate import (assemble_lower_bound, certify_minimum, expand_in_invariants,
                          hermite_interpolate, icosidodeca_positivity, verify_below)
from .dynamics import UnitaryAsRotation, empirical_entropy_rate
from .entropy import (CriticalPoint, classify_inert_point, entropy_at, fibonacci_sphere,
                      find_extrema, landscape)
from .groups import degree_bound, double_coset_profile, orbit, stabilizer
from .info import (informational_power, sphere_average_relative_entropy,
                   uncertainty_upper_bound)

__all__ = [
    "BlochVector", "CriticalPoint", "EntropyKernel", "HsPovm", "SHANNON",
    "UnitaryAsRotation", "assemble_lower_bound", "bloch", "certify_minimum",
    "classify_inert_point", "cli", "degree_bound", "double_coset_profile",
    "empirical_entropy_rate", "entropy_at", "expand_in_invariants",
    "fibonacci_sphere", "find_extrema", "hermite_interpolate",
    "icosidodeca_positivity", "informational_power", "interpolation_set",
    "landscape", "make_hs_povm", "make_rectangle_povm", "orbit",
    "sphere_average_relative_entropy", "spherical_design_order", "stabilizer",
    "uncertainty_upper_bound", "verify_below",
]
__version__ = "0.1.0"
