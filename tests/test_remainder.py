"""The one-sidedness proof: the sign of the Hermite remainder h - p.

The property test compares the exact sign decision with an independent
float64 sample of h - p written here, as the reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import ALL_FAMILIES, povm_for
from hspovm.bloch import EntropyKernel, SHANNON
from hspovm.certificate import _remainder_sign, certify_minimum, hermite_interpolate

FAMILIES = tuple((family, None) for family in ALL_FAMILIES) + tuple(
    ("n-gon", n) for n in range(3, 13))
SAMPLES = 20_001


def sampled_min_gap(kernel, poly):
    ts = np.linspace(-1.0, 1.0, SAMPLES)
    x = (1.0 + ts) / 2.0
    a = kernel.alpha
    h = (x - x ** a) / (a - 1.0)
    p = np.polyval(poly.coefficients[::-1], ts)
    return float(np.min(h - p))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(family=st.sampled_from(FAMILIES), whole=st.integers(0, 3),
       fraction=st.floats(0.05, 0.95))
def test_verdict_matches_dense_sample(family, whole, fraction):
    kernel = EntropyKernel("tsallis", whole + fraction)
    nodes = certify_minimum(povm_for(*family)).nodes
    poly = hermite_interpolate(kernel, nodes)
    sign = _remainder_sign(kernel, nodes)
    assert sign in (-1, 1)
    assert (sign == 1) == (sampled_min_gap(kernel, poly) >= -1e-12)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f"{f[0]}{f[1] or ''}")
def test_shannon_bound_proved(family):
    assert _remainder_sign(SHANNON, certify_minimum(povm_for(*family)).nodes) == 1


@pytest.mark.parametrize("alpha,sign", [(2.0, 0), (3.0, 0), (4.0, 0),
                                        (2.5, -1), (3.5, 1), (0.5, 1)])
def test_power_summand_signs_on_the_cube(alpha, sign):
    # N = 6: h is a polynomial p reproduces for alpha in {2, ..., 5}
    kernel = EntropyKernel("tsallis", alpha)
    assert _remainder_sign(kernel, certify_minimum(povm_for("cube")).nodes) == sign


@pytest.mark.parametrize("nodes", [
    [(-1.0, 1), (0.0, 1), (1.0, 1)],     # interior simple node
    [(-1.0, 1)],                         # N < 2
])
def test_no_fixed_sign(nodes):
    assert _remainder_sign(SHANNON, nodes) is None
