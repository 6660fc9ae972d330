import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st
from mpmath.ctx_iv import MPIntervalContext
from mpmath.ctx_mp import MPContext

from hspovm.groups import generate_group
from hspovm.q5 import GOLDEN, TAU, Q5, dot

MP = MPContext()          # private: the caller's mpmath.mp stays untouched
MP.dps = 100

INTS = st.integers(-10**6, 10**6)
NUMBERS = st.builds(Q5, INTS, INTS, st.integers(1, 10**4))


def high(x):
    """x at 100 digits."""
    return (MP.mpf(x.a) + MP.mpf(x.b) * MP.sqrt(5)) / x.d


def agrees(x, value):
    return abs(high(x) - value) <= MP.mpf(10) ** -80 * (1 + abs(value))


@given(NUMBERS, NUMBERS)
def test_ring_operations_agree_with_mpmath(x, y):
    assert agrees(x + y, high(x) + high(y))
    assert agrees(x - y, high(x) - high(y))
    assert agrees(x * y, high(x) * high(y))
    assert agrees(-x, -high(x))
    assert agrees(x ** 3, high(x) ** 3)
    assert agrees(dot((x, y, x), (y, y, x)), 2 * high(x) * high(y) + high(y) ** 2
                  - high(x) * high(y) + high(x) ** 2)
    if y != 0:
        assert agrees(x / y, high(x) / high(y))


@given(NUMBERS, st.integers(-40, 40))
def test_mixed_with_ints_and_fractions(x, n):
    assert agrees(x + n, high(x) + n)
    assert agrees(x * Fraction(n, 7), high(x) * n / 7)
    assert agrees(Fraction(n, 3) / GOLDEN, MP.mpf(n) / 3 / high(GOLDEN))


@given(NUMBERS)
def test_times_inverse_is_one(x):
    assume(x != 0)
    assert x * (1 / x) == 1
    assert x ** -2 * x ** 2 == 1


@given(NUMBERS)
def test_sign_agrees_with_high_precision_sign(x):
    value = high(x)
    assert x.sign() == (value > 0) - (value < 0)


@pytest.mark.parametrize("k", range(1, 25))
def test_sign_of_tiny_values(k):
    # (9 - 4 sqrt 5)^k is positive but below 0.06^k; floats lose it
    tiny = Q5(9, -4) ** k
    assert tiny.sign() == 1 and (-tiny).sign() == -1
    assert tiny > 0 > -tiny and tiny < Q5(9, -4) ** (k - 1)


@given(NUMBERS, NUMBERS)
def test_ordering_is_the_order_of_values(x, y):
    assert (x < y) == (high(x) < high(y))
    assert (x <= y) == (high(x) <= high(y))


@given(NUMBERS, st.integers(1, 50))
def test_equal_values_hash_equal(x, k):
    y = Q5(x.a * k, x.b * k, x.d * k)
    assert y == x and hash(y) == hash(x)
    assert len({x, y}) == 1


@given(INTS, st.integers(1, 10**4))
def test_rationals_equal_their_fraction(a, d):
    x, f = Q5(a, 0, d), Fraction(a, d)
    assert x == f and hash(x) == hash(f)
    assert (x == a) == (f == a)


def test_float_reproduces_the_package_constants():
    assert float(GOLDEN) == TAU
    assert float(1 / GOLDEN) == 1 / TAU
    assert float(GOLDEN / 2) == TAU / 2
    assert float(1 / (2 * GOLDEN)) == 1 / (2 * TAU)
    assert float(-GOLDEN / 2) == -TAU / 2
    assert float(Q5(1, 0, 3)) == 1 / 3


@given(NUMBERS)
def test_float_is_within_a_few_ulps_of_its_terms(x):
    # float(a/d) + float(b/d) sqrt 5: each term is rounded once, the sum once
    scale = abs(x.a / x.d) + abs(x.b / x.d) * 2.25
    assert abs(float(x) - high(x)) <= 4 * 2.0 ** -52 * scale


@given(NUMBERS)
def test_lift_encloses_the_value(x):
    ctx = MPIntervalContext()
    ctx.prec = 200
    interval = x.lift(ctx)
    value = high(x)
    assert interval.a <= value <= interval.b


def test_pickle_and_copy_round_trip():
    group = pickle.loads(pickle.dumps(generate_group("I")))
    assert group.exact == generate_group("I").exact
    assert copy.deepcopy(GOLDEN) == GOLDEN and copy.copy(GOLDEN) == GOLDEN


def test_immutable_and_integer_only():
    with pytest.raises(AttributeError):
        GOLDEN.a = 2
    with pytest.raises(TypeError):
        Q5(0.5)
    with pytest.raises(TypeError):
        GOLDEN + 0.5
    with pytest.raises(ZeroDivisionError):
        GOLDEN / Q5()
