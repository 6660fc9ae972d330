import pytest
from mpmath import iv
from mpmath.ctx_iv import MPIntervalContext

from hspovm.sturm import AmbiguousSignError, sturm_chain, sturm_root_count


def points(*coeffs):
    """Integer coefficients as point intervals, which hold them exactly."""
    return [iv.mpf(c) for c in coeffs]


class TestExact:
    def test_two_real_roots(self):
        assert sturm_root_count(points(-2, 0, 1)) == 2          # t^2 - 2

    def test_no_real_roots(self):
        assert sturm_root_count(points(1, 0, 1)) == 0           # t^2 + 1

    def test_cubic(self):
        assert sturm_root_count(points(0, -1, 0, 1)) == 3       # t^3 - t

    def test_distinct_root_count_for_multiple_roots(self):
        # (t-1)^2: one distinct real root
        assert sturm_root_count(points(1, -2, 1)) == 1

    def test_constant_poly(self):
        assert sturm_root_count(points(5)) == 0

    def test_leading_zero_normalized(self):
        assert sturm_root_count(points(-2, 0, 1, 0, 0)) == 2

    def test_chain_degrees_decrease(self):
        chain = sturm_chain(points(-1, 0, 0, 0, 1))
        degrees = [len(p) - 1 for p in chain]
        assert degrees[0] == 4
        assert all(a > b for a, b in zip(degrees, degrees[1:]))


class TestInterval:
    @pytest.fixture(autouse=True)
    def restore_interval_precision(self):
        saved = iv.prec
        yield
        iv.prec = saved

    def test_point_intervals(self):
        iv.prec = 120
        assert sturm_root_count([iv.mpf(-2), iv.mpf(0), iv.mpf(1)]) == 2
        assert sturm_root_count([iv.mpf(1), iv.mpf(0), iv.mpf(1)]) == 0

    def test_narrow_intervals_certify(self):
        iv.prec = 120
        sqrt2 = iv.sqrt(iv.mpf(2))
        # (t - sqrt2)(t + sqrt2) with certified irrational coefficients
        coeffs = [-sqrt2 * sqrt2, iv.mpf(0), iv.mpf(1)]
        assert sturm_root_count(coeffs) == 2

    def test_wide_interval_raises(self):
        iv.prec = 120
        with pytest.raises(AmbiguousSignError):
            sturm_root_count([iv.mpf([-1, 1]), iv.mpf(0), iv.mpf(1)])


class TestPrivateContext:
    """Intervals of a context other than the global ``iv`` take the same
    certified path: a sign is decided for the whole interval or not at all."""

    @pytest.fixture
    def ctx(self):
        ctx = MPIntervalContext()
        ctx.prec = 120
        return ctx

    def test_narrow_intervals_certify(self, ctx):
        sqrt2 = ctx.sqrt(ctx.mpf(2))
        assert sturm_root_count([-sqrt2 * sqrt2, ctx.mpf(0), ctx.mpf(1)]) == 2
        assert sturm_root_count([ctx.mpf(1), ctx.mpf(0), ctx.mpf(1)]) == 0

    def test_wide_interval_raises(self, ctx):
        with pytest.raises(AmbiguousSignError):
            sturm_root_count([ctx.mpf([-1, 1]), ctx.mpf(0), ctx.mpf(1)])
