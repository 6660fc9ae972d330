import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.ctx_iv import MPIntervalContext

from conftest import ALL_FAMILIES, povm_for
from hspovm.bloch import BlochVector, EntropyKernel, SHANNON, _eta_in_place, h_array
from hspovm.dynamics import TransitionMatrix, UnitaryAsRotation, transition_matrix

# the Shannon summand h(t) = eta((1 + t)/2) and h', as the certificate builds them
h, h_prime, h_second = SHANNON.summand(float, math.log)
# eta(x) = -x ln x on floats, as the informational power evaluates it
kernel_eta = SHANNON.summand_at_x(float, math.log)[0]


def eta(x):
    """Oracle: -x ln x, 0 at x <= 0."""
    return -x * math.log(x) if x > 0 else 0.0


class TestBlochVector:
    def test_unit_enforced(self):
        v = BlochVector(0.6, 0.8, 0.0)
        assert abs(v.as_array() @ v.as_array() - 1.0) < 1e-12

    def test_renormalizes_small_drift(self):
        v = BlochVector(1.0 + 5e-10, 0.0, 0.0)
        assert v.x == pytest.approx(1.0, abs=1e-12)

    def test_rejects_far_from_unit(self):
        with pytest.raises(ValueError):
            BlochVector(0.5, 0.0, 0.0)

    def test_negation(self):
        v = BlochVector(0.0, 0.0, 1.0)
        assert (-v).z == -1.0

    @pytest.mark.parametrize("coords", [(math.nan, 0.0, 0.0), (0.0, 0.0, math.nan),
                                        (math.inf, 0.0, 0.0), (0.0, -math.inf, 0.0)])
    def test_rejects_non_finite(self, coords):
        with pytest.raises(ValueError, match="not finite"):
            BlochVector(*coords)


class TestEta:
    def test_endpoints(self):
        assert kernel_eta(0.0) == 0.0
        assert kernel_eta(1.0) == 0.0

    def test_half(self):
        assert kernel_eta(0.5) == pytest.approx(0.5 * math.log(2), abs=1e-15)

    def test_maximum_at_1_over_e(self):
        assert kernel_eta(1.0 / math.e) == pytest.approx(1.0 / math.e, abs=1e-15)

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(0.0, 1.0, 1001)
        vec = _eta_in_place(xs.copy())
        for x, v in zip(xs[::100], vec[::100]):
            assert v == pytest.approx(kernel_eta(float(x)), abs=1e-15)


class TestH:
    def test_endpoints_vanish(self):
        assert h(1.0) == 0.0
        assert h(-1.0) == 0.0

    def test_center(self):
        assert h(0.0) == pytest.approx(0.5 * math.log(2), abs=1e-15)

    def test_matches_eta_composition(self):
        rng = np.random.default_rng(1)
        for t in rng.uniform(-1.0, 1.0, size=10_000):
            assert abs(h(float(t)) - eta((t + 1.0) / 2.0)) < 1e-15


class TestHDerivative:
    def test_order_one_at_one(self):
        assert h_prime(1.0) == pytest.approx(-0.5, abs=1e-15)

    def test_order_two_at_zero_fd_oracle(self):
        # central second difference at step 1e-5; the difference quotient
        # carries ~1e-6 of cancellation noise in double precision
        step = 1e-5
        oracle = (h(step) - 2 * h(0.0) + h(-step)) / step**2
        assert oracle == pytest.approx(-0.5, abs=1e-5)
        assert h_second(0.0) == pytest.approx(oracle, abs=1e-5)
        assert h_second(0.0) == -0.5

    def test_order_one_at_half_fd_oracle(self):
        step = 1e-6
        oracle = (h(0.5 + step) - h(0.5 - step)) / (2 * step)
        expected = -0.5 * (math.log(0.75) + 1.0)
        assert expected == pytest.approx(-0.35616, abs=1e-5)
        assert h_prime(0.5) == pytest.approx(oracle, rel=1e-9)
        assert h_prime(0.5) == pytest.approx(expected, abs=1e-15)

    def test_fd_grid(self):
        # relative error < 1e-6 against central differences on (-0.99, 1)
        ts = np.linspace(-0.99, 0.999, 1000)
        step = 1e-6
        for t in ts:
            fd = (h(float(t + step)) - h(float(t - step))) / (2 * step)
            assert h_prime(float(t)) == pytest.approx(fd, rel=1e-6)

    def test_sign_pattern(self):
        # even orders negative, odd orders >= 3 positive on (-1, 1): h'' < 0
        # and h'' increases (central differences of h'')
        step = 1e-6
        for t in (-0.9, -0.3, 0.0, 0.5, 0.99):
            assert h_second(t) < 0.0
            assert h_second(t + step) - h_second(t - step) > 0.0
        for order in (2, 4, 6):
            assert SHANNON.derivative_sign(order) == -1
        for order in (3, 5, 7):
            assert SHANNON.derivative_sign(order) == 1

    def test_singular_at_minus_one(self):
        with pytest.raises(ValueError):
            h_prime(-1.0)


# The outcome probability (1 + u.v)/k of a state u for the element along v
# is what the transition matrix holds: p_ij = (1 + (R v_i).v_j)/k.
IDENTITY = UnitaryAsRotation.identity()
R_TILT = UnitaryAsRotation.about_axis([1.0, 2.0, 2.0], 0.9)


class TestProbability:
    def test_coincident_hits_upper_bound(self):
        for family in ALL_FAMILIES:
            povm = povm_for(family)
            P = transition_matrix(IDENTITY, povm).P
            assert np.diag(P) == pytest.approx(np.full(povm.k, 2.0 / povm.k), abs=1e-15)

    def test_orthogonal_state(self):
        for povm in (povm_for("digon"), povm_for("octahedron"), povm_for("n-gon", 4)):
            coords = povm.matrix()
            P = transition_matrix(IDENTITY, povm).P
            for i, antipode in enumerate(np.argmin(coords @ coords.T, axis=1)):
                assert coords[antipode] @ coords[i] == pytest.approx(-1.0, abs=1e-15)
                assert P[i, antipode] == pytest.approx(0.0, abs=1e-15)

    def test_equatorial(self):
        povm = povm_for("octahedron")
        coords = povm.matrix()
        P = transition_matrix(IDENTITY, povm).P
        orthogonal = np.abs(coords @ coords.T) < 0.5
        assert orthogonal.sum() == 24
        assert P[orthogonal] == pytest.approx(np.full(24, 1.0 / 6.0), abs=1e-15)

    def test_bilinearity_through_dot(self):
        # the pre-normalized form is affine in u: p(au1 + bu2) interpolates
        rng = np.random.default_rng(2)
        for _ in range(200):
            u1, u2, v = (x / np.linalg.norm(x) for x in rng.normal(size=(3, 3)))
            a, b = rng.uniform(-1, 1, size=2)
            mixed_dot = (a * u1 + b * u2) @ v
            lhs = (mixed_dot + 1.0) / 4.0
            p1 = (u1 @ v + 1.0) / 4.0
            p2 = (u2 @ v + 1.0) / 4.0
            rhs = a * p1 + b * p2 + (1.0 - a - b) / 4.0
            assert lhs == pytest.approx(rhs, abs=1e-12)


def _fubini_study(R, i, j):
    """arccos sqrt(p_ij) for the digon, whose p_ij = (1 + (R v_i).v_j)/2
    is the overlap cos^2 of the Fubini-Study distance of the two states."""
    return math.acos(math.sqrt(transition_matrix(R, povm_for("digon")).P[i, j]))


class TestFubiniStudy:
    def test_same_state(self):
        assert _fubini_study(IDENTITY, 0, 0) == 0.0

    def test_maximally_remote(self):
        assert _fubini_study(IDENTITY, 0, 1) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_orthogonal_bloch(self):
        quarter_turn = UnitaryAsRotation.about_axis([1.0, 0.0, 0.0], math.pi / 2)
        assert _fubini_study(quarter_turn, 0, 0) == pytest.approx(math.pi / 4, abs=1e-12)
        assert _fubini_study(quarter_turn, 0, 1) == pytest.approx(math.pi / 4, abs=1e-12)


class TestProbabilityVector:
    def test_valid(self):
        P = TransitionMatrix(np.array([(0.5, 0.25, 0.25)] * 3))
        assert P.P.shape == (3, 3)

    def test_clamps_dust(self):
        # rounding dust just outside [0, 1] counts as a certain outcome
        assert SHANNON.entropy(np.array([1.0 + 5e-13, -5e-13])) == 0.0

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            TransitionMatrix(np.array([(0.5, 0.25), (0.5, 0.5)]))

    def test_rejects_above_d_over_k(self):
        # a pure state never gives an outcome more than d/k = 2/k
        for family in ALL_FAMILIES:
            povm = povm_for(family)
            P = transition_matrix(R_TILT, povm).P
            assert P.min() >= -1e-15
            assert P.max() <= 2.0 / povm.k + 1e-15


class TestEntropyKernel:
    def test_shannon_entropy(self):
        p = np.array([0.5, 0.5])
        assert SHANNON.entropy(p) == pytest.approx(math.log(2), abs=1e-15)

    def test_tsallis_limits_to_shannon(self):
        p = np.array([0.7, 0.2, 0.1])
        near = EntropyKernel("tsallis", 1.0 + 1e-7).entropy(p)
        assert near == pytest.approx(SHANNON.entropy(p), abs=1e-5)

    def test_renyi_monotone_function_of_power_sum(self):
        p = np.array([0.6, 0.3, 0.1])
        alpha = 1.7
        kernel = EntropyKernel("renyi", alpha)
        power_sum = float(np.sum(p**alpha))
        assert kernel.entropy(p) == pytest.approx(
            math.log(power_sum) / (1 - alpha), abs=1e-14)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            EntropyKernel("renyi", 1.0)
        with pytest.raises(ValueError):
            EntropyKernel("tsallis")
        with pytest.raises(ValueError):
            EntropyKernel("shannon", 2.0)
        with pytest.raises(ValueError):
            EntropyKernel("boltzmann")

    def test_h_prime_matches_fd(self):
        for kernel in (SHANNON, EntropyKernel("tsallis", 0.5),
                       EntropyKernel("renyi", 1.5)):
            f, fp, fpp = kernel.summand(float, math.log)
            for t in (-0.5, 0.0, 0.7):
                step = 1e-7
                fd = (f(t + step) - f(t - step)) / (2 * step)
                assert fp(t) == pytest.approx(fd, rel=1e-6, abs=1e-8)
                fd = (fp(t + step) - fp(t - step)) / (2 * step)
                assert fpp(t) == pytest.approx(fd, rel=1e-6, abs=1e-8)

    @pytest.mark.parametrize("kernel", [SHANNON, EntropyKernel("tsallis", 0.5),
                                        EntropyKernel("renyi", 2.5)], ids=str)
    def test_summand_at_x_on_arrays(self, kernel):
        # the functions of x that the summand composes with x = (1 + t)/2,
        # applied entrywise to an array as the optimizer does (numpy's power
        # may round the last bit differently from the float one)
        ts = np.array([-0.9, -0.25, 0.0, 0.6])
        at_x = kernel.summand_at_x(float, np.log)
        for of_t, of_x in zip(kernel.summand(float, math.log)[1:], at_x[1:]):
            values = of_x((1.0 + ts) / 2.0)
            assert values.tolist() == pytest.approx([of_t(t) for t in ts.tolist()],
                                                    rel=4 * np.finfo(float).eps)

    def test_derivative_sign_needs_order_two(self):
        with pytest.raises(ValueError):
            SHANNON.derivative_sign(1)

    @pytest.mark.parametrize("kernel,degree", [
        (SHANNON, None), (EntropyKernel("tsallis", 2.0), 2), (EntropyKernel("renyi", 5.0), 5),
        (EntropyKernel("tsallis", 2.5), None), (EntropyKernel("renyi", 0.5), None),
    ])
    def test_polynomial_degree(self, kernel, degree):
        assert kernel.polynomial_degree() == degree


def _summand_scales(kernel, x):
    """Bounds, over the unit roundoff, on the rounding error of h and h' at
    x = (1 + t)/2: the magnitudes of the terms they add up, plus the error
    that rounding x itself carries through (large for ln x at x near 1)."""
    if kernel.kind == "shannon":
        return x * (abs(math.log(x)) + 1.0), abs(math.log(x)) + 1.0
    a = kernel.alpha
    return ((x + (1.0 + a) * x ** a) / abs(a - 1.0),
            (1.0 + a * x ** (a - 1.0)) * (1.0 + 1.0 / abs(a - 1.0)))


KERNELS = st.one_of(
    st.just(SHANNON),
    st.builds(EntropyKernel, st.sampled_from(("renyi", "tsallis")),
              st.floats(0.0, 5.0, exclude_min=True).filter(lambda a: a != 1.0)))
OPEN_UNIT = st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)


class TestKernelSummand:
    """The one summand, in float, longdouble and 200-bit intervals."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(kernel=KERNELS, t=OPEN_UNIT)
    def test_arithmetics_agree(self, kernel, t):
        ctx = MPIntervalContext()
        ctx.prec = 200
        x = (1.0 + t) / 2.0
        scales = _summand_scales(kernel, x)
        floats = kernel.summand(float, math.log)
        longs = kernel.summand(np.longdouble, np.log)
        intervals = kernel.summand(ctx.mpf, ctx.log)
        for f, g, enclose, scale in zip(floats, longs, intervals, scales):
            box = enclose(ctx.mpf(t))
            mid = float(box.mid)
            assert abs(float(g(np.longdouble(t))) - mid) <= 1e-15 * scale
            slack = 8 * np.finfo(float).eps * scale
            assert float(box.a) - slack <= f(t) <= float(box.b) + slack

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(kernel=KERNELS, t=OPEN_UNIT)
    def test_derivative_sign_matches_closed_form(self, kernel, t):
        x = (1.0 + t) / 2.0
        for n in range(2, 17):
            if kernel.kind == "shannon":
                # h^(n)(t) = (1/2)(-1)^(n-1) (n-2)! (1+t)^(1-n)
                value = 0.5 * (-1) ** (n - 1) * math.factorial(n - 2) * (1.0 + t) ** (1 - n)
            else:
                # f(x) = (x - x^a)/(a - 1): f^(n)(x) = -a (a - 1) ... (a - n + 1) x^(a - n)/(a - 1)
                a = kernel.alpha
                value = (-math.prod(a - j for j in range(n)) * x ** (a - n)
                         / (a - 1.0) / 2.0 ** n)
            assert kernel.derivative_sign(n) == (value > 0) - (value < 0), n


class TestVectorizedKernels:
    @pytest.mark.parametrize("kernel", [
        SHANNON, EntropyKernel("tsallis", 0.5), EntropyKernel("tsallis", 1.7),
        EntropyKernel("renyi", 0.6), EntropyKernel("renyi", 1.4),
    ])
    def test_axis_matches_row_loop(self, kernel):
        rng = np.random.default_rng(5)
        P = rng.dirichlet(np.ones(6), size=40)
        P[::4, :2] = 0.0                    # rows with zero probabilities
        P[::4] /= P[::4].sum(axis=1, keepdims=True)
        rows = np.array([kernel.entropy(row) for row in P])
        np.testing.assert_array_equal(kernel.entropy(P, axis=-1), rows)
        assert isinstance(kernel.entropy(P[0]), float)

    def test_eta_in_place_equals_clip_and_where_reference(self):
        """Bit for bit, signed zeros included: -x ln x on x clipped to
        [0, 1], and 0 where the clipped x is not positive (NaN too)."""
        def reference(x):
            x = np.clip(x, 0.0, 1.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                out = -x * np.log(x)
            return np.where(x > 0.0, out, 0.0)

        xs = np.random.default_rng(3).uniform(-0.2, 1.2, 2000)
        xs = np.concatenate([xs, [0.0, -0.0, 1.0, 1.0 + 1e-16, -1e-300, 5e-324,
                                  1.0 - 1e-16, math.nan, math.inf, -math.inf]])
        with np.errstate(divide="raise", invalid="raise"):   # no ln 0, no 0 * inf
            out = _eta_in_place(xs.copy())
            by_h = h_array(2.0 * xs - 1.0)
        assert out.tobytes() == reference(xs).tobytes()
        assert by_h.tobytes() == reference((2.0 * xs - 1.0 + 1.0) * 0.5).tobytes()
        for x in xs[-10:]:
            assert np.asarray(_eta_in_place(np.array(x))).tobytes() == reference(x).tobytes()

    def test_eta_in_place_endpoints(self):
        assert np.array_equal(_eta_in_place(np.array([0.0, 1.0])), [0.0, 0.0])
        for x in (0.0, 1.0):
            out = _eta_in_place(np.array(x))
            assert np.ndim(out) == 0 and out == 0.0
        assert _eta_in_place(np.array(0.5)) == pytest.approx(eta(0.5), abs=1e-15)
