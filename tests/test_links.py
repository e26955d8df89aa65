"""Link functions: values, convexity, derivatives, and envelope domination."""

import math
import warnings

import numpy as np
import pytest

from shortlong.links import (ConvexLink, DomainError, eval_bound, eval_link,
                             link_value_and_deriv)

ALL_LINKS = list(ConvexLink)


class TestLinkValues:
    def test_logistic_at_zero(self):
        assert eval_link(ConvexLink.LOGISTIC, 0.0) == pytest.approx(math.log(2), abs=1e-15)

    def test_square(self):
        assert eval_link(ConvexLink.SQUARE, -3.0) == 9.0

    def test_hinge_inactive(self):
        assert eval_link(ConvexLink.HINGE, 2.0) == 0.0

    def test_squared_hinge(self):
        assert eval_link(ConvexLink.SQUARED_HINGE, -2.0) == 4.0
        assert eval_link(ConvexLink.SQUARED_HINGE, 2.0) == 0.0

    def test_exponential(self):
        assert eval_link(ConvexLink.EXPONENTIAL, -1.0) == pytest.approx(math.e)

    def test_logistic_tail_stability(self):
        # log(1 + e^-x) ~ -x for very negative x; ~ e^-x (not 0, not inf) for
        # very positive x. Both tails stay finite and accurate at |x| = 700.
        assert eval_link(ConvexLink.LOGISTIC, -700.0) == pytest.approx(700.0, rel=1e-12)
        assert eval_link(ConvexLink.LOGISTIC, 700.0) == pytest.approx(math.exp(-700.0), rel=1e-12)
        assert eval_link(ConvexLink.LOGISTIC, 700.0) > 0.0

    def test_non_finite_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                eval_link(ConvexLink.SQUARE, bad)

    def test_array_broadcast(self):
        xs = np.array([-1.0, 0.0, 1.0])
        out = eval_link(ConvexLink.HINGE, xs)
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0])


class TestLogisticKernel:
    """The logistic link and envelope against an ``np.logaddexp`` reference."""

    EDGES = (0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-12, 1.0,
             36.7, 37.0, 709.78, 745.1, 1e300)
    GRID = np.concatenate([EDGES, [-e for e in EDGES],
                           np.random.default_rng(22).uniform(-60.0, 60.0, 10**6)])

    @staticmethod
    def assert_within_4_ulp(got, ref):
        assert np.all(np.abs(got - ref) <= 4 * np.spacing(np.abs(ref)))

    def test_link_matches_reference(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = eval_link(ConvexLink.LOGISTIC, self.GRID)
        self.assert_within_4_ulp(got, np.logaddexp(0.0, -self.GRID))

    def test_envelope_matches_reference(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = eval_bound(ConvexLink.LOGISTIC, 0.0, self.GRID)
        ref = 2.0 * np.logaddexp(0.0, 3.0 * self.GRID)
        self.assert_within_4_ulp(got, ref)

    def test_link_non_increasing(self):
        assert np.all(np.diff(eval_link(ConvexLink.LOGISTIC, np.sort(self.GRID))) <= 0.0)

    def test_scalar_in_float_out_array_in_array_out(self):
        assert type(eval_link(ConvexLink.LOGISTIC, 2.0)) is float
        assert type(eval_bound(ConvexLink.LOGISTIC, 2.0, 0.5)) is float
        assert isinstance(eval_link(ConvexLink.LOGISTIC, np.array([2.0])), np.ndarray)
        assert isinstance(eval_bound(ConvexLink.LOGISTIC, np.array([2.0]), 0.5), np.ndarray)


class TestConvexity:
    """f(t a + (1-t) b) <= t f(a) + (1-t) f(b) on random triples."""

    @pytest.mark.parametrize("link", ALL_LINKS)
    def test_random_triples(self, link):
        rng = np.random.default_rng(42)
        a = rng.uniform(-30, 30, 20000)
        b = rng.uniform(-30, 30, 20000)
        t = rng.uniform(0, 1, 20000)
        lhs = eval_link(link, t * a + (1 - t) * b)
        rhs = t * eval_link(link, a) + (1 - t) * eval_link(link, b)
        # Relative guard absorbs float roundoff at exponential magnitudes.
        assert np.all(lhs <= rhs + 1e-12 + 1e-12 * np.abs(rhs))


class TestDerivatives:
    @pytest.mark.parametrize("link", ALL_LINKS)
    def test_matches_central_differences(self, link):
        rng = np.random.default_rng(7)
        xs = rng.uniform(-20, 20, 500)
        xs = xs[np.abs(xs) > 1e-3]  # stay away from hinge kinks
        h = 1e-6
        numeric = (eval_link(link, xs + h) - eval_link(link, xs - h)) / (2 * h)
        analytic = link_value_and_deriv(link, xs)[1]
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-5)

    def test_kink_subgradient_zero(self):
        assert link_value_and_deriv(ConvexLink.HINGE, 0.0)[1] == 0.0
        assert link_value_and_deriv(ConvexLink.SQUARED_HINGE, 0.0)[1] == 0.0


def _sigmoid(x):
    pos = x >= 0
    z = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0 / (1.0 + z), z / (1.0 + z))


# The per-link derivatives as they were evaluated before value and slope
# shared one pass: the reference the pair must equal bit for bit.
REFERENCE_DERIVS = {
    ConvexLink.LOGISTIC: lambda x: _sigmoid(x) - 1.0,
    ConvexLink.SQUARE: lambda x: 2.0 * x,
    ConvexLink.HINGE: lambda x: np.where(x < 0, -1.0, 0.0),
    ConvexLink.SQUARED_HINGE: lambda x: np.where(x < 0, 2.0 * x, 0.0),
    ConvexLink.EXPONENTIAL: lambda x: -np.exp(-x),
}


class TestValueAndDeriv:
    GRID = np.concatenate([TestLogisticKernel.EDGES, [-e for e in TestLogisticKernel.EDGES],
                           np.random.default_rng(24).normal(0.0, 30.0, 10**5)])

    @pytest.mark.parametrize("link", ALL_LINKS)
    def test_pair_equals_value_and_reference_derivative(self, link):
        with np.errstate(over="ignore"):  # the exponential link overflows at -1e300
            value, slope = link_value_and_deriv(link, self.GRID)
            ref_slope = REFERENCE_DERIVS[link](self.GRID)
            assert np.array_equal(value, eval_link(link, self.GRID))
        assert np.array_equal(slope, ref_slope)
        for x in (-2.5, -0.0, 0.0, 1.5):
            pair = link_value_and_deriv(link, x)
            assert all(type(v) is float for v in pair)
            assert pair == (eval_link(link, x), float(REFERENCE_DERIVS[link](np.float64(x))))

    @pytest.mark.parametrize("link", ALL_LINKS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_argument_named(self, link, bad):
        x = np.array([0.5, -1.0, bad, 2.0])
        with pytest.raises(DomainError, match=r"must be finite \(element 2\)") as err:
            link_value_and_deriv(link, x)
        assert err.value.index == 2


class TestBoundValues:
    def test_logistic_gamma_zero(self):
        got = eval_bound(ConvexLink.LOGISTIC, 0.0)
        assert got == pytest.approx(2 * math.log(2), abs=1e-15)

    def test_square(self):
        assert eval_bound(ConvexLink.SQUARE, 2.0, 1.0) == 10.0

    def test_exponential_at_zero(self):
        assert eval_bound(ConvexLink.EXPONENTIAL, 0.0) == 2.0

    def test_hinge_clamped_nonnegative(self):
        assert eval_bound(ConvexLink.HINGE, 1.0, 2.0) == 0.0
        assert eval_bound(ConvexLink.HINGE, 5.0, 2.0) == 3.0

    def test_squared_hinge_clamped(self):
        assert eval_bound(ConvexLink.SQUARED_HINGE, 1.0, 2.0) == 0.0
        assert eval_bound(ConvexLink.SQUARED_HINGE, 3.0, 2.0) == 5.0


class TestBoundMargin:
    @pytest.mark.parametrize("link, gamma", [(ConvexLink.LOGISTIC, math.nan),
                                             (ConvexLink.EXPONENTIAL, math.inf),
                                             (ConvexLink.HINGE, -math.inf)])
    def test_non_finite_gamma_rejected(self, link, gamma):
        with pytest.raises(DomainError, match="gamma"):
            eval_bound(link, 1.0, gamma)

    def test_non_finite_gamma_element_named(self):
        with pytest.raises(DomainError, match="gamma") as err:
            eval_bound(ConvexLink.SQUARE, 1.0, np.array([0.0, 1.0, math.nan]))
        assert err.value.index == 2


class TestDomination:
    """f(x + g) + f(-x + g) <= s(|x|) on the reference grid."""

    GRID = np.arange(-5000, 5001) * 1e-2  # [-50, 50] step 0.01
    GAMMAS = (0.0, 0.5, 1.4, 3.0)

    @pytest.mark.parametrize("link", ALL_LINKS)
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_envelope_dominates(self, link, gamma):
        lhs = eval_link(link, self.GRID + gamma) + eval_link(link, -self.GRID + gamma)
        rhs = eval_bound(link, np.abs(self.GRID), gamma)
        assert np.max(lhs - rhs) <= 1e-9

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_square_is_tight_everywhere(self, gamma):
        lhs = eval_link(ConvexLink.SQUARE, self.GRID + gamma) \
            + eval_link(ConvexLink.SQUARE, -self.GRID + gamma)
        rhs = eval_bound(ConvexLink.SQUARE, np.abs(self.GRID), gamma)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
