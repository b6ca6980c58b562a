"""Special function accuracy against closed forms and scipy oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rarebound.special import (
    NonConvergence,
    beta_cdf,
    beta_quantile,
    gamma_cdf,
    gamma_quantile,
    normal_cdf,
    normal_quantile,
)

scipy_stats = pytest.importorskip("scipy.stats")


class TestClosedForms:
    def test_beta_2_3_at_half(self):
        # CDF of Beta(2,3) is x^2 (6 - 8x + 3x^2) / ... = 11/16 at 1/2
        assert beta_cdf(0.5, 2.0, 3.0) == pytest.approx(0.6875, abs=1e-12)

    def test_gamma_shape2_at_2(self):
        assert gamma_cdf(2.0, 2.0) == pytest.approx(1.0 - 3.0 * np.exp(-2.0),
                                                    abs=1e-12)

    def test_gamma_shape1_is_exponential(self):
        x = np.linspace(0.05, 8.0, 40)
        assert np.allclose(gamma_cdf(x, 1.0), 1.0 - np.exp(-x), atol=1e-13)

    def test_beta_1_1_is_identity(self):
        x = np.linspace(0.0, 1.0, 21)
        assert np.allclose(beta_cdf(x, 1.0, 1.0), x, atol=1e-13)

    def test_normal_center_and_symmetry(self):
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-14)
        x = np.linspace(-5.0, 5.0, 41)
        assert np.allclose(normal_cdf(-x), 1.0 - normal_cdf(x), atol=1e-13)

    def test_beta_reflection(self):
        x = np.linspace(0.01, 0.99, 25)
        assert np.allclose(beta_cdf(x, 2.5, 4.0),
                           1.0 - beta_cdf(1.0 - x, 4.0, 2.5), atol=1e-12)


class TestScipyOracle:
    def test_gamma_cdf_matches(self):
        x = np.linspace(0.01, 25.0, 60)
        for shape in (1.0, 2.0, 3.0, 8.0, 15.0, 45.0):
            ref = scipy_stats.gamma.cdf(x, shape)
            assert np.allclose(gamma_cdf(x, shape), ref, atol=1e-12)

    def test_beta_cdf_matches(self):
        x = np.linspace(0.001, 0.999, 60)
        for a, b in ((2.0, 3.0), (0.5, 0.5), (5.0, 1.5), (2.0, 12.0)):
            ref = scipy_stats.beta.cdf(x, a, b)
            assert np.allclose(beta_cdf(x, a, b), ref, atol=1e-12)

    def test_normal_matches(self):
        x = np.linspace(-6.0, 6.0, 61)
        assert np.allclose(normal_cdf(x), scipy_stats.norm.cdf(x), atol=1e-13)

    def test_quantiles_match(self):
        u = np.linspace(0.001, 0.999, 45)
        assert np.allclose(gamma_quantile(u, 3.0),
                           scipy_stats.gamma.ppf(u, 3.0), rtol=1e-9)
        assert np.allclose(beta_quantile(u, 2.0, 7.0),
                           scipy_stats.beta.ppf(u, 2.0, 7.0), rtol=1e-9)
        assert np.allclose(normal_quantile(u),
                           scipy_stats.norm.ppf(u), atol=1e-10)


class TestRoundTrips:
    def test_gamma_roundtrip(self):
        u = np.linspace(1e-6, 1.0 - 1e-6, 200)
        for shape in (1.0, 2.0, 3.0, 9.0):
            assert np.allclose(gamma_cdf(gamma_quantile(u, shape), shape), u,
                               atol=1e-10)

    def test_beta_roundtrip(self):
        u = np.linspace(1e-6, 1.0 - 1e-6, 200)
        for a, b in ((2.0, 3.0), (2.0, 12.0), (0.8, 0.9)):
            assert np.allclose(beta_cdf(beta_quantile(u, a, b), a, b), u,
                               atol=1e-10)

    def test_normal_roundtrip(self):
        u = np.linspace(1e-8, 1.0 - 1e-8, 200)
        assert np.allclose(normal_cdf(normal_quantile(u)), u, atol=1e-11)


class TestProperties:
    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.99),
           st.floats(0.3, 8.0), st.floats(0.3, 8.0))
    @settings(max_examples=60, deadline=None)
    def test_beta_cdf_monotone(self, x1, x2, a, b):
        lo, hi = sorted((x1, x2))
        assert beta_cdf(lo, a, b) <= beta_cdf(hi, a, b) + 1e-12

    @given(st.floats(0.01, 20.0), st.floats(0.01, 20.0), st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_gamma_cdf_monotone(self, x1, x2, shape):
        lo, hi = sorted((x1, x2))
        assert gamma_cdf(lo, shape) <= gamma_cdf(hi, shape) + 1e-12

    @given(st.floats(1e-4, 1.0 - 1e-4), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_gamma_quantile_positive(self, u, shape):
        assert gamma_quantile(u, shape) > 0.0

    def test_vectorized_matches_scalar(self):
        x = np.array([0.2, 0.5, 0.9])
        vec = beta_cdf(x, 2.0, 3.0)
        assert np.allclose(vec, [beta_cdf(float(v), 2.0, 3.0) for v in x])


class TestErrors:
    def test_bad_domains(self):
        with pytest.raises(ValueError):
            gamma_cdf(1.0, -1.0)
        with pytest.raises(ValueError):
            beta_quantile(1.5, 2.0, 3.0)
        with pytest.raises(ValueError):
            normal_quantile(-0.1)

    @pytest.mark.parametrize("shape", [0.5, 0, -1, 2.5])
    def test_gamma_shape_must_be_a_positive_integer(self, shape):
        for arg in (0.5, np.array([0.5, 2.0])):
            with pytest.raises(ValueError):
                gamma_cdf(arg, shape)
            with pytest.raises(ValueError):
                gamma_quantile(arg / 4.0, shape)

    def test_gamma_cdf_is_one_at_large_x(self):
        # Q's sum times e^-x must not turn into inf * 0
        for x, shape in ((np.inf, 3.0), (1e300, 3.0), (1e10, 40.0),
                         (1e10, 100.0), (np.inf, 1.0)):
            assert gamma_cdf(x, shape) == 1.0
            assert gamma_cdf(np.array([x, 0.0]), shape).tolist() == [1.0, 0.0]

    def test_quantile_endpoint_limits(self):
        assert normal_quantile(0.0) == -np.inf
        assert normal_quantile(1.0) == np.inf
        assert beta_quantile(0.0, 2.0, 3.0) == 0.0

    def test_nonconvergence_is_runtime_error(self):
        assert issubclass(NonConvergence, RuntimeError)

    @pytest.mark.parametrize("quantile, args", [
        (gamma_quantile, (2.0,)), (beta_quantile, (2.0, 3.0)),
        (normal_quantile, ()),
    ], ids=["gamma", "beta", "normal"])
    def test_nan_gives_nan_in_a_batch(self, quantile, args):
        out = quantile(np.array([np.nan, 0.5]), *args)
        assert np.isnan(out[0])
        assert out[1] == quantile(0.5, *args)

    @pytest.mark.parametrize("cdf, args", [
        (gamma_cdf, (3.0,)), (beta_cdf, (2.0, 3.0)), (normal_cdf, ()),
    ], ids=["gamma", "beta", "normal"])
    def test_cdf_of_nan_is_nan(self, cdf, args):
        # NaN is no point of the support: reading it as probability 0
        # would pass a bad input off as a certain event
        assert np.isnan(cdf(np.nan, *args))
        out = cdf(np.array([np.nan, 0.5, -np.inf, np.inf]), *args)
        assert np.isnan(out[0])
        assert out[1:].tolist() == [cdf(0.5, *args), 0.0, 1.0]


class TestGammaQuantileOnePoint:
    """A single point takes a path on Python floats; it must give the bits
    of the array path, here on a two-element batch."""

    SHAPES = (2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 45.0, 101.0)
    U = np.concatenate([np.geomspace(1e-16, 0.5, 150),
                        1.0 - np.geomspace(1e-6, 0.5, 150)])

    @pytest.mark.parametrize("shape", SHAPES)
    def test_agrees_with_array_path(self, shape):
        one = np.array([gamma_quantile(float(u), shape) for u in self.U])
        batch = np.array([gamma_quantile(np.array([u, u]), shape)[0]
                          for u in self.U])
        assert np.array_equal(one, batch)

    def test_endpoints_and_domain(self):
        for shape in self.SHAPES:
            assert gamma_quantile(0.0, shape) == 0.0
            assert gamma_quantile(1.0, shape) == np.inf
            assert gamma_quantile(np.array([0.0]), shape)[0] == 0.0
            assert gamma_quantile(np.array([1.0]), shape)[0] == np.inf
        for u in (-1e-300, -0.5, 1.0 + 1e-15, 2.0):
            with pytest.raises(ValueError):
                gamma_quantile(u, 3.0)
            with pytest.raises(ValueError):
                gamma_quantile(np.array([u]), 3.0)
        for shape in (0.0, -1.0):
            with pytest.raises(ValueError):
                gamma_quantile(0.5, shape)
            with pytest.raises(ValueError):
                gamma_quantile(np.array([0.5]), shape)

    def test_return_types(self):
        assert type(gamma_quantile(0.3, 3.0)) is float
        assert type(gamma_quantile(np.float64(0.3), 3.0)) is float
        assert type(gamma_quantile(np.array(0.3), 3.0)) is float
        out = gamma_quantile(np.array([0.3]), 3.0)
        assert isinstance(out, np.ndarray) and out.shape == (1,)
        assert out[0] == gamma_quantile(0.3, 3.0)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_nondecreasing_near_both_ends(self, shape):
        # the monotone route's certificates assume g is monotone
        for u in (np.geomspace(1e-16, 1e-12, 2000),
                  1.0 - np.geomspace(1e-6, 1e-9, 2000)):
            x = [gamma_quantile(float(v), shape) for v in u]
            assert np.all(np.diff(x) >= 0.0)


def _mp_gamma_inverse(mp, shape, w, upper, x):
    """The x with P(shape, x) = w, or Q(shape, x) = w if ``upper``, to 40
    digits: Newton on log P or log Q, which are concave in x, from the
    float x under test."""
    with mp.workdps(40):
        a, w, x = mp.mpf(shape), mp.mpf(w), mp.mpf(x)
        for _ in range(30):
            tail = mp.gammainc(a, x, mp.inf, regularized=True) if upper \
                else mp.gammainc(a, 0, x, regularized=True)
            pdf = mp.exp((a - 1) * mp.log(x) - x - mp.loggamma(a))
            step = (mp.log(tail) - mp.log(w)) * tail / pdf
            x = x + step if upper else x - step
            if abs(step) < mp.mpf(10) ** -35 * x:
                return x
    raise AssertionError(("no convergence", shape, w, upper))


class TestIntegerShapes:
    """Integer shapes take closed-form tails: accurate in both tails to a
    relative error that grows slowly with the shape, with bits that do not
    depend on the batch."""

    SHAPES = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 10.0, 20.0, 45.0, 101.0,
              150.0)
    TAILS = np.geomspace(1e-16, 0.5, 16)

    @pytest.mark.parametrize("shape", SHAPES + (300.0,))
    def test_both_tails_match_mpmath(self, shape):
        mp = pytest.importorskip("mpmath")
        worst = 0.0
        for w in self.TAILS:
            # each tail two ways: from w itself, and from u = 1 - w
            # rounded, whose other tail 1 - u is exact in floats
            u = 1.0 - w
            for x, target, upper in (
                    (gamma_quantile(w, shape), w, False),
                    (gamma_quantile(w, shape, upper=True), w, True),
                    (gamma_quantile(u, shape), 1.0 - u, True),
                    (gamma_quantile(u, shape, upper=True), 1.0 - u, False)):
                ref = _mp_gamma_inverse(mp, shape, target, upper, x)
                worst = max(worst, float(abs(x - ref) / ref))
        # the error grows with the shape: 2.8e-14 is measured at 300
        assert worst <= (1e-14 if shape in self.SHAPES else 3e-14)

    @pytest.mark.parametrize("shape", (2.0, 3.0, 4.0, 5.0))
    def test_a_point_has_the_same_bits_in_any_batch(self, shape):
        gen = np.random.default_rng(int(shape))
        batch = np.concatenate([gen.random(500), np.geomspace(1e-16, 0.5, 250),
                                1.0 - np.geomspace(1e-12, 0.5, 250)])
        gen.shuffle(batch)
        for upper in (False, True):
            whole = gamma_quantile(batch, shape, upper=upper)
            for i, u in enumerate(batch):
                alone = gamma_quantile(float(u), shape, upper=upper)
                pair = gamma_quantile(batch[[i, i - 1]], shape, upper=upper)
                assert alone == pair[0] == whole[i], (u, upper)
