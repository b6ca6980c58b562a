"""Benchmark constructors: exact probabilities, monotone orientation, registry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rarebound.bench import (
    ToyProblem,
    benchmark_descriptions,
    example1_beta_shape,
    get_benchmark,
    make_example1,
    make_lipschitz_toy_1d,
    make_linear_toy,
)
from rarebound.bench import _example1_level
from rarebound.core import RandomStream, mc_estimate


class TestBetaShape:
    def test_values(self):
        # (d+1)(d+2)/2 - 3 for d = 2, 3, 4
        assert example1_beta_shape(2) == 3.0
        assert example1_beta_shape(3) == 7.0
        assert example1_beta_shape(4) == 12.0

    def test_rejects_d1(self):
        with pytest.raises(ValueError):
            example1_beta_shape(1)


class TestExample1:
    def test_failure_fraction_matches_p(self):
        prob = make_example1(3, 0.05)
        X = RandomStream(5, 0).generator().random((40_000, 3))
        frac = np.mean(prob.function.evaluator(X) < prob.function.threshold)
        assert abs(frac - 0.05) < 0.005

    def test_orientation_flips_tail_coordinates(self):
        prob = make_example1(4, 0.01)
        assert list(prob.orientation) == [1, -1, -1, -1]

    @given(st.integers(2, 5))
    @settings(max_examples=4, deadline=None)
    def test_monotone_in_every_coordinate(self, d):
        prob = make_example1(d, 0.05)
        gen = RandomStream(11, d).generator()
        X = gen.random((10_000, d))
        step = gen.random((10_000, d)) * (1.0 - X)
        lo = prob.function.evaluator(X)
        hi = prob.function.evaluator(np.clip(X + step, 0.0, 1.0))
        assert np.all(hi >= lo - 1e-12)

    def test_rebuilt_problems_share_the_level_not_the_counter(self):
        # the Beta level is computed once per (d, p), but every build gets
        # its own black box, so one run's queries never count in another's
        _example1_level.cache_clear()
        fresh = make_example1(3, 5e-3)
        cached = make_example1(3, 5e-3)
        assert _example1_level.cache_info().hits == 1
        assert fresh.function is not cached.function
        fresh.function.evaluate_batch(np.full((4, 3), 0.5))
        assert (fresh.function.query_count, cached.function.query_count) \
            == (4, 0)
        X = RandomStream(6, 0).generator().random((1_000, 3))
        assert np.array_equal(fresh.function.evaluator(X).view(np.int64),
                              cached.function.evaluator(X).view(np.int64))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_one_row_gives_the_batch_value(self, d):
        # single-point oracle calls must see the values a batch sees,
        # down to the clipped ends of both tails
        evaluate = make_example1(d, 5e-4).function.evaluator
        gen = RandomStream(12, d).generator()
        X = np.concatenate([
            gen.random((300, d)),
            10.0 ** -gen.uniform(0.0, 18.0, (100, d)),
            1.0 - 10.0 ** -gen.uniform(0.0, 18.0, (100, d)),
            np.array([[0.0] * d, [1.0] * d, [0.5] * d])])
        batch = evaluate(X)
        rows = np.array([evaluate(X[i:i + 1])[0] for i in range(len(X))])
        assert np.all(np.abs(rows - batch) <= 4e-15 * np.abs(batch))

    @pytest.mark.parametrize("t", [1e-12, 1e-14, 1e-16])
    def test_far_tail_matches_mpmath(self, t):
        # a flipped coordinate t is an upper-tail probability: Z_j solves
        # Q(j + 1, Z_j) = t, which the rounded 1 - t would not resolve
        mp = pytest.importorskip("mpmath")

        def inverse(shape, w, upper):
            tail = (lambda x: mp.gammainc(shape, x, mp.inf, regularized=True)) \
                if upper else (lambda x: mp.gammainc(shape, 0, x, regularized=True))
            start = mp.mpf(shape) - mp.log(w) if upper else mp.mpf(1)
            return mp.findroot(lambda x: mp.log(tail(x)) - mp.log(w), start)

        for d, x in ((2, [0.3, t]), (3, [0.3, t, 0.6]), (3, [0.7, 0.2, t])):
            got = make_example1(d, 5e-4).function.evaluator(np.array([x]))[0]
            with mp.workdps(40):
                z = [inverse(2, mp.mpf(x[0]), False)]
                z += [inverse(j + 2, mp.mpf(x[j]), True) for j in range(1, d)]
                ratio = z[0] / mp.fsum(z)
                exact = ratio - _example1_level(d, 5e-4)
                assert abs(got - exact) <= 1e-14 * ratio, (d, x)

    def test_bad_p(self):
        with pytest.raises(ValueError):
            make_example1(3, 0.0)
        with pytest.raises(ValueError):
            make_example1(3, 1.0)


class TestLinearToy:
    def test_irwin_hall_values(self):
        # P(U1 + U2 < 0.5) = 0.125, P(U1 + U2 < 1) = 0.5
        assert make_linear_toy(2, 0.5).p_exact == pytest.approx(0.125)
        assert make_linear_toy(2, 1.0).p_exact == pytest.approx(0.5)
        # P(U1 + U2 + U3 < 1) = 1/6
        assert make_linear_toy(3, 1.0).p_exact == pytest.approx(1.0 / 6.0)
        # degenerate ends clip to 0 / 1
        assert make_linear_toy(2, 0.0).p_exact == 0.0
        assert make_linear_toy(2, 2.0).p_exact == 1.0

    def test_lipschitz_constant(self):
        assert make_linear_toy(4, 1.0).lipschitz == 4.0


class TestLipschitz1d:
    def test_exact_p_and_constant(self):
        prob = make_lipschitz_toy_1d(2.1e-3)
        assert prob.p_exact == 2.1e-3
        assert prob.lipschitz == 1.0
        assert prob.dimension == 1
        vals = prob.function.evaluator(np.array([[0.001], [0.5]]))
        assert np.allclose(vals, [0.001, 0.5])


class TestRegistry:
    def test_roundtrip_each_family(self):
        for name in ("example1:d=3:p=5e-3", "linear:d=2:y=0.5",
                     "lipschitz1d:p=2.1e-3"):
            prob = get_benchmark(name)
            assert isinstance(prob, ToyProblem)
            assert prob.name == name or prob.name.startswith(name.split(":")[0])

    def test_exact_values_via_registry(self):
        assert get_benchmark("example1:d=2:p=5e-4").p_exact == 5e-4
        assert get_benchmark("linear:d=3:y=1").p_exact == pytest.approx(1 / 6)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            get_benchmark("mystery:d=2")

    def test_listing_and_descriptions(self):
        desc = benchmark_descriptions()
        assert list(desc) == ["example1:d=<int>:p=<float>",
                              "linear:d=<int>:y=<float>",
                              "lipschitz1d:p=<float>"]
        assert all(desc.values())


class TestSelfValidate:
    def test_smoke_linear(self):
        prob = make_linear_toy(2, 0.5)
        est = mc_estimate(prob.function, 100_000, RandomStream(3, 0))
        assert abs(est.p_hat - prob.p_exact) < 4 * est.std_err
