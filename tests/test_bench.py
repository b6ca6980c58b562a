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
    list_benchmark_names,
    make_example1,
    make_lipschitz_toy_1d,
    make_linear_toy,
)
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
        names = list_benchmark_names()
        assert len(names) == 3
        desc = benchmark_descriptions()
        assert set(desc) == set(names)
        assert all(desc[n] for n in names)


class TestSelfValidate:
    def test_smoke_linear(self):
        prob = make_linear_toy(2, 0.5)
        est = mc_estimate(prob.function, 100_000, RandomStream(3, 0))
        assert abs(est.p_hat - prob.p_exact) < 4 * est.std_err
