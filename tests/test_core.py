"""Query counting, bound intervals, and reproducible random streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rarebound.core import (
    DETERMINISTIC,
    HIGH_PROBABILITY,
    BlackBoxFunction,
    DimensionMismatch,
    MCEstimate,
    ProbabilityBounds,
    RandomStream,
    eval_batch,
    mc_estimate,
    surrogate_mc_estimate,
)


def make_sum(d=2, y=1.0):
    return BlackBoxFunction(lambda X: X.sum(axis=1), dimension=d,
                            threshold=y, vectorized=True)


class TestBlackBoxFunction:
    def test_counts_per_point(self):
        f = make_sum()
        assert f.query_count == 0
        f(np.array([0.25, 0.25]))
        assert f.query_count == 1
        f.evaluate_batch(np.zeros((5, 2)))
        assert f.query_count == 6

    def test_raw_evaluator_uncounted(self):
        f = make_sum()
        f.evaluator(np.zeros((3, 2)))
        assert f.query_count == 0

    def test_scalar_path(self):
        f = BlackBoxFunction(lambda x: float(x[0]) + 1.0, dimension=1,
                             threshold=0.0)
        assert f(np.array([0.5])) == pytest.approx(1.5)
        out = f.evaluate_batch(np.array([[0.1], [0.2]]))
        assert np.allclose(out, [1.1, 1.2])
        assert f.query_count == 3

    def test_dimension_checks(self):
        f = make_sum()
        with pytest.raises(DimensionMismatch):
            f(np.zeros(3))
        with pytest.raises(DimensionMismatch):
            f.evaluate_batch(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            BlackBoxFunction(lambda x: 0.0, dimension=0, threshold=0.0)

    @pytest.mark.parametrize("dimension", [2.5, 2.0, "3"])
    def test_dimension_must_be_an_integer(self, dimension):
        # int(2.5) would silently make a 2-D function
        with pytest.raises(ValueError, match="dimension must be an integer"):
            BlackBoxFunction(lambda x: 0.0, dimension=dimension, threshold=0.0)
        assert BlackBoxFunction(lambda x: 0.0, dimension=np.int64(2),
                                threshold=0.0).dimension == 2


class TestEvalBatch:
    def test_vectorized_callable(self):
        X = np.random.default_rng(0).random((7, 3))
        assert np.allclose(eval_batch(lambda Z: Z.sum(axis=1), X), X.sum(axis=1))

    def test_scalar_fallback(self):
        X = np.random.default_rng(0).random((7, 3))
        assert np.allclose(eval_batch(lambda row: row.sum(), X), X.sum(axis=1))

    def test_batch_error_reaches_the_caller(self):
        # a row loop would succeed here, so it must not hide the batch error
        def batch_fails(Z):
            if Z.ndim == 2:
                raise ZeroDivisionError("batch call failed")
            return Z.sum()

        with pytest.raises(ZeroDivisionError):
            eval_batch(batch_fails, np.zeros((3, 2)))


class TestProbabilityBounds:
    def test_basic(self):
        b = ProbabilityBounds(0.1, 0.3)
        assert b.kind == DETERMINISTIC
        assert b.width == pytest.approx(0.2)
        assert b.contains(0.2) and not b.contains(0.35)

    def test_numpy_scalars_normalized(self):
        b = ProbabilityBounds(np.float64(0.1), np.float64(0.2))
        assert type(b.lower) is float and type(b.upper) is float
        assert "np" not in repr(b.upper)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProbabilityBounds(0.4, 0.3)
        with pytest.raises(ValueError):
            ProbabilityBounds(-0.1, 0.5)
        with pytest.raises(ValueError):
            ProbabilityBounds(0.1, 1.5)
        with pytest.raises(ValueError):
            ProbabilityBounds(0.1, 0.2, kind="bogus")
        with pytest.raises(ValueError):
            ProbabilityBounds(0.1, 0.2, kind=HIGH_PROBABILITY)  # needs alpha
        with pytest.raises(ValueError):
            ProbabilityBounds(0.1, 0.2, alpha=0.05)  # deterministic + alpha


class TestMCEstimate:
    @given(st.integers(0, 500), st.integers(1, 500))
    @settings(max_examples=50, deadline=None)
    def test_from_counts_properties(self, hits, extra):
        n = hits + extra
        est = MCEstimate.from_counts(hits, n)
        assert est.p_hat == hits / n
        assert est.std_err == pytest.approx(
            np.sqrt(est.p_hat * (1 - est.p_hat) / n))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MCEstimate.from_counts(0, 0)


class TestRandomStream:
    def test_replay(self):
        s = RandomStream(123, 4)
        a = s.generator().random(5)
        b = s.generator().random(5)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RandomStream(123, 0).generator().random(5)
        b = RandomStream(123, 1).generator().random(5)
        c = RandomStream(124, 0).generator().random(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_derive_disjoint_from_replications(self):
        base = RandomStream(9, 3)
        ids = {base.derive(k).stream_id for k in range(10)}
        assert len(ids) == 10
        # derived ids stay clear of plain replication ids
        assert all(i > 1000 for i in ids)


class TestMCEstimators:
    def test_mc_estimate_hits_known_p(self):
        # P(x1 + x2 < 1) = 1/2 exactly
        f = make_sum(y=1.0)
        est = mc_estimate(f, 200_000, RandomStream(77, 0))
        assert abs(est.p_hat - 0.5) < 4 * est.std_err
        assert f.query_count == 200_000

    def test_surrogate_identity_reproduces(self):
        f = make_sum(y=1.0)
        rng = RandomStream(77, 0)
        direct = mc_estimate(f, 50_000, rng)
        sur = surrogate_mc_estimate(lambda X: X.sum(axis=1), 2, 1.0,
                                    50_000, rng)
        assert sur.p_hat == direct.p_hat

    def test_surrogate_does_not_touch_counter(self):
        f = make_sum(y=1.0)
        surrogate_mc_estimate(lambda X: X.sum(axis=1), 2, 1.0, 1000,
                              RandomStream(1, 0))
        assert f.query_count == 0

    def test_positive_n_required(self):
        with pytest.raises(ValueError):
            mc_estimate(make_sum(), 0, RandomStream(1, 0))
