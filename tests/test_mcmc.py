"""Transformed-walk sampler: transform, adaptation, region walks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rarebound import mcmc
from rarebound.core import RandomStream
from rarebound.mcmc import (
    BoundaryInput,
    RegionWalkSampler,
    adapt_covariance,
    decorrelation_gap,
    lag_one_autocorrelation,
    psi,
    psi_inv,
)
from rarebound.monotone import LabeledDesign, StaircaseRegion


def box_region():
    return StaircaseRegion.from_design(LabeledDesign(
        np.array([[0.3, 0.3], [0.7, 0.7]]), np.array([True, False])))


class TestTransform:
    def test_roundtrip(self):
        X = RandomStream(1, 0).generator().random((500, 3))
        X = 0.001 + 0.998 * X
        assert np.max(np.abs(psi_inv(psi(X)) - X)) < 1e-10

    def test_known_values(self):
        assert psi(np.array([0.5, 0.5]))[0] == pytest.approx(0.0, abs=1e-14)
        z = psi(np.array([[0.975]]))
        assert z[0, 0] == pytest.approx(1.959964, abs=1e-5)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_preserves_partial_order(self, seed):
        gen = np.random.default_rng(seed)
        u = 0.01 + 0.98 * gen.random(4)
        v = np.clip(u + 0.3 * gen.random(4), 0.01, 0.99)
        assert np.all(psi(v) >= psi(u))

    def test_boundary_clamped_with_warning(self):
        with pytest.warns(BoundaryInput):
            z = psi(np.array([0.0, 0.5, 1.0]))
        assert np.all(np.isfinite(z))
        assert z[0] < -7.0 and z[2] > 7.0


class TestAdaptation:
    def test_iid_uniform_gives_identity(self):
        X = RandomStream(5, 0).generator().random((40_000, 2))
        C = adapt_covariance(X)
        assert np.allclose(C, np.eye(2), atol=0.05)
        assert np.all(np.linalg.eigvalsh(C) > 0.0)

    def test_constant_trajectory_is_ridged(self):
        C = adapt_covariance(np.full((10, 3), 0.4))
        assert np.allclose(C, 1e-8 * np.eye(3))

    def test_needs_two_states(self):
        with pytest.raises(ValueError):
            adapt_covariance(np.zeros((1, 2)))


class TestDecorrelation:
    def ar1(self, rho, n=20_000, seed=0):
        gen = np.random.default_rng(seed)
        x = np.empty(n)
        x[0] = gen.standard_normal()
        for i in range(1, n):
            x[i] = rho * x[i - 1] + gen.standard_normal()
        return x[:, None]

    def test_ar1_autocorrelation_recovered(self):
        rho = lag_one_autocorrelation(self.ar1(0.9))
        assert rho == pytest.approx(0.9, abs=0.03)

    def test_gap_values(self):
        assert decorrelation_gap(self.ar1(0.9)) == pytest.approx(30, abs=4)
        assert decorrelation_gap(np.random.default_rng(0)
                                 .standard_normal((5000, 1))) == 1
        assert decorrelation_gap(np.full((100, 2), 0.5)) == 1
        assert decorrelation_gap(self.ar1(0.999)) == 64


class TestMHStep:
    def test_stays_in_region(self):
        region = box_region()
        s = RegionWalkSampler(region, RandomStream(3, 0).generator())
        X = s._states.copy()
        moved = 0
        for _ in range(200):
            new = s.step().copy()
            assert region.contains_batch(new).all()
            moved += int((new != X).any(axis=1).sum())
            X = new
        assert moved > 20     # chains actually mix

    def test_rejection_keeps_state(self, monkeypatch):
        # a huge proposal scale makes the Jacobian ratio reject every move
        monkeypatch.setattr(mcmc, "_SCALE", 1e12)
        region = box_region()
        s = RegionWalkSampler(region, RandomStream(4, 0).generator())
        X = s._states.copy()
        new = s.step(20)
        assert np.array_equal(new, X)
        assert s.acceptance_rate == 0.0


class TestRegionWalkSampler:
    def test_draws_in_region(self):
        region = box_region()
        s = RegionWalkSampler(region, RandomStream(6, 0).generator())
        X = s.draw(100)
        assert X.shape == (100, 2)
        assert region.contains_batch(X).all()
        assert 0.0 <= s.acceptance_rate <= 1.0

    def test_chains_start_at_the_first_region_points(self):
        # a thin region, so the 32 seeds span more than one rejection chunk
        region = StaircaseRegion.from_design(LabeledDesign(
            np.array([[0.998, 0.999]]), np.array([True])))
        s = RegionWalkSampler(region, RandomStream(8, 0).generator())
        X = RandomStream(8, 0).generator().random((40_000, 2))
        inside = np.flatnonzero(region.contains_batch(X))
        assert inside[31] >= 8192
        assert np.array_equal(s._states, X[inside[:32]])

    def test_update_region_reseeds(self):
        region = StaircaseRegion.empty(2)
        s = RegionWalkSampler(region, RandomStream(7, 0).generator())
        s.draw(16)
        shrunk = box_region()
        s.update_region(shrunk)
        assert shrunk.contains_batch(s._states).all()
        X = s.draw(30)
        assert shrunk.contains_batch(X).all()

    def test_one_harvest_serves_its_32_rows(self):
        # a harvest is handed out whole: after the first draw(1), 31 more
        # come from its spare rows without a step, and the 32 rows are the
        # chain states of that harvest
        s = RegionWalkSampler(StaircaseRegion.empty(3),
                              RandomStream(11, 0).generator())
        first = s.draw(1)
        states = s._states.copy()
        steps = []
        step = s.step
        s.step = lambda n_steps=1: steps.append(n_steps) or step(n_steps)
        rows = np.vstack([first] + [s.draw(1) for _ in range(31)])
        assert steps == []
        assert np.array_equal(np.unique(rows, axis=0), np.unique(states, axis=0))
        s.draw(1)
        assert len(steps) == 1

    def test_spare_rows_follow_the_region(self):
        # spare rows outside an updated region never come out; those inside
        # come out first, in their order
        region = StaircaseRegion.empty(2)
        s = RegionWalkSampler(region, RandomStream(12, 0).generator())
        s.draw(1)
        spare = s._spare.copy()
        shrunk = region.with_fail(np.array([0.6, 0.6])).with_safe(
            np.array([0.7, 0.3]))
        kept = spare[shrunk.contains_batch(spare)]
        assert 0 < kept.shape[0] < spare.shape[0]
        s.update_region(shrunk)
        X = s.draw(40)
        assert shrunk.contains_batch(X).all()
        assert np.array_equal(X[:kept.shape[0]], kept)
