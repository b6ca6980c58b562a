"""Uniform sampling on staircase regions via a transformed random walk.

Rejection sampling from a shrinking staircase region needs a growing number
of raw draws as the region's volume decays.  The walk here works in a
Gaussian-transformed space instead: map the unit cube to R^d componentwise
through the standard normal quantile, run a random-walk Metropolis chain
whose proposal covariance is adapted between frozen windows, and map back.
The transform preserves the componentwise partial order, so region
membership can be checked on either side of the map.

Because adaptation is frozen within each window, every window is a plain
Metropolis chain and the usual ergodic guarantees apply.  The walk only
proposes candidate points: :func:`rarebound.monotone.sequential_bounder`
draws its query pools from :class:`RegionWalkSampler` and computes the
bounds from the labelled design, so they do not depend on how well the
chains mix.  The tuning is therefore fixed: 32 chains, proposal scale
2.38^2, a 200-step adaptation window, burn-in of a fifth of a window,
and a thinning gap measured from the lag-1 autocorrelation.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .monotone import RejectionSampler
from .special import normal_cdf, normal_quantile

_BOUNDARY_EPS = 1e-15
_RIDGE = 1e-8
_N_CHAINS = 32
_SCALE = 2.38 ** 2        # proposal covariance is _SCALE * cov / d
_WINDOW = 200             # steps between covariance adaptations
_BURN_IN = _WINDOW // 5   # steps before the first draw
_MAX_GAP = 64             # cap on the measured thinning gap
_SEED_CHUNK = 8192        # cube draws per rejection chunk when seeding chains


class BoundaryInput(UserWarning):
    """A coordinate sat on the cube boundary and was clamped inward."""


def psi(x):
    """Map points of the open unit cube to R^d componentwise.

    Applies the standard normal quantile to every coordinate.  The map is
    strictly increasing in each coordinate, so ``u <= v`` componentwise in
    the cube iff ``psi(u) <= psi(v)`` componentwise in R^d.

    Coordinates equal to 0 or 1 are clamped to ``[1e-15, 1 - 1e-15]`` with a
    :class:`BoundaryInput` warning; the quantile is infinite there.

    Parameters
    ----------
    x : array_like
        Points in ``[0, 1]^d``, any shape.

    Returns
    -------
    numpy.ndarray
        Transformed coordinates, same shape as ``x``.
    """
    x = np.asarray(x, dtype=float)
    if np.any((x <= 0.0) | (x >= 1.0)):
        warnings.warn("coordinates on the cube boundary clamped inward",
                      BoundaryInput, stacklevel=2)
        x = np.clip(x, _BOUNDARY_EPS, 1.0 - _BOUNDARY_EPS)
    return normal_quantile(x)


def psi_inv(z):
    """Inverse of :func:`psi`: componentwise standard normal CDF."""
    return normal_cdf(np.asarray(z, dtype=float))


def adapt_covariance(trajectory):
    """Empirical covariance of a transformed trajectory, ridge-regularized.

    Parameters
    ----------
    trajectory : array_like, shape (l, d)
        Chain states in cube coordinates, ``l >= 2``.

    Returns
    -------
    numpy.ndarray, shape (d, d)
        Unbiased covariance of ``psi(trajectory)`` plus ``1e-8 * I``, which
        keeps the matrix positive definite even for a constant trajectory.
    """
    T = np.asarray(trajectory, dtype=float)
    if T.ndim != 2 or T.shape[0] < 2:
        raise ValueError("need at least two states to estimate a covariance")
    Z = psi(np.clip(T, _BOUNDARY_EPS, 1.0 - _BOUNDARY_EPS))
    cov = np.cov(Z, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    return cov + _RIDGE * np.eye(T.shape[1])


def lag_one_autocorrelation(chain):
    """Largest per-coordinate lag-1 autocorrelation of a chain.

    Returns 0.0 for constant coordinates and clips the estimate to
    ``[-1, 1]``.
    """
    C = np.asarray(chain, dtype=float)
    if C.ndim == 1:
        C = C[:, None]
    if C.shape[0] < 3:
        return 0.0
    X = C - C.mean(axis=0)
    var = np.einsum("ij,ij->j", X, X)
    cov = np.einsum("ij,ij->j", X[:-1], X[1:])
    safe = var > 0.0
    rho = np.zeros(C.shape[1])
    rho[safe] = cov[safe] / var[safe]
    return float(np.clip(rho, -1.0, 1.0).max()) if safe.any() else 0.0


def decorrelation_gap(chain):
    """Thinning gap that damps lag-1 autocorrelation below 0.1.

    For an AR(1) chain with coefficient rho the lag-k autocorrelation is
    rho^k, so ``k = ceil(3 / (1 - rho))`` pushes it under ``e^-3``.  The gap
    is clipped to ``[1, 64]``.
    """
    rho = lag_one_autocorrelation(chain)
    if rho <= 0.0:
        return 1
    rho = min(rho, 1.0 - 1e-6)
    return int(min(_MAX_GAP, max(1, math.ceil(3.0 / (1.0 - rho)))))


class RegionWalkSampler:
    """Approximately uniform draws from a staircase region via batched walks.

    Runs 32 transformed random-walk Metropolis chains in lockstep.  They
    start at the first 32 region points of the generator's uniform stream.
    The proposal covariance is re-estimated from the pooled trajectory once
    per window and frozen in between.  When the region shrinks, chains that
    fall outside are re-seeded from surviving ones, so no rejection restart
    is needed; if none survives, the chains start afresh as above.

    Parameters
    ----------
    region : StaircaseRegion
        Initial region; may be the whole cube.
    gen : numpy.random.Generator
    """

    def __init__(self, region, gen):
        self._gen = gen
        self.region = region
        self._dim = region.dimension
        self._cov = np.eye(self._dim)
        self._chol = math.sqrt(_SCALE / self._dim) * np.eye(self._dim)
        self._accepted = 0
        self._proposed = 0
        self._steps_since_adapt = 0
        self._recent = []
        self._states = self._initial_states()
        self._burned_in = False

    def _initial_states(self):
        # on the whole cube every draw is a region point: take just 32
        if self.region.fail_generators.size == 0 and self.region.safe_generators.size == 0:
            return self._gen.random((_N_CHAINS, self._dim))
        return RejectionSampler(chunk=_SEED_CHUNK).draw_batch(
            self.region, self._gen, _N_CHAINS)

    @property
    def acceptance_rate(self):
        """Fraction of proposals accepted since the last region update."""
        return self._accepted / self._proposed if self._proposed else 0.0

    def update_region(self, region):
        """Shrink to a nested region, re-seeding any chains left outside.

        Every chain state lies in the previous region, so after one label
        only the orthant it removed is tested
        (:meth:`~rarebound.monotone.StaircaseRegion.retain`).
        """
        if region.dimension != self._dim:
            raise ValueError("region dimension changed")
        alive = region.retain(self._states, self.region)
        self.region = region
        if not alive.any():
            self._states = self._initial_states()
        elif not alive.all():
            live = np.flatnonzero(alive)
            dead = np.flatnonzero(~alive)
            self._states[dead] = self._states[self._gen.choice(live, dead.size)]
        self._accepted = 0
        self._proposed = 0

    def _adapt(self):
        if len(self._recent) >= 2:
            traj = np.vstack(self._recent)
            self._cov = adapt_covariance(traj)
            self._chol = np.linalg.cholesky(_SCALE * self._cov / self._dim)
        self._recent = []
        self._steps_since_adapt = 0

    def step(self, n_steps=1):
        """Advance every chain ``n_steps`` Metropolis steps.

        Proposals are Gaussian in transformed space.  The acceptance ratio
        carries the Jacobian of the transform, ``prod phi(z_new) / phi(z)``;
        without it the stationary law in cube coordinates would not be
        uniform.
        """
        X = self._states
        Z = psi(np.clip(X, _BOUNDARY_EPS, 1.0 - _BOUNDARY_EPS))
        for _ in range(n_steps):
            if self._steps_since_adapt >= _WINDOW:
                self._adapt()
            E = self._gen.standard_normal(Z.shape) @ self._chol.T
            Z_new = Z + E
            X_new = psi_inv(Z_new)
            inside = self.region.contains_batch(X_new)
            log_ratio = 0.5 * (np.einsum("ij,ij->i", Z, Z)
                               - np.einsum("ij,ij->i", Z_new, Z_new))
            accept = inside & (np.log(self._gen.random(Z.shape[0]) + 1e-300) < log_ratio)
            X[accept] = X_new[accept]
            Z[accept] = Z_new[accept]
            self._accepted += int(accept.sum())
            self._proposed += accept.size
            self._steps_since_adapt += 1
            self._recent.append(X.copy())
            if len(self._recent) > _WINDOW:
                self._recent.pop(0)
        self._states = X
        return X

    def draw(self, n):
        """Return ``n`` approximately uniform, approximately independent draws.

        Chains are advanced a measured decorrelation gap between snapshot
        harvests; the first call additionally burns in the chains.
        """
        if not self._burned_in:
            self.step(_BURN_IN)
            self._burned_in = True
        out = []
        got = 0
        while got < n:
            traj = (np.stack([s[0] for s in self._recent])
                    if len(self._recent) >= 3 else self._states)
            self.step(decorrelation_gap(traj))
            out.append(self._states.copy())
            got += self._states.shape[0]
        pool = np.vstack(out)[:n]
        self._gen.shuffle(pool, axis=0)
        return pool
