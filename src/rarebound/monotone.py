"""Dominance geometry for coordinatewise-nondecreasing functions.

For g nondecreasing in every coordinate, a failing point x (g(x) < y)
certifies failure on its whole lower orthant [0, x], and a safe point
certifies safety on its upper orthant [x, 1].  Labeled designs therefore
yield deterministic probability bounds

    vol(union of fail lower orthants)  <=  p  <=  1 - vol(union of safe upper orthants)

with the gap carried by the staircase-shaped undecided region in between.
This module provides the dominance primitives, union volumes with an a
priori rounding-error bound (and a Monte Carlo fallback in high
dimension), the undecided-region type, and a sequential bounder that
spends a query budget on points of the undecided region: drawn by a
sampler, in two dimensions placed on an estimate of the fail/safe
boundary, and in one dimension at the midpoint of the undecided interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .core import (DETERMINISTIC, HIGH_PROBABILITY, BlackBoxFunction,
                   DimensionMismatch, ProbabilityBounds, RandomStream,
                   check_finite)

__all__ = [
    "MonotonicityViolation",
    "SamplerStalled",
    "is_antichain",
    "maximal_points",
    "minimal_points",
    "lower_orthant_volume",
    "upper_orthant_volume",
    "orthant_volume_mc",
    "LabeledDesign",
    "StaircaseRegion",
    "bounds_from_design",
    "RejectionSampler",
    "SequentialRun",
    "sequential_bounder",
]

MC_VOLUME_DIM = 6          # exact volumes up to here, Monte Carlo beyond
_MC_VOLUME_N = 200_000
_MC_ALPHA = 1e-6           # per-volume failure mass of the MC fallback bounds
SWITCH_ACCEPTANCE = 5e-3   # sampler "auto" hands over to the walk below this
_POOL_SIZE = 192           # sampled region points kept on hand ...
_SCORE_SUBSAMPLE = 48      # ... of which each step scores this many
_TWO_PASS_ROWS = 1024      # batches this large meet the largest safe orthant first


class MonotonicityViolation(RuntimeError):
    """Observed labels contradict coordinatewise monotonicity."""


class SamplerStalled(RuntimeError):
    """A region sampler could not produce a point within its attempt cap."""


# ---------------------------------------------------------------------------
# dominance primitives

def _covered(X: np.ndarray, G: np.ndarray, cmp=np.less_equal) -> np.ndarray:
    """Rows x of X with ``cmp(x_k, g_k)`` in every coordinate k for some row g
    of G: with ``np.less_equal``, the rows inside the union of the lower
    orthants of G; with ``np.greater_equal``, of the upper orthants.

    The (n, m) mask is built one coordinate at a time, never the
    (n, m, d) tensor.
    """
    hit = cmp(X[:, 0, None], G[None, :, 0])
    for k in range(1, X.shape[1]):
        hit &= cmp(X[:, k, None], G[None, :, k])
    return hit.any(axis=1)


def _clear_covered(out: np.ndarray, X: np.ndarray, G: np.ndarray,
                   cmp=np.less_equal) -> None:
    """Set ``out`` False on its True rows whose point ``_covered`` finds in G."""
    rows = np.flatnonzero(out)
    out[rows] = ~_covered(X[rows], G, cmp)


def _check_disjoint(S: np.ndarray, F: np.ndarray) -> None:
    """Raise if a row of S lies componentwise below a row of F: the upper
    orthants of S then meet the lower orthants of F."""
    if _covered(S, F).any():
        raise MonotonicityViolation(
            "a safe point is componentwise below a fail point")


def _check_cube(P: np.ndarray, tol: float) -> None:
    """Raise unless every coordinate lies in [-tol, 1 + tol]; NaN fails
    every comparison, so it is rejected too."""
    if not np.all((P >= -tol) & (P <= 1.0 + tol)):
        raise ValueError("points must lie in the unit cube")


def maximal_points(P) -> np.ndarray:
    """Antichain of maximal points: same union of lower orthants.  Exact
    duplicates collapse; rows come out in lexicographic order."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    if P.shape[0] <= 1:
        return P.copy()
    P = np.unique(P, axis=0)
    leq = np.all(P[:, None, :] <= P[None, :, :], axis=2)
    np.fill_diagonal(leq, False)
    return P[~leq.any(axis=1)]


def minimal_points(P) -> np.ndarray:
    """Antichain of minimal points: same union of upper orthants.  Negation
    is exact: rows are input rows, in reverse lexicographic order."""
    return -maximal_points(-np.asarray(P, dtype=float))


def is_antichain(P) -> bool:
    """True when no point is componentwise below a distinct point.

    Set semantics: exact duplicate rows are collapsed first.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    return maximal_points(P).shape[0] == np.unique(P, axis=0).shape[0]


# ---------------------------------------------------------------------------
# exact union volumes

def _vol2(P: np.ndarray) -> float:
    """Area of a union of lower-left rectangles in [0,1]^2 by a sweep."""
    order = np.argsort(-P[:, 0], kind="stable")
    y = P[order, 1]
    ymax = np.maximum.accumulate(np.concatenate(([0.0], y)))
    return float(np.sum(P[order, 0] * np.diff(ymax)))


def _vol3(P: np.ndarray) -> float:
    """Volume of a union of lower orthants in [0,1]^3 on a grid.

    Over the cell (x_{i-1}, x_i] x (y_{j-1}, y_j] of the sorted distinct
    x and y values (x_0 = y_0 = 0) the union reaches the largest z of the
    points with x >= x_i and y >= y_j: each point's z goes into its
    (i, j) cell, and suffix maxima along both axes spread it down.
    """
    xs, ix = np.unique(P[:, 0], return_inverse=True)
    ys, iy = np.unique(P[:, 1], return_inverse=True)
    H = np.zeros((xs.size, ys.size))
    np.maximum.at(H, (ix, iy), P[:, 2])
    H = np.maximum.accumulate(H[::-1], axis=0)[::-1]
    H = np.maximum.accumulate(H[:, ::-1], axis=1)[:, ::-1]
    return float(np.diff(xs, prepend=0.0) @ H @ np.diff(ys, prepend=0.0))


def _vol_lower_union(P: np.ndarray) -> float:
    if P.shape[0] == 0:
        return 0.0
    d = P.shape[1]
    if d == 1:
        return float(P.max())
    if d == 2:
        return _vol2(P)
    if d == 3:
        return _vol3(P)
    # slab decomposition on the last coordinate: between consecutive
    # heights the cross-section is the union over points reaching that high
    order = np.argsort(-P[:, -1], kind="stable")
    Ps = P[order]
    heights = Ps[:, -1]
    vol = 0.0
    proj_arr = np.empty((0, d - 1))
    for k in range(Ps.shape[0]):
        proj_arr = _insert_maximal(proj_arr, Ps[k, :-1])
        z_next = heights[k + 1] if k + 1 < Ps.shape[0] else 0.0
        dz = heights[k] - z_next
        if dz > 0.0:
            vol += dz * _vol_lower_union(proj_arr)
    return vol


# Rounding error of the volumes above, in the standard model
# fl(a op b) = (a op b)(1 + delta), |delta| <= u = 2^-53 (Higham 2002,
# ch. 3-4).  Every term of every sum is a product of nonnegative factors,
# so a computed volume equals sum_t T_t prod_{i <= N} (1 + delta_ti) over
# the exact terms T_t, and it lies within a relative gamma_N = Nu/(1 - Nu)
# of the exact volume once each term carries at most N rounding factors.
# With m generators:
# - d = 2: a height difference, a product, and at most m - 1 additions
#   in any order: N_2 = m + 1;
# - d = 3: two grid-width differences, the two products of
#   dx @ H @ dy and at most (nx - 1) + (ny - 1) additions with nx, ny <= m,
#   in whatever order or fused form BLAS uses: N_3 = 2(m + 1);
# - d >= 4: per slab a height difference and a product, at most m - 1
#   additions over the slabs, on top of a slab volume of at most m
#   generators: N_d = N_{d-1} + m + 1;
# so N_d = (d - 1)(m + 1) for every d >= 1.  The safe side flips its
# generators first, c = fl(1 - s) <= (1 + u)(1 - s) in every coordinate,
# which enlarges the flipped union at most by the factor (1 + u)^d; that
# adds d factors.  A product that underflows (below 2^-1022) adds an
# absolute error of at most 2^-1075 instead; a computation that finishes
# makes fewer than 2^100 products, so these add up to less than 2^-974,
# which one more factor (1 - u) covers for any volume above 2^-900.
_UNIT_ROUNDOFF = 2.0 ** -53
_TINY_VOLUME = 2.0 ** -900


def _rounding_terms(d: int, m: int) -> int:
    """N such that a computed orthant-union volume of m generators in d
    dimensions, flipped or not, is within gamma_N of the exact volume."""
    return (d - 1) * (m + 1) + d


def _round_down(v: float, n: int) -> float:
    """A float at most the exact volume x of which v is the computed value
    with n rounding factors.

    x >= v / (1 + gamma_n) = v (1 - nu), less the underflow allowance
    u v; 1 - (n + 1)u is exact, and one step down undoes the
    round-to-nearest of the product.
    """
    if v < _TINY_VOLUME:
        return 0.0
    return float(np.nextafter(v * (1.0 - (n + 1) * _UNIT_ROUNDOFF), -np.inf))


def _check_points(P) -> np.ndarray:
    P = np.atleast_2d(np.asarray(P, dtype=float))
    _check_cube(P, 1e-12)
    return np.clip(P, 0.0, 1.0)


def lower_orthant_volume(P) -> float:
    """Volume of union_i [0, P_i] inside the unit cube, within a relative
    gamma_N of the exact one (see ``_rounding_terms``).

    A sweep at d = 2, a grid at d = 3, and slabs on the last coordinate
    above that: cost grows quickly with dimension; intended for d <= 6.
    Higher dimensions should use :func:`orthant_volume_mc`.
    """
    return _vol_lower_union(maximal_points(_check_points(P)))


def upper_orthant_volume(P) -> float:
    """Volume of union_i [P_i, 1], within a relative gamma_N of the exact
    one."""
    return _vol_lower_union(maximal_points(1.0 - _check_points(P)))


def _delta_lower_volume(stair: _Staircase2, P: np.ndarray) -> np.ndarray:
    """Area each row of P adds to the 2-D lower-orthant union of ``stair``:
    vol[0, x] minus the part already covered, bit for bit as for one row."""
    return stair.gain(P[:, 0], P[:, 1])


def _insert_maximal(pruned: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Add x to a maximal antichain, keeping it maximal."""
    if pruned.shape[0] and np.any(np.all(pruned >= x[None, :], axis=1)):
        return pruned
    if pruned.shape[0]:
        pruned = pruned[~np.all(pruned <= x[None, :], axis=1)]
    return np.vstack([pruned, x[None, :]])


class _Staircase2:
    """A 2-D maximal antichain as the step function it bounds.

    The generators are sorted by first coordinate, so their heights
    descend, and the lower-orthant union is {y <= phi(x)} with
    phi(t) = max{y_j : x_j >= t} (0 past the last generator).  Running
    sums of phi give every candidate's exclusive area with two binary
    searches (Emmerich & Fonseca 2011) instead of a sweep per candidate.
    """

    def __init__(self, pruned: np.ndarray):
        order = np.argsort(pruned[:, 0], kind="stable")
        self.x = pruned[order, 0]
        self.y = pruned[order, 1]
        self._x0 = np.concatenate(([0.0], self.x))   # left end of step j
        self._y0 = np.concatenate((self.y, [0.0]))   # height of step j
        self._cum = np.concatenate(
            ([0.0], np.cumsum(self.y * np.diff(self._x0))))

    def reach(self, h: np.ndarray) -> np.ndarray:
        """Largest x_j with y_j >= h (0 if none): the union's extent at height h."""
        return self._x0[np.searchsorted(-self.y, -h, side="right")]

    def _area_below(self, t: np.ndarray) -> np.ndarray:
        j = np.searchsorted(self.x, t, side="left")
        return self._cum[j] + self._y0[j] * (t - self._x0[j])

    def _gain_above(self, X: np.ndarray, Y: np.ndarray, j: np.ndarray,
                    r=None) -> np.ndarray:
        """:meth:`gain`, to the bit, of candidates above the staircase, given
        j = searchsorted(x, X) and optionally r, the step of reach(Y).  There
        reach(Y) <= X, and _area_below(x0[r]) is _cum[r]: the x_j increase
        strictly and cumsum adds its terms in order."""
        if r is None:
            r = np.searchsorted(-self.y, -Y, side="right")
        covered = (Y * self._x0[r] + (self._cum[j] + self._y0[j] * (X - self._x0[j]))
                   - self._cum[r])
        return np.maximum(X * Y - covered, 0.0)

    def gain(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Area of [0, X] x [0, Y] outside the union, per candidate."""
        t = np.minimum(X, self.reach(Y))
        covered = Y * t + self._area_below(X) - self._area_below(t)
        return np.maximum(X * Y - covered, 0.0)


def orthant_volume_mc(P, upper: bool = False, n: int = _MC_VOLUME_N,
                      rng: Optional[RandomStream] = None) -> Tuple[float, float]:
    """Monte Carlo estimate (mean, std_err) of an orthant-union volume."""
    P = _check_points(P)
    if P.shape[0] == 0:
        return 0.0, 0.0
    rng = rng or RandomStream(880, 0)
    gen = rng.generator()
    d = P.shape[1]
    hits = 0
    chunk = max(1, min(n, 4_000_000 // max(1, P.shape[0] * d)))
    left = n
    while left > 0:
        m = min(chunk, left)
        X = gen.random((m, d))
        inside = _covered(X, P, np.greater_equal if upper else np.less_equal)
        hits += int(np.count_nonzero(inside))
        left -= m
    p = hits / n
    return p, float(np.sqrt(p * (1.0 - p) / n))


# ---------------------------------------------------------------------------
# labeled designs and the undecided region

@dataclass(frozen=True)
class LabeledDesign:
    """Evaluated points with their fail/safe labels (fail means g < y)."""

    points: np.ndarray          # (m, d)
    fail: np.ndarray            # (m,) bool
    values: Optional[np.ndarray] = None   # (m,) g values when recorded

    def __post_init__(self):
        P = np.atleast_2d(np.asarray(self.points, dtype=float))
        lab = np.asarray(self.fail, dtype=bool)
        object.__setattr__(self, "points", P)
        object.__setattr__(self, "fail", lab)
        if P.ndim != 2:
            raise ValueError("points must be a 2-D array")
        if lab.shape != (P.shape[0],):
            raise ValueError("labels must match the number of points")
        if self.values is not None:
            vals = np.asarray(self.values, dtype=float)
            if vals.shape != (P.shape[0],):
                raise ValueError("values must match the number of points")
            object.__setattr__(self, "values", vals)
        _check_cube(P, 0.0)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class StaircaseRegion:
    """The undecided set: the cube minus certified fail/safe orthant unions.

    ``fail_generators`` and ``safe_generators`` are antichains; their
    lower and upper orthant unions must be disjoint, which for antichains
    reduces to no safe generator being dominated by a fail generator.
    The constructor checks both conditions, and that the generators lie
    in the unit cube.  :meth:`with_fail` and :meth:`with_safe` keep them
    by construction: the insert keeps an antichain, and each refuses a
    point that contradicts the other side.  Every such conflict, a safe
    point componentwise below a fail point, raises
    :class:`MonotonicityViolation`.

    An update removes exactly one orthant: ``with_fail(x)`` leaves this
    region minus [0, x], and ``with_safe(x)`` this region minus [x, 1].
    The new region records that orthant and an identity token of the
    region it came from, never the region itself, so a run does not keep
    its chain of regions alive.  Membership uses exact comparisons only,
    so points known to lie in the predecessor need testing against that
    one orthant alone, which :meth:`retain` does.
    """

    fail_generators: np.ndarray   # (m1, d) maximal antichain
    safe_generators: np.ndarray   # (m2, d) minimal antichain
    dimension: int

    @classmethod
    def empty(cls, dimension: int) -> "StaircaseRegion":
        return cls(np.empty((0, dimension)), np.empty((0, dimension)), dimension)

    @classmethod
    def from_design(cls, design: LabeledDesign) -> "StaircaseRegion":
        return cls(maximal_points(design.points[design.fail]),
                   minimal_points(design.points[~design.fail]),
                   design.dimension)

    def __post_init__(self):
        F = np.atleast_2d(np.asarray(self.fail_generators, dtype=float))
        S = np.atleast_2d(np.asarray(self.safe_generators, dtype=float))
        if F.size == 0:
            F = F.reshape(0, self.dimension)
        if S.size == 0:
            S = S.reshape(0, self.dimension)
        object.__setattr__(self, "fail_generators", F)
        object.__setattr__(self, "safe_generators", S)
        if F.shape[1] != self.dimension or S.shape[1] != self.dimension:
            raise DimensionMismatch("generator dimension mismatch")
        _check_cube(np.vstack([F, S]), 0.0)
        if not is_antichain(F) or not is_antichain(S):
            raise ValueError("generators must form antichains")
        _check_disjoint(S, F)
        self._set_origin(None, None, False)

    def _set_origin(self, parent, cut, upper) -> None:
        # identity token of this region; the token of the region it was
        # made from by removing the orthant of ``cut`` (lower or upper)
        object.__setattr__(self, "_token", object())
        object.__setattr__(self, "_parent", parent)
        object.__setattr__(self, "_cut", cut)
        object.__setattr__(self, "_cut_upper", upper)

    def _batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dimension:
            raise DimensionMismatch(
                f"expected batch of shape (n, {self.dimension}), got {X.shape}")
        return X

    def contains_batch(self, X) -> np.ndarray:
        X = self._batch(X)
        # for a rare failure the certified safe set covers most of the cube,
        # so the fail side is tested only on the rows that survive the safe
        # side (about 1% of rejection candidates).  A batch of at least
        # _TWO_PASS_ROWS rows meets the one safe generator with the largest
        # upper orthant first, and all of them only on the rows it leaves:
        # at p = 5e-4 in d = 3-4 that orthant covers about 95% of a uniform
        # rejection chunk.  Smaller batches are walk proposals and re-checks
        # of points in or near the region, where the first pass clears few
        # rows and made the test up to two thirds slower; on uniform rows
        # it pays from about 128 rows on.
        S = self.safe_generators
        if X.shape[0] >= _TWO_PASS_ROWS and S.shape[0] > 1:
            # ranked per call: bounds_from_design reads the stored order
            top = S[np.argmax(np.prod(1.0 - S, axis=1))]
            out = ~_covered(X, top[None, :], np.greater_equal)
            _clear_covered(out, X, S, np.greater_equal)
        else:
            out = ~_covered(X, S, np.greater_equal)
        _clear_covered(out, X, self.fail_generators)
        return out

    def retain(self, X, since: "StaircaseRegion") -> np.ndarray:
        """Membership mask of a batch X whose points all lie in ``since``.

        When this region is ``since`` after one :meth:`with_fail` or
        :meth:`with_safe`, X is tested against the one removed orthant
        alone, in O(n d) instead of O(n m d); the mask is the one
        :meth:`contains_batch` gives.  For any other ``since`` this is
        :meth:`contains_batch`.
        """
        if self._parent is not since._token:
            return self.contains_batch(X)
        return ~_covered(self._batch(X), self._cut,
                         np.greater_equal if self._cut_upper else np.less_equal)

    def with_fail(self, x) -> "StaircaseRegion":
        x = np.asarray(x, dtype=float)
        _check_disjoint(self.safe_generators, x[None, :])
        return self._updated(_insert_maximal(self.fail_generators, x),
                             self.safe_generators, x, upper=False)

    def with_safe(self, x) -> "StaircaseRegion":
        x = np.asarray(x, dtype=float)
        _check_disjoint(x[None, :], self.fail_generators)
        # negation is exact, so the stored generator is the observed point
        return self._updated(self.fail_generators,
                             -_insert_maximal(-self.safe_generators, -x),
                             x, upper=True)

    def _updated(self, fail_generators, safe_generators, x,
                 upper: bool) -> "StaircaseRegion":
        # skips __post_init__: its O(m^2) checks hold by construction here
        region = object.__new__(StaircaseRegion)
        object.__setattr__(region, "fail_generators", fail_generators)
        object.__setattr__(region, "safe_generators", safe_generators)
        object.__setattr__(region, "dimension", self.dimension)
        region._set_origin(self._token, np.array(x, dtype=float)[None, :], upper)
        return region

    def volume_bounds(self) -> Tuple[float, float]:
        """(vol of certified fail set, 1 - vol of certified safe set),
        the outward-rounded volumes of the certified sets.

        This is the one place the monotone route rounds outward; the
        engine calls it once per run, through :func:`bounds_from_design`.
        Each volume is computed in floating point and moved past its a
        priori rounding error gamma_N (see ``_rounding_terms``), so the
        lower bound is at most the exact volume of the fail set, and the
        upper bound at least one minus the exact volume of the safe set.
        """
        F, S, d = self.fail_generators, self.safe_generators, self.dimension
        lower = _round_down(_vol_lower_union(F),
                            _rounding_terms(d, F.shape[0]))
        safe = _round_down(_vol_lower_union(1.0 - S),
                           _rounding_terms(d, S.shape[0]))
        return lower, min(1.0, float(np.nextafter(1.0 - safe, 2.0)))


def bounds_from_design(design: LabeledDesign,
                       rng: Optional[RandomStream] = None) -> ProbabilityBounds:
    """Deterministic bounds on P(g < y) implied by a labeled design.

    For d <= 6 the bounds are the outward-rounded volumes of the certified
    sets (:meth:`StaircaseRegion.volume_bounds`); beyond that the volumes are
    estimated by Monte Carlo and the interval is widened so that it holds
    with probability at least 1 - 2e-6 (Hoeffding on each side), with the
    bound kind downgraded accordingly.
    """
    region = StaircaseRegion.from_design(design)
    d = design.dimension
    m = design.points.shape[0]
    if d <= MC_VOLUME_DIM:
        lo, hi = region.volume_bounds()
        return ProbabilityBounds(lo, hi, kind=DETERMINISTIC, queries_used=m)
    rng = rng or RandomStream(424242, 0)
    n = _MC_VOLUME_N
    margin = float(np.sqrt(np.log(2.0 / _MC_ALPHA) / (2.0 * n)))
    lo_hat, _ = orthant_volume_mc(region.fail_generators, upper=False, n=n,
                                  rng=rng.derive(0))
    hi_hat, _ = orthant_volume_mc(region.safe_generators, upper=True, n=n,
                                  rng=rng.derive(1))
    lower = max(0.0, lo_hat - margin)
    upper = min(1.0, 1.0 - hi_hat + margin)
    return ProbabilityBounds(lower, max(lower, upper), kind=HIGH_PROBABILITY,
                             alpha=2.0 * _MC_ALPHA, queries_used=m)


# ---------------------------------------------------------------------------
# sequential bounder

class RejectionSampler:
    """Uniform sampling on the undecided region by chunked rejection."""

    def __init__(self, chunk: int = 4096, max_attempts: int = 20_000_000):
        self.chunk = int(chunk)
        self.max_attempts = int(max_attempts)
        self.attempts = 0
        self.draws = 0
        self._buffer = np.empty((0, 0))
        self._since = None        # the region every buffered point lies in

    def draw_batch(self, region: StaircaseRegion, gen: np.random.Generator,
                   n: int) -> np.ndarray:
        """Return up to ``n`` uniform region points (fewer only on stall)."""
        # leftover candidates lie in the region of the previous call, so
        # one label later only the orthant it removed is tested
        # (StaircaseRegion.retain); the unused tail of an iid uniform
        # stream stays uniform
        if self._buffer.shape[0]:
            self._buffer = self._buffer[region.retain(self._buffer, self._since)]
        self._since = region
        out: List[np.ndarray] = list(self._buffer[:n])
        self._buffer = self._buffer[n:]
        self.draws += len(out)
        spent = 0
        while len(out) < n and spent < self.max_attempts:
            X = gen.random((self.chunk, region.dimension))
            spent += self.chunk
            self.attempts += self.chunk
            keep = X[region.contains_batch(X)]
            take = keep[:n - len(out)]
            out.extend(take)
            self.draws += take.shape[0]
            if len(out) >= n:
                self._buffer = keep[take.shape[0]:]
        if len(out) < n:
            raise SamplerStalled(
                f"collected {len(out)}/{n} region points in {spent} uniform draws")
        return np.array(out)

    @property
    def acceptance_rate(self) -> float:
        """Fraction of uniform candidates that landed in the region."""
        if self.attempts == 0:
            return 1.0
        return self.draws / self.attempts


# 2-D boundary-following selection (see _boundary_query)
_LOG_FLOOR = 1e-12        # stands in for coordinate 0 in log coordinates
_GRID_DECADES = 12        # candidate abscissae span [_LOG_FLOOR, 1] ...
_GRID_PER_DECADE = 120    # ... at this many per decade
_MID_BAND = 0.2           # estimate kept this far inside the log bracket


def _log(v):
    return np.log(np.maximum(v, _LOG_FLOOR))


def _boundary_query(fail: _Staircase2, safe: _Staircase2, grid: np.ndarray,
                    flip: np.ndarray) -> Optional[np.ndarray]:
    """Next 2-D query: on the estimated fail/safe boundary, exact-balance scored.

    ``safe`` holds the flipped safe generators 1 - S, ``flip`` is 1 - grid.
    In log-log coordinates every grid abscissa t has the bracket
    [phi(t), psi(t)] left by the fail and safe staircases; candidates are
    the bracket midpoints, plus, in the rows below the lowest fail
    generator (where phi = 0 leaves the vertical bracket without a lower
    end), the midpoints of the horizontal brackets.  The candidate with
    the largest product of exact fail and safe gains, the first vertical
    one on ties, fixes the column; a vertical candidate is then moved to
    the midpoint of the log-log polylines through the fail and through
    the safe generators, kept within the middle of its bracket so the
    query still splits it.  None when no candidate lies in the undecided
    region.
    """
    jf, js = np.searchsorted(fail.x, grid), np.searchsorted(safe.x, flip)
    hf, hs = fail._y0[jf], safe._y0[js]
    lo = _log(hf)
    hi = _log(1.0 - hs)
    mid = np.exp(0.5 * (lo + hi))
    score = np.where((mid > hf) & (1.0 - mid > hs),
                     fail._gain_above(grid, mid, jf)
                     * safe._gain_above(flip, 1.0 - mid, js), -1.0)
    j = int(np.argmax(score))
    n = int(np.searchsorted(grid, fail.y[-1])) if fail.x.size else 0
    if n:
        rows, up = grid[:n], flip[:n]
        rs = np.searchsorted(-safe.y, -up, side="right")
        X = np.sqrt(fail.x[-1] * (1.0 - safe._x0[rs]))
        Xc = 1.0 - X
        jh, jc = np.searchsorted(fail.x, X), np.searchsorted(safe.x, Xc)
        # every fail generator lies above the rows: all of them reach
        side = np.where((rows > fail._y0[jh]) & (up > safe._y0[jc]),
                        fail._gain_above(X, rows, jh, fail.x.size)
                        * safe._gain_above(Xc, up, jc, rs), -1.0)
        k = int(np.argmax(side))
        if side[k] > score[j]:
            return np.array([X[k], rows[k]])
    if score[j] < 0.0:
        return None
    x = np.array([grid[j], mid[j]])
    if not fail.x.size or not safe.x.size:
        return x
    t = np.log(x[0])
    est_fail = np.interp(t, _log(fail.x), _log(fail.y))
    # the safe generators by ascending first coordinate: flipped ones reversed
    est_safe = np.interp(t, _log(1.0 - safe.x[::-1]), _log(1.0 - safe.y[::-1]))
    band = _MID_BAND * (hi[j] - lo[j])
    est = np.clip(0.5 * (np.clip(est_fail, lo[j], hi[j])
                         + np.clip(est_safe, lo[j], hi[j])),
                  lo[j] + band, hi[j] - band)
    y = np.exp(est)
    if y > hf[j] and 1.0 - y > hs[j]:
        x = np.array([x[0], y])
    return x


@dataclass
class SequentialRun:
    """Result of a sequential bounding run, one design point per query."""

    design: LabeledDesign
    region: StaircaseRegion
    bounds: ProbabilityBounds
    sampler_name: str


def sequential_bounder(f: BlackBoxFunction, budget: int, rng: RandomStream,
                       sampler: str = "auto") -> SequentialRun:
    """Spend ``budget`` oracle queries bounding p = P(g(X) < y).

    Each step picks one point of the current undecided region, labels it
    with one oracle call, and folds it into the certified fail/safe
    orthant unions.  The bounds are computed once, at the end of the run,
    by :func:`bounds_from_design`: for d <= 6 they are the volumes of the
    certified sets, rounded outward, so they are deterministic however
    the points were picked; beyond that the volumes fall back to Monte
    Carlo.

    How the point is picked depends only on the dimension.  A candidate's
    two gains are the unknown mass it would retire if it failed (its
    lower-orthant contribution) and if it proved safe (upper-orthant
    contribution).

    - d = 1: the midpoint of the undecided interval (max F, min S), where
      the product of the two exact gains peaks.  The run stops early once
      the midpoint rounds to a labelled end: no float is left between.
    - d = 2: a point on an estimate of the fail/safe boundary: in log-log
      coordinates, the midpoints of the brackets the two staircases
      leave at log-spaced abscissae (at a random offset per run), and of
      the horizontal brackets in the rows below the lowest fail point.
      The candidate with the largest product of exact gains picks the
      column, which is then queried at the midpoint of the polylines
      through the fail and through the safe generators, kept inside the
      middle of the bracket.  Gains and region membership come from one
      binary search per staircase and candidate set, and from running
      sums, exact up to a candidate's reach.  Only when no such candidate
      lies in the region does the step fall back to the pool below,
      scored by the product of exact gains.
    - d >= 3: a pool of ``_POOL_SIZE`` region points drawn by the sampler
      is kept on hand; each step scores a random subsample of
      ``_SCORE_SUBSAMPLE`` of them by the sum of their pool domination
      counts (a cheap Monte Carlo proxy for the two gains) and queries
      the best.

    At d <= 2 ``sampler`` acts only on the pool fallback, and the run's
    ``sampler_name`` is "boundary".

    Parameters
    ----------
    f : BlackBoxFunction
        Componentwise nondecreasing in the orientation already applied.
        This is assumed, not tested: every query lies in the undecided
        region, so no label can contradict an earlier one and
        :class:`MonotonicityViolation` is never raised; a non-monotone
        ``f`` gives bounds without a guarantee.
    budget : int
        Oracle queries, fewer only at d = 1 as above.  An oracle value
        that is not finite raises ``ValueError`` before it labels a point.
    rng : RandomStream
    sampler : str
        Where pool points come from: "rejection"
        (:class:`RejectionSampler`), "mcmc"
        (:class:`rarebound.mcmc.RegionWalkSampler`, whose tuning is
        fixed), or "auto" (rejection that hands over to the walk sampler
        once its acceptance rate drops below ``SWITCH_ACCEPTANCE``).

    Returns
    -------
    SequentialRun
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if sampler not in ("auto", "rejection", "mcmc"):
        raise ValueError(f"unknown sampler {sampler!r}")
    d = f.dimension
    gen = rng.generator()
    rejection = RejectionSampler()
    walker = None

    pts: List[np.ndarray] = []
    labels: List[bool] = []
    vals: List[float] = []
    name = sampler
    region = StaircaseRegion.empty(d)
    pool = np.empty((0, d))
    pool_region = region          # the region every pool point lies in

    def make_walker():
        from .mcmc import RegionWalkSampler
        return RegionWalkSampler(region, gen)

    if d == 2:
        # log-spaced abscissae at a random offset, so replications differ
        grid = 10.0 ** ((np.arange(_GRID_DECADES * _GRID_PER_DECADE)
                         + gen.random()) / _GRID_PER_DECADE - _GRID_DECADES)
        flip, F, S = 1.0 - grid, None, None
    if d <= 2:
        name = "boundary"
    elif sampler == "mcmc":
        walker = make_walker()

    def refill(pool: np.ndarray, n: int) -> np.ndarray:
        nonlocal walker, name
        if pool.shape[0] >= n:
            return pool
        need = n - pool.shape[0]
        if sampler == "auto" and walker is None \
                and rejection.attempts >= 8 * rejection.chunk \
                and rejection.acceptance_rate < SWITCH_ACCEPTANCE:
            walker = make_walker()
            name = "auto(rejection->mcmc)"
        if walker is not None:
            walker.update_region(region)
            fresh = walker.draw(need)
        else:
            fresh = rejection.draw_batch(region, gen, need)
        return np.vstack([pool, fresh]) if pool.shape[0] else fresh

    def pool_query() -> np.ndarray:
        nonlocal pool, pool_region
        if pool.shape[0]:
            pool = pool[region.retain(pool, pool_region)]
        pool = refill(pool, _POOL_SIZE)
        pool_region = region
        if pool.shape[0] > _SCORE_SUBSAMPLE:
            sel = gen.choice(pool.shape[0], _SCORE_SUBSAMPLE, replace=False)
        else:
            sel = np.arange(pool.shape[0])
        P = pool[sel]
        if d == 2:
            score = (_delta_lower_volume(fail_stair, P)
                     * _delta_lower_volume(safe_stair, 1.0 - P))
        else:
            geq = np.all(P[:, None, :] >= P[None, :, :], axis=2)
            score = geq.sum(axis=0) + geq.sum(axis=1)
        pick = int(np.argmax(score))
        pool = np.delete(pool, sel[pick], axis=0)
        return P[pick]

    for _ in range(budget):
        if d == 1:
            lo, hi = region.fail_generators, region.safe_generators
            x = np.array([0.5 * (lo.max(initial=0.0) + hi.min(initial=1.0))])
            if (lo == x).any() or (hi == x).any():
                break           # x is a labelled end: no float lies between
        elif d == 2:
            # an update replaces one generator array and keeps the other
            if region.fail_generators is not F:
                F = region.fail_generators
                fail_stair = _Staircase2(F)
            if region.safe_generators is not S:
                S = region.safe_generators
                safe_stair = _Staircase2(1.0 - S)
            x = _boundary_query(fail_stair, safe_stair, grid, flip)
        else:
            x = None
        if x is None:
            x = pool_query()

        value = f(x)
        check_finite(value, x)
        failed = value < f.threshold
        pts.append(x)
        labels.append(failed)
        vals.append(value)
        region = region.with_fail(x) if failed else region.with_safe(x)

    design = LabeledDesign(np.array(pts), np.array(labels), np.array(vals))
    return SequentialRun(design=design, region=region,
                         bounds=bounds_from_design(design, rng=rng.derive(7)),
                         sampler_name=name)
