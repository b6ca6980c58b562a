"""Dominance geometry for coordinatewise-nondecreasing functions.

For g nondecreasing in every coordinate, a failing point x (g(x) < y)
certifies failure on its whole lower orthant [0, x], and a safe point
certifies safety on its upper orthant [x, 1].  Labeled designs therefore
yield deterministic probability bounds

    vol(union of fail lower orthants)  <=  p  <=  1 - vol(union of safe upper orthants)

with the gap carried by the staircase-shaped undecided region in between.
This module provides the dominance primitives, union volumes with an a
priori rounding-error bound up to d = 6, the undecided-region type, and a
sequential bounder that spends a query budget on points of the undecided
region: at the interval midpoint in one dimension, on a boundary estimate
or a strip midpoint in two, and drawn by a sampler from three on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import (DETERMINISTIC, BlackBoxFunction, DimensionMismatch,
                   ProbabilityBounds, RandomStream, check_finite)

__all__ = [
    "MonotonicityViolation",
    "SamplerStalled",
    "is_antichain",
    "maximal_points",
    "minimal_points",
    "lower_orthant_volume",
    "upper_orthant_volume",
    "LabeledDesign",
    "StaircaseRegion",
    "bounds_from_design",
    "RejectionSampler",
    "SequentialRun",
    "sequential_bounder",
]

MAX_VOLUME_DIM = 6         # exact volumes up to here, no bounds beyond
_POOL_SIZE = 192           # sampled region points in the pool ...
_SCORE_SUBSAMPLE = 48      # ... of which each step scores this many
_TWO_PASS_ROWS = 1024      # batches this large meet the largest safe orthant first


class MonotonicityViolation(RuntimeError):
    """Observed labels contradict coordinatewise monotonicity."""


class SamplerStalled(RuntimeError):
    """A region sampler could not produce a point within its attempt cap."""


# ---------------------------------------------------------------------------
# dominance primitives

def _dominated(X: np.ndarray, G: np.ndarray, cmp=np.less_equal) -> np.ndarray:
    """The (n, m) mask of ``cmp(x_k, g_k)`` in every coordinate k, for rows x
    of X and g of G: the one dominance test of this module.  It is built a
    coordinate at a time; NumPy reduces the (n, m, d) tensor over its short
    last axis several times slower."""
    hit = cmp(X[:, 0, None], G[None, :, 0])
    for k in range(1, X.shape[1]):
        hit &= cmp(X[:, k, None], G[None, :, k])
    return hit


def _covered(X: np.ndarray, G: np.ndarray, cmp=np.less_equal) -> np.ndarray:
    """Rows of X in the orthant of some row of G, by the ``_dominated``
    mask: lower for ``np.less_equal``, upper for ``np.greater_equal``."""
    return _dominated(X, G, cmp).any(axis=1)


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
    """Antichain of maximal points, by the ``_dominated`` mask: same union
    of lower orthants.  Exact duplicates collapse; rows come out in
    lexicographic order."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    if P.shape[0] <= 1:
        return P.copy()
    P = np.unique(P, axis=0)
    leq = _dominated(P, P)
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
    """Area of a union of lower-left rectangles in [0,1]^2 by a sweep.

    Rows sharing a first coordinate, which flipped safe generators 1 - s
    can, go highest first, so the sum does not depend on the row order."""
    order = np.lexsort((-P[:, 1], -P[:, 0]))
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


def _vol4(P: np.ndarray) -> float:
    """Volume of a union of lower orthants in [0,1]^4 by one sweep.

    Downward in the last coordinate w, the union's cross-section between
    consecutive heights is the 3-D union of the points reached so far.  It
    is kept as one ``_vol3`` grid over every point's distinct x and y: each
    point raises the z-maxima of the cells it covers, and each slab adds its
    thickness times the grid's volume (Guerreiro, Fonseca & Emmerich 2012).
    """
    P = P[np.argsort(-P[:, 3], kind="stable")]
    xs, ix = np.unique(P[:, 0], return_inverse=True)
    ys, iy = np.unique(P[:, 1], return_inverse=True)
    dx, dy = np.diff(xs, prepend=0.0), np.diff(ys, prepend=0.0)
    dw = P[:, 3] - np.append(P[1:, 3], 0.0)
    H = np.zeros((xs.size, ys.size))
    vol = 0.0
    for k in range(P.shape[0]):
        cover = H[:ix[k] + 1, :iy[k] + 1]
        np.maximum(cover, P[k, 2], out=cover)
        if dw[k] > 0.0:
            vol += dw[k] * float(dx @ H @ dy)
    return vol


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
    if d == 4:
        return _vol4(P)
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
# - d = 4: per slab a height difference and a product, at most m - 1
#   additions over the slabs, on top of the slab's dx @ H @ dy on the one
#   sweep grid; its lines are the distinct x and y of all m generators,
#   so nx, ny <= m and the d = 3 count holds: N_4 = N_3 + m + 1;
# - d >= 5: the same per slab, on top of a slab volume of at most m
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

    A sweep at d = 2, a grid at d = 3, a sweep of one such grid at d = 4,
    and slabs on the last coordinate above that.  Cost grows quickly with
    dimension; the bounds use it for d <= 6 only.
    """
    return _vol_lower_union(maximal_points(_check_points(P)))


def upper_orthant_volume(P) -> float:
    """Volume of union_i [P_i, 1], within a relative gamma_N of the exact
    one."""
    return _vol_lower_union(maximal_points(1.0 - _check_points(P)))


def _delta_lower_volume(stair: _Staircase2, P: np.ndarray) -> np.ndarray:
    """Area each row of P adds to the 2-D lower-orthant union of ``stair``:
    vol[0, x] minus the part already covered, by ``_gain_above``: for the
    strip midpoints in the region the bits of the general formula."""
    return stair._gain_above(P[:, 0], P[:, 1], stair._below(P[:, 0])[1])


def _insert_maximal(pruned: np.ndarray, x: np.ndarray,
                    cmp=np.less_equal) -> np.ndarray:
    """Add x to a maximal antichain, keeping it maximal; with
    ``np.greater_equal``, to a minimal antichain, keeping it minimal."""
    x = x[None, :]
    if _covered(x, pruned, cmp)[0]:
        return pruned
    return np.concatenate([pruned[~_dominated(pruned, x, cmp)[:, 0]], x])


class _Staircase2:
    """A 2-D maximal antichain as the step function it bounds.

    The generators are sorted by first coordinate, so their heights
    descend, and the lower-orthant union is {y <= phi(x)} with
    phi(t) = max{y_j : x_j >= t} (0 past the last generator).  Running
    sums of phi give every candidate's exclusive area with two binary
    searches (Emmerich & Fonseca 2011) instead of a sweep per candidate.

    The safe side is stored flipped, as the maximal antichain 1 - S.  The
    constructor takes generators already sorted, x ascending and y
    descending: a d = 2 run passes the fail ones as it keeps them, and the
    safe ones reversed and flipped, so that safe abscissae that flip to one
    float come in order of descending height, as the searches need.

    What the staircase alone decides at the abscissae of a query
    (:meth:`columns`) is computed once per abscissa array and kept: a d = 2
    run queries one grid throughout, and each label rebuilds only the
    staircase it changes, so the other one's columns carry over.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.x, self.y = x, y
        self._neg_y = -y                             # ascending, for searches
        self._x0 = np.concatenate(([0.0], x))        # left end of step j
        self._y0 = np.concatenate((y, [0.0]))        # height of step j
        self._cum = np.concatenate(([0.0], np.cumsum(y * np.diff(self._x0))))
        self._columns_key, self._columns = None, None

    def _below(self, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """phi(t) and the area of the union left of t."""
        j = np.searchsorted(self.x, t, side="left")
        h = self._y0[j]
        return h, self._cum[j] + h * (t - self._x0[j])

    def columns(self, t: np.ndarray, flipped: bool) -> tuple:
        """At each abscissa of t: the height phi(t), the log-coordinate
        height, the area below t, and for flipped safe generators
        (``flipped``) the reach step r at height t (:meth:`_gain_above`);
        then the log-log polyline through the generators, unflipped.  The
        log height is _log(phi), or _log(1 - phi) when flipped.

        Kept for the last array t and orientation asked for, by identity:
        the caller must not write into t between queries.
        """
        key = self._columns_key
        if key is None or key[0] is not t or key[1] != flipped:
            h, area = self._below(t)
            if flipped:
                reach = np.searchsorted(self._neg_y, -t, side="right")
                # the safe generators by ascending first coordinate
                line = (_log(1.0 - self.x[::-1]), _log(1.0 - self.y[::-1]))
                self._columns = (h, _log(1.0 - h), area, reach, line)
            else:
                line = (_log(self.x), _log(self.y))
                self._columns = (h, _log(h), area, None, line)
            self._columns_key = (t, flipped)
        return self._columns

    def _gain_above(self, X: np.ndarray, Y: np.ndarray, area: np.ndarray,
                    r=None) -> np.ndarray:
        """Area of [0, X] x [0, Y] outside the union, per candidate above it,
        given area = ``_below(X)[1]`` and optionally r, the step of the last
        generator at least Y high: x0[r] is the union's reach at height Y.
        Above the union the reach is at most X, and the area below it is
        _cum[r], to the bit: cumsum adds its terms in order, and a step of
        tied abscissae adds an exact 0."""
        if r is None:
            r = np.searchsorted(self._neg_y, -Y, side="right")
        return np.maximum(X * Y - (Y * self._x0[r] + area - self._cum[r]), 0.0)


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
    :class:`MonotonicityViolation`.  An update removes exactly one
    orthant: ``with_fail(x)`` leaves this region minus [0, x], and
    ``with_safe(x)`` this region minus [x, 1].
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
            # ranked per call: the generators stay in the order inserted
            top = S[np.argmax(np.prod(1.0 - S, axis=1))]
            out = ~_covered(X, top[None, :], np.greater_equal)
            _clear_covered(out, X, S, np.greater_equal)
        else:
            out = ~_covered(X, S, np.greater_equal)
        _clear_covered(out, X, self.fail_generators)
        return out

    def with_fail(self, x) -> "StaircaseRegion":
        x = np.asarray(x, dtype=float)
        _check_disjoint(self.safe_generators, x[None, :])
        return StaircaseRegion._built(_insert_maximal(self.fail_generators, x),
                                      self.safe_generators, self.dimension)

    def with_safe(self, x) -> "StaircaseRegion":
        x = np.asarray(x, dtype=float)
        _check_disjoint(x[None, :], self.fail_generators)
        safe = _insert_maximal(self.safe_generators, x, np.greater_equal)
        return StaircaseRegion._built(self.fail_generators, safe,
                                      self.dimension)

    @classmethod
    def _built(cls, fail_generators, safe_generators,
               dimension: int) -> "StaircaseRegion":
        # skips __post_init__: its O(m^2) checks hold by construction here
        region = object.__new__(cls)
        object.__setattr__(region, "fail_generators", fail_generators)
        object.__setattr__(region, "safe_generators", safe_generators)
        object.__setattr__(region, "dimension", dimension)
        return region

    def volume_bounds(self) -> Tuple[float, float]:
        """(vol of certified fail set, 1 - vol of certified safe set),
        the outward-rounded volumes of the certified sets.

        This is the one place the monotone route rounds outward; the
        engine calls it once per run, on the region its loop ends with,
        and :func:`bounds_from_design` on the region of a design.
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


def _check_volume_dim(d: int) -> None:
    if d > MAX_VOLUME_DIM:
        raise ValueError(f"exact volumes need d <= {MAX_VOLUME_DIM}, got d = {d}")


def bounds_from_design(design: LabeledDesign) -> ProbabilityBounds:
    """Deterministic bounds on P(g < y) implied by a labeled design: the
    outward-rounded volumes of the certified sets
    (:meth:`StaircaseRegion.volume_bounds`).  ``ValueError`` above d = 6.
    """
    _check_volume_dim(design.dimension)
    lo, hi = StaircaseRegion.from_design(design).volume_bounds()
    return ProbabilityBounds(lo, hi, kind=DETERMINISTIC,
                             queries_used=design.points.shape[0])


# ---------------------------------------------------------------------------
# sequential bounder

class RejectionSampler:
    """Uniform sampling on the undecided region by chunked rejection.

    It keeps no points between calls, only the counters ``attempts``
    (uniform candidates drawn) and ``draws`` (those in the region).
    """

    def __init__(self, chunk: int = 4096, max_attempts: int = 20_000_000):
        self.chunk, self.max_attempts = int(chunk), int(max_attempts)
        if self.chunk < 1 or self.max_attempts < 1:
            raise ValueError("chunk and max_attempts must be >= 1")
        self.attempts = 0
        self.draws = 0

    def draw_batch(self, region: StaircaseRegion, gen: np.random.Generator,
                   n: int) -> np.ndarray:
        """Every region point of the whole chunks it takes to reach ``n``,
        in stream order: at least ``n`` rows, or ``SamplerStalled`` when
        ``max_attempts`` candidates fall short.  Rows past the first ``n``
        are as uniform as the rest, so callers keep them or drop them."""
        parts, got, spent = [np.empty((0, region.dimension))], 0, 0
        while got < n and spent < self.max_attempts:
            X = gen.random((self.chunk, region.dimension))
            spent += self.chunk
            parts.append(X[region.contains_batch(X)])
            got += parts[-1].shape[0]
        self.attempts += spent
        self.draws += got
        if got < n:
            raise SamplerStalled(
                f"collected {got}/{n} region points in {spent} uniform draws")
        return np.concatenate(parts)

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
    hf, lo, area_f, _, line_f = fail.columns(grid, False)
    hs, hi, area_s, reach_s, line_s = safe.columns(flip, True)
    mid = np.exp(0.5 * (lo + hi))
    flip_mid = 1.0 - mid
    score = np.where((mid > hf) & (flip_mid > hs),
                     fail._gain_above(grid, mid, area_f)
                     * safe._gain_above(flip, flip_mid, area_s), -1.0)
    j = int(np.argmax(score))
    n = int(np.searchsorted(grid, fail.y[-1])) if fail.x.size else 0
    if n:
        rows, up, rs = grid[:n], flip[:n], reach_s[:n]
        # a row's horizontal midpoint depends on the row only through the
        # safe step rs it reaches: each step's is computed once, then gathered
        X = np.sqrt(fail.x[-1] * (1.0 - safe._x0))
        Xc = 1.0 - X
        (hh, area_h), (hc, area_c) = fail._below(X), safe._below(Xc)
        X, Xc = X[rs], Xc[rs]
        # every fail generator lies above the rows: all of them reach
        side = np.where((rows > hh[rs]) & (up > hc[rs]),
                        fail._gain_above(X, rows, area_h[rs], fail.x.size)
                        * safe._gain_above(Xc, up, area_c[rs], rs), -1.0)
        k = int(np.argmax(side))
        if side[k] > score[j]:
            return np.array([X[k], rows[k]])
    if score[j] < 0.0:
        return None
    x = np.array([grid[j], mid[j]])
    if not fail.x.size or not safe.x.size:
        return x
    t = np.log(x[0])
    lo, hi = float(lo[j]), float(hi[j])
    # np.clip on floats, exactly: min(max(v, lo), hi)
    est_fail = min(max(float(np.interp(t, *line_f)), lo), hi)
    est_safe = min(max(float(np.interp(t, *line_s)), lo), hi)
    band = _MID_BAND * (hi - lo)
    y = np.exp(min(max(0.5 * (est_fail + est_safe), lo + band), hi - band))
    if y > hf[j] and 1.0 - y > hs[j]:
        x = np.array([x[0], y])
    return x


def _strip_midpoints(F: np.ndarray, S: np.ndarray, fail: _Staircase2,
                     safe: _Staircase2) -> Tuple[np.ndarray, np.ndarray]:
    """Every strip midpoint of a 2-D region, and the mask of those in it.

    F and S are the generators as ``_label2`` keeps them, with their
    staircases.  Both staircases are flat between consecutive generator
    abscissae, so the region is a union of vertical strips; a midpoint's
    height is the middle of its strip's bracket.  Membership is the mask
    ``contains_batch`` gives, from one binary search per side: (t, h)
    lies below a fail generator iff the first one at or right of t
    reaches h, and above a safe generator iff the last one at or left of
    t, the lowest there, lies at or below h.  The safe side reads the
    generators themselves, never the flipped 1 - S, whose rounding could
    move the comparison.  With the test exact, a rounded bracket height
    can drop a midpoint but never admit one outside the region.
    """
    b = np.unique(np.concatenate(([0.0, 1.0], F[:, 0], S[:, 0])))
    t = 0.5 * (b[:-1] + b[1:])
    jf = np.searchsorted(fail.x, t)
    phi = fail._y0[jf]
    psi = 1.0 - safe._y0[np.searchsorted(safe.x, 1.0 - t)]
    h = 0.5 * (phi + psi)
    # height of the last safe generator at or left of t, inf if none
    low = np.concatenate(([np.inf], S[:, 1]))[
        np.searchsorted(S[:, 0], t, side="right")]
    inside = ~(((jf < fail.x.size) & (h <= phi)) | (low <= h))
    return np.column_stack((t, h)), inside


def _strip_query(F: np.ndarray, S: np.ndarray, fail: _Staircase2,
                 safe: _Staircase2) -> Optional[np.ndarray]:
    """Next 2-D query when :func:`_boundary_query` has none, or None: of
    the strip midpoints in the region (``_strip_midpoints``), the one with
    the largest product of exact gains."""
    P, inside = _strip_midpoints(F, S, fail, safe)
    P = P[inside]
    if not P.shape[0]:
        return None
    score = _delta_lower_volume(fail, P) * _delta_lower_volume(safe, 1.0 - P)
    return P[int(np.argmax(score))]


def _label2(F: np.ndarray, S: np.ndarray, x: np.ndarray,
            failed: bool) -> Tuple[np.ndarray, np.ndarray]:
    """(F, S) after labelling x, for 2-D generators sorted by first
    coordinate: the maximal fail antichain F and the minimal safe antichain
    S, heights descending in both.

    As :meth:`StaircaseRegion.with_fail` and ``with_safe``: a point that
    contradicts the other side raises :class:`MonotonicityViolation`, one
    its own side covers leaves that array object as it is, and otherwise
    the point goes in at its place and the run of generators it dominates
    goes out.  Each test is a binary search on the generators themselves,
    never on the flipped 1 - S.
    """
    a, b = x
    # x lies below a fail generator iff the first at or right of a reaches b
    i = int(np.searchsorted(F[:, 0], a, side="left"))
    below_fail = i < F.shape[0] and F[i, 1] >= b
    # ... and above a safe one iff the last at or left of a is at or below b
    k = int(np.searchsorted(S[:, 0], a, side="right"))
    above_safe = k > 0 and S[k - 1, 1] <= b
    if above_safe if failed else below_fail:
        raise MonotonicityViolation(
            "a safe point is componentwise below a fail point")
    if below_fail if failed else above_safe:
        return F, S
    if failed:
        # the fail generators at or left of a and at or below b
        lo = int(np.searchsorted(-F[:, 1], -b, side="left"))
        hi = int(np.searchsorted(F[:, 0], a, side="right"))
        return np.concatenate((F[:min(lo, hi)], x[None, :], F[hi:])), S
    # the safe generators at or right of a and at or above b
    lo = int(np.searchsorted(S[:, 0], a, side="left"))
    hi = int(np.searchsorted(-S[:, 1], -b, side="right"))
    return F, np.concatenate((S[:lo], x[None, :], S[max(lo, hi):]))


@dataclass
class SequentialRun:
    """Result of a sequential bounding run, one design point per query."""

    design: LabeledDesign
    region: StaircaseRegion
    bounds: ProbabilityBounds
    sampler_name: str


# Each rule is a generator with its own state: it yields a query, is sent
# its label, and returns (region, sampler name) when it stops.

def _interval_loop(budget: int):
    """d = 1: the midpoint of the undecided interval."""
    region = StaircaseRegion.empty(1)
    for _ in range(budget):
        lo, hi = region.fail_generators, region.safe_generators
        x = np.array([0.5 * (lo.max(initial=0.0) + hi.min(initial=1.0))])
        if (lo == x).any() or (hi == x).any():
            break           # x is a labelled end: no float lies between
        region = region.with_fail(x) if (yield x) else region.with_safe(x)
    return region, "boundary"


def _boundary_loop(budget: int, gen: np.random.Generator):
    """d = 2: the boundary estimate, else the best strip midpoint."""
    # log-spaced abscissae at a random offset, so replications differ
    grid = 10.0 ** ((np.arange(_GRID_DECADES * _GRID_PER_DECADE)
                     + gen.random()) / _GRID_PER_DECADE - _GRID_DECADES)
    flip = 1.0 - grid
    # the generators sorted by first coordinate (_label2) stand in for the
    # region, which is built once, for the run
    F, S = np.empty((0, 2)), np.empty((0, 2))
    fail = _Staircase2(np.empty(0), np.empty(0))
    safe = _Staircase2(np.empty(0), np.empty(0))
    for _ in range(budget):
        x = _boundary_query(fail, safe, grid, flip)
        if x is None:
            x = _strip_query(F, S, fail, safe)
        if x is None:
            break           # no strip midpoint lies in the region
        # a label replaces one generator array and keeps the other
        F_new, S_new = _label2(F, S, x, (yield x))
        if F_new is not F:
            F = F_new
            fail = _Staircase2(F[:, 0].copy(), F[:, 1].copy())
        if S_new is not S:
            S = S_new
            safe = _Staircase2(1.0 - S[::-1, 0], 1.0 - S[::-1, 1])
    return StaircaseRegion._built(F, S, 2), "boundary"


def _label(F: np.ndarray, S: np.ndarray, stock: np.ndarray, x: np.ndarray,
           failed: bool) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F, S, stock) after labelling x, a row of ``stock``: the maximal
    fail and minimal safe antichains, and the stock rows left in the region.

    One ``_dominated`` pass of all three arrays against x, with the
    comparison of x's side, reads what :meth:`StaircaseRegion.with_fail`
    or ``with_safe`` and a membership test of the stock would: the rows x
    prunes from its own side, the rows of the other side that contradict
    it (:class:`MonotonicityViolation`), and the stock rows in the removed
    orthant, x among them.  x goes in after the kept rows, as
    ``_insert_maximal`` puts it.  The insert's branch for a point its own
    side covers is never needed: a stock row lies in the region by exact
    comparisons, so no generator covers it.
    """
    cmp = np.less_equal if failed else np.greater_equal
    nf, ns = F.shape[0], S.shape[0]
    hit = _dominated(np.concatenate((F, S, stock)), x[None, :], cmp)[:, 0]
    if (hit[nf:nf + ns] if failed else hit[:nf]).any():
        raise MonotonicityViolation(
            "a safe point is componentwise below a fail point")
    stock = stock[~hit[nf + ns:]]
    if failed:
        return np.concatenate((F[~hit[:nf]], x[None, :])), S, stock
    return F, np.concatenate((S[~hit[nf:nf + ns]], x[None, :])), stock


def _pool_loop(budget: int, d: int, gen: np.random.Generator, sampler: str):
    """d >= 3: the best-scored point of a subsample of the sampled pool."""
    from .mcmc import RegionWalkSampler
    rejection = RejectionSampler()
    walker = (RegionWalkSampler(StaircaseRegion.empty(d), gen)
              if sampler == "mcmc" else None)
    # the generator arrays (_label) stand in for the region, which is
    # built only for a refill and for the run; region points on hand, in
    # the order drawn: the first _POOL_SIZE are the pool, the rest what
    # the last rejection chunks accepted beyond it
    F, S, stock = np.empty((0, d)), np.empty((0, d)), np.empty((0, d))
    for _ in range(budget):
        need = _POOL_SIZE - stock.shape[0]
        if need > 0:
            region = StaircaseRegion._built(F, S, d)
            if walker is None:
                fresh = rejection.draw_batch(region, gen, need)
            else:
                walker.update_region(region)
                fresh = walker.draw(need)
            stock = np.concatenate((stock, fresh))
        sel = gen.choice(_POOL_SIZE, _SCORE_SUBSAMPLE, replace=False)
        P = stock[sel]
        geq = _dominated(P, P, np.greater_equal)
        score = geq.sum(axis=0) + geq.sum(axis=1)
        x = P[int(np.argmax(score))]
        F, S, stock = _label(F, S, stock, x, (yield x))
    return StaircaseRegion._built(F, S, d), sampler


def sequential_bounder(f: BlackBoxFunction, budget: int, rng: RandomStream,
                       sampler: str = "auto") -> SequentialRun:
    """Spend ``budget`` oracle queries bounding p = P(g(X) < y).

    Each step picks one point of the current undecided region, labels it
    with one oracle call, and folds it into the certified fail/safe
    orthant unions.  The bounds are computed once, at the end of the run,
    by :meth:`StaircaseRegion.volume_bounds` of the region the loop ends
    with, the bits :func:`bounds_from_design` gives for the run's design:
    they are the volumes of the certified sets, rounded outward, so they
    are deterministic however the points were picked.  Above d = 6 the run
    raises ``ValueError`` before its first query.

    This function takes the oracle step (query, finiteness check, record)
    and builds the result; one of three loops, chosen by the dimension,
    picks the points.  A label is "value below the threshold".  A
    candidate's two gains are the unknown mass it would retire if it
    failed (its lower-orthant contribution) and if it proved safe.

    - d = 1 (``_interval_loop``): the midpoint of the undecided interval
      (max F, min S), where the product of the two exact gains peaks.  The
      run stops early once the midpoint rounds to a labelled end: no
      float is left between.
    - d = 2 (``_boundary_loop``): a point on an estimate of the fail/safe
      boundary: in log-log coordinates, the midpoints of the brackets the
      two staircases leave at log-spaced abscissae (at a random offset
      per run), and of the horizontal brackets in the rows below the
      lowest fail point.  The candidate with the largest product of exact
      gains picks the column, which is then queried at the midpoint of
      the polylines through the fail and through the safe generators,
      kept inside the middle of the bracket.  The generators are kept
      sorted (``_label2``), and a label rebuilds only the staircase it
      changes (``_Staircase2``).  With no such candidate in the region the
      best strip midpoint (``_strip_query``) is queried, and once none is
      left the run stops.
    - d >= 3 (``_pool_loop``): a pool of ``_POOL_SIZE`` region points
      drawn by the sampler is kept on hand; each step scores a random
      subsample of ``_SCORE_SUBSAMPLE`` of them by the sum of their pool
      domination counts (a cheap Monte Carlo proxy for the two gains) and
      queries the best.  The pool heads one array of region points, and
      rows a rejection chunk accepts beyond it wait behind it.  A label
      (``_label``) updates the generator arrays and filters that array in
      one comparison pass against the point.

    No sampler runs at d <= 2: ``sampler`` has no effect there, and the
    run's ``sampler_name`` is "boundary".

    Parameters
    ----------
    f : BlackBoxFunction
        Componentwise nondecreasing in the orientation already applied.
        This is assumed, not tested: every query lies in the undecided
        region, so no label can contradict an earlier one and
        :class:`MonotonicityViolation` is never raised; a non-monotone
        ``f`` gives bounds without a guarantee.
    budget : int
        Oracle queries, fewer only at d <= 2 as above.  An oracle value
        that is not finite raises ``ValueError`` before it labels a point.
    rng : RandomStream
    sampler : str
        Where pool points come from at d >= 3: "auto", uniform rejection
        (:class:`RejectionSampler`), or "mcmc", the transformed walk
        (:class:`rarebound.mcmc.RegionWalkSampler`, whose tuning is
        fixed).  It is also the run's ``sampler_name`` there.

    Returns
    -------
    SequentialRun
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if sampler not in ("auto", "mcmc"):
        raise ValueError(f"unknown sampler {sampler!r}")
    d = f.dimension
    _check_volume_dim(d)
    gen = rng.generator()
    if d == 1:
        loop = _interval_loop(budget)
    elif d == 2:
        loop = _boundary_loop(budget, gen)
    else:
        loop = _pool_loop(budget, d, gen, sampler)

    pts, vals, failed = [], [], None
    while True:
        try:
            x = loop.send(failed)
        except StopIteration as end:
            region, name = end.value
            break
        value = f(x)
        check_finite(value, x)
        pts.append(x)
        vals.append(value)
        failed = value < f.threshold
    values = np.array(vals)
    design = LabeledDesign(np.array(pts), values < f.threshold, values)
    lo, hi = region.volume_bounds()
    return SequentialRun(design=design, region=region,
                         bounds=ProbabilityBounds(lo, hi, kind=DETERMINISTIC,
                                                  queries_used=len(pts)),
                         sampler_name=name)
