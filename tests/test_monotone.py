"""Dominance geometry, staircase volumes, and the sequential bounder."""

import gc
import itertools
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rarebound.bench import get_benchmark, make_example1, make_linear_toy
from rarebound.core import DETERMINISTIC, BlackBoxFunction, RandomStream
from rarebound.monotone import (
    LabeledDesign,
    MonotonicityViolation,
    RejectionSampler,
    SamplerStalled,
    StaircaseRegion,
    bounds_from_design,
    is_antichain,
    lower_orthant_volume,
    maximal_points,
    minimal_points,
    sequential_bounder,
    upper_orthant_volume,
)
import rarebound.mcmc as mcmc
import rarebound.monotone as monotone
from rarebound.monotone import (_MID_BAND, _TWO_PASS_ROWS, _boundary_query, _log,
                                _rounding_terms, _Staircase2)

U = 2.0 ** -53    # unit roundoff of binary64


def gamma(n):
    return n * U / (1.0 - n * U)


def incl_excl_lower(P):
    """Union-of-boxes volume by inclusion-exclusion; independent oracle."""
    m = P.shape[0]
    total = 0.0
    for mask in range(1, 2 ** m):
        idx = [i for i in range(m) if (mask >> i) & 1]
        mins = P[idx].min(axis=0)
        total += (-1.0) ** (len(idx) + 1) * float(np.prod(mins))
    return total


def exact_lower_volume(rows):
    """Exact volume of the union of [0, r] over rows, in Fractions, by slabs
    on the last coordinate; independent oracle."""
    rows = sorted((tuple(Fraction(v) for v in r) for r in rows),
                  key=lambda r: r[-1], reverse=True)
    if not rows:
        return Fraction(0)
    if len(rows[0]) == 1:
        return rows[0][0]
    vol = Fraction(0)
    for k, r in enumerate(rows):
        below = rows[k + 1][-1] if k + 1 < len(rows) else 0
        if r[-1] > below:
            vol += (r[-1] - below) * exact_lower_volume(
                [q[:-1] for q in rows[:k + 1]])
    return vol


def exact_upper_volume(rows):
    """Exact volume of the union of [r, 1], the flip 1 - r done exactly."""
    return exact_lower_volume([[1 - Fraction(v) for v in r] for r in rows])


def exact_sweep_volume4(rows):
    """Exact volume of the union of [0, r] over 4-D rows with dyadic
    coordinates, by the dimension sweep in integers: every coordinate is
    scaled by the largest denominator.  ``exact_lower_volume`` gives the
    same value; this one takes a fraction of a second on 100 rows."""
    rows = [tuple(Fraction(v) for v in r) for r in rows]
    if not rows:
        return Fraction(0)
    scale = max(v.denominator for r in rows for v in r)
    P = sorted((tuple(int(v * scale) for v in r) for r in rows),
               key=lambda r: r[3], reverse=True)
    xs, ys = sorted({r[0] for r in P}), sorted({r[1] for r in P})
    dx = np.array([b - a for a, b in zip([0] + xs, xs)], dtype=object)
    dy = np.array([b - a for a, b in zip([0] + ys, ys)], dtype=object)
    H = np.zeros((len(xs), len(ys)), dtype=object)
    vol = 0
    for k, r in enumerate(P):
        i, j = xs.index(r[0]) + 1, ys.index(r[1]) + 1
        H[:i, :j] = np.maximum(H[:i, :j], r[2])
        below = P[k + 1][3] if k + 1 < len(P) else 0
        vol += (r[3] - below) * (dx @ H @ dy)
    return Fraction(vol, scale ** 4)


def slab_lower_volume(P):
    """Union volume of a maximal antichain by slabs on the last coordinate
    down to the d = 3 grid: the form the d = 4 sweep replaced; reference."""
    if P.shape[1] == 3:
        return monotone._vol3(P)
    Ps = P[np.argsort(-P[:, -1], kind="stable")]
    heights = np.append(Ps[:, -1], 0.0)
    vol = 0.0
    proj = np.empty((0, P.shape[1] - 1))
    for k in range(Ps.shape[0]):
        proj = monotone._insert_maximal(proj, Ps[k, :-1])
        if heights[k] > heights[k + 1]:
            vol += (heights[k] - heights[k + 1]) * slab_lower_volume(proj)
    return vol


def random_points(seed, m, d):
    return np.random.default_rng(seed).random((m, d))


def contains_reference(region, X):
    """Region membership by the dense (n, m, d) broadcast; independent oracle."""
    F, S = region.fail_generators, region.safe_generators
    out = np.ones(X.shape[0], dtype=bool)
    if F.shape[0]:
        out &= ~np.any(np.all(X[:, None, :] <= F[None, :, :], axis=2), axis=1)
    if S.shape[0]:
        out &= ~np.any(np.all(X[:, None, :] >= S[None, :, :], axis=2), axis=1)
    return out


def contains(region, x):
    return bool(region.contains_batch(np.atleast_2d(x))[0])


def dominated_reference(X, G, cmp=np.less_equal):
    """The dominance mask as the (n, m, d) tensor reduced over d; reference."""
    return np.all(cmp(X[:, None, :], G[None, :, :]), axis=2)


def maximal_reference(P):
    """maximal_points on the tensor mask; reference."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    if P.shape[0] <= 1:
        return P.copy()
    P = np.unique(P, axis=0)
    leq = dominated_reference(P, P)
    np.fill_diagonal(leq, False)
    return P[~leq.any(axis=1)]


def insert_maximal_reference(pruned, x):
    """_insert_maximal with a reduction over an (m, d) array; reference."""
    if pruned.shape[0] and np.any(np.all(pruned >= x[None, :], axis=1)):
        return pruned
    if pruned.shape[0]:
        pruned = pruned[~np.all(pruned <= x[None, :], axis=1)]
    return np.vstack([pruned, x[None, :]])


class BufferedRejection:
    """Rejection that returns exactly n rows and keeps the rest of its last
    chunk, re-checked against the region of the next call; reference."""

    def __init__(self, chunk=4096):
        self.chunk, self.attempts = chunk, 0
        self.buffer = None

    def draw(self, region, gen, n):
        out = []
        if self.buffer is not None:
            out = list(self.buffer[region.contains_batch(self.buffer)])
        while len(out) < n:
            X = gen.random((self.chunk, region.dimension))
            self.attempts += self.chunk
            out.extend(X[region.contains_batch(X)])
        self.buffer = np.array(out[n:]).reshape(-1, region.dimension)
        return np.array(out[:n])


def pool_loop_reference(budget, d, gen, sampler, samplers):
    """monotone._pool_loop under "auto" as a pool of exactly _POOL_SIZE
    rows beside a rejection buffer, joined by np.delete and np.vstack;
    reference.  Appends its sampler to ``samplers``."""
    assert sampler == "auto"
    region = StaircaseRegion.empty(d)
    rejection = BufferedRejection()
    samplers.append(rejection)
    pool = np.empty((0, d))
    for _ in range(budget):
        need = monotone._POOL_SIZE - pool.shape[0]
        if need > 0:
            pool = np.vstack([pool, rejection.draw(region, gen, need)])
        sel = gen.choice(pool.shape[0], monotone._SCORE_SUBSAMPLE,
                         replace=False)
        P = pool[sel]
        geq = monotone._dominated(P, P, np.greater_equal)
        pick = int(np.argmax(geq.sum(axis=0) + geq.sum(axis=1)))
        pool = np.delete(pool, sel[pick], axis=0)
        x = P[pick]
        after = region.with_fail(x) if (yield x) else region.with_safe(x)
        pool, region = pool[after.contains_batch(pool)], after
    return region, sampler


# signed zeros, ties, a tiny and the largest float below 1, mixed with
# arbitrary floats of the unit interval
EDGE_COORD = st.sampled_from(
    [0.0, -0.0, 2.0 ** -60, 0.25, 0.5, 1.0 - 2.0 ** -53, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def point_pairs(draw):
    """(X, G) of d = 1-5 columns; G may be empty and repeats rows of X."""
    d = draw(st.integers(1, 5))
    row = st.lists(EDGE_COORD, min_size=d, max_size=d)
    X = draw(st.lists(row, min_size=1, max_size=8))
    G = draw(st.lists(row | st.sampled_from(X), max_size=8))
    return np.array(X), np.array(G, dtype=float).reshape(-1, d)


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_bounds(a, b):
    """Both ends equal to the bit, and the same kind and query count."""
    return (same_bits(np.array([a.lower, a.upper]), np.array([b.lower, b.upper]))
            and (a.kind, a.alpha, a.queries_used)
            == (b.kind, b.alpha, b.queries_used))


class TestDominance:
    def test_antichain(self):
        assert is_antichain(np.array([[0.2, 0.8], [0.8, 0.2]]))
        assert not is_antichain(np.array([[0.2, 0.2], [0.8, 0.8]]))
        assert is_antichain(np.empty((0, 3)))

    def test_maximal_minimal(self):
        P = np.array([[0.2, 0.2], [0.5, 0.5], [0.3, 0.1]])
        assert maximal_points(P).tolist() == [[0.5, 0.5]]
        mn = minimal_points(P)
        assert sorted(mn.tolist()) == [[0.2, 0.2], [0.3, 0.1]]

    @given(st.integers(0, 10_000), st.integers(1, 12), st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_maximal_preserves_union_volume(self, seed, m, d):
        P = random_points(seed, m, d)
        Q = maximal_points(P)
        assert is_antichain(Q)
        assert lower_orthant_volume(Q) == pytest.approx(
            lower_orthant_volume(P), abs=1e-12)


    @given(point_pairs())
    @settings(max_examples=300, deadline=None)
    def test_primitives_match_the_tensor_forms(self, pair):
        X, G = pair
        for cmp in (np.less_equal, np.greater_equal):
            want = dominated_reference(X, G, cmp)
            assert same_bits(monotone._dominated(X, G, cmp), want)
            assert same_bits(monotone._covered(X, G, cmp), want.any(axis=1))
        P = np.vstack([X, G])
        assert same_bits(maximal_points(P), maximal_reference(P))
        assert same_bits(minimal_points(P), -maximal_reference(-P))
        # insert every row of X, one at a time, into the antichains of G;
        # a minimal antichain is the negated maximal one of -G
        got = want = maximal_reference(G) if G.shape[0] else G
        low = flip = -maximal_reference(-G) if G.shape[0] else G
        for x in X:
            got = monotone._insert_maximal(got, x)
            want = insert_maximal_reference(want, x)
            assert same_bits(got, want)
            low = monotone._insert_maximal(low, x, np.greater_equal)
            flip = -insert_maximal_reference(-flip, -x)
            assert same_bits(low, flip)


class TestOrthantVolumes:
    def test_hand_cases(self):
        assert lower_orthant_volume(np.array([[0.5, 0.5]])) == pytest.approx(0.25)
        assert lower_orthant_volume(np.array([[0.8, 0.2]])) == pytest.approx(0.16)
        # overlap of the two boxes is 0.5 * 0.2
        both = np.array([[0.5, 0.5], [0.8, 0.2]])
        assert lower_orthant_volume(both) == pytest.approx(0.25 + 0.16 - 0.10)
        assert upper_orthant_volume(np.array([[0.2, 0.8]])) == pytest.approx(0.16)
        assert lower_orthant_volume(np.array([[0.5, 0.5, 0.5]])) == \
            pytest.approx(0.125)
        assert lower_orthant_volume(np.empty((0, 2))) == 0.0

    @given(st.integers(0, 10_000), st.integers(1, 8), st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_inclusion_exclusion(self, seed, m, d):
        P = random_points(seed, m, d)
        assert lower_orthant_volume(P) == pytest.approx(
            incl_excl_lower(P), abs=1e-10)

    @given(st.integers(0, 10_000), st.integers(1, 8), st.integers(2, 4))
    @settings(max_examples=30, deadline=None)
    def test_upper_is_flipped_lower(self, seed, m, d):
        P = random_points(seed, m, d)
        assert upper_orthant_volume(P) == pytest.approx(
            lower_orthant_volume(1.0 - P), abs=1e-12)

    @given(st.integers(0, 10_000), st.integers(1, 8), st.integers(2, 4))
    @settings(max_examples=30, deadline=None)
    def test_adding_a_point_grows_the_union(self, seed, m, d):
        P = random_points(seed, m + 1, d)
        assert lower_orthant_volume(P) >= \
            lower_orthant_volume(P[:-1]) - 1e-12

    @given(st.integers(4, 5), st.data())
    @settings(max_examples=80, deadline=None)
    def test_sweep_and_slabs_within_the_stated_bound(self, d, data):
        # the d = 4 sweep (directly, and under the d = 5 slabs) and the
        # slab form it replaced, on antichains with tied and repeated
        # coordinates, the smallest and largest coordinates below 1, and
        # exact volumes; both sides, the safe one flipped in floats
        coord = st.sampled_from([0.0, 1.0, 0.5, 0.25, 2.0 ** -60,
                                 1.0 - 2.0 ** -53]) | st.floats(0.0, 1.0)
        P = np.array(data.draw(st.lists(
            st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=9)))
        for A, exact in ((maximal_points(P), None),
                         (maximal_points(1.0 - P), exact_upper_volume(
                             minimal_points(P)))):
            exact = exact_lower_volume(A) if exact is None else exact
            bound = Fraction(gamma(_rounding_terms(d, A.shape[0]))) * exact
            # below 2^-900 underflowing products may exceed the bound
            if exact < Fraction(2.0 ** -900):
                continue
            for got in (monotone._vol_lower_union(A), slab_lower_volume(A)):
                assert abs(Fraction(got) - exact) <= bound

    @given(st.integers(2, 6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_union_volume_ignores_the_row_order(self, d, data):
        # a run's bounds read its antichains in the order its loop built
        # them, bounds_from_design in lexicographic order: both sides, the
        # safe one flipped in floats, where 1 - s can tie first coordinates
        # of distinct generators (1 - 2^-60 == 1 - 0.0)
        P = np.array(data.draw(st.lists(
            st.lists(EDGE_COORD, min_size=d, max_size=d), min_size=1,
            max_size=9)))
        for A in (maximal_points(P), 1.0 - minimal_points(P)):
            order = data.draw(st.permutations(range(A.shape[0])))
            assert same_bits(np.float64(monotone._vol_lower_union(A[order])),
                             np.float64(monotone._vol_lower_union(A)))

    def test_flipped_safe_ties_keep_their_bits(self):
        # three safe generators whose first coordinates all flip to 1.0; a
        # sweep that kept tied rows in the order given summed them to
        # 0.9999999999999999 in some orders and to 1.0 in others
        S = np.array([[1.1102230246251565e-16, 0.0],
                      [9.085417618336928e-17, 7.310780482222978e-16],
                      [0.0, 0.5]])
        vols = {monotone._vol_lower_union(1.0 - S[list(order)])
                for order in itertools.permutations(range(3))}
        assert vols == {1.0}

    def test_integer_sweep_is_the_exact_volume(self):
        # the exact oracle of the d = 4 goldens against the slab oracle
        gen = np.random.default_rng(4)
        for m in (1, 5, 12):
            P = np.vstack([gen.random((m, 4)), np.full((1, 4), 2.0 ** -60)])
            P[:, 2] = np.round(P[:, 2], 1)     # tied heights
            assert exact_sweep_volume4(P) == exact_lower_volume(P)

    @given(st.integers(3, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rounding_stays_within_the_stated_bound(self, d, data):
        # tied coordinates, zeros, ones, and coordinates small enough for
        # products to underflow
        coord = st.sampled_from([0.0, 1.0, 0.5, 1 / 3, 1e-200]) \
            | st.floats(0.0, 1.0)
        P = np.array(data.draw(st.lists(
            st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=10)))
        F, S = maximal_points(P), minimal_points(P)
        fail, safe = exact_lower_volume(F), exact_upper_volume(S)
        for got, exact, m in ((lower_orthant_volume(P), fail, F.shape[0]),
                              (upper_orthant_volume(P), safe, S.shape[0])):
            # below 2^-900 the absolute error of underflowing products
            # may exceed gamma_N times the volume
            if exact >= Fraction(2.0 ** -900):
                assert abs(Fraction(got) - exact) <= \
                    Fraction(gamma(_rounding_terms(d, m))) * exact
        none = np.empty((0, d))
        lower, _ = StaircaseRegion(F, none, d).volume_bounds()
        _, upper = StaircaseRegion(none, S, d).volume_bounds()
        assert Fraction(lower) <= fail
        assert Fraction(upper) >= 1 - safe

    def test_rejects_outside_cube(self):
        with pytest.raises(ValueError):
            lower_orthant_volume(np.array([[1.2, 0.5]]))

    @pytest.mark.parametrize("call", [
        lambda P: LabeledDesign(np.vstack([P, [[0.2, 0.2]]]),
                                np.array([True, False])),
        lower_orthant_volume,
        upper_orthant_volume,
        lambda P: StaircaseRegion(P, np.empty((0, 2)), 2),
    ], ids=["design", "lower", "upper", "region"])
    def test_nan_is_outside_the_cube(self, call):
        # NaN fails every comparison, so a check for coordinates below 0
        # or above 1 lets it through; each entry point must reject it
        with pytest.raises(ValueError, match="unit cube"):
            call(np.array([[np.nan, 0.5]]))


def height(stair, t):
    """phi(t) of a staircase: a point (t, y) is covered iff y <= phi(t)."""
    return stair._y0[np.searchsorted(stair.x, t, side="left")]


def staircase(P):
    """The ``_Staircase2`` of a 2-D maximal antichain in any row order:
    sorted by first coordinate, ties (flipped safe abscissae) by
    descending height."""
    P = np.asarray(P, dtype=float).reshape(-1, 2)
    order = np.lexsort((-P[:, 1], P[:, 0]))
    return _Staircase2(P[order, 0], P[order, 1])


def reach(stair, h):
    """Largest x_j with y_j >= h (0 if none): the union's extent at height h."""
    return stair._x0[np.searchsorted(stair._neg_y, -h, side="right")]


def area_below(stair, t):
    """Area of the union left of t."""
    return stair._below(t)[1]


def gain(stair, X, Y):
    """Area of [0, X] x [0, Y] outside the union, per candidate anywhere:
    the reference for ``_gain_above``, which takes candidates above it."""
    t = np.minimum(X, reach(stair, Y))
    covered = Y * t + area_below(stair, X) - area_below(stair, t)
    return np.maximum(X * Y - covered, 0.0)


def reference_boundary_query(fail, safe, grid):
    """Reference for ``_boundary_query``: the candidates stacked and
    compacted to the region, each scored by the general ``gain`` with its
    own binary searches."""
    def inside(X, Y):
        return (Y > height(fail, X)) & (1.0 - Y > height(safe, 1.0 - X))

    lo = _log(height(fail, grid))
    hi = _log(1.0 - height(safe, 1.0 - grid))
    cand = [np.column_stack([grid, np.exp(0.5 * (lo + hi))])]
    if fail.x.size:
        rows = grid[grid < fail.y[-1]]
        right = 1.0 - reach(safe, 1.0 - rows)
        cand.append(np.column_stack([np.sqrt(fail.x[-1] * right), rows]))
    P = np.vstack(cand)
    keep = np.flatnonzero(inside(P[:, 0], P[:, 1]))
    if keep.size == 0:
        return None
    P = P[keep]
    score = gain(fail, P[:, 0], P[:, 1]) * gain(safe, 1.0 - P[:, 0],
                                                1.0 - P[:, 1])
    best = int(np.argmax(score))
    x, j = P[best], keep[best]
    if j >= grid.size or not fail.x.size or not safe.x.size:
        return x
    t = np.log(x[0])
    est_fail = np.interp(t, _log(fail.x), _log(fail.y))
    est_safe = np.interp(t, _log(1.0 - safe.x[::-1]), _log(1.0 - safe.y[::-1]))
    band = _MID_BAND * (hi[j] - lo[j])
    est = np.clip(0.5 * (np.clip(est_fail, lo[j], hi[j])
                         + np.clip(est_safe, lo[j], hi[j])),
                  lo[j] + band, hi[j] - band)
    y = np.exp(est)
    if inside(x[:1], np.array([y]))[0]:
        x = np.array([x[0], y])
    return x


def reference_strip_query(region):
    """Reference for ``_strip_query``: a plain loop over the sorted
    abscissae, membership by ``contains_batch`` one point at a time, and
    each candidate scored by fresh staircases."""
    F, S = region.fail_generators, region.safe_generators
    fail, safe = staircase(F), staircase(1.0 - S)
    b = sorted({0.0, 1.0, *F[:, 0], *S[:, 0]})
    best, pick = -1.0, None
    for left, right in zip(b, b[1:]):
        t = 0.5 * (left + right)
        phi = max((y for x, y in zip(fail.x, fail.y) if x >= t), default=0.0)
        psi = 1.0 - max((y for x, y in zip(safe.x, safe.y) if x >= 1.0 - t),
                        default=0.0)
        x = np.array([t, 0.5 * (phi + psi)])
        if not region.contains_batch(x[None, :])[0]:
            continue
        score = (gain(staircase(F), x[:1], x[1:])[0]
                 * gain(staircase(1.0 - S), 1.0 - x[:1], 1.0 - x[1:])[0])
        if score > best:
            best, pick = score, x
    return pick


def strip_scores_are_gains(F, S, fail, safe):
    """True when ``_strip_query``'s scores, by ``_gain_above``, have the
    bits of the general ``gain`` on both sides, at every strip midpoint in
    the region: also where rounding puts 1 - P on the flipped staircase."""
    P, inside = monotone._strip_midpoints(F, S, fail, safe)
    P = P[inside]
    return all(np.array_equal(monotone._delta_lower_volume(st, Q).view(np.int64),
                              gain(st, Q[:, 0], Q[:, 1]).view(np.int64))
               for st, Q in ((fail, P), (safe, 1.0 - P)))


# coordinates that make shared abscissae, zero and unit heights and
# floats next to the cube's edges common
_EDGE_COORDS = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, 0.25, 0.75, 2.0 ** -60, 1.0 - U]),
    st.floats(0.0, 1.0))


@given(st.lists(st.tuples(_EDGE_COORDS, _EDGE_COORDS, st.booleans()),
                max_size=30))
@settings(max_examples=500, deadline=None)
def test_strip_midpoint_mask_is_contains_batch(labelled):
    # any valid 2-D region: maximal fail points, and the minimal safe
    # points that no fail generator dominates; either side may be empty
    P = np.array([(a, b) for a, b, _ in labelled]).reshape(-1, 2)
    fail = np.array([f for _, _, f in labelled], dtype=bool)
    F = maximal_points(P[fail]).reshape(-1, 2)
    S = P[~fail]
    S = S[~np.array([np.all(s <= F, axis=1).any() for s in S], dtype=bool)]
    S = minimal_points(S).reshape(-1, 2)[::-1]   # by first coordinate
    region = StaircaseRegion(F, S, 2)
    M, inside = monotone._strip_midpoints(F, S, staircase(F),
                                          staircase(1.0 - S))
    assert np.array_equal(inside, region.contains_batch(M))


@given(st.lists(st.tuples(_EDGE_COORDS, _EDGE_COORDS, st.booleans()),
                max_size=30))
@settings(max_examples=500, deadline=None)
def test_sorted_labels_follow_the_region_updates(labelled):
    # the d = 2 engine's sorted generator arrays against the generic
    # region: after each label they are the antichains of the points
    # labelled so far, in order of first coordinate; a covered point keeps
    # its side's array object; and a label raises exactly where
    # with_fail or with_safe raises, leaving both sides as they were
    region = StaircaseRegion.empty(2)
    F, S = region.fail_generators, region.safe_generators
    kept = {True: [], False: []}
    for a, b, failed in labelled:
        x = np.array([a, b])
        try:
            expected = region.with_fail(x) if failed else region.with_safe(x)
        except MonotonicityViolation:
            with pytest.raises(MonotonicityViolation):
                monotone._label2(F, S, x, failed)
            continue
        F_new, S_new = monotone._label2(F, S, x, failed)
        assert (F_new is F) == (expected.fail_generators
                                is region.fail_generators)
        assert (S_new is S) == (expected.safe_generators
                                is region.safe_generators)
        F, S, region = F_new, S_new, expected
        kept[failed].append(x)
        fail = np.array(kept[True]).reshape(-1, 2)
        safe = np.array(kept[False]).reshape(-1, 2)
        assert np.array_equal(F, maximal_points(fail).reshape(-1, 2))
        assert np.array_equal(S, minimal_points(safe).reshape(-1, 2)[::-1])


def same_query(a, b):
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def labelled_staircases(seed, case):
    """Fail and flipped safe staircases of points labelled by a monotone
    curve in log-log coordinates, a third of their coordinates moved onto
    grid values, with the grid."""
    gen = np.random.default_rng(seed)
    grid = 10.0 ** ((np.arange(1440) + gen.random()) / 120 - 12)
    P = 10.0 ** (-gen.random((int(gen.integers(1, 40)), 2))
                 * gen.uniform(0.5, 12))
    snap = gen.random(P.shape) < 0.3
    P[snap] = grid[gen.integers(0, grid.size, snap.sum())]
    a, c = gen.uniform(0.2, 5), gen.normal(-6, 3)
    fail = np.log(P[:, 0]) + a * np.log(P[:, 1]) < c
    if case == "no-rows":
        # a fail point at the lowest grid height and abscissa 1
        # leaves no row below the fail staircase
        q = np.array([1.0, grid[0]])
        P = np.vstack([P, q])
        fail = np.append(fail, True) | np.all(P <= q, axis=1)
    fail[:] = {"no-fail": False, "no-safe": True}.get(case, fail)
    F = maximal_points(P[fail]) if fail.any() else np.empty((0, 2))
    S = minimal_points(P[~fail]) if not fail.all() else np.empty((0, 2))
    return staircase(F), staircase(1.0 - S), grid


class TestStaircase2:
    """The sorted 2-D staircase against the generic volume and region code."""

    @given(st.integers(0, 10_000), st.integers(0, 12))
    @settings(max_examples=40, deadline=None)
    def test_gain_height_and_reach(self, seed, m):
        gen = np.random.default_rng(seed)
        G = maximal_points(gen.random((m, 2))) if m else np.empty((0, 2))
        C = gen.random((24, 2))
        if m:
            # candidates on generators and on their abscissae: the ties
            pick = gen.integers(0, G.shape[0], 8)
            C[:4] = G[pick[:4]]
            C[4:8, 0] = G[pick[4:], 0]
        stair = staircase(G)
        base = lower_orthant_volume(G)
        ref = [lower_orthant_volume(np.vstack([G, c])) - base for c in C]
        assert gain(stair, C[:, 0], C[:, 1]) == pytest.approx(ref, abs=1e-12)
        region = StaircaseRegion(G, np.empty((0, 2)), 2)
        assert np.array_equal(C[:, 1] > height(stair, C[:, 0]),
                              region.contains_batch(C))
        extent = [max([g[0] for g in G if g[1] >= h], default=0.0)
                  for h in C[:, 1]]
        assert reach(stair, C[:, 1]).tolist() == extent

    @given(st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["mixed", "no-fail", "no-safe", "no-rows"]))
    @settings(max_examples=40, deadline=None)
    def test_region_candidates_reach_below_their_abscissa(self, seed, case):
        # the identities the 2-D query scores by: above the staircase
        # reach(Y) < X, the area below reach(Y) is the running sum at its
        # step, and gain needs no minimum with X
        fail, _, grid = labelled_staircases(seed, case)
        gen = np.random.default_rng(seed)
        X = np.concatenate([grid[gen.integers(0, grid.size, 40)],
                            gen.random(40)])
        Y = np.concatenate([gen.random(40), grid[gen.integers(0, grid.size, 40)]])
        if fail.x.size:
            X[:10], Y[10:20] = fail.x[gen.integers(0, fail.x.size, 10)], \
                fail.y[gen.integers(0, fail.x.size, 10)]
        above = Y > height(fail, X)
        X, Y = X[above], Y[above]
        r = np.searchsorted(-fail.y, -Y, side="right")
        assert np.all(reach(fail, Y) < X)
        assert np.array_equal(area_below(fail, reach(fail, Y)).view(np.int64),
                              fail._cum[r].view(np.int64))
        assert np.array_equal(
            fail._gain_above(X, Y, area_below(fail, X)).view(np.int64),
            gain(fail, X, Y).view(np.int64))

    @given(st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["mixed", "no-fail", "no-safe", "no-rows"]))
    @settings(max_examples=60, deadline=None)
    def test_boundary_query_bits(self, seed, case):
        fail, safe, grid = labelled_staircases(seed, case)
        assert same_query(_boundary_query(fail, safe, grid, 1.0 - grid),
                          reference_boundary_query(fail, safe, grid))
        if case == "no-rows":
            assert fail.y[-1] <= grid[0]

    def test_no_candidate_in_a_sub_floor_region(self):
        # everything above height 1e-13 right of 5e-13 is safe: no grid
        # abscissa (>= 1e-12) leaves room for a candidate
        fail = staircase(np.empty((0, 2)))
        safe = staircase(1.0 - np.array([[5e-13, 1e-13]]))
        grid = np.logspace(-12, -1e-9, 50)
        assert _boundary_query(fail, safe, grid, 1.0 - grid) is None
        assert reference_boundary_query(fail, safe, grid) is None

    def test_a_tie_keeps_the_vertical_candidate(self):
        # one column m whose bracket midpoint is m, and one row m whose
        # horizontal midpoint is sqrt(m * m) = m: the same point, with the
        # same score, in both sets.  The vertical one wins and is moved.
        m = np.exp(0.5 * (_log(np.zeros(1)) + _log(np.ones(1))))
        fail = staircase(np.array([[m[0] * m[0], 0.5]]))
        safe = staircase(1.0 - np.array([[0.5, 0.5]]))
        assert np.sqrt(fail.x[-1]) == m[0]
        x = _boundary_query(fail, safe, m, 1.0 - m)
        assert x[0] == m[0] and x[1] != m[0]
        assert same_query(x, reference_boundary_query(fail, safe, m))

    def test_safe_abscissae_that_flip_to_one_float(self):
        # safe generators at x = 2^-61 and 2^-60 both flip to abscissa 1.0;
        # built as a d = 2 run builds it, reversed and flipped, the safe
        # staircase keeps its heights non-increasing at that abscissa, as
        # the searches need, and agrees with the sorting helper
        F = S = np.empty((0, 2))
        for x, failed in (([2.0 ** -61, 0.5], False),
                          ([2.0 ** -60, 0.25], False), ([0.3, 0.1], True)):
            F, S = monotone._label2(F, S, np.array(x), failed)
        fail = _Staircase2(F[:, 0].copy(), F[:, 1].copy())
        safe = _Staircase2(1.0 - S[::-1, 0], 1.0 - S[::-1, 1])
        assert safe.x.tolist() == [1.0, 1.0]
        assert np.all(np.diff(safe.y) <= 0.0)
        ref = staircase(1.0 - S)
        assert np.array_equal(ref.x, safe.x) and np.array_equal(ref.y, safe.y)
        grid = 10.0 ** ((np.arange(1440) + 0.5) / 120 - 12)
        x = _boundary_query(fail, safe, grid, 1.0 - grid)
        assert x is not None
        assert same_query(x, reference_boundary_query(fail, safe, grid))

    @given(st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["mixed", "no-fail", "no-safe", "no-rows"]))
    @settings(max_examples=30, deadline=None)
    def test_columns_follow_the_grid(self, seed, case):
        # one pair of staircases queried at two grids, twice in a row and
        # then back, keeps its columns for the grid last asked for; each
        # query has the bits of fresh staircases
        fail, safe, grid = labelled_staircases(seed, case)
        other = grid[1::2] * 0.75
        flips = {id(g): 1.0 - g for g in (grid, other)}
        for g in (grid, grid, other, other, grid):
            fresh = labelled_staircases(seed, case)[:2]
            assert same_query(_boundary_query(fail, safe, g, flips[id(g)]),
                              reference_boundary_query(*fresh, g))

    @pytest.mark.parametrize("name", ["example1:d=2:p=5e-4", "linear:d=2:y=1.7"])
    def test_boundary_query_bits_in_a_run(self, name, monkeypatch):
        # every query of a run, against the reference on the same staircases
        query, calls = monotone._boundary_query, []

        def both(fail, safe, grid, flip):
            x = query(fail, safe, grid, flip)
            calls.append(same_query(x, reference_boundary_query(fail, safe, grid)))
            return x

        monkeypatch.setattr(monotone, "_boundary_query", both)
        sequential_bounder(get_benchmark(name).function, 200,
                           RandomStream(202, 0), sampler="auto")
        assert len(calls) == 200 and all(calls)


class TestLabeledDesign:
    def test_shape_checks(self):
        with pytest.raises(ValueError):
            LabeledDesign(np.zeros((3, 2)), np.array([True, False]))
        with pytest.raises(ValueError):
            LabeledDesign(np.zeros((2, 2)), np.array([True, False]),
                          values=np.array([1.0]))
        with pytest.raises(ValueError):
            LabeledDesign(np.array([[1.5, 0.5]]), np.array([True]))

    def test_consistency_check(self):
        # safe point dominated by a fail point breaks monotonicity
        pts = np.array([[0.6, 0.6], [0.4, 0.4]])
        bad = LabeledDesign(pts, np.array([True, False]))
        with pytest.raises(MonotonicityViolation):
            StaircaseRegion.from_design(bad)
        ok = LabeledDesign(pts, np.array([False, True]))
        StaircaseRegion.from_design(ok)

    @given(st.integers(0, 10_000), st.integers(0, 10), st.integers(1, 4),
           st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_from_design_matches_brute_force(self, seed, m, d, monotone):
        # coordinates on a 4-level grid, so rows tie exactly in some or all
        # coordinates; a threshold on the coordinate sum labels
        # monotonically, random labels mostly conflict
        gen = np.random.default_rng(seed)
        P = gen.integers(0, 4, (m, d)) / 3.0
        fail = P.sum(axis=1) < 0.5 * d if monotone else gen.random(m) < 0.5
        design = LabeledDesign(P, fail)

        def leq(a, b):
            return all(u <= v for u, v in zip(a, b))

        F = {tuple(x) for x in P[fail]}
        S = {tuple(x) for x in P[~fail]}
        if any(leq(s, f) for s in S for f in F):
            with pytest.raises(MonotonicityViolation):
                StaircaseRegion.from_design(design)
            return
        r = StaircaseRegion.from_design(design)
        top = {f for f in F if not any(g != f and leq(f, g) for g in F)}
        bottom = {s for s in S if not any(g != s and leq(g, s) for g in S)}
        assert len(r.fail_generators) == len(top)
        assert {tuple(g) for g in r.fail_generators} == top
        assert len(r.safe_generators) == len(bottom)
        assert {tuple(g) for g in r.safe_generators} == bottom


class TestStaircaseRegion:
    def region(self):
        design = LabeledDesign(np.array([[0.2, 0.3], [0.6, 0.7]]),
                               np.array([True, False]))
        return StaircaseRegion.from_design(design)

    def test_empty_contains_everything(self):
        r = StaircaseRegion.empty(3)
        assert contains(r, [0.5, 0.5, 0.5])
        assert r.volume_bounds() == (0.0, 1.0)

    def test_membership(self):
        r = self.region()
        assert not contains(r, [0.1, 0.1])     # below the fail generator
        assert not contains(r, [0.9, 0.9])     # above the safe generator
        assert contains(r, [0.5, 0.1])
        X = np.array([[0.1, 0.1], [0.9, 0.9], [0.5, 0.1], [0.2, 0.3]])
        assert r.contains_batch(X).tolist() == [False, False, True, False]

    def test_batch_matches_scalar(self):
        r = self.region()
        X = random_points(7, 200, 2)
        batch = r.contains_batch(X)
        assert all(contains(r, x) == b for x, b in zip(X, batch))

    def test_updates_shrink(self):
        r = self.region()
        r2 = r.with_fail(np.array([0.5, 0.1]))
        assert not contains(r2, [0.5, 0.1])
        assert not contains(r2, [0.3, 0.05])
        r3 = r.with_safe(np.array([0.5, 0.1]))
        assert not contains(r3, [0.6, 0.5])
        lo, hi = r.volume_bounds()
        lo2, hi2 = r2.volume_bounds()
        assert lo2 > lo and hi2 == hi

    @staticmethod
    def check_against_reference(rng, d, n):
        for _ in range(5):
            P = rng.random((30, d))
            fail = P.sum(axis=1) < 0.4 * d      # a monotone labelling
            r = StaircaseRegion.from_design(LabeledDesign(P, fail))
            X = rng.random((n, d))
            # rows that tie generator coordinates exactly, in all
            # coordinates or in some, on both sides
            G = np.vstack([r.fail_generators, r.safe_generators])
            ties = G[rng.integers(0, G.shape[0], 200)]
            mix = rng.random((200, d)) < 0.5
            ties = np.where(mix, ties, rng.random((200, d)))
            X = np.vstack([X, G, ties])
            assert np.array_equal(r.contains_batch(X),
                                  contains_reference(r, X))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_batch_matches_broadcast_reference(self, d):
        self.check_against_reference(np.random.default_rng(40 + d), d, 300)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_large_batch_matches_broadcast_reference(self, d):
        # batches of _TWO_PASS_ROWS rows or more meet the largest safe
        # orthant first
        self.check_against_reference(np.random.default_rng(60 + d), d,
                                     _TWO_PASS_ROWS)

    def test_batch_with_an_empty_side(self):
        d = 3
        G = np.array([[0.2, 0.5, 0.4], [0.5, 0.2, 0.3], [0.4, 0.4, 0.1]])
        X = np.vstack([random_points(8, 200, d), G, np.minimum(G, 0.3)])
        none = np.empty((0, d))
        for r in (StaircaseRegion(G, none, d), StaircaseRegion(none, G, d),
                  StaircaseRegion.empty(d)):
            batch = r.contains_batch(X)
            assert np.array_equal(batch, contains_reference(r, X))
        assert not StaircaseRegion(G, none, d).contains_batch(G).any()
        assert not StaircaseRegion(none, G, d).contains_batch(G).any()
        assert StaircaseRegion.empty(d).contains_batch(X).all()

    def test_empty_batch(self):
        for r in (self.region(), StaircaseRegion.empty(2)):
            out = r.contains_batch(np.empty((0, 2)))
            assert out.shape == (0,) and out.dtype == bool

    def test_update_conflicts(self):
        r = self.region()
        with pytest.raises(MonotonicityViolation):
            r.with_fail(np.array([0.9, 0.9]))
        with pytest.raises(MonotonicityViolation):
            r.with_safe(np.array([0.1, 0.1]))

    def test_safe_generator_is_stored_exactly(self):
        # 1 - (1 - 1e-17) rounds to 0, which would certify [0, 0.5] safe
        # although only [1e-17, 0.5] was observed; g = 1e20 x1 + x2 with
        # threshold 0.7 labels that point safe and [0, 0.6] failed
        r = StaircaseRegion.empty(2).with_safe([1e-17, 0.5])
        assert r.safe_generators.tolist() == [[1e-17, 0.5]]
        r = r.with_fail([0.0, 0.6])
        assert r.fail_generators.tolist() == [[0.0, 0.6]]

    @given(st.integers(0, 10_000), st.integers(2, 4), st.integers(1, 9))
    @settings(max_examples=30, deadline=None)
    def test_updates_keep_the_region_valid(self, seed, d, tenths):
        # the updates skip the constructor's checks; points labelled by a
        # monotone function, most of them close to its threshold, must
        # still leave antichains that certify disjoint, sound sets
        prob = make_linear_toy(d, 0.1 * tenths * d)
        gen = np.random.default_rng(seed)
        X = gen.random((60, d))
        offset = X.sum(axis=1) - prob.function.threshold \
            - 0.05 * gen.standard_normal(60)
        X = np.clip(X - offset[:, None] / d, 0.0, 1.0)
        failed = prob.function.evaluator(X) < prob.function.threshold
        r = StaircaseRegion.empty(d)
        for x, fail in zip(X, failed):
            r = r.with_fail(x) if fail else r.with_safe(x)
        rebuilt = StaircaseRegion(r.fail_generators, r.safe_generators, d)
        lo, hi = rebuilt.volume_bounds()
        assert lo <= prob.p_exact <= hi

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=300, deadline=None)
    def test_label_step_matches_the_region_updates(self, d, data):
        # the d >= 3 engine's one comparison pass against with_fail or
        # with_safe followed by a membership test of the stock: the same
        # generator arrays, bit for bit and in the same order, and the
        # same stock rows; a point contradicting the other side raises in
        # both, and a point of the region never does
        row = st.lists(EDGE_COORD, min_size=d, max_size=d)
        region = StaircaseRegion.empty(d)
        for x in data.draw(st.lists(row, max_size=12)):
            x = np.array(x)
            try:
                region = (region.with_fail(x) if data.draw(st.booleans())
                          else region.with_safe(x))
            except MonotonicityViolation:
                pass
        F, S = region.fail_generators, region.safe_generators
        G = np.vstack([F, S])
        # arbitrary rows, the generators themselves and rows mixing their
        # coordinates with arbitrary ones, so the stock ties the faces
        X = [np.array(r) for r in data.draw(st.lists(row, max_size=12))]
        if G.shape[0]:
            for _ in range(data.draw(st.integers(0, 12))):
                g = G[data.draw(st.integers(0, G.shape[0] - 1))]
                X.append(np.where(data.draw(st.lists(
                    st.booleans(), min_size=d, max_size=d)), g,
                    data.draw(row)))
        X = np.array(X).reshape(-1, d)
        stock = X[region.contains_batch(X)]
        for failed in (True, False):
            for x in G:
                try:
                    region.with_fail(x) if failed else region.with_safe(x)
                except MonotonicityViolation:
                    with pytest.raises(MonotonicityViolation):
                        monotone._label(F, S, stock, x, failed)
            for x in stock:
                after = region.with_fail(x) if failed else region.with_safe(x)
                got = monotone._label(F, S, stock, x, failed)
                assert same_bits(got[0], after.fail_generators)
                assert same_bits(got[1], after.safe_generators)
                assert same_bits(got[2], stock[after.contains_batch(stock)])

    def test_label_step_raises_on_a_conflict(self):
        F = np.array([[0.6, 0.6, 0.6]])
        S = np.array([[0.3, 0.9, 0.4]])
        stock = np.array([[0.7, 0.1, 0.2], [0.9, 0.8, 0.5]])
        for x, failed in ((np.array([0.3, 0.9, 0.4]), True),
                          (np.array([0.95, 0.95, 0.4]), True),
                          (np.array([0.6, 0.6, 0.6]), False),
                          (np.array([0.1, 0.2, 0.3]), False)):
            with pytest.raises(MonotonicityViolation,
                               match="a safe point is componentwise below "
                                     "a fail point"):
                monotone._label(F, S, stock, x, failed)

    def test_updates_do_not_keep_their_predecessor(self):
        # a d = 1 run makes one region per query: each must be freed once
        # the engine moves on
        r = self.region()
        ref = weakref.ref(r)
        r2 = r.with_fail(np.array([0.5, 0.1]))
        mask = r2.contains_batch(np.array([[0.4, 0.05], [0.5, 0.5]]))
        assert mask.tolist() == [False, True]
        del r
        gc.collect()
        assert ref() is None

    def test_overlapping_construction(self):
        with pytest.raises(MonotonicityViolation):
            StaircaseRegion(np.array([[0.6, 0.6]]), np.array([[0.4, 0.4]]), 2)

    def test_volume_bounds_hand_case(self):
        lo, hi = self.region().volume_bounds()
        assert lo == pytest.approx(0.06)
        assert hi == pytest.approx(1.0 - 0.4 * 0.3)

    def test_sandwich_against_true_monotone_function(self):
        # every certified-fail point must actually fail, every certified-safe
        # point must be safe; the undecided region holds whatever is left
        prob = make_linear_toy(2, 0.8)
        gen = RandomStream(31, 0).generator()
        X = gen.random((60, 2))
        vals = prob.function.evaluator(X)
        design = LabeledDesign(X, vals < prob.function.threshold, vals)
        r = StaircaseRegion.from_design(design)
        Z = gen.random((5_000, 2))
        g = prob.function.evaluator(Z)
        in_fail = np.any(np.all(Z[:, None, :] <= r.fail_generators[None, :, :],
                                axis=2), axis=1)
        in_safe = np.any(np.all(Z[:, None, :] >= r.safe_generators[None, :, :],
                                axis=2), axis=1)
        assert np.all(g[in_fail] < prob.function.threshold)
        assert np.all(g[in_safe] >= prob.function.threshold)
        lo, hi = r.volume_bounds()
        assert lo <= prob.p_exact <= hi


class TestBoundsFromDesign:
    def test_hand_case(self):
        design = LabeledDesign(np.array([[0.2, 0.3], [0.6, 0.7]]),
                               np.array([True, False]))
        b = bounds_from_design(design)
        assert b.lower == pytest.approx(0.06)
        assert b.upper == pytest.approx(0.88)
        assert b.kind == DETERMINISTIC
        assert b.queries_used == 2

    def test_above_six_dimensions_raises(self):
        # exact volumes only: a d = 7 design has no bounds, and a d = 7 run
        # stops before its first query
        d = 7
        design = LabeledDesign(np.vstack([np.full((1, d), 0.4),
                                          np.full((1, d), 0.6)]),
                               np.array([True, False]))
        with pytest.raises(ValueError, match="d <= 6, got d = 7"):
            bounds_from_design(design)
        f = make_example1(d, 5e-3).function
        with pytest.raises(ValueError, match="d <= 6, got d = 7"):
            sequential_bounder(f, 10, RandomStream(8, 0))
        assert f.query_count == 0
        b = bounds_from_design(LabeledDesign(design.points[:, :6], design.fail))
        assert b.kind == DETERMINISTIC
        assert b.lower <= 0.4 ** 6 <= 1.0 - 0.4 ** 6 <= b.upper


class TestRejectionSampler:
    def test_draws_stay_in_region(self):
        r = StaircaseRegion.from_design(LabeledDesign(
            np.array([[0.3, 0.3], [0.7, 0.7]]), np.array([True, False])))
        s = RejectionSampler(chunk=256)
        gen = RandomStream(2, 0).generator()
        X = s.draw_batch(r, gen, 300)
        assert X.shape[1] == 2 and 300 <= X.shape[0] < 300 + 256
        assert r.contains_batch(X).all()
        assert s.draws == X.shape[0] and s.attempts % 256 == 0
        assert s.acceptance_rate == X.shape[0] / s.attempts

    def test_returns_every_region_point_of_whole_chunks(self):
        # no row is held back for a later call: each call returns what its
        # whole chunks accepted, in stream order, and the next call draws on
        r = StaircaseRegion.from_design(LabeledDesign(
            np.array([[0.5, 0.5, 0.5]]), np.array([True])))
        s = RejectionSampler(chunk=16)
        stream = RandomStream(8, 0).generator().random((64, 3))
        inside = r.contains_batch(stream)
        gen = RandomStream(8, 0).generator()
        first = s.draw_batch(r, gen, 5)
        k = int(np.searchsorted(np.cumsum(inside), 5)) // 16 + 1
        assert np.array_equal(first, stream[:16 * k][inside[:16 * k]])
        assert s.draw_batch(r, gen, 0).shape == (0, 3)
        second = s.draw_batch(r, gen, 1)
        assert np.array_equal(second, stream[16 * k:16 * k + 16][
            inside[16 * k:16 * k + 16]])
        assert s.attempts == 16 * (k + 1)
        assert s.draws == first.shape[0] + second.shape[0]

    def test_single_draws_match_region(self):
        # one-point draws against a region that shrinks between calls: each
        # call returns the accepted rows of its whole chunks, all inside the
        # region of that call, and rows of an earlier call that a later
        # label removed are never returned again
        r = StaircaseRegion.from_design(LabeledDesign(
            np.array([[0.5, 0.5]]), np.array([True])))
        s = RejectionSampler(chunk=64)
        gen = RandomStream(3, 0).generator()
        stream = RandomStream(3, 0).generator()
        rows = 0
        for _ in range(20):
            attempts = s.attempts
            X = s.draw_batch(r, gen, 1)
            assert X.shape[0] >= 1 and X.shape[1] == 2
            assert all(contains(r, x) for x in X)
            spent = stream.random((s.attempts - attempts, 2))
            assert np.array_equal(X, spent[r.contains_batch(spent)])
            rows += X.shape[0]
            x = X[0]
            r = r.with_fail(x) if x.sum() < 1.2 else r.with_safe(x)
        assert s.draws == rows and s.attempts % 64 == 0

    def test_leftovers_come_out_in_stream_order(self):
        # a d >= 3 run keeps what rejection accepted beyond the pool behind
        # it, in one stock: at every query the stock holds region points
        # only, at least a pool's worth; a label drops exactly the rows of
        # the orthant it removed and keeps the rest in the order drawn, and
        # only a stock left short of the pool draws again, behind them
        f = make_example1(3, 5e-4).function
        loop = monotone._pool_loop(200, 3, RandomStream(202, 0).generator(),
                                   "auto")
        x, kept, refills = next(loop), None, 0
        for _ in range(199):
            state = loop.gi_frame.f_locals
            stock = state["stock"]
            region = StaircaseRegion(state["F"], state["S"], 3)
            attempts = state["rejection"].attempts
            assert stock.shape[0] >= monotone._POOL_SIZE
            assert region.contains_batch(stock).all()
            assert (stock[:monotone._POOL_SIZE] == x).all(axis=1).any()
            if kept is not None:
                assert np.array_equal(stock[:kept.shape[0]], kept)
                if kept.shape[0] >= monotone._POOL_SIZE:
                    assert stock.shape[0] == kept.shape[0]
                    assert attempts == before
                else:
                    refills += 1
                    assert attempts > before
            before = attempts
            failed = f(x) < f.threshold
            removed = (stock <= x if failed else stock >= x).all(axis=1)
            kept = stock[~removed]
            x = loop.send(failed)
        assert 0 < refills < 199

    @pytest.mark.parametrize("chunk, max_attempts", [(0, 100), (16, 0),
                                                     (-4, 100)])
    def test_rejects_an_empty_chunk_or_attempt_cap(self, chunk,
                                                   max_attempts):
        # a chunk of 0 rows would spend no attempts and never stop
        with pytest.raises(ValueError, match="must be >= 1"):
            RejectionSampler(chunk=chunk, max_attempts=max_attempts)

    def test_stall_reports_the_rows_collected(self):
        # a region of volume 1/16: 64 attempts collect a few rows, short
        # of the request, and the message counts them
        r = StaircaseRegion(np.empty((0, 2)),
                            np.array([[0.25, 0.0], [0.0, 0.25]]), 2)
        chunks = RandomStream(9, 0).generator().random((64, 2))
        got = int(np.count_nonzero(r.contains_batch(chunks)))
        assert 0 < got < 10
        s = RejectionSampler(chunk=16, max_attempts=64)
        with pytest.raises(SamplerStalled,
                           match=f"collected {got}/{got + 5} region points "
                                 "in 64 uniform draws"):
            s.draw_batch(r, RandomStream(9, 0).generator(), got + 5)
        assert s.attempts == 64 and s.draws == got

    def test_stalls_on_tiny_region(self):
        # undecided sliver of volume ~1e-4; cap attempts below 1/volume
        r = StaircaseRegion(np.array([[0.9999, 0.9999]]),
                            np.empty((0, 2)), 2)
        thin = StaircaseRegion(np.array([[0.99995, 1.0]]),
                               np.array([[1.0, 0.0001]]), 2)
        s = RejectionSampler(chunk=16, max_attempts=64)
        gen = RandomStream(4, 0).generator()
        with pytest.raises(SamplerStalled):
            s.draw_batch(thin, gen, 5)


class TestSequentialBounder:
    @pytest.mark.parametrize("d, sampler, budget, seed, rep, expected, name", [
        pytest.param(3, "auto", 60, 202, 0,
                     "(4.156909750672099e-05, 0.0063627345058108195)", None,
                     id="d3"),
        pytest.param(2, "auto", 60, 202, 0,
                     "(0.0004190881990539619, 0.0006051014329112593)", None,
                     id="d2"),
        # the mono-d2 benchmark protocol
        pytest.param(2, "auto", 200, 202, 0,
                     "(0.00047657396480516766, 0.0005266281156562914)", None,
                     id="d2-200"),
        pytest.param(3, "mcmc", 60, 202, 0,
                     "(8.336465252974204e-05, 0.00310031320148807)", None,
                     id="d3-mcmc"),
        # the two cells of the mono-hd benchmark protocol; replication 3
        # of d = 3 is one whose rejection acceptance falls below 5e-3,
        # where "auto" once handed the pool over to the walk
        pytest.param(4, "auto", 200, 202, 0,
                     "(3.4109665226175185e-05, 0.009260691466239203)", None,
                     id="d4-auto"),
        pytest.param(3, "auto", 200, 202, 3,
                     "(0.00022746845905157094, 0.0011732852183625744)",
                     "auto", id="d3-switch"),
        # the walk at d = 3: a chain re-seeded from another, or one whose
        # steps between harvests are all rejected, repeats a state, so the
        # pool holds a point twice (in the scored subsample at 88 of these
        # 200 steps), and the pool score must count the two as dominating
        # each other
        pytest.param(3, "mcmc", 200, 202, 4,
                     "(0.00020531214833096614, 0.0015031469773409969)",
                     "mcmc", id="d3-pool-tie"),
    ])
    def test_golden_bounds(self, d, sampler, budget, seed, rep, expected,
                           name):
        # pinned to the last bit: a change to the oracle, to region
        # membership or to the walk that moves one label moves these
        run = sequential_bounder(make_example1(d, 5e-4).function, budget,
                                 RandomStream(seed, rep), sampler=sampler)
        assert repr((run.bounds.lower, run.bounds.upper)) == expected
        if name is not None:
            assert run.sampler_name == name

    def test_golden_bounds_strip_fallback(self):
        # the last 34 of these queries come from the strip fallback
        run = sequential_bounder(get_benchmark("linear:d=2:y=1.99").function,
                                 440, RandomStream(1, 0))
        assert repr((run.bounds.lower, run.bounds.upper)) == \
            "(0.9998024783340528, 0.999985586560605)"

    def test_d4_golden_holds_the_exact_volumes(self):
        # the d4-auto golden's upper bound ended ...239425 under the slab
        # volumes and ends ...239203 under the sweep; both hold the exact
        # volumes of the certified sets, as does the lower bound
        run = sequential_bounder(make_example1(4, 5e-4).function, 200,
                                 RandomStream(202, 0), sampler="auto")
        fail = exact_sweep_volume4(run.region.fail_generators)
        safe = exact_sweep_volume4([[1 - Fraction(v) for v in r]
                                    for r in run.region.safe_generators])
        assert Fraction(3.4109665226175185e-05) <= fail
        for upper in (0.009260691466239425, 0.009260691466239203):
            assert Fraction(upper) >= 1 - safe
        assert run.bounds.upper == 0.009260691466239203

    @staticmethod
    def against_reference(name, rep, monkeypatch, dominated=None):
        """The 200-query "auto" run of a cell at stream (202, rep) as
        shipped, then on ``pool_loop_reference`` (and the ``dominated``
        mask when given): the two runs and their rejection attempts."""
        samplers = []

        class Recorded(RejectionSampler):
            def __init__(self):
                super().__init__()
                self.returned = 0
                samplers.append(self)

            def draw_batch(self, region, gen, n):
                X = super().draw_batch(region, gen, n)
                self.returned += X.shape[0]
                return X

        monkeypatch.setattr(monotone, "RejectionSampler", Recorded)
        runs = [sequential_bounder(get_benchmark(name).function, 200,
                                   RandomStream(202, rep), sampler="auto")]
        monkeypatch.setattr(monotone, "_pool_loop",
                            lambda *args: pool_loop_reference(*args, samplers))
        if dominated is not None:
            monkeypatch.setattr(monotone, "_dominated", dominated)
        runs.append(sequential_bounder(get_benchmark(name).function, 200,
                                       RandomStream(202, rep), sampler="auto"))
        a, b = runs
        assert same_bits(a.design.points, b.design.points)
        assert np.array_equal(a.design.fail, b.design.fail)
        assert np.array_equal(a.design.values, b.design.values)
        assert (a.bounds.lower, a.bounds.upper) == (b.bounds.lower, b.bounds.upper)
        assert a.sampler_name == b.sampler_name == "auto"
        first, second = samplers
        assert first.attempts == second.attempts > 0
        return first

    @pytest.mark.parametrize("name", ["example1:d=3:p=5e-4",
                                      "example1:d=4:p=5e-4",
                                      "example1:d=5:p=5e-3"])
    @pytest.mark.parametrize("rep", [0, 3])
    def test_stock_matches_pool_and_buffer(self, name, rep, monkeypatch):
        # one stock of region points gives the queries, labels and
        # rejection attempts of a pool of 192 beside a leftover buffer
        first = self.against_reference(name, rep, monkeypatch)
        # every accepted row is returned and counted as a draw, so
        # acceptance_rate is the true acceptance
        assert first.draws == first.returned > 200

    @pytest.mark.parametrize("name", ["example1:d=3:p=5e-4",
                                      "example1:d=4:p=5e-4"])
    @pytest.mark.parametrize("rep", [0, 3])
    def test_dominance_bits_in_a_run(self, name, rep, monkeypatch):
        # as shipped, then on the tensor dominance mask and the
        # pool-and-buffer loop
        self.against_reference(name, rep, monkeypatch, dominated_reference)

    def test_a_stalled_refill_stops_the_run(self, monkeypatch):
        # with one rejection chunk per refill, the stock of max(x) < 1e-2
        # runs short after 11 queries, and the chunk then drawn holds fewer
        # region points than the refill needs
        class OneChunk(RejectionSampler):
            def __init__(self):
                super().__init__(max_attempts=4096)

        monkeypatch.setattr(monotone, "RejectionSampler", OneChunk)
        f = BlackBoxFunction(lambda X: X.max(axis=1), dimension=3,
                             threshold=1e-2, vectorized=True)
        with pytest.raises(SamplerStalled,
                           match="collected 95/100 region points in 4096 "
                                 "uniform draws"):
            sequential_bounder(f, 400, RandomStream(0, 0))
        assert f.query_count == 11

    @pytest.mark.parametrize("name, sampler", [
        ("linear:d=1:y=0.3", "auto"), ("lipschitz1d:p=2.1e-3", "auto"),
        ("example1:d=2:p=5e-4", "auto"), ("linear:d=2:y=1.99", "auto")] + [
        (f"example1:d={d}:p=5e-3", s) for d in (3, 4, 5, 6)
        for s in ("auto", "mcmc")])
    def test_bounds_are_those_of_the_design(self, name, sampler):
        # a run takes its bounds from the antichains its loop kept; they
        # are the bits bounds_from_design gives for the run's design
        run = sequential_bounder(get_benchmark(name).function, 100,
                                 RandomStream(202, 1), sampler=sampler)
        assert same_bounds(run.bounds, bounds_from_design(run.design))

    def test_contains_truth_and_traces_nest(self):
        prob = make_linear_toy(2, 0.5)
        run = sequential_bounder(prob.function, 80, RandomStream(100, 0))
        assert run.bounds.lower <= prob.p_exact <= run.bounds.upper
        assert run.bounds.kind == DETERMINISTIC
        D = run.design
        trace = [bounds_from_design(LabeledDesign(D.points[:n], D.fail[:n]))
                 for n in range(1, 81)]
        assert (trace[-1].lower, trace[-1].upper) == \
            (run.bounds.lower, run.bounds.upper)
        lows = [b.lower for b in trace]
        highs = [b.upper for b in trace]
        assert all(b >= a for a, b in zip(lows, lows[1:]))
        assert all(b <= a for a, b in zip(highs, highs[1:]))
        assert run.bounds.queries_used == 80
        assert prob.function.query_count == 80
        assert run.design.points.shape == (80, 2)

    @pytest.mark.parametrize("d, p, rep", [
        (3, 5e-2, 0), (3, 5e-2, 1), (3, 5e-3, 1), (4, 5e-2, 1), (4, 5e-3, 0)])
    def test_bounds_contain_the_exact_certified_volumes(self, d, p, rep):
        # the reported interval must hold the exact volumes of the sets it
        # certifies, with the flip 1 - s of the safe generators done exactly
        run = sequential_bounder(make_example1(d, p).function, 40,
                                 RandomStream(20260823, rep), sampler="auto")
        fail = exact_lower_volume(run.region.fail_generators)
        safe = exact_upper_volume(run.region.safe_generators)
        assert Fraction(run.bounds.lower) <= fail
        assert Fraction(run.bounds.upper) >= 1 - safe

    def test_non_finite_oracle_value_raises(self):
        # NaN compares False with the threshold, so it would label its
        # point safe and certify the whole upper orthant
        def g(X):
            return np.where(X[:, 0] < 0.5, np.nan, X[:, 0] + X[:, 1])

        f = BlackBoxFunction(g, dimension=2, threshold=0.3, vectorized=True)
        with pytest.raises(ValueError, match="nan"):
            sequential_bounder(f, 50, RandomStream(1, 0))

    def test_two_dimensional_balance_follows_the_boundary(self):
        prob = make_example1(2, 5e-3)
        runs = [sequential_bounder(prob.function, 60, RandomStream(3, r),
                                   sampler=s)
                for r, s in ((0, "auto"), (0, "mcmc"), (1, "auto"))]
        for run in runs:
            b = run.bounds
            assert run.sampler_name == "boundary"
            assert b.kind == DETERMINISTIC
            assert b.lower <= prob.p_exact <= b.upper
            # the bounds contain the computed volumes of the generators,
            # widened by no more than the stated gamma_N
            F, S = run.region.fail_generators, run.region.safe_generators
            fail, safe = lower_orthant_volume(F), upper_orthant_volume(S)
            g_fail = gamma(_rounding_terms(2, F.shape[0]) + 1)
            g_safe = gamma(_rounding_terms(2, S.shape[0]) + 1)
            assert fail * (1.0 - 2.0 * g_fail) <= b.lower <= fail
            assert 1.0 - safe <= b.upper <= 1.0 - safe * (1.0 - 2.0 * g_safe) \
                + 4.0 * U
        # no sampler is involved; the stream only offsets the abscissae
        assert np.array_equal(runs[0].design.points, runs[1].design.points)
        assert not np.array_equal(runs[0].design.points,
                                  runs[2].design.points)

    def test_two_dimensional_strip_fallback_matches_a_plain_loop(
            self, monkeypatch):
        # x1 + x2 < 1.99 fails in every grid column at this seed (the last
        # abscissa lies below 0.99), so once those columns have narrowed
        # to the float resolution below 1 the boundary rule has no
        # candidate left and the strip rule picks the queries right of
        # the grid
        query, calls = monotone._strip_query, []

        def both(F, S, fail, safe):
            x = query(F, S, fail, safe)
            calls.append(same_query(
                x, reference_strip_query(StaircaseRegion(F, S, 2)))
                and strip_scores_are_gains(F, S, fail, safe))
            return x

        monkeypatch.setattr(monotone, "_strip_query", both)
        run = sequential_bounder(get_benchmark("linear:d=2:y=1.99").function,
                                 440, RandomStream(1, 0))
        assert len(calls) == 440 - 406 and all(calls)
        # the fallback queries lie right of the grid, where the boundary
        # is, and some are safe, so both staircases score non-empty
        assert np.all(run.design.points[406:, 0] > 0.99)
        assert not run.design.fail[406:].all()

    def test_two_dimensional_strip_rule_stops_when_no_midpoint_is_left(
            self, monkeypatch):
        # with the boundary rule off, the strip rule alone bisects the
        # fail set [0, 2^-60)^2 until no strip midpoint lies in the region
        # (flipped safe heights at most 2^-54 read as 0, so the last queries
        # split the bottom edge down to adjacent floats); the run stops
        # there with the bounds a run of that many queries gives.  Its
        # upper bound is pinned: psi read from the sorted safe heights
        # instead keeps midpoints in the region that the gains, read
        # through the flipped staircase, all score 0 from about query
        # 2,600 on, and the run spends all 4,000 queries on 1.03e-14.
        query, calls = monotone._strip_query, []

        def scored(F, S, fail, safe):
            calls.append(strip_scores_are_gains(F, S, fail, safe))
            return query(F, S, fail, safe)

        monkeypatch.setattr(monotone, "_boundary_query", lambda *args: None)
        monkeypatch.setattr(monotone, "_strip_query", scored)
        f = BlackBoxFunction(lambda X: np.maximum(X[:, 0], X[:, 1]),
                             dimension=2, threshold=2.0 ** -60, vectorized=True)
        run = sequential_bounder(f, 4000, RandomStream(0, 0))
        m = run.design.points.shape[0]
        assert run.bounds.queries_used == m == f.query_count == 2863
        assert 0 < run.design.fail.sum() < m
        assert reference_strip_query(run.region) is None
        assert run.bounds.lower <= 2.0 ** -120 <= run.bounds.upper
        assert run.bounds.upper == 7.771561172376097e-16
        assert same_bounds(run.bounds, bounds_from_design(run.design))
        assert len(calls) == m + 1 and all(calls)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_values_tied_at_the_threshold_are_safe(self, d):
        # g = 0 where x0 >= 0.5 and -1 elsewhere, threshold 0, so p = 0.5
        # and every point right of the boundary has a value equal to the
        # threshold: fail means g < y, so each of those is safe
        f = BlackBoxFunction(lambda X: np.where(X[:, 0] >= 0.5, 0.0, -1.0),
                             dimension=d, threshold=0.0, vectorized=True)
        run = sequential_bounder(f, 60, RandomStream(7, 0), sampler="auto")
        design = run.design
        tied = design.values == 0.0
        assert tied.any() and not design.fail[tied].any()
        assert np.array_equal(design.fail, design.values < 0.0)
        assert run.bounds.lower <= 0.5 <= run.bounds.upper

    def test_two_dimensional_runs_reach_no_sampler(self, monkeypatch):
        # this run's last 34 queries come from the strip fallback, which
        # draws nothing, so the sampler choice cannot change a query
        def refuse(*args, **kwargs):
            raise AssertionError("a sampler ran at d = 2")

        monkeypatch.setattr(RejectionSampler, "draw_batch", refuse)
        monkeypatch.setattr(mcmc.RegionWalkSampler, "__init__", refuse)
        runs = [sequential_bounder(get_benchmark("linear:d=2:y=1.99").function,
                                   440, RandomStream(1, 0), sampler=s)
                for s in ("auto", "mcmc")]
        for run in runs:
            assert run.sampler_name == "boundary"
            assert run.bounds.queries_used == 440
            for a, b in ((run.design.points, runs[0].design.points),
                         (run.design.fail, runs[0].design.fail),
                         (run.design.values, runs[0].design.values)):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("case", ["linear", "min"])
    def test_two_dimensional_runs_finish_where_the_region_is_tiny(self, case):
        # the undecided region left right of the grid is far too small for
        # rejection sampling to hit; the strip fallback does not sample it
        if case == "linear":
            prob = get_benchmark("linear:d=2:y=1.999")
            f, p, budget, stream = prob.function, Fraction(prob.p_exact), 480, 3
        else:
            f = BlackBoxFunction(lambda X: np.minimum(X[:, 0], X[:, 1]),
                                 dimension=2, threshold=0.999, vectorized=True)
            p, budget, stream = 1 - (1 - Fraction(0.999)) ** 2, 2500, 1
        run = sequential_bounder(f, budget, RandomStream(stream, 0))
        assert run.bounds.queries_used == budget
        assert Fraction(run.bounds.lower) <= p <= Fraction(run.bounds.upper)

    @pytest.mark.parametrize("name, sampler, budget", [
        ("lipschitz1d:p=2.1e-3", "auto", 200),
        ("linear:d=1:y=0.3", "mcmc", 30)])
    def test_one_dimension_bisects_without_a_sampler(self, name, sampler,
                                                     budget):
        # the undecided interval falls below 5e-8 long before the budget
        # is spent, where no sampler finds region points any more
        prob = get_benchmark(name)
        run = sequential_bounder(prob.function, budget,
                                 RandomStream(20260823, 0), sampler=sampler)
        assert run.sampler_name == "boundary"
        assert run.bounds.lower <= prob.p_exact <= run.bounds.upper

    @pytest.mark.parametrize("name, queries", [
        ("lipschitz1d:p=2.1e-3", 61), ("lipschitz1d:p=0.3", 54),
        ("linear:d=1:y=0.7", 53)])
    def test_one_dimension_stops_when_no_float_is_left(self, name, queries):
        # once the labelled ends are adjacent floats, the midpoint rounds
        # to one of them; asking it again would change nothing, so the run
        # stops there with the bounds a run of that many queries gives
        prob = get_benchmark(name)
        run = sequential_bounder(prob.function, 200, RandomStream(20260823, 0))
        x = run.design.points[:, 0]
        assert run.bounds.queries_used == x.size == np.unique(x).size == queries
        assert prob.function.query_count == queries
        fail = run.region.fail_generators[0, 0]
        assert np.nextafter(fail, 1.0) == run.region.safe_generators[0, 0]
        cut = sequential_bounder(get_benchmark(name).function, queries,
                                 RandomStream(20260823, 0))
        assert (cut.bounds.lower, cut.bounds.upper) == (run.bounds.lower,
                                                        run.bounds.upper)

    def test_deterministic_replay(self):
        a = sequential_bounder(make_linear_toy(2, 0.5).function, 40,
                               RandomStream(55, 3))
        b = sequential_bounder(make_linear_toy(2, 0.5).function, 40,
                               RandomStream(55, 3))
        assert np.array_equal(a.design.points, b.design.points)
        assert np.array_equal(a.design.fail, b.design.fail)
        assert (a.bounds.lower, a.bounds.upper) == (b.bounds.lower,
                                                    b.bounds.upper)

    def test_example1_containment(self):
        prob = make_example1(3, 0.05)
        run = sequential_bounder(prob.function, 60, RandomStream(7, 0))
        assert run.bounds.lower <= prob.p_exact <= run.bounds.upper

    def test_errors(self):
        prob = make_linear_toy(2, 0.5)
        with pytest.raises(ValueError):
            sequential_bounder(prob.function, 0, RandomStream(1, 0))
        with pytest.raises(ValueError):
            sequential_bounder(prob.function, 10, RandomStream(1, 0),
                               sampler="metropolis")
