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
from rarebound.core import (DETERMINISTIC, HIGH_PROBABILITY, BlackBoxFunction,
                            RandomStream)
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
    orthant_volume_mc,
    sequential_bounder,
    upper_orthant_volume,
)
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

    def test_mc_estimate_agrees(self):
        P = random_points(3, 5, 3)
        exact = lower_orthant_volume(P)
        est, se = orthant_volume_mc(P, upper=False, rng=RandomStream(12, 0))
        assert abs(est - exact) < 5 * se + 1e-9

    def test_rejects_outside_cube(self):
        with pytest.raises(ValueError):
            lower_orthant_volume(np.array([[1.2, 0.5]]))

    @pytest.mark.parametrize("call", [
        lambda P: LabeledDesign(np.vstack([P, [[0.2, 0.2]]]),
                                np.array([True, False])),
        lower_orthant_volume,
        upper_orthant_volume,
        orthant_volume_mc,
        lambda P: StaircaseRegion(P, np.empty((0, 2)), 2),
    ], ids=["design", "lower", "upper", "mc", "region"])
    def test_nan_is_outside_the_cube(self, call):
        # NaN fails every comparison, so a check for coordinates below 0
        # or above 1 lets it through; each entry point must reject it
        with pytest.raises(ValueError, match="unit cube"):
            call(np.array([[np.nan, 0.5]]))


def height(stair, t):
    """phi(t) of a staircase: a point (t, y) is covered iff y <= phi(t)."""
    return stair._y0[np.searchsorted(stair.x, t, side="left")]


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
        reach = 1.0 - safe.reach(1.0 - rows)
        cand.append(np.column_stack([np.sqrt(fail.x[-1] * reach), rows]))
    P = np.vstack(cand)
    keep = np.flatnonzero(inside(P[:, 0], P[:, 1]))
    if keep.size == 0:
        return None
    P = P[keep]
    score = fail.gain(P[:, 0], P[:, 1]) * safe.gain(1.0 - P[:, 0], 1.0 - P[:, 1])
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
    return _Staircase2(F), _Staircase2(1.0 - S), grid


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
        stair = _Staircase2(G)
        gain = stair.gain(C[:, 0], C[:, 1])
        base = lower_orthant_volume(G)
        ref = [lower_orthant_volume(np.vstack([G, c])) - base for c in C]
        assert gain == pytest.approx(ref, abs=1e-12)
        region = StaircaseRegion(G, np.empty((0, 2)), 2)
        assert np.array_equal(C[:, 1] > height(stair, C[:, 0]),
                              region.contains_batch(C))
        reach = [max([g[0] for g in G if g[1] >= h], default=0.0)
                 for h in C[:, 1]]
        assert stair.reach(C[:, 1]).tolist() == reach

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
        assert np.all(fail.reach(Y) < X)
        assert np.array_equal(fail._area_below(fail.reach(Y)).view(np.int64),
                              fail._cum[r].view(np.int64))
        j = np.searchsorted(fail.x, X)
        assert np.array_equal(fail._gain_above(X, Y, j).view(np.int64),
                              fail.gain(X, Y).view(np.int64))

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
        fail = _Staircase2(np.empty((0, 2)))
        safe = _Staircase2(1.0 - np.array([[5e-13, 1e-13]]))
        grid = np.logspace(-12, -1e-9, 50)
        assert _boundary_query(fail, safe, grid, 1.0 - grid) is None
        assert reference_boundary_query(fail, safe, grid) is None

    def test_a_tie_keeps_the_vertical_candidate(self):
        # one column m whose bracket midpoint is m, and one row m whose
        # horizontal midpoint is sqrt(m * m) = m: the same point, with the
        # same score, in both sets.  The vertical one wins and is moved.
        m = np.exp(0.5 * (_log(np.zeros(1)) + _log(np.ones(1))))
        fail = _Staircase2(np.array([[m[0] * m[0], 0.5]]))
        safe = _Staircase2(1.0 - np.array([[0.5, 0.5]]))
        assert np.sqrt(fail.x[-1]) == m[0]
        x = _boundary_query(fail, safe, m, 1.0 - m)
        assert x[0] == m[0] and x[1] != m[0]
        assert same_query(x, reference_boundary_query(fail, safe, m))

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

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_retain_matches_contains_batch(self, d, data):
        # points on the grid of quarters tie the generator faces; labels
        # come from the monotone rule "fail iff the sum is below c"
        grid = np.array(list(itertools.product(range(5), repeat=d))) / 4.0
        rows = data.draw(st.lists(st.integers(0, grid.shape[0] - 1),
                                  min_size=2, max_size=30))
        c = data.draw(st.integers(1, 4 * d - 1)) / 4.0
        regions = [StaircaseRegion.empty(d)]
        for x in grid[rows]:
            r = regions[-1]
            regions.append(r.with_fail(x) if x.sum() < c else r.with_safe(x))
        for t, since in enumerate(regions[:-1]):
            P = grid[since.contains_batch(grid)]
            rebuilt = StaircaseRegion(since.fail_generators,
                                      since.safe_generators, d)
            # one hop, then two hops, itself and an equal but unrelated
            # region: only the first takes the one-orthant test
            for later, origin in ((regions[t + 1], since),
                                  (regions[min(t + 2, len(regions) - 1)], since),
                                  (since, since), (regions[t + 1], rebuilt)):
                assert np.array_equal(later.retain(P, origin),
                                      later.contains_batch(P))

    def test_updates_do_not_keep_their_predecessor(self):
        # a run makes one region per query: each must be freed once the
        # engine moves on, although its successor can still test points
        # against it by identity
        r = self.region()
        ref = weakref.ref(r)
        r2 = r.with_fail(np.array([0.5, 0.1]))
        mask = r2.retain(np.array([[0.4, 0.05], [0.5, 0.5]]), r)
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

    def test_high_dimension_falls_back_to_mc(self):
        d = 7
        design = LabeledDesign(np.vstack([np.full((1, d), 0.4),
                                          np.full((1, d), 0.6)]),
                               np.array([True, False]))
        b = bounds_from_design(design, rng=RandomStream(8, 0))
        assert b.kind == HIGH_PROBABILITY
        assert b.alpha is not None and b.alpha < 1e-4
        # true values 0.4^7 and 1 - 0.4^7 are inside the widened interval
        assert b.lower <= 0.4 ** 7 <= 1.0 - 0.4 ** 7 <= b.upper


class TestRejectionSampler:
    def test_draws_stay_in_region(self):
        r = StaircaseRegion.from_design(LabeledDesign(
            np.array([[0.3, 0.3], [0.7, 0.7]]), np.array([True, False])))
        s = RejectionSampler(chunk=256)
        gen = RandomStream(2, 0).generator()
        X = s.draw_batch(r, gen, 300)
        assert X.shape == (300, 2)
        assert r.contains_batch(X).all()
        assert 0.0 < s.acceptance_rate <= 1.0

    def test_single_draws_match_region(self):
        # one-point draws leave accepted candidates buffered; they are
        # re-checked against the region of the next call, which shrinks
        r = StaircaseRegion.from_design(LabeledDesign(
            np.array([[0.5, 0.5]]), np.array([True])))
        s = RejectionSampler(chunk=64)
        gen = RandomStream(3, 0).generator()
        for _ in range(20):
            x = s.draw_batch(r, gen, 1)
            assert x.shape == (1, 2) and contains(r, x[0])
            r = r.with_fail(x[0]) if x[0].sum() < 1.2 else r.with_safe(x[0])
        assert s.draws == 20 and s.attempts < 20 * 64   # the buffer served

    def test_leftovers_come_out_in_stream_order(self):
        # the buffered tail of a chunk, filtered by the shrunken region,
        # is exactly what the next call returns, in the order drawn
        r = StaircaseRegion.empty(2)
        s = RejectionSampler(chunk=64)
        first = s.draw_batch(r, RandomStream(5, 0).generator(), 3)
        chunk = RandomStream(5, 0).generator().random((64, 2))
        assert np.array_equal(first, chunk[:3])
        r = r.with_fail(np.array([0.5, 0.5])).with_safe(np.array([0.8, 0.6]))
        rest = chunk[3:][r.contains_batch(chunk[3:])]
        gen = RandomStream(6, 0).generator()      # never reached
        assert np.array_equal(s.draw_batch(r, gen, 4), rest[:4])
        assert np.array_equal(s.draw_batch(r, gen, 2), rest[4:6])
        assert s.attempts == 64 and s.draws == 9

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
    @pytest.mark.parametrize("d, sampler, budget, rep, expected, name", [
        pytest.param(3, "auto", 60, 0,
                     "(4.156909750672099e-05, 0.0063627345058108195)", None,
                     id="d3"),
        pytest.param(2, "auto", 60, 0,
                     "(0.0004190881990539619, 0.0006051014329112593)", None,
                     id="d2"),
        pytest.param(3, "mcmc", 60, 0,
                     "(3.576791385105685e-05, 0.0027373693251272484)", None,
                     id="d3-mcmc"),
        # the two cells of the mono-hd benchmark protocol; replication 3
        # of d = 3 hands over to the walk, so its chain states are kept
        # across region updates
        pytest.param(4, "auto", 200, 0,
                     "(3.4109665226175185e-05, 0.009260691466239425)", None,
                     id="d4-auto"),
        pytest.param(3, "auto", 200, 3,
                     "(0.0002299270745673286, 0.0011785056834747734)",
                     "auto(rejection->mcmc)", id="d3-switch"),
    ])
    def test_golden_bounds(self, d, sampler, budget, rep, expected, name):
        # pinned to the last bit: a change to the oracle, to region
        # membership or to the walk that moves one label moves these
        run = sequential_bounder(make_example1(d, 5e-4).function, budget,
                                 RandomStream(202, rep), sampler=sampler)
        assert repr((run.bounds.lower, run.bounds.upper)) == expected
        if name is not None:
            assert run.sampler_name == name

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

    def test_two_dimensional_pool_fallback_scores_like_one_candidate(
            self, monkeypatch):
        # x1 + x2 < 1.99 fails in every grid column at this seed (the last
        # abscissa lies below 0.99), so once those columns have narrowed
        # to the float resolution below 1 the boundary rule has no
        # candidate left and the fallback scores the pool for the region
        # right of the grid
        def run():
            f = get_benchmark("linear:d=2:y=1.99").function
            return sequential_bounder(f, 440, RandomStream(1, 0),
                                      sampler="rejection")

        batched = []

        def one_at_a_time(stair, P):
            # the per-candidate formula: a fresh staircase per candidate
            batched.append(P.shape[0])
            G = np.column_stack((stair.x, stair.y))
            return np.array([float(_Staircase2(G).gain(x[:1], x[1:])[0])
                             for x in P])

        fast = run()
        monkeypatch.setattr(monotone, "_delta_lower_volume", one_at_a_time)
        slow = run()
        assert len(batched) == 2 * (440 - 406)
        for a, b in ((fast.design.points, slow.design.points),
                     (fast.design.fail, slow.design.fail),
                     (fast.design.values, slow.design.values)):
            assert np.array_equal(a, b)
        assert (fast.bounds.lower, fast.bounds.upper) == (slow.bounds.lower,
                                                          slow.bounds.upper)
        # the fallback queries lie right of the grid, where the boundary
        # is, and some are safe, so both staircases score non-empty
        assert np.all(fast.design.points[406:, 0] > 0.99)
        assert not fast.design.fail[406:].all()

    @pytest.mark.parametrize("name, sampler, budget", [
        ("lipschitz1d:p=2.1e-3", "rejection", 200),
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
