"""Dyadic-cube labeling: geometry, exact bounds on slabs, and refinement
checked against an exact replay of its traversal."""

import math
from fractions import Fraction

import numpy as np
import pytest

from rarebound.bench import get_benchmark, make_lipschitz_toy_1d, make_linear_toy
from rarebound.core import BlackBoxFunction, DimensionMismatch
from rarebound.dyadic import (
    LABEL_INSIDE,
    LABEL_OUTSIDE,
    LABEL_UNKNOWN,
    DyadicCube,
    default_max_depth,
    label_cube,
    refine,
)


def slab(d, y, L=1.0):
    """g(x) = x1 on [0,1]^d; failure set is the slab {x1 < y} of volume y."""
    f = BlackBoxFunction(lambda X: np.asarray(X, dtype=float)[:, 0],
                         dimension=d, threshold=y, vectorized=True)
    return f, L


def measure(cube):
    """Lebesgue measure 2^-(d * depth) of a dyadic cube."""
    return 2.0 ** (-cube.depth * cube.dimension)


def replay(f, L, budget, max_depth):
    """Exact masses by label, and the query count, of refine's traversal.

    Replays it level by level: the unknown cubes of one depth are split
    in index order, each split costing 2^d queries, while the budget
    allows; unknown cubes at ``max_depth`` are never split.
    """
    d = f.dimension
    mass = dict.fromkeys((LABEL_INSIDE, LABEL_OUTSIDE, LABEL_UNKNOWN),
                         Fraction(0))
    queries = 0

    def label(cubes):
        nonlocal queries
        unknown = []
        for cube in cubes:
            lab = label_cube(f, L, cube)
            queries += 1
            mass[lab] += Fraction(1, 2 ** (d * cube.depth))
            if lab == LABEL_UNKNOWN and cube.depth < max_depth:
                unknown.append(cube)
        return unknown

    level = label([DyadicCube(0, (0,) * d)])
    while level:
        children = []
        for cube in sorted(level, key=lambda c: c.index):
            if queries + 2 ** d > budget:
                return mass, queries
            mass[LABEL_UNKNOWN] -= Fraction(1, 2 ** (d * cube.depth))
            children += label(cube.children())
        level = children
    return mass, queries


class TestCubeGeometry:
    def test_root(self):
        root = DyadicCube(0, (0, 0))
        assert root.dimension == 2
        assert root.sidelength == 1.0
        assert measure(root) == 1.0
        assert root.center() == (0.5, 0.5)

    def test_children_partition_parent(self):
        parent = DyadicCube(2, (1, 3))
        kids = parent.children()
        assert len(kids) == 4
        assert len({k.index for k in kids}) == 4
        assert all(k.depth == 3 for k in kids)
        # measures sum exactly (dyadic rationals are exact in binary)
        assert sum(measure(k) for k in kids) == measure(parent)
        # every child center lies strictly inside the parent box
        s = parent.sidelength
        lo = np.array(parent.index) * s
        for k in kids:
            c = np.array(k.center())
            assert np.all(c > lo) and np.all(c < lo + s)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            DyadicCube(-1, (0,))
        with pytest.raises(ValueError):
            DyadicCube(1, (2,))
        with pytest.raises(ValueError):
            DyadicCube(2, (-1, 0))


class TestLabeling:
    def test_identity_1d(self):
        f, L = slab(1, 0.5)
        f1 = BlackBoxFunction(lambda X: np.asarray(X, float)[:, 0],
                              dimension=1, threshold=0.5, vectorized=True)
        # root: value 0.5, slack 0.5 -> cannot decide
        assert label_cube(f1, L, DyadicCube(0, (0,))) == LABEL_UNKNOWN
        # depth 2: slack 0.125; [0, .25] is inside, [.75, 1] is outside
        assert label_cube(f1, L, DyadicCube(2, (0,))) == LABEL_INSIDE
        assert label_cube(f1, L, DyadicCube(2, (3,))) == LABEL_OUTSIDE

    def test_counts_one_query(self):
        f, L = slab(2, 0.25)
        label_cube(f, L, DyadicCube(1, (0, 1)))
        assert f.query_count == 1

    def test_errors(self):
        f, L = slab(2, 0.25)
        with pytest.raises(DimensionMismatch):
            label_cube(f, L, DyadicCube(0, (0,)))
        with pytest.raises(ValueError):
            label_cube(f, 0.0, DyadicCube(0, (0, 0)))


class TestSlabExactness:
    def test_depth3_2d_slab(self):
        # slab {x1 < 1/4}, L = 1: full depth-3 resolution certifies the
        # column of cells with centers x1 = 1/16 and leaves exactly the
        # two columns straddling the boundary unknown
        f, L = slab(2, 0.25)
        bounds = refine(f, L, budget=64, max_depth=3)
        assert bounds.lower == 0.125
        assert bounds.upper == 0.375

    def test_1d_32_queries(self):
        prob = make_lipschitz_toy_1d(2.1e-3)
        bounds = refine(prob.function, prob.lipschitz, budget=32)
        p = prob.p_exact
        assert bounds.queries_used <= 32
        assert bounds.lower <= p <= bounds.upper
        assert p <= bounds.upper <= 2 * p

    def test_gap_shrinks_with_budget(self):
        f, L = slab(2, 0.3)
        gaps = []
        for budget in (40, 160, 640):
            r = refine(f, L, budget=budget, max_depth=12)
            gaps.append(r.width)
        assert gaps[0] > gaps[1] > gaps[2]


class TestRefine:
    def test_trace_monotone_and_valid(self):
        # the traversal is deterministic, so a smaller budget runs a prefix
        # of a larger one; budgets 1 + 4k end right after the k-th split
        prob = make_linear_toy(2, 0.5)
        all_bounds = [refine(prob.function, prob.lipschitz, budget=budget)
                      for budget in range(1, 301, 4)]
        lows = [bounds.lower for bounds in all_bounds]
        highs = [bounds.upper for bounds in all_bounds]
        qs = [bounds.queries_used for bounds in all_bounds]
        assert all(b >= a for a, b in zip(lows, lows[1:]))
        assert all(b <= a for a, b in zip(highs, highs[1:]))
        assert all(b > a for a, b in zip(qs, qs[1:]))
        for bounds in all_bounds:
            assert bounds.lower <= prob.p_exact <= bounds.upper
            assert bounds.kind == "deterministic"

    def test_budget_respected(self):
        prob = make_linear_toy(3, 1.0)
        for budget in (1, 9, 50, 333):
            bounds = refine(prob.function, prob.lipschitz, budget=budget)
            assert bounds.queries_used <= budget
        with pytest.raises(ValueError):
            refine(prob.function, prob.lipschitz, budget=0)

    def test_partition_is_complete(self):
        f, L = slab(2, 0.25)
        bounds = refine(f, L, budget=200, max_depth=4)
        mass, queries = replay(f, L, budget=200, max_depth=4)
        assert sum(mass.values()) == 1
        # masses on a depth-4 grid are exact floats
        assert bounds.lower == mass[LABEL_INSIDE]
        assert bounds.upper == mass[LABEL_INSIDE] + mass[LABEL_UNKNOWN]
        assert bounds.queries_used == queries

    def test_deterministic_replay(self):
        prob = make_linear_toy(2, 0.7)
        a = refine(prob.function, prob.lipschitz, budget=150)
        prob2 = make_linear_toy(2, 0.7)
        b = refine(prob2.function, prob2.lipschitz, budget=150)
        assert (a.lower, a.upper, a.queries_used) == (
            b.lower, b.upper, b.queries_used)

    @pytest.mark.parametrize("name, budget, max_depth", [
        ("lipschitz1d:p=0.3", 400, 60),
        # here the nearest float to the inside mass lies above it
        ("lipschitz1d:p=0.1", 400, 60),
        ("linear:d=2:y=0.7", 300, 30),
    ])
    def test_bounds_are_the_outward_rounded_exact_sums(self, name, budget,
                                                       max_depth):
        # a float running sum of 2^-(d depth) measures loses bits once
        # d max_depth > 53; the bounds must be the exact sums rounded out
        prob = get_benchmark(name)
        bounds = refine(prob.function, prob.lipschitz, budget=budget,
                        max_depth=max_depth)
        mass, queries = replay(prob.function, prob.lipschitz, budget,
                               max_depth)

        def down(x):
            v = float(x)
            return math.nextafter(v, -math.inf) if v > x else v

        def up(x):
            v = float(x)
            return math.nextafter(v, math.inf) if v < x else v

        inside, unknown = mass[LABEL_INSIDE], mass[LABEL_UNKNOWN]
        assert bounds.lower == down(inside)
        assert bounds.upper == min(1.0, up(inside + unknown))
        assert bounds.queries_used == queries

    def test_loose_constant_still_contains(self):
        # overestimating L keeps correctness, just widens the gap
        prob = make_linear_toy(2, 0.5)
        bounds = refine(prob.function, 3 * prob.lipschitz, budget=300)
        assert bounds.lower <= prob.p_exact <= bounds.upper


class TestHelpers:
    def test_default_max_depth(self):
        assert default_max_depth(1.0, 1e-5) == 17
        assert default_max_depth(2.0, 1e-5) == 18
        assert default_max_depth(1.0, 0.5) == 1
        with pytest.raises(ValueError):
            default_max_depth(0.0)
