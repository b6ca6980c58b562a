"""Deterministic bounds for Lipschitz functions via dyadic-cube labeling.

The unit cube is split recursively into 2^d children of half the side.
A cube Q at depth j with center c is labeled by a single query g(c):

* Inside  the failure set when g(c) < y - L 2^{-j-1}   (sup-norm radius),
* Outside the failure set when g(c) > y + L 2^{-j-1},
* Unknown otherwise, in which case it is refined further.

Inside mass accumulates into the lower bound, Unknown mass is the gap:
p_lower = vol(Inside), p_upper = p_lower + vol(Unknown).  Bounds are
deterministic for any true sup-norm Lipschitz constant <= L and improve
monotonically as the frontier is refined in breadth-first (largest cube
first) order.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .core import BlackBoxFunction, DimensionMismatch, ProbabilityBounds

__all__ = [
    "DyadicCube",
    "LABEL_INSIDE",
    "LABEL_OUTSIDE",
    "LABEL_UNKNOWN",
    "label_cube",
    "DyadicRun",
    "refine",
    "default_max_depth",
]

LABEL_INSIDE = "inside"     # certainly in the failure set
LABEL_OUTSIDE = "outside"   # certainly safe
LABEL_UNKNOWN = "unknown"


@dataclass(frozen=True)
class DyadicCube:
    """Axis-aligned cube [index * 2^-j, (index+1) * 2^-j] of the dyadic grid."""

    depth: int
    index: Tuple[int, ...]

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be non-negative")
        if any(i < 0 or i >= 2 ** self.depth for i in self.index):
            raise ValueError("index out of range for depth")

    @property
    def dimension(self) -> int:
        return len(self.index)

    @property
    def sidelength(self) -> float:
        return 2.0 ** (-self.depth)

    def center(self) -> Tuple[float, ...]:
        s = self.sidelength
        return tuple((i + 0.5) * s for i in self.index)

    def children(self) -> List["DyadicCube"]:
        d = self.dimension
        base = tuple(2 * i for i in self.index)
        kids = []
        for mask in range(2 ** d):
            idx = tuple(base[k] + ((mask >> k) & 1) for k in range(d))
            kids.append(DyadicCube(self.depth + 1, idx))
        return kids


def label_cube(f: BlackBoxFunction, lipschitz: float, cube: DyadicCube) -> str:
    """Label a cube with one oracle query at its center.

    The sup-norm ball of radius (side/2) around the center covers the
    cube, so |g - g(c)| <= L * 2^{-depth-1} on it.
    """
    if cube.dimension != f.dimension:
        raise DimensionMismatch(
            f"cube dimension {cube.dimension} != function dimension {f.dimension}")
    if lipschitz <= 0.0:
        raise ValueError("lipschitz must be positive")
    value = f(list(cube.center()))
    slack = lipschitz * 0.5 * cube.sidelength
    if value < f.threshold - slack:
        return LABEL_INSIDE
    if value > f.threshold + slack:
        return LABEL_OUTSIDE
    return LABEL_UNKNOWN


def default_max_depth(lipschitz: float, eps_target: float = 1e-5) -> int:
    """Depth at which the label slack L 2^{-j-1} drops below eps_target."""
    if lipschitz <= 0.0 or eps_target <= 0.0:
        raise ValueError("lipschitz and eps_target must be positive")
    return max(1, int(math.ceil(math.log2(lipschitz / eps_target))))


def _outward(units: int, shift: int, up: bool) -> float:
    """units * 2^-shift as a float, rounded down, or up when ``up``."""
    v = units / (1 << shift)          # int division rounds to nearest
    num, den = v.as_integer_ratio()   # exact
    excess = (num << shift) - units * den   # sign of v - units 2^-shift
    if (excess < 0) if up else (excess > 0):
        v = math.nextafter(v, math.inf if up else -math.inf)
    return v


@dataclass
class DyadicRun:
    """Outcome of a refinement run: the bounds and the oracle queries spent."""

    bounds: ProbabilityBounds
    queries_used: int


def refine(f: BlackBoxFunction, lipschitz: float, budget: int,
           max_depth: Optional[int] = None,
           eps_target: float = 1e-5) -> DyadicRun:
    """Refine Unknown cubes breadth-first under a query budget.

    The frontier is a priority queue keyed by (depth, index), so the
    largest remaining cube is always split next and the traversal order
    is deterministic.  Splitting costs 2^d queries (one per child); the
    loop stops when the remaining budget cannot split another cube, when
    the frontier is empty, or when only cubes at ``max_depth`` remain.

    Inside and unknown mass are counted exactly, as integers in units of
    the smallest cube, 2^-(d max_depth); the bounds round that exact sum
    outward once, at the end: p_lower down, p_upper up.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    d = f.dimension
    if max_depth is None:
        max_depth = default_max_depth(lipschitz, eps_target)
    frontier: List[Tuple[int, Tuple[int, ...]]] = []
    queries = 0
    inside_units = 0
    unknown_units = 0

    def units(depth: int) -> int:
        return 1 << (d * (max_depth - depth))

    def admit(cube: DyadicCube) -> None:
        nonlocal queries, inside_units, unknown_units
        label = label_cube(f, lipschitz, cube)
        queries += 1
        if label == LABEL_INSIDE:
            inside_units += units(cube.depth)
        elif label == LABEL_UNKNOWN:
            unknown_units += units(cube.depth)
            if cube.depth < max_depth:
                heapq.heappush(frontier, (cube.depth, cube.index))

    admit(DyadicCube(0, (0,) * d))
    n_children = 2 ** d
    while frontier and queries + n_children <= budget:
        depth, index = heapq.heappop(frontier)
        unknown_units -= units(depth)
        for child in DyadicCube(depth, index).children():
            admit(child)

    shift = d * max_depth
    lower = _outward(inside_units, shift, up=False)
    upper = min(1.0, _outward(inside_units + unknown_units, shift, up=True))
    return DyadicRun(ProbabilityBounds(lower, upper, queries_used=queries),
                     queries)
