"""Closed-form benchmark problems with known failure probability.

The main family (``example1``) pushes independent Gamma variables through
their quantile transforms so that the failure probability of the resulting
function on the unit cube is an exact Beta tail probability, adjustable to
any target level p.  All benchmarks are monotone in every coordinate after
a fixed orientation flip, which the constructors apply internally: the
stored function is nondecreasing in each input.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .core import BlackBoxFunction
from .special import _integer_gamma_inverse_one, beta_quantile, gamma_quantile

__all__ = [
    "ToyProblem",
    "make_example1",
    "example1_beta_shape",
    "make_linear_toy",
    "make_lipschitz_toy_1d",
    "get_benchmark",
]


@dataclass(frozen=True)
class ToyProblem:
    """A benchmark with exactly known failure probability.

    ``function`` is already oriented to be nondecreasing in every
    coordinate; ``orientation`` records the sign applied to each raw
    coordinate (+1 kept, -1 flipped x -> 1-x).  ``lipschitz`` is a sup-norm
    Lipschitz constant when one is known in closed form, else None.
    """

    name: str
    dimension: int
    p_exact: float
    function: BlackBoxFunction
    orientation: np.ndarray
    lipschitz: Optional[float] = None
    description: str = ""


def example1_beta_shape(d: int) -> float:
    """Second Beta shape parameter for the d-dimensional Gamma-ratio family.

    With Z_i ~ Gamma(i+1) independent, i = 1..d, the ratio
    Z_1 / (Z_1 + sum_{i>=2} Z_i) is Beta(2, b) with
    b = (d+1)(d+2)/2 - 3, because the denominator sum is Gamma-distributed
    with shape 2 + 3 + ... + (d+1) and the two pieces are independent.
    """
    if d < 2:
        raise ValueError("family needs d >= 2")
    return (d + 1) * (d + 2) / 2.0 - 3.0


@functools.lru_cache(maxsize=None)
def _example1_level(d: int, p: float) -> float:
    """The Beta(2, b) quantile at level p that example1 subtracts.

    A replication rebuilds its benchmark, and this quantile is nearly all
    of that cost, so each (d, p) computes it once per process; the cached
    value is an immutable float.
    """
    return beta_quantile(p, 2.0, example1_beta_shape(d))


def make_example1(d: int, p: float) -> ToyProblem:
    """Gamma-ratio benchmark on [0, 1]^d with P(failure) = p exactly.

    Coordinates are mapped through Gamma quantiles, Z_i = F^{-1}_{i+1}(u_i),
    and g is the ratio Z_1/(Z_1 + sum rest) minus the Beta(2, b) quantile
    at level p, so {g < 0} has probability exactly p.  The ratio increases
    in Z_1 and decreases in each other Z_i, so coordinates 2..d are flipped
    to make the stored function nondecreasing everywhere.
    """
    if not (0.0 < p < 1.0):
        raise ValueError("p must be in (0, 1)")
    b = example1_beta_shape(d)
    q = _example1_level(d, p)
    shapes = [float(i + 1) for i in range(1, d + 1)]

    def evaluate(X: np.ndarray) -> np.ndarray:
        # quantile arguments strictly inside (0, 1); a flipped coordinate
        # is the upper-tail probability of its Gamma variable, which keeps
        # its relative accuracy where the rounded 1 - x would not
        X = np.asarray(X, dtype=float)
        if X.shape[0] == 1:
            return np.array([evaluate_one(X[0].tolist())])
        U = np.clip(X, 1e-16, 1.0 - 1e-16)
        z1 = gamma_quantile(U[:, 0], shapes[0])
        rest = sum(gamma_quantile(U[:, j], shapes[j], upper=True)
                   for j in range(1, d))
        return z1 / (z1 + rest) - q

    def evaluate_one(x: list) -> float:
        # a one-row batch on Python floats, bit for bit: the clip, the
        # kernel gamma_quantile runs on one point, and the order of the sum
        u = [min(max(v, 1e-16), 1.0 - 1e-16) for v in x]
        z1 = _integer_gamma_inverse_one(u[0], shapes[0], False)
        rest = sum(_integer_gamma_inverse_one(u[j], shapes[j], True)
                   for j in range(1, d))
        return z1 / (z1 + rest) - q

    fn = BlackBoxFunction(evaluate, dimension=d, threshold=0.0,
                          vectorized=True, name=f"example1:d={d}:p={p:g}")
    orientation = np.array([1] + [-1] * (d - 1))
    return ToyProblem(
        name=fn.name, dimension=d, p_exact=float(p), function=fn,
        orientation=orientation,
        description=f"Gamma-ratio family, failure law Beta(2, {b:g})")


def _irwin_hall_cdf(y: float, d: int) -> float:
    """P(sum of d iid U(0,1) < y), the piecewise-polynomial closed form."""
    if y <= 0.0:
        return 0.0
    if y >= d:
        return 1.0
    total = 0.0
    for k in range(int(math.floor(y)) + 1):
        total += (-1.0) ** k * math.comb(d, k) * (y - k) ** d
    return total / math.factorial(d)


def make_linear_toy(d: int, y: float) -> ToyProblem:
    """g(x) = sum x_i with threshold y; p is the Irwin-Hall CDF at y.

    Already nondecreasing; sup-norm Lipschitz constant d.
    """
    if d < 1:
        raise ValueError("d must be >= 1")

    def evaluate(X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=float).sum(axis=1)

    fn = BlackBoxFunction(evaluate, dimension=d, threshold=float(y),
                          vectorized=True, name=f"linear:d={d}:y={y:g}")
    return ToyProblem(
        name=fn.name, dimension=d, p_exact=_irwin_hall_cdf(float(y), d),
        function=fn, orientation=np.ones(d, dtype=int), lipschitz=float(d),
        description="coordinate sum, Irwin-Hall failure law")


def make_lipschitz_toy_1d(p: float) -> ToyProblem:
    """g(x) = x on [0, 1] with threshold p; failure set is [0, p)."""
    if not (0.0 < p < 1.0):
        raise ValueError("p must be in (0, 1)")

    def evaluate(X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=float)[:, 0]

    fn = BlackBoxFunction(evaluate, dimension=1, threshold=float(p),
                          vectorized=True, name=f"lipschitz1d:p={p:g}")
    return ToyProblem(
        name=fn.name, dimension=1, p_exact=float(p), function=fn,
        orientation=np.ones(1, dtype=int), lipschitz=1.0,
        description="identity on the unit interval")


# ---------------------------------------------------------------------------
# registry

_PATTERNS = [
    ("example1:d=<int>:p=<float>", "Gamma-ratio family with exact Beta failure law"),
    ("linear:d=<int>:y=<float>", "coordinate sum with Irwin-Hall failure law"),
    ("lipschitz1d:p=<float>", "identity on [0,1], failure set [0,p)"),
]


def benchmark_descriptions() -> Dict[str, str]:
    return dict(_PATTERNS)


def get_benchmark(name: str) -> ToyProblem:
    """Instantiate a benchmark from its registry string.

    Examples: ``example1:d=3:p=5e-3``, ``linear:d=2:y=0.5``,
    ``lipschitz1d:p=2.1e-3``.
    """
    m = re.fullmatch(r"example1:d=(\d+):p=([0-9.eE+-]+)", name)
    if m:
        return make_example1(int(m.group(1)), float(m.group(2)))
    m = re.fullmatch(r"linear:d=(\d+):y=([0-9.eE+-]+)", name)
    if m:
        return make_linear_toy(int(m.group(1)), float(m.group(2)))
    m = re.fullmatch(r"lipschitz1d:p=([0-9.eE+-]+)", name)
    if m:
        return make_lipschitz_toy_1d(float(m.group(1)))
    raise ValueError(
        f"unknown benchmark {name!r}; known patterns: {list(benchmark_descriptions())}")
