"""Shared harness types: the instrumented black-box wrapper, probability
bound containers, reproducible random streams, and crude Monte Carlo
estimators used as references throughout.

Conventions used everywhere in this package:

* the input space is the closed unit cube [0, 1]^d with the uniform law;
* a point x "fails" when g(x) < y for a fixed threshold y (strict);
* lower/upper bounds on p = P(g(X) < y) are conservative, i.e. the true p
  is inside [lower, upper] either surely (Deterministic) or with
  probability at least 1 - alpha (HighProbability).
"""

from __future__ import annotations

import numbers
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "DimensionMismatch",
    "BlackBoxFunction",
    "ProbabilityBounds",
    "DETERMINISTIC",
    "HIGH_PROBABILITY",
    "MCEstimate",
    "RandomStream",
    "mc_estimate",
    "surrogate_mc_estimate",
    "eval_batch",
    "check_finite",
]

DETERMINISTIC = "deterministic"
HIGH_PROBABILITY = "high-probability"


class DimensionMismatch(ValueError):
    """An input point does not match the function's dimension."""


class BlackBoxFunction:
    """Query-counting wrapper around a real-valued function on [0, 1]^d.

    Every point evaluated through :meth:`__call__` or
    :meth:`evaluate_batch` increments :attr:`query_count` by exactly one
    per point; the counter is guarded by a lock so concurrent use stays
    consistent.  The raw (uncounted) evaluator remains reachable through
    :attr:`evaluator` for analysis code that must not spend budget.

    Parameters
    ----------
    evaluator:
        Either a scalar callable taking a 1-D array of length ``dimension``
        or, when ``vectorized`` is true, a callable mapping an (n, d) array
        to an (n,) array.
    dimension:
        Input dimension, an integer d >= 1.
    threshold:
        Failure threshold y; failure means g(x) < y strictly.
    """

    def __init__(self, evaluator: Callable, dimension: int, threshold: float,
                 vectorized: bool = False, name: str = ""):
        if not isinstance(dimension, numbers.Integral) or dimension < 1:
            raise ValueError(f"dimension must be an integer >= 1, got {dimension!r}")
        self.evaluator = evaluator
        self.dimension = int(dimension)
        self.threshold = float(threshold)
        self.vectorized = bool(vectorized)
        self.name = name
        self._count = 0
        self._lock = threading.Lock()

    @property
    def query_count(self) -> int:
        return self._count

    def _check_point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise DimensionMismatch(
                f"expected point of shape ({self.dimension},), got {x.shape}")
        return x

    def __call__(self, x) -> float:
        x = self._check_point(x)
        with self._lock:
            self._count += 1
        if self.vectorized:
            return float(np.asarray(self.evaluator(x[None, :]), dtype=float)[0])
        return float(self.evaluator(x))

    def evaluate_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dimension:
            raise DimensionMismatch(
                f"expected batch of shape (n, {self.dimension}), got {X.shape}")
        with self._lock:
            self._count += X.shape[0]
        if self.vectorized:
            out = np.asarray(self.evaluator(X), dtype=float)
            if out.shape != (X.shape[0],):
                raise ValueError("vectorized evaluator returned wrong shape")
            return out
        return np.array([float(self.evaluator(row)) for row in X])


def eval_batch(predictor: Callable, X: np.ndarray) -> np.ndarray:
    """Evaluate an arbitrary callable on an (n, d) batch.

    Tries a single vectorized call first and falls back to a row loop when
    that call returns anything but one value per row (a callable written
    for single points, such as ``lambda x: x.sum()``).  An exception raised
    by the batch call reaches the caller.
    """
    X = np.asarray(X, dtype=float)
    out = np.asarray(predictor(X), dtype=float)
    if out.shape == (X.shape[0],):
        return out
    return np.array([float(predictor(row)) for row in X])


def check_finite(values, points) -> None:
    """Raise ``ValueError`` at the first oracle value that is not finite.

    ``values`` is one value or an (n,) array and ``points`` the point or
    (n, d) batch it was computed at.  A NaN would otherwise compare False
    with the threshold and pass for a safe label or a training target.
    """
    if np.isfinite(values).all():
        return
    i = np.flatnonzero(~np.isfinite(np.atleast_1d(values)))[0]
    raise ValueError(f"oracle returned {float(np.atleast_1d(values)[i])!r} "
                     f"at {np.atleast_2d(points)[i].tolist()}")


@dataclass(frozen=True)
class ProbabilityBounds:
    """A conservative interval [lower, upper] for a probability.

    ``kind`` is either :data:`DETERMINISTIC` (the interval surely contains
    the target) or :data:`HIGH_PROBABILITY` (contains it with probability
    at least ``1 - alpha``).  ``queries_used`` records the oracle budget
    spent producing it.
    """

    lower: float
    upper: float
    kind: str = DETERMINISTIC
    alpha: Optional[float] = None
    queries_used: int = 0

    def __post_init__(self):
        # normalize numpy scalars so downstream reprs stay plain
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        if not (0.0 <= self.lower <= self.upper <= 1.0):
            raise ValueError(
                f"invalid bounds [{self.lower}, {self.upper}]")
        if self.kind not in (DETERMINISTIC, HIGH_PROBABILITY):
            raise ValueError(f"unknown bound kind {self.kind!r}")
        if self.kind == HIGH_PROBABILITY:
            if self.alpha is None or not (0.0 < self.alpha < 1.0):
                raise ValueError("high-probability bounds need alpha in (0, 1)")
        elif self.alpha is not None:
            raise ValueError("deterministic bounds carry no alpha")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, p: float) -> bool:
        return self.lower <= p <= self.upper


@dataclass(frozen=True)
class MCEstimate:
    """Plain Monte Carlo estimate of a failure probability."""

    p_hat: float
    n: int
    std_err: float

    @classmethod
    def from_counts(cls, hits: int, n: int) -> "MCEstimate":
        if n <= 0:
            raise ValueError("n must be positive")
        p = hits / n
        return cls(p_hat=p, n=n, std_err=float(np.sqrt(p * (1.0 - p) / n)))


@dataclass(frozen=True)
class RandomStream:
    """Counter-based RNG stream: (seed, stream_id) fully determine output.

    Distinct ``stream_id`` values under one seed give statistically
    independent streams, so replication r can simply use stream_id=r.
    :meth:`generator` returns a *fresh* generator each call, so repeated
    calls replay the same sequence.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.Philox(key=[self.seed & 0xFFFFFFFFFFFFFFFF,
                                  self.stream_id & 0xFFFFFFFFFFFFFFFF]))

    def derive(self, substream: int) -> "RandomStream":
        """A dependent substream, offset in the id space to avoid collision
        with replication ids (which are small non-negative integers)."""
        return RandomStream(self.seed, self.stream_id + (substream + 1) * 1_000_003)


def mc_estimate(f: BlackBoxFunction, n: int, rng: RandomStream) -> MCEstimate:
    """Crude Monte Carlo estimate of P(g(X) < y) with X uniform on the cube;
    every point counts as an oracle query."""
    return surrogate_mc_estimate(f.evaluate_batch, f.dimension, f.threshold,
                                 n, rng)


def surrogate_mc_estimate(predictor: Callable, dimension: int, threshold: float,
                          n: int, rng: RandomStream) -> MCEstimate:
    """Monte Carlo failure estimate with the indicator taken on a surrogate.

    :func:`mc_estimate` is this loop with the oracle as predictor, so an
    identical (seed, stream_id) with predictor == g reproduces its p_hat
    exactly.  A plain predictor touches no query counter.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    gen = rng.generator()
    X = gen.random((n, dimension))
    vals = eval_batch(predictor, X)
    hits = int(np.count_nonzero(vals < threshold))
    return MCEstimate.from_counts(hits, n)
