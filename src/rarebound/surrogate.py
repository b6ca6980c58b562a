"""Conservative surrogates: shifted predictors and dominance-constrained fits.

A cheap regression surrogate of an expensive limit state is useless for
rare-event work unless its errors can be pushed to the safe side.  Two
mechanisms are provided.  The additive route fits any regression family,
then shifts predictions down by the worst overprediction seen on a held-out
test set; a Bernstein-type certificate bounds the probability that a fresh
point is still overpredicted.  The constrained route builds the safety bias
into the fit itself: a least-squares objective minimized subject to
first-order stochastic dominance between the surrogate's values and the
data.  Every point weighs the same, so dominance means sorted predictions
at or below sorted data, rank by rank (Dentcheva & Ruszczynski 2003).  With
the prediction ranks fixed that is a set of linear inequalities on the
model's linear head, so each step is least squares under inequalities
(Lawson & Hanson's LDP/NNLS reduction); the feasible shift is the smallest
gap between the order statistics, confirmed by comparing the shifted
predictions with the data rank by rank.  A coordinate pattern search then
polishes each start, scoring the trials of a sweep as one batch.

Both routes yield estimates that err on the pessimistic side for failure
events of the form g < y.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple, Union

import numpy as np

from .core import RandomStream

DEFAULT_BERNSTEIN_C = 6.0


class NonConvergence(RuntimeError):
    """No shift makes a fit pass the exact dominance check."""


class SingularDesign(ValueError):
    """The polynomial feature matrix is rank deficient."""


class ZeroVariance(ValueError):
    """The response has no variance, so predictivity is undefined."""


# ---------------------------------------------------------------------------
# surrogate families

@dataclass(frozen=True)
class PolynomialFamily:
    """All monomials of total degree at most ``degree`` in ``dimension`` inputs."""

    dimension: int
    degree: int

    def __post_init__(self):
        if self.dimension < 1 or self.degree < 0:
            raise ValueError("dimension must be >= 1 and degree >= 0")

    @cached_property
    def _monomials(self) -> list:
        """Each monomial's coordinates in ascending order, lowest degree first."""
        return [c for k in range(self.degree + 1) for c in
                itertools.combinations_with_replacement(range(self.dimension), k)]

    @cached_property
    def exponents(self) -> np.ndarray:
        E = np.array([[c.count(j) for j in range(self.dimension)]
                      for c in self._monomials], dtype=int)
        E.setflags(write=False)         # one cached table serves every caller
        return E

    @property
    def n_parameters(self) -> int:
        return math.comb(self.dimension + self.degree, self.degree)

    def features(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        # a monomial's column is the column without its last coordinate
        # times that coordinate, so each column is its coordinates
        # multiplied left to right, every step correctly rounded (a square
        # is x * x) and the same on every CPU
        column = {c: i for i, c in enumerate(self._monomials)}
        Phi = np.empty((X.shape[0], len(column)))
        Phi[:, 0] = 1.0
        for c, i in list(column.items())[1:]:
            np.multiply(Phi[:, column[c[:-1]]], X[:, c[-1]], out=Phi[:, i])
        return Phi

    def init_parameters(self, gen: np.random.Generator) -> np.ndarray:
        return np.zeros(self.n_parameters)

    def value_and_grad(self, eta: np.ndarray, X: np.ndarray):
        """Predictions and their pullback ``v -> v @ J``.

        J is the n x P Jacobian of the predictions with respect to eta,
        here the feature matrix itself.
        """
        Phi = self.features(X)
        return Phi @ eta, lambda v: v @ Phi


@dataclass(frozen=True)
class FeedforwardFamily:
    """Small fully connected network with logistic activations.

    ``hidden`` holds the hidden layer widths (one or two layers is typical);
    the readout is linear.  Parameters are stored as a flat vector, so
    the fits and the pattern search treat both families alike.
    """

    dimension: int
    hidden: Tuple[int, ...] = (8, 8)

    def __post_init__(self):
        if self.dimension < 1 or not self.hidden or any(h < 1 for h in self.hidden):
            raise ValueError("need dimension >= 1 and positive hidden widths")

    @cached_property
    def layer_shapes(self) -> Tuple[Tuple[int, int], ...]:
        sizes = [self.dimension, *self.hidden, 1]
        return tuple((sizes[i], sizes[i + 1]) for i in range(len(sizes) - 1))

    @cached_property
    def n_parameters(self) -> int:
        return sum(m * n + n for m, n in self.layer_shapes)

    def _unpack(self, eta: np.ndarray):
        """Views [W; b] of each layer, (m + 1) x n: W row-major, then b as
        the last row.  A leading axis of ``eta`` stacks parameter rows,
        giving blocks of shape (k, m + 1, n)."""
        out = []
        k = 0
        for m, n in self.layer_shapes:
            out.append(eta[..., k:k + (m + 1) * n].reshape(
                eta.shape[:-1] + (m + 1, n)))
            k += (m + 1) * n
        return out

    def init_parameters(self, gen: np.random.Generator) -> np.ndarray:
        parts = []
        for m, n in self.layer_shapes:
            scale = math.sqrt(2.0 / (m + n))
            parts.append(gen.normal(0.0, scale, m * n))
            parts.append(np.zeros(n))
        return np.concatenate(parts)

    def _forward(self, eta: np.ndarray, inputs: np.ndarray):
        """Each layer's input [h; 1], transposed to (m + 1) x n, and the
        predictions, from the first layer's ``inputs`` [X^T; 1]; a layer
        is one product [W; b]^T [h; 1].  A leading axis of ``eta`` stacks
        parameter rows, each formed with the products of a lone row."""
        ins = [inputs]
        blocks = self._unpack(eta)
        for B in blocks[:-1]:
            # logistic in place: 20,000 predictions hold one temporary, not 3
            h = np.matmul(B.swapaxes(-1, -2), ins[-1])
            np.exp(np.negative(h, out=h), out=h)
            np.divide(1.0, np.add(h, 1.0, out=h), out=h)
            ins.append(np.concatenate([h, np.ones_like(h[..., :1, :])], -2))
        return ins, np.matmul(blocks[-1].swapaxes(-1, -2), ins[-1])[..., 0, :]

    def value_and_grad(self, eta: np.ndarray, X: np.ndarray):
        """Predictions and their pullback ``v -> v @ J`` (reverse mode).

        J is the n x P Jacobian of the predictions with respect to eta.
        The forward pass runs here; ``pullback(v)`` runs one reverse pass
        with cotangent ``v[i]`` on sample i and never forms J; a layer's
        gradient block [gW; gb] is one product [h; 1] delta^T.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        ins, pred = self._forward(eta, np.vstack([X.T, np.ones(len(X))]))
        blocks = self._unpack(eta)

        def pullback(v):
            grad = np.empty(self.n_parameters)
            grads = self._unpack(grad)
            delta = np.asarray(v, dtype=float).reshape(1, -1)
            for idx in range(len(blocks) - 1, -1, -1):
                if idx != len(blocks) - 1:
                    a = ins[idx + 1][:-1]
                    delta = delta * a * (1.0 - a)
                grads[idx][...] = ins[idx] @ delta.T
                if idx:
                    delta = blocks[idx][:-1] @ delta
            return grad

        return pred, pullback


Family = Union[PolynomialFamily, FeedforwardFamily]


@dataclass
class RegressionSurrogate:
    """A fitted member of a surrogate family; evaluation is deterministic."""

    family: Family
    eta: np.ndarray

    def predict(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.family.dimension:
            raise ValueError(
                f"expected dimension {self.family.dimension}, got {X.shape[1]}")
        value, _ = self.family.value_and_grad(self.eta, X)
        return value


# ---------------------------------------------------------------------------
# fitting and predictivity

def fit(family: Family, X, y, rng: Optional[RandomStream] = None,
        epochs: int = 3000, lr: float = 0.02, tol: float = 1e-10,
        overpredict_weight: float = 0.0) -> RegressionSurrogate:
    """Fit a surrogate family to data, every point weighing the same.

    Polynomial families are solved by exact least squares;
    feedforward families by full-batch Adam with a seeded deterministic
    initialization, stopping at ``tol`` or after ``epochs``.

    Parameters
    ----------
    family : PolynomialFamily or FeedforwardFamily
    X : array_like, shape (m, d)
    y : array_like, shape (m,)
    rng : RandomStream, optional
        Required for network initialization; ignored for polynomials.
    overpredict_weight : float
        Extra multiplier on the squared loss of positive residuals
        (prediction above truth), making the fit hug the data from below;
        0 keeps the loss symmetric.  Network families only.

    Raises
    ------
    SingularDesign
        If the polynomial feature matrix has deficient rank.
    ValueError
        If there are fewer points than polynomial parameters, or an
        asymmetric loss is requested for a polynomial family.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.size:
        raise ValueError("X and y lengths differ")
    if overpredict_weight < 0.0:
        raise ValueError("overpredict_weight must be >= 0")
    if isinstance(family, PolynomialFamily):
        if overpredict_weight > 0.0:
            raise ValueError(
                "asymmetric loss needs gradient training; use a network family")
        return RegressionSurrogate(
            family=family, eta=_least_squares(family, family.features(X), y))
    gen = (rng or RandomStream(0, 0)).generator()
    eta = _train(family, X, y, family.init_parameters(gen), lr=lr,
                 epochs=epochs, tol=tol, overpredict_weight=overpredict_weight)
    return RegressionSurrogate(family=family, eta=eta)


def _least_squares(family: PolynomialFamily, Phi, y) -> np.ndarray:
    """Exact least-squares coefficients on the feature matrix ``Phi``."""
    if y.size < family.n_parameters:
        raise ValueError(
            f"need at least {family.n_parameters} points, got {y.size}")
    eta, _, rank, _ = np.linalg.lstsq(Phi, y, rcond=None)
    if rank < family.n_parameters:
        raise SingularDesign(
            f"feature rank {rank} < {family.n_parameters} parameters")
    return eta


def _train(family: FeedforwardFamily, X: np.ndarray, y: np.ndarray,
           eta0: np.ndarray, lr: float, epochs: int, tol: float,
           overpredict_weight: float) -> np.ndarray:
    """Full-batch Adam (Kingma & Ba 2015) on the weighted squared loss;
    returns the parameters of the lowest loss seen.

    Each epoch is ``family.value_and_grad``'s forward pass and pullback
    followed by the Adam step, with every product and sum in the same
    order, so the parameters match that reference bit for bit: layer
    inputs [h; 1] transposed, and one product per layer with its block
    [W; b] of the parameters, negated or gradient vector.  All buffers and
    their per-layer views are made once and updated in place.  Hidden
    layers form -[W; b]^T [h; 1] with the negated block, which is exact
    because rounding to nearest is symmetric in sign.
    """
    # about 38 NumPy calls an epoch on arrays of a few hundred numbers:
    # call overhead, not arithmetic, sets the cost, so the functions
    # called most are local names, and np.dot (cheaper per call than
    # np.matmul, with the same bits) forms the products
    dot, exp, add, subtract, multiply, divide = (
        np.dot, np.exp, np.add, np.subtract, np.multiply, np.divide)
    n = y.size
    last = len(family.layer_shapes) - 1
    x, neg, g = eta0.copy(), np.empty_like(eta0), np.empty_like(eta0)
    readout_T = family._unpack(x)[last].T
    weights = [B[:-1] for B in family._unpack(x)]
    neg_T = [B.T for B in family._unpack(neg)]
    grads = family._unpack(g)
    # the layer inputs [h; 1]; hidden layer idx writes the rows outs[idx]
    ins = family._forward(x, np.vstack([X.T, np.ones(n)]))[0]
    outs = [h[:-1] for h in ins[1:]]
    z = np.empty((1, n))
    pred = z.reshape(n)
    r, scale, sr, work = (np.empty(n) for _ in range(4))
    # the delta of each layer's output; the readout's is the cotangent
    deltas = [np.empty((w, n)) for w in family.hidden] + [work.reshape(1, n)]
    deltas_T = [d.T for d in deltas]
    positive = np.empty(n, dtype=bool)
    index = positive.view(np.uint8)
    # the loss weight of a residual: wn, or wn (1 + w) where it is positive
    loss_weights = (1.0 / n) * (1.0 + overpredict_weight * np.array([0.0, 1.0]))
    b1, b2, eps = 0.9, 0.999, 1e-8
    decay = np.array([[b1], [b2]])
    rate = np.array([[1 - b1], [1 - b2]])
    bias_fix = np.empty((2, 1))
    moments = np.zeros((2, eta0.size))      # rows m and v
    step = np.empty((2, eta0.size))
    step_m, step_v = step
    best, best_loss = x.copy(), math.inf
    for t in range(1, epochs + 1):
        np.negative(x, out=neg)
        for idx in range(last):
            a = outs[idx]
            dot(neg_T[idx], ins[idx], out=a)
            exp(a, out=a)
            add(a, 1.0, out=a)
            divide(1.0, a, out=a)
        dot(readout_T, ins[last], out=z)

        subtract(pred, y, out=r)
        np.greater(r, 0.0, out=positive)
        loss_weights.take(index, None, scale, "clip")
        multiply(scale, r, out=sr)
        multiply(sr, r, out=work)
        # add.reduce is np.sum without its Python wrapper
        loss = float(add.reduce(work))
        if loss < best_loss:
            best_loss = loss
            np.copyto(best, x)
        if loss <= tol:
            break

        multiply(sr, 2.0, out=work)
        for idx in range(last, -1, -1):
            delta = deltas[idx]
            if idx != last:
                # layer idx + 1 has read its input a, so a can take 1 - a
                a = outs[idx]
                multiply(delta, a, out=delta)
                subtract(1.0, a, out=a)
                multiply(delta, a, out=delta)
            dot(ins[idx], deltas_T[idx], out=grads[idx])
            if idx:
                dot(weights[idx], delta, out=deltas[idx - 1])

        multiply(g, rate, out=step)
        multiply(step_v, g, out=step_v)
        multiply(moments, decay, out=moments)
        add(moments, step, out=moments)
        bias_fix[0, 0] = 1 - b1 ** t
        bias_fix[1, 0] = 1 - b2 ** t
        divide(moments, bias_fix, out=step)
        np.sqrt(step_v, out=step_v)
        add(step_v, eps, out=step_v)
        multiply(step_m, lr, out=step_m)
        divide(step_m, step_v, out=step_m)
        subtract(x, step_m, out=x)
    return best


def q2(model: RegressionSurrogate, X, y) -> float:
    """Predictivity 1 - SSE/SST on a validation set.

    Raises
    ------
    ZeroVariance
        If the validation responses are constant.
    """
    y = np.asarray(y, dtype=float).ravel()
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        raise ZeroVariance("validation responses are constant")
    pred = model.predict(X)
    return 1.0 - float(np.sum((y - pred) ** 2)) / sst


# ---------------------------------------------------------------------------
# additive conservative shift

def _check_constant(C: float) -> None:
    if not 0.0 < C < math.inf:      # also rejects nan
        raise ValueError(f"C must be finite and > 0, got {C}")


def bernstein_bound(n: int, alpha: float, C: float = DEFAULT_BERNSTEIN_C) -> float:
    """Certificate level B(n, alpha) = (C/n) log(n/alpha)."""
    if n < 2:
        raise ValueError("need n >= 2 test points")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    _check_constant(C)
    return (C / n) * math.log(n / alpha)


def lambda_risk(n: int, p: float, C: float = DEFAULT_BERNSTEIN_C) -> float:
    """Risk level lambda(n, p) = min(1, n exp(-n p / C))."""
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    _check_constant(C)
    return min(1.0, n * math.exp(-n * p / C))


def lambda_crossing(p: float, C: float = DEFAULT_BERNSTEIN_C,
                    tol: float = 1e-9) -> float:
    """Test-set size n at which lambda(n, p) falls to p.

    Solves ``n exp(-n p / C) = p`` on the decreasing branch (n beyond the
    mode C/p) by bisection.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    _check_constant(C)
    lo = C / p                      # mode of n exp(-n p / C)
    hi = lo
    while lambda_risk(max(1, int(hi)), p, C) > p:
        hi *= 2.0
    f = lambda n: n * math.exp(-n * p / C) - p
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ShiftCertificate:
    """What the shift was certified on: test size, level, and bound."""

    n_test: int
    alpha: float
    bernstein_bound: float
    c_constant: float = DEFAULT_BERNSTEIN_C


@dataclass
class ShiftedSurrogate:
    """A surrogate with an additive downward shift making it test-set safe."""

    base: RegressionSurrogate
    theta: float
    certificate: ShiftCertificate

    def __post_init__(self):
        if self.theta > 0.0:
            raise ValueError(f"shift must be <= 0, got {self.theta}")

    def predict(self, X) -> np.ndarray:
        return self.base.predict(X) + self.theta


def conservative_shift(model: RegressionSurrogate, X_test, y_test,
                       alpha: float = 0.1,
                       C: float = DEFAULT_BERNSTEIN_C) -> ShiftedSurrogate:
    """Shift a fitted surrogate down past its worst test-set overprediction.

    With residuals r_i = prediction - truth on ``n`` held-out points, the
    shift is ``theta* = min(0, -max_i r_i)``, so the shifted surrogate never
    overpredicts on the certifying set.  The certificate records
    B(n, alpha) = (C/n) log(n/alpha), the level at which fresh-point
    overprediction frequency is controlled.

    The test set must be disjoint from the data the model was trained on;
    the certificate is meaningless otherwise.
    """
    y_test = np.asarray(y_test, dtype=float).ravel()
    if y_test.size < 2:
        raise ValueError("need at least 2 test points")
    resid = model.predict(X_test) - y_test
    theta = min(0.0, -float(resid.max()))
    cert = ShiftCertificate(n_test=y_test.size, alpha=alpha,
                            bernstein_bound=bernstein_bound(y_test.size, alpha, C),
                            c_constant=C)
    return ShiftedSurrogate(base=model, theta=theta, certificate=cert)


# ---------------------------------------------------------------------------
# first-order stochastic dominance machinery

def check_fsd(sample_a, sample_b) -> float:
    """Largest signed dominance violation between two equal-size samples.

    The first sample must be stochastically smaller: its empirical CDF
    must sit on or above the second's at every anchor (the union of both
    samples' values), which holds exactly when its sorted values are at
    or below the second's, rank by rank.  The return value is the worst
    CDF gap, counted exactly; nonpositive means dominance holds.  Swap the
    samples for the other direction.
    """
    a = np.asarray(sample_a, dtype=float).ravel()
    b = np.asarray(sample_b, dtype=float).ravel()
    if a.size != b.size:
        raise ValueError("samples must have equal length")
    return float(_exact_violations(a, b, np.sort(b)).max())


@dataclass
class FSDFitResult:
    """Outcome of a dominance-constrained fit.

    ``violations`` holds, for the returned shift, the signed gap between
    the empirical CDFs of the data and of the shifted predictions at every
    anchor, from exact counts; all nonpositive means dominance holds.
    """

    surrogate: RegressionSurrogate
    theta_star: float
    violations: np.ndarray

    def predict(self, X) -> np.ndarray:
        return self.surrogate.predict(X) + self.theta_star


def _exact_violations(pred_shifted: np.ndarray, y: np.ndarray,
                      ys: np.ndarray) -> np.ndarray:
    # anchors: the union of both jump sets (ys is y sorted); dominance
    # there implies it everywhere for step CDFs.  Counts make the sign exact.
    anchors = np.concatenate([pred_shifted, y])
    Fs = np.searchsorted(np.sort(pred_shifted), anchors, "right")
    Fy = np.searchsorted(ys, anchors, "right")
    return (Fy - Fs) / y.size


def _shift_limit(pred: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Largest feasible shift for fixed surrogate values, in closed form.

    ``pred`` holds one row of predictions per trial (any leading shape,
    the data axis last).  Every theta up to the smallest gap between the
    sorted data ``ys`` and a row's sorted predictions is feasible.  Each
    row's result passes the exact test: with equal weights, dominance is
    the shifted predictions at or below the data rank by rank (Dentcheva &
    Ruszczynski 2003), the condition :func:`check_fsd` decides by counting.
    A row that still fails after two one-ulp steps gets nan.
    """
    sp = np.sort(pred, axis=-1, kind="stable")
    theta = np.min(ys - sp, axis=-1)
    # theta carries the rounding of the gap, and pred + theta rounds again;
    # one ulp toward the feasible side absorbs both.  Rounding is monotone,
    # so sp + theta is the sort of pred + theta, bit for bit
    for _ in range(2):
        failed = ~(sp + theta[..., None] <= ys).all(axis=-1)
        if not failed.any():
            return theta
        theta = np.where(failed, np.nextafter(theta, -np.inf), theta)
    return np.where(failed, np.nan, theta)


class _Profile:
    """Trials -> (objective, theta) on one fit's data, each trial at its
    optimal feasible shift: the least-squares shift clipped to the feasible
    side.  What depends on the data alone, a polynomial's feature matrix
    ``Phi`` or a network's input [X^T; 1], and the stable sort ``ys`` of
    the data, is built once.  :meth:`rows` scores a batch of parameter
    rows at once, and a call on one parameter vector is the batch of one.
    Every row is computed with the products, sums and sorts a lone trial
    would use, so a row's bits do not depend on its batch."""

    def __init__(self, family: Family, X: np.ndarray, y: np.ndarray):
        self.family, self.y = family, y
        poly = isinstance(family, PolynomialFamily)
        self.Phi = family.features(X) if poly else None
        self.inputs = None if poly else np.vstack([X.T, np.ones(len(X))])
        self.ys = np.sort(y, kind="stable")

    def predict(self, T: np.ndarray) -> np.ndarray:
        """Predictions of each parameter row of ``T`` (k x P), k x m."""
        if self.Phi is not None:
            # one matrix-vector product per row, the one Phi @ eta makes
            return np.matmul(self.Phi, T[:, :, None])[:, :, 0]
        # value_and_grad's forward pass, stacked: one product per row
        return self.family._forward(T, self.inputs)[1]

    def rows(self, T: np.ndarray):
        """Objective, shift and infeasibility of each parameter row of
        ``T`` (k x P), as three length-k arrays; an infeasible row is one
        that no shift passes the exact test for."""
        pred = self.predict(T)
        w = 1.0 / self.y.size
        # add.reduce is np.sum without its Python wrapper
        gap = self.y - pred
        t_ls = np.add.reduce(w * gap, axis=1)
        limit = _shift_limit(pred, self.ys)
        # Python's min(t_ls, limit): limit only where strictly lower
        t = np.where(limit < t_ls, limit, t_ls)
        r = gap - t[:, None]
        return np.add.reduce(w * r * r, axis=1), t, np.isnan(limit)

    def __call__(self, eta: np.ndarray) -> Tuple[float, float]:
        vals, t, failed = self.rows(eta[None])
        if failed[0]:
            raise NonConvergence("no shift passes the exact dominance check")
        return float(vals[0]), float(t[0])


def _pattern_polish(profile: _Profile, eta: np.ndarray,
                    rounds: int = 80) -> Tuple[np.ndarray, float, float]:
    """Coordinate pattern search on the exact constrained objective
    (Hooke & Jeeves 1961).

    Moves one parameter at a time, +step before -step, coordinates in
    order, and takes the first trial that lowers the objective, then goes
    on from the next coordinate; steps halve when a sweep makes no
    progress.  Every trial's shift is solved exactly, so every trial is
    feasible.  Until a trial is taken all remaining trials of a sweep start
    from the same point, so they are scored as one batch of
    :meth:`_Profile.rows`; the rows after the first improving one are
    dropped, and a row without a feasible shift raises only if it comes
    before that one.  The offset parameter (the constant monomial, or the
    network's readout bias) adds a constant to every prediction, which the
    profiled shift cancels exactly, so it is never moved.
    """
    best, theta = profile(eta)
    offset = 0 if profile.Phi is not None else eta.size - 1
    steps = 0.1 * np.maximum(np.abs(eta), 1.0)
    steps[offset] = 0.0
    for _ in range(rounds):
        improved = False
        coords = np.flatnonzero(steps)
        c = 0
        while c < coords.size:
            # rows 2i and 2i + 1 move coordinate rest[i] by +step and -step
            rest = coords[c:]
            T = np.repeat(eta[None], 2 * rest.size, axis=0)
            T[np.arange(len(T)), rest.repeat(2)] += np.stack(
                [steps[rest], -steps[rest]], axis=1).ravel()
            vals, t, failed = profile.rows(T)
            lower = vals < best
            first = int(lower.argmax()) if lower.any() else len(T)
            if failed[:first + 1].any():
                raise NonConvergence(
                    "no shift passes the exact dominance check")
            if first == len(T):
                break
            eta = T[first].copy()
            best, theta = float(vals[first]), float(t[first])
            improved = True
            c += first // 2 + 1
        if not improved:
            steps *= 0.5
            if steps.max() < 1e-10:
                break
    return eta, theta, best


def _nnls(M: np.ndarray, d: np.ndarray) -> np.ndarray:
    """min ||M x - d|| subject to x >= 0, by the Lawson-Hanson active set."""
    n = M.shape[1]
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    tol = 10.0 * max(M.shape) * np.finfo(float).eps * np.abs(M).sum(axis=0).max()
    for _ in range(3 * n):
        grad = M.T @ (d - M @ x)
        grad[passive] = -np.inf
        j = int(np.argmax(grad))
        if grad[j] <= tol:
            break
        passive[j] = True
        while True:
            s = np.zeros(n)
            s[passive] = np.linalg.lstsq(M[:, passive], d, rcond=None)[0]
            if s[passive].min(initial=np.inf) > 0.0:
                break
            # step back to the boundary and free the variables that hit it
            neg = passive & (s <= 0.0)
            x += np.min(x[neg] / (x[neg] - s[neg])) * (s - x)
            passive &= x > tol
            x[~passive] = 0.0
        x = s
    return x


def _lsi(A: np.ndarray, b: np.ndarray, G: np.ndarray,
         h: np.ndarray) -> Optional[np.ndarray]:
    """min ||A z - b|| subject to G z <= h (Lawson & Hanson 1974, ch. 23).

    A = QR turns it into least distance programming, min ||u|| subject to
    E u <= c with z = R^-1 (u + Q^T b), which one NNLS solves.  None when
    A is rank deficient or the constraints are infeasible.
    """
    Q, R = np.linalg.qr(A)
    diag = np.abs(np.diag(R))
    if diag.min() <= A.shape[1] * np.finfo(float).eps * diag.max():
        return None
    f = Q.T @ b
    E = np.linalg.solve(R.T, G.T).T
    c = h - E @ f
    # the NNLS residual r = [E^T; c^T] x + e_last gives u = -r[:-1] / r[-1],
    # and r = 0 certifies that no u is feasible
    M = np.vstack([E.T, c])
    d = np.zeros(M.shape[0])
    d[-1] = -1.0
    r = M @ _nnls(M, d) - d
    if not r[-1] > 0.0:
        return None
    return np.linalg.solve(R, f - r[:-1] / r[-1])


def _linear_head(profile: _Profile, eta: np.ndarray) -> np.ndarray:
    """Design H of the linear readout, predictions ``H @ eta[-H.shape[1]:]``:
    the polynomial features, or a network's last hidden activations and a
    ones column for the readout bias."""
    if profile.Phi is not None:
        return profile.Phi
    return profile.family._forward(eta, profile.inputs)[0][-1].T


def fsd_fit(family: Family, X, y, restarts: int = 2, epochs: int = 600,
            lr: float = 0.02,
            rng: Optional[RandomStream] = None) -> FSDFitResult:
    """Least squares under first-order stochastic dominance constraints.

    Minimizes ``mean_i (y_i - g_eta(x_i) - theta)^2`` subject to the
    shifted surrogate values sitting stochastically below the data in the
    first-order sense (for a fit from above, fit -y and negate the
    predictions).  With equal weights that is: the k-th smallest shifted
    prediction at most the k-th smallest datum, for every rank k.  Each
    start alternates, while the exact objective falls, between sorting the
    predictions and refitting the linear head (all polynomial
    coefficients, or a network's readout) by least squares under those
    order-statistic inequalities.  A coordinate pattern search on the
    exact problem then polishes the result.  It scores the remaining trials
    of each sweep as one batch, every trial's shift solved in closed form
    and confirmed exactly, sorted shifted predictions against sorted data
    rank by rank, so feasibility never rests on the least-squares solves;
    it takes the trials in the order a one-at-a-time search would, with
    the same bits.  The returned ``violations`` are exact counts.

    Parameters
    ----------
    family : PolynomialFamily or FeedforwardFamily
    X, y : array_like
        Training data.
    restarts : int
        Extra starts: the unconstrained fit plus Gaussian jitter.
    epochs, lr : int, float
        Training of the unconstrained network fit; unused for polynomials.
    rng : RandomStream, optional
        Draws the restart jitter.  A network's initial weights come from
        ``rng.derive(1)``; ``derive(0)`` would be the fsd runner's MC stream.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    rng = rng or RandomStream(0, 0)
    gen = rng.generator()
    profile = _Profile(family, X, y)
    start = (_least_squares(family, profile.Phi, y) if profile.Phi is not None
             else fit(family, X, y, rng.derive(1), epochs=epochs, lr=lr).eta)

    # rows scaled by sqrt(1/m): the least-squares objective is the mean
    sw = math.sqrt(1.0 / y.size)

    def one_start(eta):
        best, _ = profile(eta)
        for _ in range(100):
            # refit the linear head under the inequalities matched to the
            # current ranks; the current point with its feasible shift
            # satisfies them, and the head's ones column absorbs the shift
            H = _linear_head(profile, eta)
            n = H.shape[1]
            po = np.argsort(H @ eta[-n:], kind="stable")
            z = _lsi(H * sw, y * sw, H[po], profile.ys)
            if z is None:
                break
            trial = eta.copy()
            trial[-n:] = z
            val, _ = profile(trial)
            if not val < best:
                break
            eta, best = trial, val
        return _pattern_polish(profile, eta)

    scale = float(np.std(start)) or 1.0
    starts = [start] + [start + gen.normal(0.0, 0.2 * scale, start.size)
                        for _ in range(restarts)]
    eta, theta, _ = min((one_start(s0) for s0 in starts), key=lambda c: c[2])
    viol = _exact_violations(profile.predict(eta[None])[0] + theta, y,
                             profile.ys)
    surrogate = RegressionSurrogate(family=family, eta=eta)
    return FSDFitResult(surrogate=surrogate, theta_star=float(theta),
                        violations=viol)
