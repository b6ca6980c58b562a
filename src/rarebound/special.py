"""Self-contained distribution kernels: regularized incomplete gamma and beta
functions, their inverses, and the standard normal CDF/quantile.

Everything here is double precision and accepts scalars or numpy arrays
(shape parameters are scalar floats; only the main argument is vectorized).
The Gamma functions take positive integer shapes only, which are all that
example1 uses.  They sum the closed-form tails (DiDonato & Morris 1986); the
quantile's relative error in both tails is at most 3.8e-15 at shapes up to
10, growing to 3.4e-14 at 300, and a point's bits do not depend on its
batch.  The Beta functions use the classical continued fraction, and their
iterations stop when the whole batch has converged, so their last bits
depend on it.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "NonConvergence",
    "gamma_cdf",
    "gamma_quantile",
    "beta_cdf",
    "beta_quantile",
    "normal_cdf",
    "normal_quantile",
]

_EPS = 1e-15
_TINY = 1e-300
_MAX_ITER = 600


class NonConvergence(RuntimeError):
    """An iterative expansion or root solve failed to reach tolerance."""


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _ret(arr, scalar):
    return float(arr) if scalar else arr


# ---------------------------------------------------------------------------
# regularized incomplete gamma at integer shapes.  With a = shape, pdf
# f = x^(a-1) e^-x / (a-1)! and
#   Q(a, x) = e^-x sum_{k<a} x^k/k!,  so  Q/f = R = sum_{j<a} (a-1)!/(a-1-j)! / x^j,
#   P(a, x) = e^-x x^a/a! T,  T = sum_{j>=0} x^j a!/(a+j)!,  so  P/f = x T / a.
# Both sums are positive, so they lose no accuracy in either tail: gamma_cdf
# takes P from T where x < a+1 and Q from R above that, and the inverse runs
# Newton on log Q = log R + (a-1) log x - x - log (a-1)! and on
# log P = log T + a log x - x - log a!.

_NEWTON_STEPS = 4        # from the start below, a 5th step moves no point beyond rounding
_HALF_ULP = 2.0 ** -54   # a term at most T * 2^-54 cannot change the sum T


def _integer_shape(shape) -> float:
    """``shape`` as a float, or ValueError unless it is a positive integer."""
    a = float(shape)
    if not (a.is_integer() and a >= 1.0):
        raise ValueError("shape must be a positive integer")
    return a


def _sum_r(a: float, x: np.ndarray) -> np.ndarray:
    """R = Q/f by Horner's rule, for x > 0."""
    r = np.ones_like(x)
    for k in range(1, int(a)):
        r = 1.0 + r * k / x
    return r


def _sum_t(a: float, x: np.ndarray) -> np.ndarray:
    """T = P e^x a!/x^a, for x > 0, summed until no element's next term
    can change its sum, so each element's bits are those it has alone."""
    term = np.ones_like(x)
    t = np.ones_like(x)
    j = a
    while (term > t * _HALF_ULP).any():
        j += 1.0
        term = term * x / j
        t = t + term
    return t


def gamma_cdf(x, shape: float):
    """P(shape, x): CDF of the Gamma(shape, 1) law at x, for a positive
    integer shape; NaN at NaN."""
    a = _integer_shape(shape)
    arr, scalar = _as_array(x)
    out = np.where(np.isnan(arr), np.nan, 0.0)
    out[arr == np.inf] = 1.0
    lo = (arr > 0.0) & (arr < a + 1.0)
    hi = (arr >= a + 1.0) & (arr < np.inf)
    if lo.any():
        xl = arr[lo]
        out[lo] = _sum_t(a, xl) * np.exp(a * np.log(xl) - xl - math.lgamma(a + 1.0))
    if hi.any():
        xh = arr[hi]
        out[hi] = 1.0 - _sum_r(a, xh) * np.exp((a - 1.0) * np.log(xh) - xh
                                               - math.lgamma(a))
    return _ret(np.clip(out, 0.0, 1.0), scalar)


def gamma_quantile(u, shape: float, upper: bool = False):
    """Inverse of ``gamma_cdf`` in its first argument, or with ``upper``
    the inverse of the survival function Q = 1 - P.

    ``shape`` must be a positive integer; any other raises ValueError.
    P = 0 maps to x = 0 and P = 1 to inf, so with ``upper`` u=0 maps to
    inf and u=1 to 0.  Newton steps on the closed-form tails give x in
    both tails to a relative 3.8e-15 at shapes up to 10, 1.7e-14 up to
    100 and 3.4e-14 up to 300, and each point the same bits alone or in
    any batch.
    """
    a = _integer_shape(shape)
    arr, scalar = _as_array(u)
    inner = (arr > 0.0) & (arr < 1.0)
    if inner.all():
        return _ret(_integer_gamma_inverse(arr, a, upper), scalar)
    if np.any((arr < 0.0) | (arr > 1.0)):
        raise ValueError("u must lie in [0, 1]")
    out = np.full_like(arr, np.nan)
    out[arr == 0.0] = np.inf if upper else 0.0
    out[arr == 1.0] = 0.0 if upper else np.inf
    if inner.any():
        out[inner] = _integer_gamma_inverse(arr[inner], a, upper)
    return _ret(out, scalar)


def _integer_gamma_inverse(v: np.ndarray, a: float, upper: bool) -> np.ndarray:
    """x with P(a, x) = v, or Q(a, x) = v if ``upper``, elementwise.

    ``a`` is a positive integer and every v lies in (0, 1).  Newton runs a
    fixed number of steps on log P where P <= 1/2 and on log Q where
    Q < 1/2; the other of P and Q is taken as 1 - v, which is exact there.
    Since T's length follows each element alone, a one-element input takes
    the same steps on Python floats, which is faster.
    """
    if v.size == 1:
        return np.full(v.shape, _integer_gamma_inverse_one(v.item(), a, upper))
    flip = v > 0.5
    w = np.where(flip, 1.0 - v, v)
    on_q = flip != upper
    lw = np.log(w)
    # Wilson-Hilferty from a rough normal quantile of w; in the lower tail
    # also (w a!)^(1/a), which lies below the root since P <= x^a/a!
    z = _acklam_tail(np.sqrt(-2.0 * lw))
    c = 1.0 - 1.0 / (9.0 * a) + np.where(on_q, -z, z) / (3.0 * math.sqrt(a))
    x = a * (c * c * c)
    x = np.where(on_q, x, np.maximum(x, np.exp((lw + math.lgamma(a + 1.0)) / a)))
    if on_q.any():
        xq, lq = x[on_q], lw[on_q]
        for _ in range(_NEWTON_STEPS):
            r = _sum_r(a, xq)
            xq = xq + (np.log(r) + (a - 1.0) * np.log(xq) - xq
                       - math.lgamma(a) - lq) * r
        x[on_q] = xq
    if not on_q.all():
        xp, lp = x[~on_q], lw[~on_q]
        for _ in range(_NEWTON_STEPS):
            t = _sum_t(a, xp)
            xp = xp - (np.log(t) + a * np.log(xp) - xp
                       - math.lgamma(a + 1.0) - lp) * xp * t / a
        x[~on_q] = xp
    return x


def _integer_gamma_inverse_one(v: float, a: float, upper: bool) -> float:
    """``_integer_gamma_inverse`` at one point; NumPy's scalar log and exp
    give the bits of its array loops, where ``math``'s sometimes differ."""
    flip = v > 0.5
    w = 1.0 - v if flip else v
    on_q = flip != upper
    lw = float(np.log(w))
    z = _acklam_tail(math.sqrt(-2.0 * lw))
    c = 1.0 - 1.0 / (9.0 * a) + (-z if on_q else z) / (3.0 * math.sqrt(a))
    x = a * (c * c * c)
    if on_q:
        for _ in range(_NEWTON_STEPS):
            r = 1.0
            for k in range(1, int(a)):
                r = 1.0 + r * k / x
            x = x + (float(np.log(r)) + (a - 1.0) * float(np.log(x)) - x
                     - math.lgamma(a) - lw) * r
        return x
    x = max(x, float(np.exp((lw + math.lgamma(a + 1.0)) / a)))
    for _ in range(_NEWTON_STEPS):
        term = t = 1.0
        j = a
        while term > t * _HALF_ULP:
            j += 1.0
            term = term * x / j
            t = t + term
        x = x - (float(np.log(t)) + a * float(np.log(x)) - x
                 - math.lgamma(a + 1.0) - lw) * x * t / a
    return x


# ---------------------------------------------------------------------------
# regularized incomplete beta I_x(a, b)

def _beta_cf(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Lentz continued fraction for the incomplete beta, x < (a+1)/(a+b+2)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d = np.where(np.abs(d) < _TINY, _TINY, d)
    d = 1.0 / d
    h = d.copy()
    for m in range(1, _MAX_ITER):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < _TINY, _TINY, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < _TINY, _TINY, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        d = 1.0 / d
        delta = d * c
        h *= delta
        if np.all(np.abs(delta - 1.0) < _EPS):
            break
    else:
        raise NonConvergence("incomplete beta continued fraction stalled")
    return h


def beta_cdf(x, a: float, b: float):
    """I_x(a, b): CDF of the Beta(a, b) law at x; NaN at NaN."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("beta shapes must be positive")
    arr, scalar = _as_array(x)
    out = np.where(np.isnan(arr), np.nan, 0.0)
    out[arr >= 1.0] = 1.0
    inner = (arr > 0.0) & (arr < 1.0)
    if inner.any():
        xi = arr[inner]
        front = np.exp(
            math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
            + a * np.log(xi) + b * np.log1p(-xi)
        )
        res = np.empty_like(xi)
        direct = xi < (a + 1.0) / (a + b + 2.0)
        if direct.any():
            res[direct] = front[direct] * _beta_cf(a, b, xi[direct]) / a
        flip = ~direct
        if flip.any():
            res[flip] = 1.0 - front[flip] * _beta_cf(b, a, 1.0 - xi[flip]) / b
        out[inner] = res
    return _ret(np.clip(out, 0.0, 1.0), scalar)


def beta_quantile(u, a: float, b: float):
    """Inverse of ``beta_cdf``: bisection-bracketed Newton on [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("beta shapes must be positive")
    arr, scalar = _as_array(u)
    if np.any((arr < 0.0) | (arr > 1.0)):
        raise ValueError("u must lie in [0, 1]")
    out = np.full_like(arr, np.nan)
    out[arr == 0.0] = 0.0
    out[arr == 1.0] = 1.0
    inner = (arr > 0.0) & (arr < 1.0)
    if inner.any():
        out[inner] = _beta_quantile_inner(arr[inner], a, b)
    return _ret(out, scalar)


def _beta_quantile_inner(u: np.ndarray, a: float, b: float) -> np.ndarray:
    lo = np.zeros_like(u)
    hi = np.ones_like(u)
    x = np.full_like(u, a / (a + b))
    logbeta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    for _ in range(200):
        f = beta_cdf(x, a, b) - u
        lo = np.where(f < 0.0, x, lo)
        hi = np.where(f > 0.0, x, hi)
        logpdf = (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x) - logbeta
        xn = x - f * np.exp(-logpdf)
        # fall back to bisection whenever Newton leaves the bracket
        bad = ~((xn > lo) & (xn < hi))
        xn = np.where(bad, 0.5 * (lo + hi), xn)
        if np.all(np.abs(xn - x) <= 1e-14 + 1e-12 * np.abs(x)):
            return xn
        x = xn
    raise NonConvergence("beta quantile iteration stalled")


# ---------------------------------------------------------------------------
# standard normal

_erfc_u = np.frompyfunc(math.erfc, 1, 1)

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def normal_cdf(x):
    """Standard normal CDF, accurate in both tails."""
    arr, scalar = _as_array(x)
    if scalar:
        return 0.5 * math.erfc(-float(arr) / _SQRT2)
    return 0.5 * _erfc_u(-arr / _SQRT2).astype(float)


# rational approximation coefficients (Acklam), polished below to ~1e-15
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425           # the tail rational below this, the central above


def normal_quantile(u):
    """Standard normal quantile.  u=0 and u=1 map to -inf / +inf."""
    arr, scalar = _as_array(u)
    if np.any((arr < 0.0) | (arr > 1.0)):
        raise ValueError("u must lie in [0, 1]")
    out = np.full_like(arr, np.nan)
    out[arr == 0.0] = -np.inf
    out[arr == 1.0] = np.inf
    inner = (arr > 0.0) & (arr < 1.0)
    if inner.any():
        out[inner] = _normal_quantile_inner(arr[inner])
    return _ret(out, scalar)


def _acklam_tail(q):
    """Acklam's lower-tail rational in q = sqrt(-2 log p), floats or arrays."""
    return ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
            / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))


def _acklam_central(q):
    """Acklam's central rational in q = p - 1/2, floats or arrays."""
    r = q * q
    return ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
            / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))


def _normal_quantile_inner(p: np.ndarray) -> np.ndarray:
    x = np.empty_like(p)
    lo = p < _P_LOW
    hi = p > 1.0 - _P_LOW
    mid = ~(lo | hi)
    if lo.any():
        x[lo] = _acklam_tail(np.sqrt(-2.0 * np.log(p[lo])))
    if hi.any():
        x[hi] = -_acklam_tail(np.sqrt(-2.0 * np.log(1.0 - p[hi])))
    if mid.any():
        x[mid] = _acklam_central(p[mid] - 0.5)
    # two Halley steps against the exact CDF
    for _ in range(2):
        e = normal_cdf(x) - p
        un = e * _SQRT_2PI * np.exp(0.5 * x * x)
        x = x - un / (1.0 + 0.5 * x * un)
    return x
