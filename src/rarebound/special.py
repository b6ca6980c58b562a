"""Self-contained distribution kernels: regularized incomplete gamma and beta
functions, their inverses, and the standard normal CDF/quantile.

Everything here is double precision and accepts scalars or numpy arrays
(shape parameters are scalar floats; only the main argument is vectorized).
The Gamma and Beta functions take positive integer shapes only, which are
all that example1 uses.  They sum closed-form tails, the Gamma ones as in
DiDonato & Morris (1986) and the Beta ones as binomial tails, and their
quantiles take a fixed number of Newton steps, so a point's bits do not
depend on its batch.  Each quantile states its measured relative error.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "gamma_cdf",
    "gamma_quantile",
    "beta_cdf",
    "beta_quantile",
    "normal_cdf",
    "normal_quantile",
]


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

_NEWTON_STEPS = 4        # from the starts below, a 5th step moves no point beyond rounding
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
    100, 2.1e-14 up to 150 and 3.4e-14 up to 300, and each point the same
    bits alone or in any batch.
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
# regularized incomplete beta at integer shapes.  With n = a+b-1 and
# t_k = C(n, k) x^k (1-x)^(n-k), I_x(a, b) = P(Bin(n, x) >= a), so
#   I_x(a, b) = t_a U,  U = sum_{k>=a} t_k/t_a,  and
#   1 - I_x(a, b) = I_{1-x}(b, a) = t_{a-1} L,  L = sum_{k<a} t_k/t_{a-1}.
# Both sums are finite and positive: beta_cdf takes I from U where
# x < a/(a+b) and 1 - I from L above that.  The pdf is a t_a/x and
# b t_{a-1}/(1-x), so the inverse runs Newton on log I in log x, with slope
# a/U, and on log (1 - I) in log (1-x), with slope b/L.  Both are concave,
# so from its first step on Newton nears the root from one side.

def _log_choose(n: float, k: float) -> float:
    """log C(n, k), summed as log((n-j+i)/i) over i = 1..j, j = min(k, n-k)."""
    j = min(k, n - k)
    i = np.arange(1.0, j + 1.0)
    return math.fsum(np.log((n - j + i) / i))


def _log_beta_tail(x: np.ndarray, a: float, b: float, upper: bool):
    """log I_x(a, b) and U, or with ``upper`` log (1 - I_x(a, b)) and L.
    The sum is taken until no element's next term can change it, so each
    element's bits are those it has alone."""
    lx, ly = np.log(x), np.log1p(-x)
    if upper:
        a, b, lx, ly, r = b, a, ly, lx, (1.0 - x) / x
    else:
        r = x / (1.0 - x)
    n = a + b - 1.0
    term, u, k = np.ones_like(x), np.ones_like(x), a
    while (term > u * _HALF_ULP).any():
        term = term * r * (n - k) / (k + 1.0)
        k += 1.0
        u = u + term
    return _log_choose(n, a) + a * lx + (b - 1.0) * ly + np.log(u), u


def beta_cdf(x, a: float, b: float):
    """I_x(a, b): CDF of the Beta(a, b) law at x, for positive integer
    shapes; NaN at NaN.  At the quantiles below, its relative error is
    3.5e-14 at shapes up to 150 and 3.5e-12 up to 20,000, growing with the
    log of the leading binomial term."""
    a, b = _integer_shape(a), _integer_shape(b)
    arr, scalar = _as_array(x)
    out = np.where(np.isnan(arr), np.nan, 0.0)
    out[arr >= 1.0] = 1.0
    lo = (arr > 0.0) & (arr < a / (a + b))
    hi = (arr >= a / (a + b)) & (arr < 1.0)
    out[lo] = np.exp(_log_beta_tail(arr[lo], a, b, False)[0])
    out[hi] = -np.expm1(_log_beta_tail(arr[hi], a, b, True)[0])
    return _ret(out, scalar)


def beta_quantile(u, a: float, b: float):
    """Inverse of ``beta_cdf`` in its first argument.

    ``a`` and ``b`` must be positive integers; any other raises
    ValueError.  u=0 maps to 0 and u=1 to 1.  Newton steps on the smaller
    tail, I where u <= 1/2 and 1 - I above, give x in both tails down to
    1e-16 to a relative 8.1e-15 at shapes up to 150 and 2.7e-14 up to
    20,000, and each point the same bits alone or in any batch.
    """
    a, b = _integer_shape(a), _integer_shape(b)
    arr, scalar = _as_array(u)
    if np.any((arr < 0.0) | (arr > 1.0)):
        raise ValueError("u must lie in [0, 1]")
    out = np.full_like(arr, np.nan)
    out[arr == 0.0] = 0.0
    out[arr == 1.0] = 1.0
    lo = (arr > 0.0) & (arr <= 0.5)
    hi = (arr > 0.5) & (arr < 1.0)
    out[lo] = _beta_inverse(arr[lo], a, b, False)
    out[hi] = _beta_inverse(1.0 - arr[hi], a, b, True)
    return _ret(out, scalar)


def _beta_inverse(w: np.ndarray, a: float, b: float, upper: bool):
    """x with I_x(a, b) = w, or 1 - I_x(a, b) = w if ``upper``, for every
    w in (0, 1/2].  The start is Abramowitz & Stegun 26.5.22 from a rough
    normal quantile of w, or the bound I <= x^a C(n, a), or
    1 - I <= (1-x)^b C(n, b), where that is nearer the root.  Newton
    scales x on the I side and 1 - x on the other, written as a change of
    x so that a small x keeps its relative precision; a root that rounds
    to 0 or 1 ends at the float inside (0, 1) next to it."""
    lw = np.log(w)
    z = _acklam_tail(np.sqrt(-2.0 * lw))
    y = z if upper else -z
    lam = (y * y - 3.0) / 6.0
    h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
    e = (y * np.sqrt(lam + h) / h - (1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0))
         * (lam + 5.0 / 6.0 - 2.0 / (3.0 * h)))
    x = np.exp(-np.logaddexp(0.0, 2.0 * e + math.log(b / a)))   # a/(a + b e^2e)
    k = b if upper else a
    bound = np.exp((lw - _log_choose(a + b - 1.0, k)) / k)   # on 1 - x if upper
    x = np.minimum(x, 1.0 - bound) if upper else np.maximum(x, bound)
    for _ in range(_NEWTON_STEPS):
        x = np.clip(x, 2.0 ** -1074, 1.0 - 2.0 ** -53)
        lt, s = _log_beta_tail(x, a, b, upper)
        if upper:
            x = x - (1.0 - x) * np.expm1((lw - lt) * s / b)
        else:
            x = x * np.exp((lw - lt) * s / a)
    return np.clip(x, 2.0 ** -1074, 1.0 - 2.0 ** -53)


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
