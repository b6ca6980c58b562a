"""Self-contained distribution kernels: regularized incomplete gamma and beta
functions, their inverses, and the standard normal CDF/quantile.

Everything here is double precision and accepts scalars or numpy arrays
(shape parameters are scalar floats; only the main argument is vectorized).
Series and continued fractions follow the classical formulations, with
masked iteration so large arrays converge element by element.
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
# regularized incomplete gamma P(a, x)

def _gamma_series(a: float, x: np.ndarray) -> np.ndarray:
    """Series for P(a,x), valid for x < a+1.  x must be > 0."""
    ap = a
    term = np.full_like(x, 1.0 / a)
    total = term.copy()
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if np.max(np.abs(term)) <= np.min(np.abs(total)) * _EPS:
            break
    else:
        raise NonConvergence("incomplete gamma series stalled")
    return total * np.exp(-x + a * np.log(x) - math.lgamma(a))


def _gamma_cf(a: float, x: np.ndarray) -> np.ndarray:
    """Lentz continued fraction for Q(a,x), valid for x >= a+1."""
    b = x + 1.0 - a
    c = np.full_like(x, 1.0 / _TINY)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d = np.where(np.abs(d) < _TINY, _TINY, d)
        c = b + an / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        d = 1.0 / d
        delta = d * c
        h *= delta
        if np.all(np.abs(delta - 1.0) < _EPS):
            break
    else:
        raise NonConvergence("incomplete gamma continued fraction stalled")
    return h * np.exp(-x + a * np.log(x) - math.lgamma(a))


def _gamma_q_poisson(a: float, x: np.ndarray) -> np.ndarray:
    """Q(a,x) for integer a via the Poisson sum e^-x sum_{k<a} x^k/k!.

    All terms are positive, so the sum carries full relative accuracy;
    used on the x >= a+1 branch where Q is the small quantity.
    """
    n = int(round(a))
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, n):
        term *= x / k
        total += term
    return np.exp(-x) * total


def gamma_cdf(x, shape: float):
    """P(shape, x): CDF of the Gamma(shape, 1) law at x."""
    if shape <= 0.0:
        raise ValueError("shape must be positive")
    arr, scalar = _as_array(x)
    out = np.zeros_like(arr)
    pos = arr > 0.0
    lo = pos & (arr < shape + 1.0)
    hi = pos & ~lo
    if lo.any():
        out[lo] = _gamma_series(shape, arr[lo])
    if hi.any():
        if shape == round(shape) and shape <= 40:
            out[hi] = 1.0 - _gamma_q_poisson(shape, arr[hi])
        else:
            out[hi] = 1.0 - _gamma_cf(shape, arr[hi])
    return _ret(np.clip(out, 0.0, 1.0), scalar)


def gamma_quantile(u, shape: float):
    """Inverse of ``gamma_cdf`` in its first argument.

    u=0 maps to 0 and u=1 to inf; interior values are solved by a
    Wilson-Hilferty start refined with damped Newton steps, which stop
    once |P(shape, x) - u| <= 1e-13 u.  That residual is absolute in
    P = 1 - Q, so in the upper tail the survival function Q = 1 - u is
    matched only to about 1e-13 / (1 - u) relative: against an
    independent inverse survival function, at shape 2 the quantile is
    off by about 0.6% at 1 - u = 4e-13 and by about 9e-8 at
    1 - u = 1e-10.  The error was monotone in u wherever it was measured.

    A single point (a 0-d or one-element input) takes the same steps on
    Python floats, which agrees with the array path to a few 1e-15
    relative; the array path's stopping rules act on the whole batch, so
    its last bits depend on the batch either way.
    """
    if shape <= 0.0:
        raise ValueError("shape must be positive")
    arr, scalar = _as_array(u)
    if arr.size == 1:
        v = float(arr.flat[0])
        if v < 0.0 or v > 1.0:
            raise ValueError("u must lie in [0, 1]")
        if 0.0 < v < 1.0:
            x = _gamma_quantile_one(v, shape)
        elif v == 0.0:
            x = 0.0
        else:
            x = math.inf if v == 1.0 else math.nan
        return x if scalar else np.full(arr.shape, x)
    if np.any((arr < 0.0) | (arr > 1.0)):
        raise ValueError("u must lie in [0, 1]")
    out = np.full_like(arr, np.nan)
    out[arr == 0.0] = 0.0
    out[arr == 1.0] = np.inf
    inner = (arr > 0.0) & (arr < 1.0)
    if inner.any():
        out[inner] = _gamma_quantile_inner(arr[inner], shape)
    return _ret(out, scalar)


def _gamma_quantile_inner(u: np.ndarray, a: float) -> np.ndarray:
    z = normal_quantile(u)
    wh = a * (1.0 - 1.0 / (9.0 * a) + z / (3.0 * math.sqrt(a))) ** 3
    # small-u fallback when Wilson-Hilferty collapses
    x = np.where(wh > 1e-8 * a, wh, np.exp((np.log(u) + math.lgamma(a + 1.0)) / a))
    x = np.maximum(x, 1e-300)
    loggam = math.lgamma(a)
    # Newton on the active (unconverged) subset only; most points finish
    # within four or five iterations
    idx = np.arange(u.size)
    for _ in range(60):
        xa = x[idx]
        ua = u[idx]
        f = gamma_cdf(xa, a) - ua
        logpdf = (a - 1.0) * np.log(xa) - xa - loggam
        step = f * np.exp(-logpdf)
        # multiplicative clamp keeps the iterate positive and stable
        xn = np.clip(xa - step, 0.1 * xa, 10.0 * xa)
        done = np.abs(f) <= 1e-13 * np.maximum(ua, 1e-12)
        done |= np.abs(xn - xa) <= 1e-13 * xa
        x[idx] = np.where(done, xa, xn)
        idx = idx[~done]
        if idx.size == 0:
            break
    else:
        raise NonConvergence("gamma quantile Newton iteration stalled")
    return x


# one-point path: the steps above and in gamma_cdf, on Python floats

def _exp(t: float) -> float:
    """``math.exp`` that overflows to inf, as ``np.exp`` does."""
    try:
        return math.exp(t)
    except OverflowError:
        return math.inf


def _gamma_p_one(x: float, a: float) -> float:
    """``gamma_cdf`` at one point."""
    if x <= 0.0:
        return 0.0
    if x < a + 1.0:
        ap = a
        term = total = 1.0 / a
        for _ in range(_MAX_ITER):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) <= abs(total) * _EPS:
                break
        else:
            raise NonConvergence("incomplete gamma series stalled")
        p = total * _exp(-x + a * math.log(x) - math.lgamma(a))
    elif a == round(a) and a <= 40:
        term = total = 1.0
        for k in range(1, int(round(a))):
            term *= x / k
            total += term
        p = 1.0 - _exp(-x) * total
    else:
        b = x + 1.0 - a
        c = 1.0 / _TINY
        d = 1.0 / b
        h = d
        for i in range(1, _MAX_ITER):
            an = -i * (i - a)
            b = b + 2.0
            d = an * d + b
            if abs(d) < _TINY:
                d = _TINY
            c = b + an / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
            if abs(delta - 1.0) < _EPS:
                break
        else:
            raise NonConvergence("incomplete gamma continued fraction stalled")
        p = 1.0 - h * _exp(-x + a * math.log(x) - math.lgamma(a))
    return min(max(p, 0.0), 1.0)


def _gamma_quantile_one(u: float, a: float) -> float:
    """``_gamma_quantile_inner`` at one point 0 < u < 1."""
    z = _normal_quantile_one(u)
    wh = a * (1.0 - 1.0 / (9.0 * a) + z / (3.0 * math.sqrt(a))) ** 3
    x = wh if wh > 1e-8 * a else \
        _exp((math.log(u) + math.lgamma(a + 1.0)) / a)
    x = max(x, 1e-300)
    loggam = math.lgamma(a)
    for _ in range(60):
        f = _gamma_p_one(x, a) - u
        logpdf = (a - 1.0) * math.log(x) - x - loggam
        step = f * _exp(-logpdf)
        xn = min(max(x - step, 0.1 * x), 10.0 * x)
        if abs(f) <= 1e-13 * max(u, 1e-12) or abs(xn - x) <= 1e-13 * x:
            return x
        x = xn
    raise NonConvergence("gamma quantile Newton iteration stalled")


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
    """I_x(a, b): CDF of the Beta(a, b) law at x."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("beta shapes must be positive")
    arr, scalar = _as_array(x)
    out = np.zeros_like(arr)
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


def _normal_quantile_one(p: float) -> float:
    """``_normal_quantile_inner`` at one point 0 < p < 1."""
    if p < _P_LOW:
        x = _acklam_tail(math.sqrt(-2.0 * math.log(p)))
    elif p > 1.0 - _P_LOW:
        x = -_acklam_tail(math.sqrt(-2.0 * math.log(1.0 - p)))
    else:
        x = _acklam_central(p - 0.5)
    for _ in range(2):
        e = 0.5 * math.erfc(-x / _SQRT2) - p
        un = e * _SQRT_2PI * _exp(0.5 * x * x)
        x = x - un / (1.0 + 0.5 * x * un)
    return x
