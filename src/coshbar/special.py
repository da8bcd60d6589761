"""Complex-parameter special functions: log-gamma, Gauss 2F1, Legendre P.

Everything here is written against the needs of the barrier problem: gamma
functions of arguments like 1 + nu - i*kappa, the Gauss hypergeometric
function on a real argument in [0, 1), and the general associated Legendre
function P_nu^mu(x) on (-1, 1) for arbitrary complex degree and purely
imaginary (or general complex) order,

    P_nu^mu(x) = [1/Gamma(1-mu)] * [(1+x)/(1-x)]^(mu/2)
               * F(-nu, nu+1; 1-mu; (1-x)/2).

Log-gamma is scipy.special.loggamma behind a pole check; 2F1 and Legendre P
are written here, because scipy has no Gauss 2F1 for complex parameters.
The private cores broadcast over every argument, z included, so a wave-
function grid is one array computation in which an element they cannot
resolve is non-finite and fails alone; the public functions raise for it.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ConvergenceError, DegenerateTransformError, PoleError

__all__ = ["log_gamma", "hyp2f1", "legendre_P", "legendre_P_tanh"]

SERIES_MAX_TERMS = 10_000
SERIES_RTOL = 1e-16


def _is_nonpositive_int(z) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    return (z.real <= 0.0) & (z == np.round(z.real))


def log_gamma(z):
    """Principal-branch log Gamma(z) for complex z (scalar or array).

    scipy.special.loggamma, the analytic continuation with its branch cut on
    the negative real axis; a scalar in gives a complex out, an array in an
    array of the same shape.  Raises PoleError at z in {0, -1, -2, ...}.
    """
    # Imported on first use: importing the package then loads only the grid
    # oracle's scipy.linalg, and scipy.special (about 50 ms more) is paid by
    # the first computation that needs it.
    from scipy.special import loggamma

    if np.any(_is_nonpositive_int(z)):
        raise PoleError(f"log_gamma pole at non-positive integer argument in {z!r}")
    lg = loggamma(np.asarray(z, dtype=complex))
    return complex(lg) if np.ndim(z) == 0 else lg


def _gauss_series(a, b, c, z):
    """Direct Gauss series sum_n (a)_n (b)_n / ((c)_n n!) z^n, broadcast
    over complex numpy arrays.  Stops when the last two terms are below
    SERIES_RTOL relative to the running sum at every finite element.
    Where Re(c) < 0 the terms can dip, swell again past n = -Re(c) and
    decay for good only once |z| n < |c + n|, so no stop is taken before
    n = -Re(c) / (1 - |z|).  An element whose terms overflow, or that has
    not converged in SERIES_MAX_TERMS terms, is not finite."""
    a, b, c, z = np.broadcast_arrays(*(np.asarray(v, dtype=complex) for v in (a, b, c, z)))
    lowest, widest = float(np.min(c.real, initial=0.0)), float(np.max(np.abs(z), initial=0.0))
    start = -lowest / (1.0 - widest) if lowest < 0.0 and widest < 1.0 else 0.0
    term = total = np.ones(a.shape, dtype=complex)
    small_streak = 0
    for n in range(SERIES_MAX_TERMS):
        term = term * ((a + n) * (b + n)) / ((c + n) * (n + 1.0)) * z
        total = total + term
        # NaN compares False: an element that overflowed counts as settled.
        small = n >= start and not (np.abs(term) > SERIES_RTOL * np.abs(total)).any()
        small_streak = small_streak + 1 if small else 0
        if small_streak >= 2:
            return total
    return np.where(np.abs(term) > SERIES_RTOL * np.abs(total), np.nan, total)


def _exp_lg_sum(numerators, denominators, log_scale=0.0):
    """exp(sum log_gamma(num) - sum log_gamma(den) + log_scale), elementwise,
    from one pole test and one loggamma call (imported as in log_gamma).  A
    pole in a denominator sends the ratio to 0 (reciprocal gamma); a pole
    in a numerator raises PoleError."""
    from scipy.special import loggamma

    n = len(numerators)
    args = np.array(np.broadcast_arrays(*numerators, *denominators), dtype=complex)
    pole = _is_nonpositive_int(args)
    if pole[:n].any():
        raise PoleError(f"log_gamma pole at non-positive integer argument in {args[:n]!r}")
    # 1.0 is a placeholder at each pole; those entries are masked to 0 below.
    lg = loggamma(np.where(pole, 1.0, args))
    acc = lg[:n].sum(axis=0) - lg[n:].sum(axis=0) + log_scale
    return np.where(pole[n:].any(axis=0), 0.0, np.exp(acc))


def _libm(f, x) -> np.ndarray:
    # math's f per element: numpy's SIMD exp and log1p round differently in the last bit.
    x = np.asarray(x, dtype=float)
    return np.array([f(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _connection(a, b, c, log_w, log_s):
    """exp(log_s) F(a, b; c; 1 - e^log_w) by the z -> 1-z two-term connection
    formula; NaN where it is degenerate (c - a - b within 1e-8 of an integer)."""
    cab = c - a - b
    if (bad := np.abs(cab - np.round(cab.real)) < 1e-8).any():  # move them off the gamma poles
        a, b, c = np.where(bad, 0.25, a), np.where(bad, 0.75, b), np.where(bad, 1.5, c)
        cab = c - a - b
    p1 = _exp_lg_sum((c, cab), (c - a, c - b), log_s)
    p2 = _exp_lg_sum((c, -cab), (a, b), log_s) * np.exp(cab * log_w)
    w = _libm(math.exp, log_w)
    f1, f2 = _gauss_series(a, b, a + b - c + 1.0, w), _gauss_series(c - a, c - b, cab + 1.0, w)
    return np.where(bad, np.nan, p1 * f1 + p2 * f2)


def _hyp2f1_core(a, b, c, z, log_one_minus_z, log_scale=0.0):
    """exp(log_scale) F(a, b; c; z) for real z in [0, 1), broadcast over
    all arguments.  log(1 - z) is supplied separately so callers near z = 1
    can pass an accurately computed complement: z may round to 1.0 and
    1 - z underflow, as long as its log is finite.  log_scale joins the
    gamma prefactors (in log space) in their exponent, where a tiny scale
    meets a huge prefactor at strong barriers.  Elements with z <= 1/2 or
    a terminating series sum it; the others take _connection.  An element
    is not finite, and fails alone, where a sum overflows or does not
    converge or the connection is degenerate (_resolved names the cause)."""
    a, b, c, log_s = (np.asarray(v, dtype=complex) for v in (a, b, c, log_scale))
    z, log_w = np.asarray(z, dtype=float), np.asarray(log_one_minus_z, dtype=float)
    if not np.all((z >= 0.0) & (log_w > -math.inf) & (log_w <= 0.0)):
        raise ValueError(f"argument must lie in [0, 1), got {z} (log(1 - z) = {log_w})")
    a, b, c, log_s, z, log_w = np.broadcast_arrays(a, b, c, log_s, z, log_w)
    connect = (z > 0.5) & ~(_is_nonpositive_int(a) | _is_nonpositive_int(b))
    with np.errstate(over="ignore", invalid="ignore"):
        if not connect.any():
            return np.exp(log_s) * _gauss_series(a, b, c, z)
        if connect.all():
            return _connection(a, b, c, log_w, log_s)
        out, d = np.empty(connect.shape, dtype=complex), ~connect
        out[d] = np.exp(log_s[d]) * _gauss_series(a[d], b[d], c[d], z[d])
        out[connect] = _connection(*(v[connect] for v in (a, b, c, log_w, log_s)))
    return out


def _resolved(value, a, b, c, z: float) -> complex:
    """One core value as a complex, or the error its non-finite value stands for."""
    if cmath.isfinite(value := complex(value)):
        return value
    cab = complex(c - a - b)
    if z > 0.5 and abs(cab - round(cab.real)) < 1e-8 and not np.any(_is_nonpositive_int([a, b])):
        raise DegenerateTransformError(f"c - a - b = {cab:.6g} within 1e-8 of an integer, z > 1/2")
    raise ConvergenceError(f"2F1({complex(a):.6g}, {complex(b):.6g}; {complex(c):.6g}; {z:.6g}) "
                           "overflows float64 or does not converge")


def hyp2f1(a, b, c, z: float) -> complex:
    """Gauss hypergeometric F(a, b; c; z) for complex a, b, c and real z in [0, 1).

    Direct series for z <= 1/2, the z -> 1-z connection formula above.
    Raises PoleError when c is a non-positive integer,
    DegenerateTransformError when c - a - b is within 1e-8 of an integer
    while z > 1/2 (unless the series terminates), and ConvergenceError
    where the sums overflow or do not converge.
    """
    if np.any(_is_nonpositive_int(c)):
        raise PoleError(f"hyp2f1 undefined for c = {c} (non-positive integer)")
    z = float(z)
    if not 0.0 <= z < 1.0:
        raise ValueError(f"argument must lie in [0, 1), got {z}")
    return _resolved(_hyp2f1_core(a, b, c, z, math.log1p(-z)), a, b, c, z)


def _legendre_core(nu, mu, z, log_one_minus_z, alpha, log_scale=0.0):
    """exp(log_scale) P_nu^mu(tanh(alpha)) given z = (1-x)/2, log((1+x)/2)
    and alpha = atanh(x), broadcast over all but mu.  The prefactor ratio
    [(1+x)/(1-x)]^(mu/2) equals exp(mu*alpha) exactly, which keeps the
    oscillatory phase accurate far into the tails."""
    mu = complex(mu)
    pref = np.exp(mu * alpha - log_gamma(1.0 - mu))
    return pref * _hyp2f1_core(-nu, nu + 1.0, 1.0 - mu, z, log_one_minus_z, log_scale)


def legendre_P(nu: complex, mu: complex, x: float) -> complex:
    """General associated Legendre P_nu^mu(x) on -1 < x < 1.

    Uses the Gauss-hypergeometric representation with the ratio power
    computed as exp(mu * atanh(x)); 1 - mu must not be a non-positive
    integer (PoleError)."""
    if not -1.0 < x < 1.0:
        raise ValueError(f"legendre_P requires |x| < 1, got x = {x}")
    nu, z = complex(nu), (1.0 - x) / 2.0
    value = _legendre_core(nu, mu, z, math.log((1.0 + x) / 2.0), math.atanh(x))
    return _resolved(value, -nu, nu + 1.0, 1.0 - complex(mu), z)


def legendre_P_tanh(nu: complex, mu: complex, alpha: float) -> complex:
    """P_nu^mu(tanh(alpha)), stable for any finite alpha.

    Equivalent to legendre_P(nu, mu, tanh(alpha)) but with the argument
    (1 - tanh(alpha))/2 and the log of its complement formed from
    exponentials of alpha, so no precision is lost where tanh saturates."""
    nu, (z, log_w) = complex(nu), map(float, _half_tanh(alpha))
    value = _legendre_core(nu, mu, z, log_w, float(alpha))
    return _resolved(value, -nu, nu + 1.0, 1.0 - complex(mu), z)


def _half_tanh(alpha):
    """z = (1 - tanh a)/2 and log(1 - z) = log((1 + tanh a)/2) over an
    array of a, without cancellation; the log stays finite where 1 - z
    underflows.  The pair at -a is ((1 + tanh a)/2, log((1 - tanh a)/2)),
    and a - log(1 - z) = log(2 cosh a)."""
    alpha = np.asarray(alpha, dtype=float)
    e = _libm(math.exp, -2.0 * np.abs(alpha))
    log1p_e = _libm(math.log1p, e)
    ahead = alpha >= 0.0
    return np.where(ahead, e, 1.0) / (1.0 + e), np.where(ahead, 0.0, 2.0 * alpha) - log1p_e
