"""Complex-parameter special functions: log-gamma, Gauss 2F1, Legendre P.

Everything here is written against the needs of the barrier problem: gamma
functions of arguments like 1 + nu - i*kappa, the Gauss hypergeometric
function on a real argument in [0, 1), and the general associated Legendre
function P_nu^mu(x) on (-1, 1) for arbitrary complex degree and purely
imaginary (or general complex) order,

    P_nu^mu(x) = [1/Gamma(1-mu)] * [(1+x)/(1-x)]^(mu/2)
               * F(-nu, nu+1; 1-mu; (1-x)/2).

Log-gamma is Hare's algorithm (Stirling's series, the recurrence and the
reflection formula, as in scipy.special.loggamma) written in numpy, so no
computation imports scipy.special; 2F1 and Legendre P are written here too,
because scipy has no Gauss 2F1 for complex parameters.
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


# Stirling's series, log Gamma(s) = (s - 1/2) log s - s + sum_k c_k s^(-k):
# c_0 = log(2 pi)/2 and, for odd k = 2j - 1, c_k = B_2j / (2j (2j - 1)), j = 1..8.
# Where |s| >= 7 the ninth term is below float64 rounding.
_STIRLING_POWERS = np.array([0.0, 1.0, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 15.0])
_STIRLING = np.array([0.5 * math.log(2.0 * math.pi), 1 / 12, -1 / 360, 1 / 1260, -1 / 1680,
                      1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400], dtype=complex)
# 0, 1, ..., 13 with imaginary parts -0.0, so that z + k keeps the sign of a
# zero Im z, and with it the side of the branch cut.
_SHIFTS = np.array([complex(k, -0.0) for k in range(14)])


def _loggamma(z) -> np.ndarray:
    """Principal log Gamma(z) elementwise over a complex array with no element
    at a pole: D. E. G. Hare, J. Algorithms 25 (1997) 221, the algorithm of
    scipy.special.loggamma.  Stirling's series holds where Re z >= 7 or
    |Im z| >= 7.  In the box left of that, z is shifted to s = z + n with
    Re s >= 7 and sum_k<n log(z + k) taken off: a sum of principal logs keeps
    the principal branch without counting sign flips, and on the cut the
    sign of a zero Im z picks the side.  Left of Re z = -7 the box takes the
    reflection formula through 1 - z instead, so no element needs more than
    14 shifts, however large |z| is."""
    z = np.asarray(z, dtype=complex)
    x, y = z.real, z.imag
    n = np.fmax(np.ceil(7.0 - x), 0.0) * (np.abs(y) < 7.0)
    shifts = n.max(initial=0.0)
    if shifts > 14.0:
        # Reflection for the elements with n > 14, on the upper half plane
        # (the lower is its conjugate): log Gamma(z) = log pi - log sin(pi z)
        # + 2 pi i floor(Re z / 2 + 1/4) - log Gamma(1 - z).
        left, lower = n > 14.0, np.signbit(y)
        r = (math.log(math.pi) + 2j * math.pi * np.floor(0.5 * x + 0.25)
             - _log_sin_pi(np.where(lower, z.conj(), z)))
        lg = _loggamma(np.where(left, 1.0 - z, z))
        return np.where(left, np.where(lower, r.conj(), r) - lg, lg)
    # Both sums are accumulated in order (cumsum), so that an element's value
    # does not depend on the length of the sums the rest of the array needs.
    s = z + n
    series = ((1.0 / s)[..., None] ** _STIRLING_POWERS * _STIRLING).cumsum(axis=-1)[..., -1]
    lg = (s - 0.5) * np.log(s) - s + series
    if shifts:
        k = _SHIFTS[:int(shifts)]
        terms = np.where(k.real < n[..., None], z[..., None] + k, 1.0)
        lg = lg - np.log(terms).cumsum(axis=-1)[..., -1]
    return lg


def _log_sin_pi(w) -> np.ndarray:
    """log sin(pi w) elementwise: the principal log where |Im w| <= 7, and
    beyond, where sin(pi w) can overflow, log(1/2) - i pi sign(Im w) (w - 1/2)
    up to a multiple of 2 pi i, which drops a term e^(-2 pi |Im w|) relative.
    Re w is first reduced by an integer m, exactly, with
    sin(pi w) = (-1)^m sin(pi (w - m))."""
    w = np.asarray(w, dtype=complex)
    m = np.round(w.real)
    t, odd = w - m, m % 2.0 != 0.0
    far = np.abs(t.imag) > 7.0
    sin = np.sin(math.pi * np.where(far, 0.5, t))
    with np.errstate(divide="ignore"):
        near = np.log(np.where(odd, -sin, sin))
    turns = np.sign(t.imag) * (0.5 - t.real) + odd
    return np.where(far, math.pi * (np.abs(t.imag) + 1j * turns) - math.log(2.0), near)


def log_gamma(z):
    """Principal-branch log Gamma(z) for complex z (scalar or array).

    The analytic continuation with its branch cut on the negative real axis,
    where the sign of a zero imaginary part picks the side, as in
    scipy.special.loggamma; accurate to a few units of 1e-15 times
    max(1, |log Gamma(z)|).  A scalar in gives a complex out, an array in an
    array of the same shape.  Raises PoleError at z in {0, -1, -2, ...}.
    """
    if np.any(_is_nonpositive_int(z)):
        raise PoleError(f"log_gamma pole at non-positive integer argument in {z!r}")
    lg = _loggamma(z)
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
    from one pole test and one _loggamma call.  A pole in a denominator
    sends the ratio to 0 (reciprocal gamma); a pole in a numerator raises
    PoleError."""
    n = len(numerators)
    args = np.array(np.broadcast_arrays(*numerators, *denominators), dtype=complex)
    pole = _is_nonpositive_int(args)
    if pole[:n].any():
        raise PoleError(f"log_gamma pole at non-positive integer argument in {args[:n]!r}")
    # 1.0 is a placeholder at each pole; those entries are masked to 0 below.
    lg = _loggamma(np.where(pole, 1.0, args))
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
