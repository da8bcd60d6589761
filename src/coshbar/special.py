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
All routines accept numpy arrays where it matters (the propagator sweeps
every contour node at once, a scatter sweep every kappa at once)
and plain scalars otherwise.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, DegenerateTransformError, PoleError

__all__ = ["log_gamma", "hyp2f1", "legendre_P", "legendre_P_tanh"]

SERIES_MAX_TERMS = 10_000
SERIES_RTOL = 1e-16


def _is_nonpositive_int(z) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    return (np.imag(z) == 0.0) & (np.real(z) <= 0.0) & (np.real(z) == np.round(np.real(z)))


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
    SERIES_RTOL relative to the running sum.  Where Re(c) < 0 the terms can
    dip, swell again past n = -Re(c) and decay for good only once
    |z| n < |c + n|, so no stop is taken before n = -Re(c) / (1 - |z|)."""
    a, b, c, z = np.broadcast_arrays(
        *(np.asarray(v, dtype=complex) for v in (a, b, c, z))
    )
    lowest, widest = float(np.min(c.real)), float(np.max(np.abs(z)))
    start = -lowest / (1.0 - widest) if lowest < 0.0 and widest < 1.0 else 0.0
    term = np.ones(a.shape, dtype=complex)
    total = np.ones(a.shape, dtype=complex)
    small_streak = 0
    with np.errstate(over="raise", invalid="raise"):
        try:
            for n in range(SERIES_MAX_TERMS):
                term = term * ((a + n) * (b + n)) / ((c + n) * (n + 1.0)) * z
                total = total + term
                if n >= start and np.all(np.abs(term) <= SERIES_RTOL * np.abs(total)):
                    small_streak += 1
                    if small_streak >= 2:
                        return total
                else:
                    small_streak = 0
        except FloatingPointError as exc:
            raise ConvergenceError(
                f"2F1 series overflowed after {n} terms (parameter scale "
                f"too large for the direct sum)"
            ) from exc
    raise ConvergenceError(
        f"2F1 series did not converge in {SERIES_MAX_TERMS} terms "
        f"(max |z| = {np.max(np.abs(z)):.3g})"
    )


def _exp_lg_sum(numerators, denominators):
    """exp(sum log_gamma(num) - sum log_gamma(den)), elementwise.

    A pole in a denominator sends the whole ratio to 0 (reciprocal gamma);
    a pole in a numerator propagates as PoleError.  One log_gamma call
    covers all numerators and one all denominators.
    """
    args = np.broadcast_arrays(*(np.asarray(v, dtype=complex) for v in (*numerators, *denominators)))
    num = np.stack(args[: len(numerators)])
    den = np.stack(args[len(numerators) :])
    pole = _is_nonpositive_int(den)
    # 1.0 is a placeholder at each pole; those entries are masked to 0 below.
    acc = log_gamma(num).sum(axis=0) - log_gamma(np.where(pole, 1.0, den)).sum(axis=0)
    return np.where(pole.any(axis=0), 0.0, np.exp(acc))


def _hyp2f1_core(a, b, c, z, log_one_minus_z):
    """Gauss 2F1 for real argument z in [0, 1), broadcast over complex
    parameter arrays.  z and log(1 - z) are scalars supplied separately so
    callers near z = 1 can pass an accurately computed complement: z itself
    may round to 1.0, and 1 - z may underflow, as long as its log is finite.

    z <= 1/2 sums the series directly; otherwise the z -> 1-z two-term
    connection formula is used, with all gamma prefactors in log space and
    (1 - z)^(c - a - b) formed from log(1 - z).
    Terminating (polynomial) cases always use the direct finite sum: the
    connection prefactors degenerate there.
    """
    if not (z >= 0.0 and -math.inf < log_one_minus_z <= 0.0):
        raise ValueError(f"argument must lie in [0, 1), got {z} (log(1 - z) = {log_one_minus_z})")
    if z <= 0.5:
        return _gauss_series(a, b, c, z)
    a, b, c = np.broadcast_arrays(
        *(np.asarray(v, dtype=complex) for v in (a, b, c))
    )
    poly = _is_nonpositive_int(a) | _is_nonpositive_int(b)
    if np.all(poly):
        return _gauss_series(a, b, c, z)
    one_minus_z = math.exp(log_one_minus_z)
    cab = c - a - b
    degenerate = np.abs(cab - np.round(np.real(cab))) < 1e-8
    if np.any(degenerate & ~poly):
        raise DegenerateTransformError(
            "c - a - b within 1e-8 of an integer with argument > 1/2; "
            "the two-term z -> 1-z connection formula is degenerate"
        )
    # Keep the transform's gamma arguments off their poles for polynomial
    # entries; those entries are overwritten by the finite sum below.
    a_t = np.where(poly, 0.25, a)
    b_t = np.where(poly, 0.75, b)
    cab_t = c - a_t - b_t
    p1 = _exp_lg_sum((c, cab_t), (c - a_t, c - b_t))
    p2 = _exp_lg_sum((c, -cab_t), (a_t, b_t)) * np.exp(cab_t * log_one_minus_z)
    out = p1 * _gauss_series(a_t, b_t, a_t + b_t - c + 1.0, one_minus_z) + p2 * _gauss_series(
        c - a_t, c - b_t, cab_t + 1.0, one_minus_z
    )
    if np.any(poly):
        out = np.where(poly, _gauss_series(np.where(poly, a, 0.0), np.where(poly, b, 0.0), c, z), out)
    return out


def hyp2f1(a, b, c, z: float) -> complex:
    """Gauss hypergeometric F(a, b; c; z) for complex a, b, c and real
    z in [0, 1).

    Direct series for z <= 1/2; the z -> 1-z linear transformation above,
    with gamma prefactors from log_gamma.  Raises PoleError when c is a
    non-positive integer and DegenerateTransformError when c - a - b is
    within 1e-8 of an integer while z > 1/2 (unless the series terminates).
    """
    if np.any(_is_nonpositive_int(c)):
        raise PoleError(f"hyp2f1 undefined for c = {c} (non-positive integer)")
    z = float(z)
    if not 0.0 <= z < 1.0:
        raise ValueError(f"argument must lie in [0, 1), got {z}")
    out = _hyp2f1_core(complex(a), complex(b), complex(c), z, math.log1p(-z))
    return complex(out)


def _legendre_core(nu, mu, z, log_one_minus_z, alpha):
    """P_nu^mu(tanh(alpha)) given z = (1-x)/2, log((1+x)/2) and
    alpha = atanh(x).  The prefactor ratio [(1+x)/(1-x)]^(mu/2) equals
    exp(mu*alpha) exactly, which keeps the oscillatory phase accurate far
    into the tails."""
    mu = complex(mu)
    pref = np.exp(mu * alpha - log_gamma(1.0 - mu))
    return pref * _hyp2f1_core(-nu, nu + 1.0, 1.0 - mu, z, log_one_minus_z)


def legendre_P(nu: complex, mu: complex, x: float) -> complex:
    """General associated Legendre P_nu^mu(x) on -1 < x < 1.

    Uses the Gauss-hypergeometric representation with the ratio power
    computed as exp(mu * atanh(x)); 1 - mu must not be a non-positive
    integer."""
    if not -1.0 < x < 1.0:
        raise ValueError(f"legendre_P requires |x| < 1, got x = {x}")
    if np.any(_is_nonpositive_int(1.0 - np.asarray(mu, dtype=complex))):
        raise PoleError(f"legendre_P undefined for 1 - mu = {1.0 - mu} (gamma pole)")
    out = _legendre_core(
        complex(nu), mu, (1.0 - x) / 2.0, math.log((1.0 + x) / 2.0), math.atanh(x)
    )
    return complex(out)


def legendre_P_tanh(nu: complex, mu: complex, alpha: float) -> complex:
    """P_nu^mu(tanh(alpha)), stable for any finite alpha.

    Equivalent to legendre_P(nu, mu, tanh(alpha)) but with the argument
    (1 - tanh(alpha))/2 and the log of its complement formed from
    exponentials of alpha, so no precision is lost where tanh saturates."""
    if np.any(_is_nonpositive_int(1.0 - np.asarray(mu, dtype=complex))):
        raise PoleError(f"legendre_P undefined for 1 - mu = {1.0 - mu} (gamma pole)")
    out = _legendre_core(complex(nu), mu, *_half_tanh(alpha), float(alpha))
    return complex(out)


def _half_tanh(alpha: float) -> tuple[float, float]:
    """z = (1 - tanh a)/2 and log(1 - z) = log((1 + tanh a)/2), without
    cancellation; the log stays finite where 1 - z underflows.  The pair
    at -a is ((1 + tanh a)/2, log((1 - tanh a)/2))."""
    alpha = float(alpha)
    e = math.exp(-2.0 * abs(alpha))
    if alpha >= 0.0:
        return e / (1.0 + e), -math.log1p(e)
    return 1.0 / (1.0 + e), 2.0 * alpha - math.log1p(e)
