"""Transmission/reflection amplitudes, scattering function, connection
coefficients, and the energy-normalized scattering wave functions of the
sech-squared barrier.

With nu and kappa from :mod:`coshbar.params`, the amplitudes are pure ratios
of gamma functions,

    T = G(1+nu-ik) G(-nu-ik) / [G(1-ik) G(-ik)],
    R = G(1+nu-ik) G(-nu-ik) G(ik) / [G(1+nu) G(-nu) G(-ik)],

(k standing for kappa) and the scattering function S = T + R is unitary.
All gamma ratios are combined in log space so that kappa up to 120 stays
usable despite the exponentially small |Gamma(i*kappa)| magnitudes.  T, R
and S have one implementation over arrays of kappa at fixed nu; the scalar
BarrierIndex functions call it with one kappa.  The wave functions have one
over arrays of x (wavefunction_samples), and wavefunctions is its one-point
case.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, IllConditionedFitError, NumericalError, unwrap
from .params import BarrierIndex, PhysicalParams
from .special import _exp_lg_sum, _half_tanh, _hyp2f1_core, _legendre_core, _log_sin_pi, log_gamma

__all__ = [
    "Amplitudes",
    "ConnectionCoefficients",
    "WaveSample",
    "amplitudes",
    "s_function",
    "connection_coefficients",
    "wavefunctions",
    "wavefunction_samples",
    "asymptotic_extract",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Amplitudes:
    """Scattering data at one wavenumber.

    k is the reduced wavenumber kappa = k/omega; t, r are the complex
    transmission/reflection amplitudes, s = t + r, and t2/r2 the
    transmitted/reflected flux fractions.  Flux conservation
    t2 + r2 = 1 and |s| = 1 hold to 1e-10 for every analytically produced
    instance (to the solver tolerance for oracle-produced ones).
    """

    k: float
    t: complex
    r: complex
    s: complex
    t2: float
    r2: float

    @classmethod
    def build(cls, k: float, t: complex, r: complex) -> "Amplitudes":
        return cls(k=k, t=t, r=r, s=t + r, t2=abs(t) ** 2, r2=abs(r) ** 2)


@dataclass(frozen=True)
class ConnectionCoefficients:
    """Coefficients linking P_nu^{-mu} and P_nu^{mu} at mirrored arguments;
    they satisfy |a|^2 + |b|^2 = 1 and a*conj(b) + conj(a)*b = 0."""

    a: complex
    b: complex


@dataclass(frozen=True)
class WaveSample:
    """Right- and left-moving scattering wave functions at one position."""

    x: float
    psi_right: complex
    psi_left: complex


def _require_positive_kappa(kappa, what: str) -> None:
    if np.any(~(np.asarray(kappa) > 0.0)):
        raise ValueError(
            f"{what} undefined at kappa = 0 (gamma poles of Gamma(+-i*kappa)); "
            "the physical zero-energy limit is total reflection (T=0, R=-1)"
        )


def _is_free(nu: complex) -> bool:
    # nu = 0 and nu = -1 are the two branch labels of the free particle.
    return nu == 0 or nu == -1


def _amplitude_arrays(nu: complex, kappa) -> tuple[np.ndarray, np.ndarray]:
    """T and R at one degree nu over an array of kappa > 0.

    The one implementation behind amplitudes, s_function and the CLI sweep.
    The free point nu = 0 is an explicit branch (T = 1, R = 0 exactly):
    generic evaluation of R there would be a 0 * inf ambiguity between
    sin(pi*nu) -> 0 and the 1/[Gamma(1+nu)Gamma(-nu)] limit.
    """
    nu = complex(nu)
    kappa = np.asarray(kappa, dtype=float)
    _require_positive_kappa(kappa, "amplitudes")
    if _is_free(nu):
        return np.ones(kappa.shape, dtype=complex), np.zeros(kappa.shape, dtype=complex)
    ik = 1j * kappa
    t = _exp_lg_sum((1.0 + nu - ik, -nu - ik), (1.0 - ik, -ik))
    r = _exp_lg_sum((1.0 + nu - ik, -nu - ik, ik), (1.0 + nu, -nu, -ik))
    return t, r


def _s_closed_form(nu: complex, kappa) -> np.ndarray:
    """Gamma/cosine closed form of the scattering function over an array of
    kappa > 0."""
    nu = complex(nu)
    ik = 1j * np.asarray(kappa, dtype=float)
    if _is_free(nu):
        return np.ones(ik.shape, dtype=complex)
    return _exp_lg_sum((ik, -nu - ik), (-ik, -nu + ik)) * (
        np.cos(0.5 * math.pi * (nu + ik)) / np.cos(0.5 * math.pi * (nu - ik))
    )


def _check_closed_form(nu: complex, kappa: np.ndarray, s: np.ndarray, v8: float) -> None:
    """Log the worst relative deviation of the gamma/cosine closed form from
    S = T + R over a batch of kappa.

    The gamma-ratio route (validated by the numerical oracle) is
    authoritative, so the deviation is logged, not raised: at warning level
    when it passes 1e-10, at debug level otherwise.
    """
    dev = np.abs(s - _s_closed_form(nu, kappa)) / np.abs(s)
    worst = int(np.argmax(dev))
    logger.log(
        logging.WARNING if dev[worst] > 1e-10 else logging.DEBUG,
        "scattering-function closed form deviates from T+R by at most %.3e "
        "relative over %d kappa (worst at v8=%g, kappa=%g); keeping T+R",
        dev[worst],
        dev.size,
        v8,
        kappa[worst],
    )


def amplitudes(idx: BarrierIndex) -> Amplitudes:
    """Transmission and reflection amplitudes at idx.kappa > 0."""
    t, r = _amplitude_arrays(idx.nu, np.array([idx.kappa]))
    return Amplitudes.build(idx.kappa, complex(t[0]), complex(r[0]))


def s_function(idx: BarrierIndex) -> complex:
    """Scattering function S = T + R.

    Also evaluates the equivalent gamma/cosine closed form and checks the
    two expressions agree to 1e-10 (see _check_closed_form); a mismatch is
    logged rather than returned.
    """
    _require_positive_kappa(idx.kappa, "s_function")
    kappa = np.array([idx.kappa])
    t, r = _amplitude_arrays(idx.nu, kappa)
    s = t + r
    _check_closed_form(idx.nu, kappa, s, idx.v8)
    return complex(s[0])


def connection_coefficients(idx: BarrierIndex) -> ConnectionCoefficients:
    """Coefficients a, b of the plane-wave-basis change for P_nu^{+-mu}:

        a = G(1+nu-mu)/G(1+nu+mu) * sin(pi nu)/sin(pi(nu+mu)),
        b = G(1+nu-mu)/G(1+nu+mu) * sin(pi mu)/sin(pi(nu+mu)).

    Both are formed in log space, log-sines included, so they are finite
    wherever they are representable, strong barriers (Im nu ~ 500 at
    v8 = 1e6) included.  NumericalError where sin(pi(nu+mu)) vanishes or a
    coefficient overflows float64."""
    _require_positive_kappa(idx.kappa, "connection_coefficients")
    nu, mu = complex(idx.nu), complex(idx.mu)
    log_sin = _log_sin_pi([nu, mu, nu + mu])
    if log_sin[2].real < math.log(1e-300):
        raise NumericalError(
            f"sin(pi*(nu+mu)) ~ 0 at (nu={nu}, mu={mu}); coefficients degenerate"
        )
    with np.errstate(over="ignore"):
        a, b = _exp_lg_sum((nu - mu + 1.0,), (nu + mu + 1.0,), log_sin[:2] - log_sin[2]).tolist()
    if not (cmath.isfinite(a) and cmath.isfinite(b)):
        raise NumericalError(f"connection coefficients overflow float64 at (nu={nu}, mu={mu})")
    return ConnectionCoefficients(a=a, b=b)


def _log_cosh(y: float) -> float:
    y = abs(y)
    return y + math.log1p(math.exp(-2.0 * y)) - math.log(2.0)


def _log_normalization(idx: BarrierIndex, p: PhysicalParams) -> float:
    """Log of the energy-normalization prefactor sqrt(m/(2 hbar^2 omega)) *
    sinh^(1/2)(pi kappa) / sqrt(D), with

        D = sin(pi(nu - i kappa)) sin(pi(nu + i kappa)) = sin^2(pi nu) + sinh^2(pi kappa).

    For real nu, D coincides with |sin(pi(nu - i kappa))|^2; for nu on the
    critical line nu = -1/2 + i lam it is the analytic continuation of that
    expression, cosh(pi(kappa - lam)) cosh(pi(kappa + lam)), which is the
    combination the states need to be delta-normalized in energy; the
    absolute-value form differs from it for strong barriers.  This is
    derived, not checked: nothing yet sums these states into the
    propagator to test completeness.  In logs, D does not overflow at
    strong barriers (lam ~ 500 at v8 = 1e6) or kappa = 120, and the
    prefactor (about e^(-pi lam)) meets the 2F1's gamma prefactors before
    either leaves the float64 range.  nu must be real or on the critical
    line, as reduce() makes it."""
    nu, y = complex(idx.nu), math.pi * idx.kappa
    log_sinh = y + math.log(-math.expm1(-2.0 * y)) - math.log(2.0)
    if nu.imag == 0.0:
        log_d = 2.0 * log_sinh + math.log1p((math.sin(math.pi * nu.real) * math.exp(-log_sinh)) ** 2)
    else:
        log_d = _log_cosh(y - math.pi * nu.imag) + _log_cosh(y + math.pi * nu.imag)
    return 0.5 * (math.log(p.m / (2.0 * p.hbar**2 * p.omega)) + log_sinh - log_d)


def wavefunction_samples(
    idx: BarrierIndex, p: PhysicalParams, xs
) -> list[WaveSample | NumericalError | ValueError]:
    """Right- and left-moving energy-normalized wave functions at every x
    in xs, as one array computation.

    psi_right carries Legendre argument +tanh(omega x), psi_left the mirror
    argument.  Each value is computed twice, through P_nu^{i kappa} and
    through the transformed hypergeometric form, and at each x the two
    routes must agree to 1e-10 of the plane-wave amplitude scale.  The
    result holds, per x, a WaveSample or the error of that point alone: a
    NumericalError where a route is not finite in float64 or the routes
    disagree, a ValueError where x is not finite.  kappa <= 0 raises
    ValueError for the whole call.
    """
    _require_positive_kappa(idx.kappa, "wavefunctions")
    nu, kappa = complex(idx.nu), idx.kappa
    mu = 1j * kappa
    xs = np.asarray(xs, dtype=float)
    finite = np.isfinite(xs)
    alpha = p.omega * np.where(finite, xs, 0.0)
    both = np.concatenate((alpha, -alpha))  # psi_right, then psi_left
    z, log_w = _half_tanh(both)
    log_norm = _log_normalization(idx, p)
    lg = complex(log_gamma(1.0 - mu))
    direct = _legendre_core(nu, mu, z, log_w, both, log_norm)
    # Independent route: prefactor [(1 - tanh^2)/4]^(-i kappa/2) times
    # F(1+nu-ik, -nu-ik; 1-ik; (1 -+ tanh)/2), sharing no parameter set with
    # the Legendre route.
    log_alt = log_norm + 1j * kappa * (both - log_w) - lg  # both - log_w = log(2 cosh(omega x))
    alt = _hyp2f1_core(1.0 + nu - mu, -nu - mu, 1.0 - mu, z, log_w, log_alt)
    scale = math.exp(log_norm - lg.real)  # |c| of c*e^{ikx}
    with np.errstate(invalid="ignore"):
        diff = np.abs(direct - alt).reshape(2, -1)
        agree = (diff <= 1e-10 * (scale + np.abs(direct)).reshape(2, -1)).tolist()
    resolved = (np.isfinite(direct) & np.isfinite(alt)).reshape(2, -1).all(axis=0).tolist()
    values = direct.reshape(2, -1).tolist()
    out = []
    for i, x in enumerate(xs.tolist()):
        if not finite[i]:
            out.append(ValueError(f"x must be finite, got {x!r}"))
        elif not resolved[i]:
            out.append(ConvergenceError(
                f"wavefunction not resolvable at x={x}: a 2F1 of its two routes overflows "
                "float64 or does not converge"
            ))
        elif not (agree[0][i] and agree[1][i]):
            side = 0 if not agree[0][i] else 1
            out.append(NumericalError(
                f"wavefunction routes disagree for {('psi_right', 'psi_left')[side]} "
                f"at x={x}: |diff| = {diff[side, i]:.3e}"
            ))
        else:
            out.append(WaveSample(x=x, psi_right=values[0][i], psi_left=values[1][i]))
    return out


def wavefunctions(idx: BarrierIndex, p: PhysicalParams, x: float) -> WaveSample:
    """Right- and left-moving energy-normalized wave functions at x: the
    one-point case of wavefunction_samples, raising the error it holds."""
    return unwrap(wavefunction_samples(idx, p, [x])[0])


def _fit_plane_waves(xs, values, k, columns):
    """Complex least squares of values against exp(1j*s*k*xs) for the signs
    in `columns`; raises when the basis is numerically singular."""
    mat = np.column_stack([np.exp(1j * s * k * np.asarray(xs)) for s in columns])
    if np.linalg.cond(mat) > 1e8:
        raise IllConditionedFitError(
            f"plane-wave basis nearly singular at k={k}: sample spacing "
            "aliases exp(2ikx)"
        )
    coef, *_ = np.linalg.lstsq(mat, np.asarray(values, dtype=complex), rcond=None)
    return coef


def asymptotic_extract(
    samples: list[WaveSample],
    idx: BarrierIndex,
    p: PhysicalParams,
    direction: str = "right",
) -> Amplitudes:
    """Recover T and R from wave-function samples in the asymptotic region.

    For the right-moving wave the left side is fitted to
    c*(exp(ikx) + R*exp(-ikx)) and the right side to c*T*exp(ikx); the
    overall constant c is a fit unknown, so extraction works for any
    consistent normalization.  direction="left" runs the mirrored analysis
    on psi_left (transmitted towards x -> -inf), which must give the same
    scattering function.

    Requires at least 4 samples per side, all at |omega x| >= 8.
    """
    if direction not in ("right", "left"):
        raise ValueError(f"direction must be 'right' or 'left', got {direction!r}")
    _require_positive_kappa(idx.kappa, "asymptotic_extract")
    k = idx.kappa * p.omega
    xs_neg = [s.x for s in samples if s.x < 0]
    xs_pos = [s.x for s in samples if s.x > 0]
    if len(xs_neg) < 4 or len(xs_pos) < 4:
        raise ValueError("need at least 4 samples on each side of the barrier")
    min_alpha = min(abs(p.omega * s.x) for s in samples)
    if min_alpha < 8.0:
        raise ValueError(
            f"samples must sit at |omega*x| >= 8 (asymptotic region); "
            f"closest is {min_alpha:.3g}"
        )
    values = {s.x: (s.psi_right if direction == "right" else s.psi_left) for s in samples}
    if direction == "right":
        incident_xs, outgoing_xs = xs_neg, xs_pos
        sign = +1.0  # incident wave travels towards +x
    else:
        incident_xs, outgoing_xs = xs_pos, xs_neg
        sign = -1.0
    a_coef, b_coef = _fit_plane_waves(
        incident_xs, [values[x] for x in incident_xs], k, (sign, -sign)
    )
    (c_coef,) = _fit_plane_waves(
        outgoing_xs, [values[x] for x in outgoing_xs], k, (sign,)
    )
    t = complex(c_coef / a_coef)
    r = complex(b_coef / a_coef)
    return Amplitudes.build(idx.kappa, t, r)
