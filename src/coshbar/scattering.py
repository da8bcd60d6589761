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
BarrierIndex functions call it with one kappa.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedFitError, NumericalError
from .params import BarrierIndex, PhysicalParams
from .special import _exp_lg_sum, _half_tanh, _hyp2f1_core, legendre_P_tanh, log_gamma

__all__ = [
    "Amplitudes",
    "ConnectionCoefficients",
    "WaveSample",
    "amplitudes",
    "s_function",
    "connection_coefficients",
    "wavefunctions",
    "asymptotic_extract",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Amplitudes:
    """Scattering data at one wavenumber.

    k is reported in units of omega (i.e. it equals kappa) by the analytic
    routines, and as the physical wavenumber by the Numerov oracle; t, r
    are the complex transmission/reflection amplitudes, s = t + r, and
    t2/r2 the transmitted/reflected flux fractions.  Flux conservation
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


def _norm_denominator_sq(nu: complex, kappa: float) -> float:
    """sin(pi(nu - i kappa)) * sin(pi(nu + i kappa)) = sin^2(pi nu) + sinh^2(pi kappa).

    This is the square of the normalization denominator of the scattering
    states.  For real nu it coincides with |sin(pi(nu - i kappa))|^2; for nu
    on the critical line Re(nu) = -1/2 it is the analytic continuation of
    that expression (equal to cosh(pi(kappa-lam))*cosh(pi(kappa+lam)) with
    lam = Im nu), which is the combination actually required for the states
    to be delta-normalized in energy -- the absolute-value form breaks
    completeness for strong barriers, as the grid-Hamiltonian oracle
    confirms.  Real and positive for every nu produced by reduce()."""
    s2 = cmath.sin(math.pi * complex(nu)) ** 2
    return s2.real + math.sinh(math.pi * kappa) ** 2


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
    """Coefficients a, b of the plane-wave-basis change for P_nu^{+-mu}."""
    _require_positive_kappa(idx.kappa, "connection_coefficients")
    nu, mu = complex(idx.nu), complex(idx.mu)
    denom = cmath.sin(math.pi * (nu + mu))
    if abs(denom) < 1e-300:
        raise NumericalError(
            f"sin(pi*(nu+mu)) ~ 0 at (nu={nu}, mu={mu}); coefficients degenerate"
        )
    ratio = cmath.exp(complex(log_gamma(nu - mu + 1.0)) - complex(log_gamma(nu + mu + 1.0)))
    a = ratio * cmath.sin(math.pi * nu) / denom
    b = ratio * cmath.sin(math.pi * mu) / denom
    return ConnectionCoefficients(a=a, b=b)


def _normalization(idx: BarrierIndex, p: PhysicalParams) -> float:
    """Energy-normalization prefactor sqrt(m/(2 hbar^2 omega)) *
    sinh^(1/2)(pi kappa) / sqrt(sin^2(pi nu) + sinh^2(pi kappa))."""
    return (
        math.sqrt(p.m / (2.0 * p.hbar**2 * p.omega))
        * math.sqrt(math.sinh(math.pi * idx.kappa))
        / math.sqrt(_norm_denominator_sq(idx.nu, idx.kappa))
    )


def wavefunctions(idx: BarrierIndex, p: PhysicalParams, x: float) -> WaveSample:
    """Right- and left-moving energy-normalized wave functions at x.

    psi_right carries Legendre argument +tanh(omega x), psi_left the mirror
    argument.  Each value is computed twice, through P_nu^{i kappa} and
    through the transformed hypergeometric form, and the two routes must
    agree to 1e-10 of the plane-wave amplitude scale.
    """
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    _require_positive_kappa(idx.kappa, "wavefunctions")
    nu = complex(idx.nu)
    kappa = idx.kappa
    mu = 1j * kappa
    alpha = p.omega * x
    norm = _normalization(idx, p)

    psi_right = norm * legendre_P_tanh(nu, mu, alpha)
    psi_left = norm * legendre_P_tanh(nu, mu, -alpha)

    # Independent route: prefactor [(1 - tanh^2)/4]^(-i kappa/2) times
    # F(1+nu-ik, -nu-ik; 1-ik; (1 -+ tanh)/2), sharing no parameter set with
    # the Legendre route.
    log_2cosh = abs(alpha) + math.log1p(math.exp(-2.0 * abs(alpha)))
    pref = norm * cmath.exp(1j * kappa * log_2cosh - complex(log_gamma(1.0 - mu)))
    alt_right = pref * complex(
        _hyp2f1_core(1.0 + nu - mu, -nu - mu, 1.0 - mu, *_half_tanh(alpha))
    )
    alt_left = pref * complex(
        _hyp2f1_core(1.0 + nu - mu, -nu - mu, 1.0 - mu, *_half_tanh(-alpha))
    )

    scale = norm * math.exp(-complex(log_gamma(1.0 - mu)).real)  # |c| of c*e^{ikx}
    for direct, alt, tag in (
        (psi_right, alt_right, "psi_right"),
        (psi_left, alt_left, "psi_left"),
    ):
        if abs(direct - alt) > 1e-10 * (scale + abs(direct)):
            raise NumericalError(
                f"wavefunction routes disagree for {tag} at x={x}: "
                f"|diff| = {abs(direct - alt):.3e}"
            )
    return WaveSample(x=x, psi_right=psi_right, psi_left=psi_left)


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
