"""Euclidean propagator of the sech-squared barrier.

The paper reduces the path integral to the Morse problem and gets the
fixed-energy kernel <xf|(H - E)^-1|xi> in closed form,

    G(xf, xi; E) = (m / hbar^2 omega) Gamma(M - nu) Gamma(M + nu + 1)
                   P_nu^{-M}(tanh omega x>) P_nu^{-M}(-tanh omega x<),

with M = sqrt(-2 m E) / (hbar omega), x> = max(xf, xi), x< = min(xf, xi)
and nu from coshbar.params.  With no bound states G is analytic off E >= 0,
and the kernel of exp(-H tau/hbar) is the inverse Laplace transform of
F(s) = hbar G(-hbar s), summed on the fixed Talbot contour
s(theta) = r theta (cot theta + i) around the cut s <= 0 (Abate & Valko,
Int. J. Numer. Meth. Eng. 60 (2004) 979; see also Weideman & Trefethen,
Math. Comp. 76 (2007) 1341).  With theta_k = k pi / n and
sigma = theta + (theta cot theta - 1) cot theta,

    K = (r/n) [e^{r tau} F(r) / 2 + sum_{k=1}^{n-1} Re(e^{s_k tau} F(s_k) (1 + i sigma_k))].

Nothing cancels: the integrand decays along the contour.  With
P_nu^{-M}(tanh a) = e^{-M a} F(-nu, nu+1; 1+M; (1 - tanh a)/2) / Gamma(1+M),
each term is exp(s tau + lgG(M-nu) + lgG(M+nu+1) - 2 lgG(1+M) - M omega
(x> - x<)) times the 2F1 at (1 - tanh omega x>)/2 and at (1 + tanh omega x<)/2,
so neither Legendre function has to be representable on its own.  The 2F1
is evaluated once per distinct +-omega x on each node set.

The radius is r = max(n / (4 tau), m (xf - xi)^2 / (2 hbar tau^2)).  The
second term sends the contour through the saddle of e^{s tau - q |xf - xi|},
q = sqrt(2 m s / hbar).  The first is below Abate & Valko's 2n / (5 tau):
their choice assumes F exact to eps, but the log-gammas here carry rounding
of up to hundreds of eps, which the terms amplify by about e^{r tau}.

Each entry is summed on n = 24 and on n = 22 nodes.  quad_error is the
difference plus the roundoff of the sum, eps sum_k |term_k| (8 + size of the
pieces of its exponent).  An entry whose quad_error exceeds 1e-9 of its
value, or whose sum is not finite and positive, is a NumericalError.  At
v8 <= 2, every entry with m (xf - xi)^2 / (2 hbar tau) <= 72 (K at least
1e-32 of the diagonal) is within 1e-10 relative for tau from the floor up
to 3; farther out the accuracy falls off, and the gate refuses what it
cannot vouch for.  Strong barriers can push K below the roundoff of the sum
even at short separations (v8 = 100, tau = 3: K(0, 0) is refused).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, unwrap
from .params import PhysicalParams, reduce
from .special import _half_tanh, _hyp2f1_core, log_gamma

__all__ = ["KernelValue", "spectral_kernel", "spectral_kernel_matrix", "free_kernel"]

_KAPPA_CAP = 100.0  # shortest tau: thermal wavenumber up to 100 omega
_LOG_TAIL = 16.0 * math.log(10.0)
_NODES = 24  # near the diagonal roundoff grows like e^{n/4} eps
_CHECK_NODES = 22  # the shorter contour the error estimate compares with
_REL_TOL = 1e-9


@dataclass(frozen=True)
class KernelValue:
    """One Euclidean propagator value with its error estimate."""

    xf: float
    xi: float
    tau: float
    value: float
    quad_error: float

    def __post_init__(self):
        if not self.value > 0:
            raise ValueError(f"Euclidean kernel must be positive, got {self.value}")
        if not self.quad_error >= 0:
            raise ValueError(f"quad_error must be >= 0, got {self.quad_error}")


def free_kernel(p: PhysicalParams, xf: float, xi: float, tau: float) -> float:
    """Closed-form free-particle Euclidean kernel
    sqrt(m / 2 pi hbar tau) exp(-m (xf-xi)^2 / 2 hbar tau)."""
    return math.sqrt(p.m / (2.0 * math.pi * p.hbar * tau)) * math.exp(
        -p.m * (xf - xi) ** 2 / (2.0 * p.hbar * tau)
    )


def _check_tau(p: PhysicalParams, tau: float) -> None:
    """tau > 0, and the thermal wavenumber sqrt(2 m ln(1e16) / hbar tau) at
    most 100 omega: the range the kernel is verified on."""
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    kappa = math.sqrt(2.0 * p.m * _LOG_TAIL / (p.hbar * tau)) / p.omega
    if kappa > _KAPPA_CAP:
        raise ValueError(
            f"tau = {tau} too small: thermal wavenumber kappa = {kappa:.1f} "
            f"> {_KAPPA_CAP:.0f}, below the verified range of the kernel"
        )


def _radius(p: PhysicalParams, tau: float, n: int, d: float) -> float:
    """Contour radius for n nodes and separation d.  At the real node s = r
    the order M is real, and it is the c - a - b of the 2F1 tables, whose
    z -> 1-z transform degenerates at integers: r is raised by 1% until M
    is at least 1e-3 away from any positive one."""
    r = max(n / (4.0 * tau), p.m * d * d / (2.0 * p.hbar * tau * tau))
    while abs((m0 := math.sqrt(2.0 * p.m * r / p.hbar) / p.omega) - max(1, round(m0))) < 1e-3:
        r *= 1.01
    return r


def _contour_sums(p: PhysicalParams, nu: complex, tau: float, n: int, r: float, pairs) -> list:
    """The n-node Talbot sum of radius r for each (x>, x<) in pairs, as
    (K, roundoff), or the NumericalError a 2F1 table of one of its points
    raised."""
    theta = np.arange(1, n) * (math.pi / n)
    cot = 1.0 / np.tan(theta)
    s = np.concatenate(([r], r * theta * (cot + 1j)))
    weight = (r / n) * np.concatenate(([0.5], 1.0 + 1j * (theta + (theta * cot - 1.0) * cot)))
    order = np.sqrt(2.0 * p.m * s / p.hbar) / p.omega
    lg = log_gamma(np.stack((order - nu, order + nu + 1.0, 1.0 + order)))
    log_base = s * tau + lg[0] + lg[1] - 2.0 * lg[2]
    # A term's rounding error is eps times the size of the pieces of its
    # exponent, which reaches hundreds at small tau where the log-gammas cancel.
    size = np.abs(s * tau) + np.abs(lg).sum(axis=0) + np.abs(lg[2]) + 8.0
    tables = {}
    for beta in {a for xg, xl in pairs for a in (p.omega * xg, -p.omega * xl)}:
        try:
            tables[beta] = _hyp2f1_core(-nu, nu + 1.0, 1.0 + order, *_half_tanh(beta))
        except NumericalError as exc:
            tables[beta] = exc
    out = []
    for xg, xl in pairs:
        upper, lower = tables[p.omega * xg], tables[-p.omega * xl]
        if isinstance(upper, Exception) or isinstance(lower, Exception):
            out.append(upper if isinstance(upper, Exception) else lower)
            continue
        decay = p.omega * (xg - xl) * order
        with np.errstate(over="ignore", invalid="ignore"):
            terms = (p.m / (p.hbar * p.omega)) * weight * np.exp(log_base - decay) * upper * lower
            roundoff = np.finfo(float).eps * np.sum(np.abs(terms) * (size + np.abs(decay)))
        out.append((terms.sum().real, roundoff))
    return out


def _gate(fine, check):
    """(K, quad_error) of one pair from its two contour sums, or the
    NumericalError that keeps it from being a value."""
    if isinstance(fine, Exception) or isinstance(check, Exception):
        return fine if isinstance(fine, Exception) else check
    (value, roundoff), (coarse, _) = fine, check
    if not (math.isfinite(value) and value > 0):
        return NumericalError(f"Euclidean kernel not resolvable: contour sum is {value:.3e}")
    quad_error = abs(value - coarse) + roundoff
    if not quad_error <= _REL_TOL * value:
        return NumericalError(
            f"Euclidean kernel not resolvable: contour error {quad_error:.3e} "
            f"> {_REL_TOL:.0e} of K = {value:.3e}"
        )
    return value, quad_error


def spectral_kernel_matrix(
    p: PhysicalParams, xfs, xis, tau: float
) -> list[list[KernelValue | NumericalError]]:
    """K(xf, xi; tau) for every xf in xfs and xi in xis: rows of KernelValue,
    or of the NumericalError that entry raised (see spectral_kernel).  K
    depends only on (x>, x<), so each unordered pair is summed once and
    swapped entries agree bit for bit; pairs with the same radii share one
    node set.  Bad tau raises ValueError for the whole call."""
    _check_tau(p, tau)
    nu = complex(reduce(p, 0.0).nu)
    xfs = [float(x) for x in xfs]
    xis = [float(x) for x in xis]
    groups = {}
    for xg, xl in sorted({(max(xf, xi), min(xf, xi)) for xf in xfs for xi in xis}):
        radii = tuple(_radius(p, tau, n, xg - xl) for n in (_NODES, _CHECK_NODES))
        groups.setdefault(radii, []).append((xg, xl))
    kernel = {}
    for (r_fine, r_check), pairs in groups.items():
        fine = _contour_sums(p, nu, tau, _NODES, r_fine, pairs)
        check = _contour_sums(p, nu, tau, _CHECK_NODES, r_check, pairs)
        kernel.update(zip(pairs, map(_gate, fine, check)))

    def entry(xf: float, xi: float):
        result = kernel[max(xf, xi), min(xf, xi)]
        return result if isinstance(result, Exception) else KernelValue(xf, xi, tau, *result)

    return [[entry(xf, xi) for xi in xis] for xf in xfs]


def spectral_kernel(p: PhysicalParams, xf: float, xi: float, tau: float) -> KernelValue:
    """Euclidean propagator K(xf, xi; tau): the paper's Green's function
    inverted on a Talbot contour (the 1 x 1 case of spectral_kernel_matrix;
    the module docstring states the error estimate and the resolvable
    range).  Raises NumericalError where quad_error exceeds 1e-9 of the
    value or the sum is not finite and positive."""
    return unwrap(spectral_kernel_matrix(p, [xf], [xi], tau)[0][0])
