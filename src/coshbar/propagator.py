"""Euclidean spectral propagator of the sech-squared barrier.

The kernel of exp(-H tau/hbar) is assembled as an integral over scattering
states,

    K(xf, xi; tau) = int_0^inf dE_k w(k)
                     [Psi1(yf) Psi1*(yi) + Psi2(yf) Psi2*(yi)] e^{-E_k tau/hbar},

    w(k) = (m / 2 hbar^2 omega) sinh(pi kappa) / |sin(pi (nu - i kappa))|^2,

with Psi1(y) = P_nu^{-mu}(y), Psi2(y) = Psi1(-y), y = tanh(omega x) and
mu = i kappa.  Quadrature runs in k (dE_k = hbar^2 k/m dk folded into the
weight, avoiding the 1/sqrt(E) endpoint), on adaptive Gauss-Legendre panels
over [0, k_max] with k_max fixed by e^{-hbar k^2 tau / 2m} < 1e-16.  Since
Gauss nodes are interior, the integrable k -> 0 endpoint needs no cut.
spectral_kernel_matrix computes a whole xfs x xis kernel: the Legendre
functions on a node set are evaluated once per distinct point, and each
entry keeps its own panel doubling and checks.

Only the Euclidean (Wick-rotated) kernel is evaluated numerically: the
real-time version of the same spectral sum is this expression continued
back by tau -> i*T, but its oscillatory k-integral is not quadratured here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, NumericalError, unwrap
from .params import PhysicalParams, reduce
from .special import _legendre_tanh_grid

__all__ = ["KernelValue", "spectral_kernel", "spectral_kernel_matrix", "free_kernel"]

_KAPPA_CAP = 100.0  # sinh(2 pi kappa) overflows float64 past ~112
_LOG_TAIL = 16.0 * math.log(10.0)


@dataclass(frozen=True)
class KernelValue:
    """One Euclidean propagator value with its quadrature error estimate."""

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


@lru_cache(maxsize=4)
def _gauss_nodes(n: int):
    return np.polynomial.legendre.leggauss(n)


def _k_max(p: PhysicalParams, tau: float) -> float:
    """Spectral cutoff: e^{-hbar k_max^2 tau / 2m} = 1e-16."""
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    k_max = math.sqrt(2.0 * p.m * _LOG_TAIL / (p.hbar * tau))
    if k_max / p.omega > _KAPPA_CAP:
        raise ValueError(
            f"tau = {tau} too small: spectral cutoff needs kappa = {k_max / p.omega:.1f} "
            f"> {_KAPPA_CAP:.0f}, past the float64 range of the spectral weight"
        )
    return k_max


def _panel_sums(p, nu, alpha_f, alpha_i, tau, k_max, n_panels, want, nodes_per_panel=20):
    """Composite Gauss-Legendre over [0, k_max] in a fixed, deterministic
    panel order, for every entry (a, b) of the alpha_f x alpha_i matrix with
    want[a, b].

    P_nu^{-i kappa}(tanh alpha) is evaluated once per distinct alpha in
    +-alpha_f, and P_nu^{+i kappa}(tanh alpha) once per distinct alpha in
    +-alpha_i, so the kernel is sum_+- A_+- diag(g w) B_+-^T
    with A_+-[a] = P_nu^{-i kappa}(+-tanh alpha_f[a]) and B_+-[b] =
    P_nu^{+i kappa}(+-tanh alpha_i[b]).  It is reduced one row at a time, so
    each entry's scale (max |integrand| times the range, which bounds the
    roundoff noise floor of its sum) costs O(n nodes) memory, not O(n^2
    nodes).  The weight denominator sin^2(pi nu) + sinh^2(pi kappa) is the
    normalization combination sin(pi(nu-ik)) sin(pi(nu+ik)); see
    scattering._norm_denominator_sq for why the absolute-value form is only
    its real-nu special case.

    Returns (sums, scales, errors); errors maps (a, b) to the exception a
    Legendre evaluation raised at one of that entry's points.
    """
    xg, wg = _gauss_nodes(nodes_per_panel)
    edges = np.linspace(0.0, k_max, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    # nodes laid out panel-major: shape (n_panels, nodes_per_panel)
    k = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    kappa = k / p.omega
    mu = 1j * kappa
    rows = np.flatnonzero(want.any(axis=1))
    cols = np.flatnonzero(want.any(axis=0))

    def tables(order, alphas) -> dict:
        out = {}
        for alpha in {sign * a for sign in (1.0, -1.0) for a in alphas}:
            try:
                out[alpha] = _legendre_tanh_grid(nu, order, alpha)
            except (NumericalError, ValueError) as exc:
                out[alpha] = exc
        return out

    from_f = tables(-mu, alpha_f[rows])
    to_i = tables(mu, alpha_i[cols])
    sin_sq = (cmath.sin(math.pi * nu) ** 2).real
    denom = sin_sq + np.sinh(math.pi * kappa) ** 2
    weight = k * np.sinh(math.pi * kappa) / (2.0 * p.omega * denom)
    boltzmann = np.exp(-p.hbar * k * k * tau / (2.0 * p.m))
    sums = np.zeros(want.shape, dtype=complex)
    scales = np.zeros(want.shape)
    errors = {}
    for a in rows:
        good = []
        for b in np.flatnonzero(want[a]):
            entry = (from_f[alpha_f[a]], to_i[alpha_i[b]], from_f[-alpha_f[a]], to_i[-alpha_i[b]])
            bad = [t for t in entry if isinstance(t, Exception)]
            if bad:
                errors[a, b] = bad[0]
            else:
                good.append(b)
        if not good:
            continue
        plus = np.stack([to_i[alpha_i[b]] for b in good])
        minus = np.stack([to_i[-alpha_i[b]] for b in good])
        pair = from_f[alpha_f[a]] * plus + from_f[-alpha_f[a]] * minus
        values = weight * pair * boltzmann
        per_panel = values.reshape(len(good), n_panels, nodes_per_panel) @ wg
        sums[a, good] = np.sum(per_panel * half, axis=1)
        scales[a, good] = np.max(np.abs(values), axis=1) * k_max
    return sums, scales, errors


def _accept(xf, xi, tau, total: complex, quad_error: float, noise_floor: float):
    """The converged sum of one entry as a KernelValue, or the NumericalError
    that keeps it from being one."""
    if abs(total.imag) > max(1e-10 * abs(total.real), noise_floor):
        return NumericalError(
            f"spectral integrand failed to assemble a real kernel: "
            f"Im/Re = {total.imag / total.real:.3e}"
        )
    if total.real <= 0:
        return NumericalError(
            f"Euclidean kernel not resolvable above the quadrature noise "
            f"floor (got {total.real:.3e}, floor {noise_floor:.3e})"
        )
    return KernelValue(xf=xf, xi=xi, tau=tau, value=total.real, quad_error=quad_error)


def spectral_kernel_matrix(
    p: PhysicalParams,
    xfs,
    xis,
    tau: float,
    rel_tol: float = 1e-9,
    max_refinements: int = 8,
) -> list[list[KernelValue | NumericalError | ValueError]]:
    """K(xf, xi; tau) for every xf in xfs and xi in xis: rows of KernelValue,
    or of the error that entry raised (see spectral_kernel for the rules,
    which every entry keeps on its own).

    Entries that need the same panel count share one node set, and the
    Legendre functions on it are evaluated once per distinct point.  Bad
    input (tau) raises ValueError for the whole call, before any entry.
    """
    k_max = _k_max(p, tau)
    nu = complex(reduce(p, 0.0).nu)
    xfs = [float(x) for x in xfs]
    xis = [float(x) for x in xis]
    alpha_f = p.omega * np.array(xfs)
    alpha_i = p.omega * np.array(xis)
    # Initial panel count resolves the e^{i k (|xf|+|xi|)} oscillation of the
    # Legendre pair with ~20 nodes per few periods.
    span = np.abs(xfs)[:, None] + np.abs(xis)[None, :] + 1.0 / p.omega
    n_panels = np.maximum(4, np.ceil(k_max * span / (6.0 * math.pi))).astype(int)
    previous = np.zeros(span.shape, dtype=complex)
    refinements = np.zeros(span.shape, dtype=int)
    results = [[None] * len(xis) for _ in xfs]
    pending = np.ones(span.shape, dtype=bool)
    while pending.any():
        n = n_panels[pending].min()
        batch = pending & (n_panels == n)
        sums, scales, errors = _panel_sums(p, nu, alpha_f, alpha_i, tau, k_max, n, batch)
        for a, b in zip(*np.nonzero(batch)):
            total, done = complex(sums[a, b]), refinements[a, b]
            quad_error = abs(total - previous[a, b]) if done else math.inf
            noise_floor = 8.0 * np.finfo(float).eps * scales[a, b]
            if (a, b) in errors:
                results[a][b] = errors[a, b]
            elif quad_error <= max(rel_tol * abs(total), noise_floor):
                results[a][b] = _accept(xfs[a], xis[b], tau, total, quad_error, noise_floor)
            elif done == max_refinements:
                results[a][b] = ConvergenceError(
                    f"spectral quadrature still moving by {quad_error:.3e} after "
                    f"{max_refinements} refinements (K ~ {abs(total):.3e})"
                )
            pending[a, b] = results[a][b] is None
            previous[a, b] = total
            refinements[a, b] += 1
        n_panels[batch] *= 2
    return results


def spectral_kernel(
    p: PhysicalParams,
    xf: float,
    xi: float,
    tau: float,
    rel_tol: float = 1e-9,
    max_refinements: int = 8,
) -> KernelValue:
    """Euclidean propagator K(xf, xi; tau) by adaptive panel quadrature (the
    1 x 1 case of spectral_kernel_matrix).

    Panels double until two successive refinements agree to rel_tol (or to
    the roundoff floor of the oscillatory sum, whichever is larger); the
    last change is reported as quad_error.  The integral of the assembled
    complex integrand must come out real to 1e-10 relative, up to that same
    floor (the imaginary residue measures how well the two degenerate
    scattering states close into a real projector).  Kernel values at
    separations far beyond sqrt(hbar tau/m) are suppressed purely by phase
    cancellation and cannot be resolved below the floor.  The grid oracle
    this is checked against, grid_propagator, takes its N as the starting
    grid and refines from there.
    """
    return unwrap(spectral_kernel_matrix(p, [xf], [xi], tau, rel_tol, max_refinements)[0][0])
