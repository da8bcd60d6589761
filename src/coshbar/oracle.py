"""Paper-independent numerical ground truth.

Two solvers that never touch the gamma-function results:

* :func:`numerov_amplitudes` integrates the stationary Schrodinger equation
  psi'' = (2m/hbar^2)(V - E) psi with Numerov's fourth-order scheme from
  x = +L (seeded with the transmitted wave e^{ikx}) backward to x = -L and
  reads off T = 1/A, R = B/A from a plane-wave match at the left edge.

* :func:`grid_propagator_matrix` (and its 1 x 1 case :func:`grid_propagator`)
  takes the eigenpairs of the finite-difference Hamiltonian on [-L, L] with
  Dirichlet walls that e^{-E tau/hbar} leaves above 1e-16 of the ground
  state, and sums the Euclidean spectral kernel
  sum_n e^{-E_n tau/hbar} phi_n(xf) phi_n(xi) for all points at once.  N is
  the starting grid: it doubles, up to 16 N, until each entry changes by at
  most 1e-4 relative.

The Numerov march runs in extended precision (numpy longdouble; 80-bit on
x86) because the reflected amplitude can sit eight orders of magnitude
below the incident one, where plain double roundoff over ~10^4 steps is
visible.  Amplitudes are matched by least squares over a trailing window
about one wavelength long (far better conditioned than a two-point solve at
spacing h), at identical physical positions for the h and h/2 runs, and the
returned values are Richardson-extrapolated; the h vs h/2 spread drives the
step-too-coarse gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from .errors import ConvergenceError, StepTooCoarseError, unwrap
from .params import PhysicalParams
from .propagator import _LOG_TAIL
from .scattering import Amplitudes, _fit_plane_waves

__all__ = [
    "SolverConfig",
    "numerov_amplitudes",
    "numerov_once",
    "grid_propagator",
    "grid_propagator_matrix",
]

_MAX_STEPS = 20_000_000
_GRID_RTOL = 1e-4  # largest change of a grid kernel entry on doubling N
_MAX_DOUBLINGS = 4  # finest grid 16 N


@dataclass(frozen=True)
class SolverConfig:
    """Numerov solver configuration.

    Unset geometry fields fall back to k- and omega-aware defaults:
    L = max(10/omega, 10/k) and
    h = min(2*pi/(40 k), 1/(40 omega), (1800*tol/(L k^5))^(1/4)),
    i.e. 40 points per oscillation and per barrier width, capped so the
    Richardson error estimate lands below match_tolerance.  grid_points may
    be given instead of step (h = 2L/grid_points).

    boundary_ratio_max bounds V(L)/E: the plane-wave seed and match are only
    valid where the barrier tail is negligible at the requested energy.
    """

    box_half_width: float | None = None
    step: float | None = None
    grid_points: int | None = None
    match_tolerance: float = 1e-6
    boundary_ratio_max: float = 1e-6

    def __post_init__(self):
        if self.box_half_width is not None and not self.box_half_width > 0:
            raise ValueError(f"box_half_width must be > 0, got {self.box_half_width}")
        if self.step is not None and not self.step > 0:
            raise ValueError(f"step must be > 0, got {self.step}")
        if self.grid_points is not None and self.grid_points < 16:
            raise ValueError(f"grid_points must be >= 16, got {self.grid_points}")
        if not 0 < self.match_tolerance < 1:
            raise ValueError(f"match_tolerance must be in (0, 1), got {self.match_tolerance}")

    def resolve(self, p: PhysicalParams, k: float) -> tuple[float, float]:
        """Concrete (L, h) for this problem."""
        L = self.box_half_width
        if L is None:
            L = max(10.0 / p.omega, 10.0 / k)
        if self.step is not None:
            h = self.step
        elif self.grid_points is not None:
            h = 2.0 * L / self.grid_points
        else:
            h_acc = (1800.0 * self.match_tolerance / (L * k**5)) ** 0.25
            h = min(2.0 * math.pi / (40.0 * k), 1.0 / (40.0 * p.omega), h_acc)
        return L, h


def _march(p: PhysicalParams, k: float, L: float, n_steps: int):
    """Backward Numerov march on n_steps intervals; returns the grid and
    the wave function as float64 complex (marched in longdouble)."""
    if n_steps > _MAX_STEPS:
        raise ValueError(f"Numerov grid of {n_steps} steps exceeds cap {_MAX_STEPS}")
    ld = np.longdouble
    h = ld(2.0 * L) / n_steps
    x = -ld(L) + h * np.arange(n_steps + 1, dtype=ld)
    f = (2.0 * ld(p.m) / ld(p.hbar) ** 2) * (
        ld(p.v0) / np.cosh(ld(p.omega) * x) ** 2 - ld(p.hbar * p.hbar) * ld(k) ** 2 / (2.0 * ld(p.m))
    )
    c = h * h / 12.0
    a = 1.0 - c * f
    b = 2.0 + 10.0 * c * f
    pr = np.empty(n_steps + 1, dtype=ld)
    pi = np.empty(n_steps + 1, dtype=ld)
    kl = ld(k)
    pr[-1] = np.cos(kl * x[-1])
    pi[-1] = np.sin(kl * x[-1])
    pr[-2] = np.cos(kl * x[-2])
    pi[-2] = np.sin(kl * x[-2])
    for j in range(n_steps - 1, 0, -1):
        bj = b[j]
        aj1 = a[j + 1]
        aj0 = a[j - 1]
        pr[j - 1] = (bj * pr[j] - aj1 * pr[j + 1]) / aj0
        pi[j - 1] = (bj * pi[j] - aj1 * pi[j + 1]) / aj0
    psi = pr.astype(float) + 1j * pi.astype(float)
    return x.astype(float), psi


def _window_indices(k: float, h: float, L: float, n_steps: int) -> np.ndarray:
    """Trailing-window sample indices for the plane-wave match: roughly one
    wavelength (at least 40 steps), at most L/4, subsampled to <= 200."""
    span = min(max(2.0 * math.pi / k, 40.0 * h), L / 4.0)
    w = min(max(4, int(span / h)), n_steps // 2)
    return np.unique(np.linspace(0, w, min(200, w + 1)).astype(int))


def _match_edge(x, psi, k, idx) -> tuple[complex, complex]:
    a_coef, b_coef = _fit_plane_waves(x[idx], psi[idx], k, (+1.0, -1.0))
    return 1.0 / a_coef, b_coef / a_coef


def numerov_once(p: PhysicalParams, k: float, cfg: SolverConfig | None = None) -> Amplitudes:
    """Single-resolution Numerov solve (no Richardson machinery); exposes
    the raw scheme for order studies."""
    cfg = cfg or SolverConfig()
    L, h = _prepare(p, k, cfg)
    n = _even_steps(L, h)
    x, psi = _march(p, k, L, n)
    t, r = _match_edge(x, psi, k, _window_indices(k, 2.0 * L / n, L, n))
    return Amplitudes.build(k, t, r)


def numerov_amplitudes(
    p: PhysicalParams, k: float, cfg: SolverConfig | None = None
) -> Amplitudes:
    """Numerov T(k), R(k) with an h vs h/2 Richardson convergence gate.

    Both resolutions are matched over the same physical window positions;
    the returned amplitudes are the (16*fine - coarse)/15 extrapolation and
    the pre-extrapolation spread / 15 (the standard error estimate of that
    extrapolation) must not exceed cfg.match_tolerance.
    """
    cfg = cfg or SolverConfig()
    L, h = _prepare(p, k, cfg)
    n = _even_steps(L, h)
    x1, psi1 = _march(p, k, L, n)
    _, psi2 = _march(p, k, L, 2 * n)
    idx = _window_indices(k, 2.0 * L / n, L, n)
    t1, r1 = _match_edge(x1, psi1, k, idx)
    x2 = np.linspace(-L, L, 2 * n + 1)
    t2, r2 = _match_edge(x2, psi2, k, 2 * idx)
    spread = max(abs(t1 - t2), abs(r1 - r2))
    if spread / 15.0 > cfg.match_tolerance:
        raise StepTooCoarseError(
            f"Richardson h vs h/2 comparison estimates error {spread / 15.0:.3e} "
            f"> match_tolerance {cfg.match_tolerance:.3e} at k={k}; reduce step"
        )
    t = (16.0 * t2 - t1) / 15.0
    r = (16.0 * r2 - r1) / 15.0
    return Amplitudes.build(k, t, r)


def _prepare(p: PhysicalParams, k: float, cfg: SolverConfig) -> tuple[float, float]:
    if not (math.isfinite(k) and k > 0):
        raise ValueError(f"Numerov oracle requires k > 0, got {k!r}")
    L, h = cfg.resolve(p, k)
    energy = (p.hbar * k) ** 2 / (2.0 * p.m)
    ratio = float(p.potential(L)) / energy
    if ratio > cfg.boundary_ratio_max:
        raise ValueError(
            f"V(L)/E = {ratio:.3e} exceeds boundary_ratio_max "
            f"{cfg.boundary_ratio_max:.1e}; enlarge box_half_width"
        )
    return L, h


def _even_steps(L: float, h: float) -> int:
    n = int(round(2.0 * L / h))
    return n + (n % 2)


@lru_cache(maxsize=8)
def _eigensystem(p: PhysicalParams, L: float, N: int, tau: float):
    """Eigenpairs of the N-point Dirichlet finite-difference Hamiltonian on
    [-L, L] that exp(-H tau/hbar) can see: those with Boltzmann weight
    exp(-(E - E0) tau/hbar) >= 1e-16, the tail the spectral k_max drops too.
    Cached per (params, L, N, tau)."""
    dx = 2.0 * L / (N + 1)
    xs = -L + dx * np.arange(1, N + 1)
    t0 = p.hbar**2 / (p.m * dx * dx)
    diag = t0 + p.potential(xs)
    off = np.full(N - 1, -0.5 * t0)
    e0 = eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0]
    # V >= 0 puts every eigenvalue above -t0 (Gershgorin)
    energies, vectors = eigh_tridiagonal(
        diag, off, select="v", select_range=(-t0, e0 + p.hbar * _LOG_TAIL / tau)
    )
    return xs, dx, energies, vectors


def _grid_kernel(p: PhysicalParams, L: float, N: int, tau: float, xfs, xis) -> np.ndarray:
    """Kernel matrix Phi_f diag(w) Phi_i^T / dx on one grid, where row a of
    Phi holds the eigenvectors bilinearly interpolated to point a."""
    xs, dx, energies, vectors = _eigensystem(p, L, N, tau)
    # sqrt(w) on both sides: entry (a, b) then multiplies the same numbers as
    # entry (b, a) of the swapped call, so K(xf, xi) == K(xi, xf) bit for bit
    root_w = np.sqrt(np.exp(-energies * tau / p.hbar))

    def rows(xq: np.ndarray) -> np.ndarray:
        if not np.all((xs[0] <= xq) & (xq <= xs[-1])):
            raise ValueError(f"points {xq} reach outside the interior grid of [-L, L]")
        j = np.minimum(((xq - xs[0]) / dx).astype(int), N - 2)
        frac = ((xq - xs[j]) / dx)[:, None]
        return ((1.0 - frac) * vectors[j] + frac * vectors[j + 1]) * root_w

    return rows(xfs) @ rows(xis).T / dx


def grid_propagator_matrix(
    p: PhysicalParams, L: float, N: int, tau: float, xfs, xis
) -> list[list[float | ConvergenceError]]:
    """Grid kernel K(xf, xi; tau) for every xf in xfs and xi in xis: rows of
    floats, or of the ConvergenceError of an entry the grid cannot resolve.

    N is the starting grid.  Each entry is the value on the coarsest grid
    N, 2N, 4N, 8N whose doubling changes it by at most 1e-4 relative; an
    entry that still moves between 8N and 16N is the error.
    """
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    if N < 200:
        raise ValueError(f"N must be >= 200, got {N}")
    xfs = np.asarray(xfs, dtype=float)
    xis = np.asarray(xis, dtype=float)
    if not (np.all(np.abs(xfs) < L) and np.all(np.abs(xis) < L)):
        raise ValueError("xf, xi must lie strictly inside (-L, L)")
    kernel = np.full((len(xfs), len(xis)), np.nan)
    pending = np.ones(kernel.shape, dtype=bool)
    value = _grid_kernel(p, L, N, tau, xfs, xis)
    for doubling in range(_MAX_DOUBLINGS):
        n = N << doubling
        refined = _grid_kernel(p, L, 2 * n, tau, xfs, xis)
        change = np.abs(refined - value)
        passed = pending & (change <= _GRID_RTOL * np.abs(refined))
        kernel[passed] = value[passed]
        pending &= ~passed
        if not pending.any():
            break
        value = refined
    results = kernel.tolist()
    for a, b in zip(*np.nonzero(pending)):
        results[a][b] = ConvergenceError(
            f"grid kernel changed by {change[a, b] / abs(refined[a, b]):.3e} relative "
            f"on doubling N={n} (started at N={N}); enlarge the starting grid"
        )
    return results


def grid_propagator(
    p: PhysicalParams, L: float, N: int, tau: float, xf: float, xi: float
) -> float:
    """Euclidean kernel of exp(-H tau/hbar) from the visible spectrum of the
    finite-difference Hamiltonian, refined from the starting grid N until
    doubling changes it by at most 1e-4 relative (the 1 x 1 case of
    grid_propagator_matrix).

    Eigenvectors are normalized per node, so phi_n(x) = v_n(x)/sqrt(dx) and
    the kernel carries an overall 1/dx.  Off-node (xf, xi) are bilinearly
    interpolated between neighbouring nodes.  The kernel is exactly
    symmetric: grid_propagator(..., xf, xi) == grid_propagator(..., xi, xf)
    holds bit for bit, not just to rounding.
    """
    return unwrap(grid_propagator_matrix(p, L, N, tau, [xf], [xi])[0][0])
