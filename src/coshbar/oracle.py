"""Paper-independent numerical ground truth.

Two solvers that never touch the gamma-function results:

* :func:`numerov_amplitudes` integrates the stationary Schrodinger equation
  psi'' = (2m/hbar^2)(V - E) psi with Numerov's fourth-order scheme from
  x = +L (seeded with the transmitted wave e^{ikx}) backward to x = -L and
  reads off T = 1/A, R = B/A from a plane-wave match at the left edge.  It
  picks its box and step itself from k and omega, and returns T and R each
  within 1e-6 relative, or refuses the call naming the cause.

* :func:`grid_propagator_matrix` (and its 1 x 1 case :func:`grid_propagator`)
  picks a box [-L, L] and a starting spacing dx from the points, tau and
  omega, takes the eigenpairs of the finite-difference Hamiltonian on the
  nodes j dx (Dirichlet walls) that e^{-E tau/hbar} leaves above 1e-16 of
  the ground state, and sums the Euclidean spectral kernel
  sum_n e^{-E_n tau/hbar} phi_n(xf) phi_n(xi) for all points at once, with
  phi_n 4-point Lagrange-interpolated between nodes.  The error is O(dx^2),
  so each halving of dx forms the Richardson extrapolant (4 K_{dx/2} - K_dx)/3,
  and each entry takes the first extrapolant within 1e-6 relative of the one
  before it.  An entry whose eigenvector roundoff floor passes that gate
  first is refused, since halving dx raises the floor.

The Numerov march is a product of 2 x 2 transfer matrices, one per step.
The match needs psi only in a trailing window at the left edge, so the
matrices of the steps from x = +L to the window are multiplied pairwise,
in about log2(n) rounds of vectorized products, and a suffix scan over the
window's matrices gives psi at each window node.  The products are formed in
extended precision (numpy longdouble; 80-bit on x86) because the reflected
amplitude can sit eight orders of magnitude below the incident one, where
double roundoff over ~10^4 steps is visible.  They are also formed in a
rotated basis: in the raw basis, products of free steps have entries of
order 1/sin(kh) that cancel on the seed, which costs about three digits of
R; in the basis where a free step is a rotation, every partial product
stays of order one.  Only the barrier's departure from the free step,
which is proportional to V, is formed in double, so its rounding perturbs
the barrier by 1e-16 relative, not the free propagation.

Amplitudes are matched by least squares over a trailing window about one
wavelength long (far better conditioned than a two-point solve at spacing
h), at identical physical positions for the h and h/2 runs, and the
returned values are Richardson-extrapolated; the h vs h/2 spread drives the
step-too-coarse gates, and an R below the march's floor on R is refused.
"""

from __future__ import annotations

import logging
import math

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from .errors import ConvergenceError, StepTooCoarseError, unwrap
from .params import PhysicalParams
from .scattering import Amplitudes, _fit_plane_waves

__all__ = [
    "numerov_amplitudes",
    "grid_propagator",
    "grid_propagator_matrix",
]

logger = logging.getLogger(__name__)

_MAX_STEPS = 20_000_000
_RTOL = 1e-6  # largest relative error of a T or R the Numerov oracle returns
_R_FLOOR = 1e-14  # bounds the |R| Numerov extrapolates at v0 = 0, where R = 0
_BOUNDARY_RATIO = 1e-6  # largest V(L)/E at the Numerov box edge
_BLOCK = 4096  # transfer matrices held at once by the Numerov march
_GRID_RTOL = 1e-6  # largest change of a grid kernel entry between successive extrapolants
_MAX_HALVINGS = 5  # finest grid spacing dx0/32
_MAX_NODES = 1 << 16  # nodes of the finest grid; the eigensolve grows with them
_LOG_CUTOFF = 16.0 * math.log(10.0)  # eigenpairs below 1e-16 Boltzmann weight are dropped


def _potential_nodes(p: PhysicalParams, L: float, n_steps: int) -> np.ndarray:
    """(2m/hbar^2) V at the nodes x_j = -L + j h, j = 0..n_steps, h = 2L/n_steps.
    Halving h is exact, so the nodes of n_steps are every other node of
    2 n_steps bit for bit, and so are these values."""
    if n_steps > _MAX_STEPS:
        raise ValueError(f"Numerov grid of {n_steps} steps exceeds cap {_MAX_STEPS}")
    x = -L + (2.0 * L / n_steps) * np.arange(n_steps + 1)
    return (2.0 * p.m / p.hbar**2) * p.potential(x)


def _suffix_states(m: np.ndarray, state: np.ndarray) -> np.ndarray:
    """m[i] @ m[i+1] @ ... @ m[-1] @ state for every i of a stack of 2 x 2
    matrices: pairwise products up, then states down, O(len(m)) products."""
    if len(m) == 1:
        return m @ state
    if len(m) % 2:
        last = m[-1] @ state
        return np.concatenate([_suffix_states(m[:-1], last), last[None]])
    even = _suffix_states(m[0::2] @ m[1::2], state)
    out = np.empty_like(m)
    out[0::2] = even
    out[1::2] = m[1::2] @ np.concatenate([even[1:], state[None]])
    return out


def _march(k: float, L: float, g: np.ndarray, w: int):
    """Backward Numerov march on the len(g) - 1 intervals of [-L, L], where g
    holds (2m/hbar^2) V at the nodes, seeded with e^{ikx} at the last two;
    returns the nodes 0..w and the wave function there as float64.

    The step a_{j-1} psi_{j-1} = b_j psi_j - a_{j+1} psi_{j+1} is the 2 x 2
    matrix M_j taking (psi_j, psi_{j+1}) to (psi_{j-1}, psi_j), used in the
    basis T = [[cos t, sin t], [1, 0]] (2 cos t = b/a far from the barrier),
    where a free step is a rotation by t.  The matrices past the window are
    multiplied pairwise in longdouble, a block of _BLOCK at a time, and a
    suffix scan over the window's matrices gives psi at every window node.
    """
    ld = np.longdouble
    n = len(g) - 1
    h = ld(2.0 * L) / n
    c = h * h / 12.0
    phi = -c * ld(k) ** 2  # c f far from the barrier, f = (2m/hbar^2)(V - E)
    if not phi > -0.5:
        raise StepTooCoarseError(
            f"Numerov step {float(h):.3e} puts k h = {k * float(h):.3f} at or past the "
            f"scheme's stability limit sqrt(6) at k={k}; reduce step"
        )
    a_inf = 1.0 - phi
    cos_t = (1.0 + 5.0 * phi) / a_inf  # b/(2a) far from the barrier
    sin_t = np.sqrt(-12.0 * phi * (1.0 + 2.0 * phi)) / a_inf
    c_d, a_d, cos_d, sin_d = float(c), float(a_inf), float(cos_t), float(sin_t)

    def matrices(lo: int, hi: int) -> np.ndarray:
        # T^-1 M_j T = [[cos, sin], [(cos db - da)/sin - sin, cos + db]] for
        # j = lo..hi, with db = b_j/a_{j-1} - 2 cos and da = a_{j+1}/a_{j-1} - 1.
        # Both are proportional to V and formed from it without cancellation,
        # in double: their rounding perturbs the barrier by 1e-16 relative,
        # while the free parts cos and sin keep longdouble.
        y = c_d * g[lo - 1 : hi + 2]
        y_prev, y_j, y_next = y[:-2], y[1:-1], y[2:]
        scale = 1.0 / (a_d - y_prev)
        db = scale * (10.0 * y_j + 2.0 * cos_d * y_prev)
        da = scale * (y_prev - y_next)
        out = np.empty((hi - lo + 1, 2, 2), dtype=ld)
        out[:, 0, 0] = cos_t
        out[:, 0, 1] = sin_t
        out[:, 1, 0] = (cos_d * db - da) / sin_d
        out[:, 1, 0] -= sin_t
        out[:, 1, 1] = db
        out[:, 1, 1] += cos_t
        return out

    # seed with the transmitted wave e^{ikx}: the state is T^-1 (psi_{n-1},
    # psi_n), with columns (real, imaginary)
    kx = ld(k) * (-ld(L) + h * np.arange(n - 1, n + 1, dtype=ld))
    before, last = np.stack([np.cos(kx), np.sin(kx)], axis=1)
    state = np.stack([last, (before - cos_t * last) / sin_t])

    hi = n - 1
    while hi > w:  # state at w = M_{w+1} ... M_{n-1} state at n - 1
        lo = max(w + 1, hi - _BLOCK + 1)
        m = matrices(lo, hi)
        while len(m) > 1:
            if len(m) % 2:  # the odd one out acts on the state first
                state = m[-1] @ state
                m = m[:-1]
            m = m[0::2] @ m[1::2]
        state = m[0] @ state
        hi = lo - 1

    psi = np.empty((w + 1, 2), dtype=ld)
    psi[w] = cos_t * state[0] + sin_t * state[1]
    while hi > 0:  # states at lo - 1 .. hi - 1 from the state at hi
        lo = max(1, hi - _BLOCK + 1)
        states = _suffix_states(matrices(lo, hi), state)
        psi[lo - 1 : hi] = cos_t * states[:, 0] + sin_t * states[:, 1]
        state = states[0]
        hi = lo - 1
    x = -ld(L) + h * np.arange(w + 1, dtype=ld)
    return x.astype(float), psi[:, 0].astype(float) + 1j * psi[:, 1].astype(float)


def _window_indices(k: float, h: float, L: float, n_steps: int) -> np.ndarray:
    """Trailing-window sample indices for the plane-wave match: roughly one
    wavelength (at least 40 steps), at most L/4, subsampled to <= 200."""
    span = min(max(2.0 * math.pi / k, 40.0 * h), L / 4.0)
    w = min(max(4, int(span / h)), n_steps // 2)
    return np.unique(np.linspace(0, w, min(200, w + 1)).astype(int))


def _match_edge(x, psi, k, idx) -> tuple[complex, complex]:
    a_coef, b_coef = _fit_plane_waves(x[idx], psi[idx], k, (+1.0, -1.0))
    return 1.0 / a_coef, b_coef / a_coef


def _box_and_step(p: PhysicalParams, k: float) -> tuple[float, float]:
    """The oracle's box half-width L and step h at wavenumber k:
    L = max(16/omega, 10/k), grown until V(L)/E <= 1e-6 so the plane-wave
    seed and match see a negligible barrier tail, and
    h = min(2 pi/(40 k), 1/(40 omega), 0.012/k)."""
    if not (math.isfinite(k) and k > 0):
        raise ValueError(f"Numerov oracle requires k > 0, got {k!r}")
    L = max(16.0 / p.omega, 10.0 / k)
    energy = (p.hbar * k) ** 2 / (2.0 * p.m)
    if float(p.potential(L)) > _BOUNDARY_RATIO * energy:
        # where V's tail 4 V0 e^{-2 omega L}, which bounds V, falls to the bound
        log_tail = math.log(4.0) + math.log(p.v0)
        L = (log_tail - math.log(_BOUNDARY_RATIO * energy)) / (2.0 * p.omega)
    return L, min(2.0 * math.pi / (40.0 * k), 1.0 / (40.0 * p.omega), 0.012 / k)


def _extrapolants(p: PhysicalParams, k: float) -> tuple[complex, complex, float, float]:
    """Richardson extrapolants T, R of the h and h/2 marches on the grid of
    _box_and_step, and their error estimates |dT|/15, |dR|/15 from the
    h vs h/2 spread.  Both runs are matched over the same physical window
    positions; V is evaluated once, on the h/2 grid, and the h grid takes
    every other node."""
    L, h = _box_and_step(p, k)
    n = _even_steps(L, h)
    g = _potential_nodes(p, L, 2 * n)
    idx = _window_indices(k, 2.0 * L / n, L, n)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
        x, psi1 = _march(k, L, g[::2], idx[-1])
        _, psi2 = _march(k, L, g, 2 * idx[-1])
    if not (np.isfinite(psi1).all() and np.isfinite(psi2).all()):
        raise ConvergenceError(
            f"Numerov wave function overflows at k={k}: the barrier is too strong "
            f"for the oracle, 1/|T| is past the float range"
        )
    t1, r1 = _match_edge(x, psi1, k, idx)
    t2, r2 = _match_edge(x, psi2[::2], k, idx)
    estimate_t, estimate_r = abs(t1 - t2) / 15.0, abs(r1 - r2) / 15.0
    logger.debug(
        "Numerov at k=%g: n=%d and 2n=%d steps, Richardson error estimate %.3e on T, %.3e on R",
        k, n, 2 * n, estimate_t, estimate_r,
    )
    return (16.0 * t2 - t1) / 15.0, (16.0 * r2 - r1) / 15.0, estimate_t, estimate_r


def numerov_amplitudes(p: PhysicalParams, k: float) -> Amplitudes:
    """Numerov T(k), R(k), each within 1e-6 relative of the exact
    amplitudes, or a NumericalError naming why the call cannot meet that.

    The amplitudes are the Richardson extrapolants of _extrapolants.  The
    call is refused with StepTooCoarseError when the error estimate exceeds
    1e-6 |T| for T or 1e-6 for either amplitude, and with ConvergenceError
    when the wave function overflows or |R| is below _R_FLOOR / 1e-6, where
    the march's own floor on R would be more than 1e-6 of it (so every R is
    refused at v0 = 0, where R = 0).  R has no relative gate on its
    estimate: on this grid the estimate overstates the extrapolant's error
    by a factor of about 300.
    """
    t, r, estimate_t, estimate_r = _extrapolants(p, k)
    if not max(estimate_t, estimate_r) <= _RTOL:
        raise StepTooCoarseError(
            f"Richardson h vs h/2 comparison estimates error "
            f"{max(estimate_t, estimate_r):.3e} > {_RTOL:.0e} at k={k}"
        )
    if not estimate_t <= _RTOL * abs(t):
        raise StepTooCoarseError(
            f"Richardson h vs h/2 comparison estimates T's error {estimate_t:.3e}, "
            f"more than {_RTOL:.0e} of |T| = {abs(t):.3e} at k={k}"
        )
    if not abs(r) >= _R_FLOOR / _RTOL:
        raise ConvergenceError(
            f"|R| = {abs(r):.3e} at k={k} is below {_R_FLOOR / _RTOL:.0e}: the march's "
            f"floor on R, {_R_FLOOR:.0e}, is more than {_RTOL:.0e} of it"
        )
    return Amplitudes.build(k / p.omega, t, r)


def _even_steps(L: float, h: float) -> int:
    n = int(round(2.0 * L / h))
    return n + (n % 2)


def _eigensystem(p: PhysicalParams, L: float, dx: float, tau: float):
    """Nodes j dx with |j dx| <= L, and the eigenpairs of their Dirichlet
    finite-difference Hamiltonian that exp(-H tau/hbar) can see: those with
    Boltzmann weight exp(-(E - E0) tau/hbar) >= 1e-16."""
    half = int(L / dx)
    xs = dx * np.arange(-half, half + 1)
    t0 = p.hbar**2 / (p.m * dx * dx)
    diag = t0 + p.potential(xs)
    off = np.full(2 * half, -0.5 * t0)
    e0 = eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0]
    # V >= 0 puts every eigenvalue above -t0 (Gershgorin)
    energies, vectors = eigh_tridiagonal(
        diag, off, select="v", select_range=(-t0, e0 + p.hbar * _LOG_CUTOFF / tau)
    )
    return xs, energies, vectors


def _grid_kernel(p: PhysicalParams, L: float, dx: float, tau: float, points: np.ndarray):
    """Kernel matrix (K + K^T)/2 over points on the grid of spacing dx, with
    K = Phi diag(w) Phi^T / dx and row a of Phi the 4-point Lagrange
    interpolant of the eigenvector rows at point a (at a node, exactly that
    node's row), and each entry's eigenvector roundoff floor,
    eps N sqrt(K(xf, xf) K(xi, xi))."""
    xs, energies, vectors = _eigensystem(p, L, dx, tau)
    s = points / dx
    j = np.floor(s)
    t = (s - j)[:, None]
    # weights of the nodes j - 1 .. j + 2; at t = 0 they are exactly (0, 1, 0, 0)
    weights = np.hstack([-t * (t - 1) * (t - 2) / 6, (t * t - 1) * (t - 2) / 2,
                         -(t + 1) * t * (t - 2) / 2, (t * t - 1) * t / 6])
    stencil = (j.astype(int) + len(xs) // 2)[:, None] + np.arange(-1, 3)
    rows = np.einsum("as,asn->an", weights, vectors[stencil])
    rows *= np.sqrt(np.exp(-energies * tau / p.hbar))
    kernel = rows @ rows.T / dx
    # K(x, x) is the squared norm of row x over dx; the eigenvector error
    # grows with N, so an entry far below its diagonals drowns as dx shrinks
    norms = np.linalg.norm(rows, axis=1)
    floor = np.finfo(float).eps * len(xs) * np.outer(norms, norms) / dx
    return (kernel + kernel.T) / 2.0, floor


def grid_propagator_matrix(
    p: PhysicalParams, tau: float, xfs, xis
) -> list[list[float | ConvergenceError]]:
    """Grid kernel K(xf, xi; tau) for every xf in xfs and xi in xis: rows of
    floats, or of the ConvergenceError of an entry the grid cannot resolve,
    refined as the module docstring says.  The box is L = max(6/omega,
    max|x| + 5 max(sqrt(hbar tau/m), 1/omega)); dx starts at
    0.1 min(1/omega, sqrt(hbar tau/m)) and halves at most 5 times.  Points
    that give the finest grid more than _MAX_NODES nodes are a ValueError,
    raised before any solve."""
    if not tau > 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    points, inverse = np.unique(np.concatenate([xfs, xis]).astype(float), return_inverse=True)
    if not np.all(np.isfinite(points)):
        raise ValueError(f"points must be finite, got {points}")
    spread = math.sqrt(p.hbar * tau / p.m)
    L = max(6.0 / p.omega, float(np.max(np.abs(points))) + 5.0 * max(spread, 1.0 / p.omega))
    # on coarser grids the interpolation error is erratic in dx, and two
    # extrapolants there can agree by chance far from the limit
    dx = 0.1 * min(1.0 / p.omega, spread)
    nodes = 2.0 * L * 2**_MAX_HALVINGS / dx
    if nodes > _MAX_NODES:
        raise ValueError(
            f"grid oracle's finest grid on [-L, L], L = {L:.3g}, needs {nodes:.3g} nodes, "
            f"past the cap {_MAX_NODES}: points too far out for tau={tau}"
        )
    rows, cols = inverse[: len(xfs)].tolist(), inverse[len(xfs) :].tolist()
    kernel = np.full((len(points), len(points)), np.nan)
    pending = np.zeros(kernel.shape, dtype=bool)
    pending[np.ix_(rows, cols)] = True
    errors = {}
    value, _ = _grid_kernel(p, L, dx, tau, points)
    previous = np.full(kernel.shape, np.inf)
    for _ in range(_MAX_HALVINGS):
        dx /= 2.0
        refined, floor = _grid_kernel(p, L, dx, tau, points)
        extrapolant = (4.0 * refined - value) / 3.0
        gate = _GRID_RTOL * np.abs(extrapolant)
        for a, b in zip(*np.nonzero(pending & (floor > gate))):
            errors[a, b] = ConvergenceError(
                f"grid kernel {extrapolant[a, b]:.3e} cannot be resolved to {_GRID_RTOL:.0e} "
                f"relative: its eigenvector roundoff floor eps*N*sqrt(K(xf,xf)*K(xi,xi)) = "
                f"{floor[a, b]:.3e} exceeds {gate[a, b]:.3e} at dx={dx:.4g}, and refining raises it"
            )
            pending[a, b] = False
        change = np.abs(extrapolant - previous)
        passed = pending & (change <= gate)
        kernel[passed] = extrapolant[passed]
        pending &= ~passed
        if not pending.any():
            break
        value, previous = refined, extrapolant
    for a, b in zip(*np.nonzero(pending)):
        errors[a, b] = ConvergenceError(
            f"grid kernel extrapolant changed by {change[a, b] / abs(extrapolant[a, b]):.3e} "
            f"relative on halving dx to {dx:.4g}, the finest grid"
        )
    return [[errors.get((a, b), float(kernel[a, b])) for b in cols] for a in rows]


def grid_propagator(p: PhysicalParams, tau: float, xf: float, xi: float) -> float:
    """Euclidean kernel of exp(-H tau/hbar) from the visible spectrum of the
    finite-difference Hamiltonian (the 1 x 1 case of grid_propagator_matrix).
    Eigenvectors are normalized per node, so phi_n(x) = v_n(x)/sqrt(dx) and
    the kernel carries an overall 1/dx.  The kernel is exactly symmetric:
    grid_propagator(..., xf, xi) == grid_propagator(..., xi, xf) bit for bit.
    """
    return unwrap(grid_propagator_matrix(p, tau, [xf], [xi])[0][0])
