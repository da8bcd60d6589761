import ast
import logging
import math
from pathlib import Path

import numpy as np
import pytest

from coshbar import (
    ConvergenceError,
    NumericalError,
    PhysicalParams,
    StepTooCoarseError,
    amplitudes,
    grid_propagator,
    numerov_amplitudes,
    oracle,
    reduce,
    spectral_kernel,
)
from coshbar.oracle import (
    _box_and_step,
    _eigensystem,
    _even_steps,
    _extrapolants,
    _grid_kernel,
    _march,
    _match_edge,
    _potential_nodes,
    _window_indices,
    grid_propagator_matrix,
)

# the sweep-oracle wavenumbers: 14 log-spaced k in [0.05, 10]
SWEEP_K = np.geomspace(0.05, 10.0, 14)


def params_for(v8, omega=1.0, m=1.0, hbar=1.0):
    return PhysicalParams(m=m, hbar=hbar, omega=omega, v0=v8 * (hbar * omega) ** 2 / (8 * m))


def _once(p, k, L, h):
    """T, R of one Numerov march on box L at step h, without Richardson."""
    n = _even_steps(L, h)
    idx = _window_indices(k, 2.0 * L / n, L, n)
    x, psi = _march(k, L, _potential_nodes(p, L, n), idx[-1])
    return _match_edge(x, psi, k, idx)


# ---------------------------------------------------------------------------
# Numerov
# ---------------------------------------------------------------------------

def test_free_case_is_exact_to_scheme_order():
    # R = 0 exactly at v0 = 0, so the oracle refuses every R there; its
    # extrapolants are T = 1 and R = 0 to the scheme's order.
    p = params_for(0.0)
    with pytest.raises(ConvergenceError, match="floor on R"):
        numerov_amplitudes(p, 1.0)
    t, r, _, _ = _extrapolants(p, 1.0)
    assert abs(t - 1.0) < 1e-10
    assert abs(r) < 1e-10


def test_r_floor_is_the_free_barrier_floor():
    # The |R| the extrapolants return at v0 = 0 is the scheme's own floor
    # on R, which the oracle's refusal of small R rests on.
    p = params_for(0.0)
    assert max(abs(_extrapolants(p, k)[1]) for k in SWEEP_K) <= oracle._R_FLOOR


@pytest.mark.parametrize("v8", [0.1, 2.0, 15.0])
def test_numerov_returns_within_contract_or_refuses(v8):
    # Every T and R returned is within 1e-6 relative of the closed form;
    # at these strengths only an R below the floor's reach is refused.
    p = params_for(v8)
    for k in SWEEP_K:
        ref = amplitudes(reduce(p, k))
        try:
            amp = numerov_amplitudes(p, k)
        except NumericalError as exc:
            assert isinstance(exc, ConvergenceError)
            assert abs(ref.r) < 1.001 * oracle._R_FLOOR / oracle._RTOL
            continue
        assert abs(amp.t - ref.t) <= 1e-6 * abs(ref.t)
        assert abs(amp.r - ref.r) <= 1e-6 * abs(ref.r)


def test_scheme_order_is_four():
    # Raw (unextrapolated) error on the free case drops ~16x per halving.
    p = params_for(0.0)
    errs = [abs(_once(p, 1.0, 10.0, h)[0] - 1.0) for h in (0.04, 0.02)]
    order = math.log2(errs[0] / errs[1])
    assert order >= 3.8


def test_delta_barrier_narrow_limit():
    # omega = 200, V0 = hbar^2 g omega / (4 m) with g = 2, k = 1.
    g, k, om = 2.0, 1.0, 200.0
    p = PhysicalParams(m=1.0, hbar=1.0, omega=om, v0=g * om / 4.0)
    t_delta = 2 * k / (2 * k + 1j * g / 1.0)
    amp = numerov_amplitudes(p, k)
    assert abs(amp.t - t_delta) < 4.0 / om


def test_oracle_flux_conservation_standalone():
    # |T|^2 + |R|^2 = 1 without reference to the analytic amplitudes.
    for v8, kappa in ((0.5, 0.7), (2.0, 1.0), (20.0, 2.0)):
        amp = numerov_amplitudes(params_for(v8), kappa)
        assert abs(amp.t2 + amp.r2 - 1.0) < 1e-8


def test_matches_analytic_at_reference_point():
    p = params_for(2.0)
    ref = amplitudes(reduce(p, 1.0))
    amp = numerov_amplitudes(p, 1.0)
    assert abs(amp.t - ref.t) < 1e-6 * abs(ref.t)
    assert abs(amp.r - ref.r) < 1e-6 * abs(ref.r)


def test_step_too_coarse_raises():
    # At v8 = 1000, k = 0.5 (|T| = 1.3e-21) the h vs h/2 spread puts T's
    # error estimate past 1e-6 |T| on the oracle's grid.
    with pytest.raises(StepTooCoarseError, match="of \\|T\\|"):
        numerov_amplitudes(params_for(1000.0), 0.5)


def test_boundary_ratio_guard():
    # The box grows until V(L)/E <= 1e-6 instead of refusing the call, and
    # at v8 = 1e4, k = 1 (|T| ~ 1e-67) the oracle returns T and R within
    # contract or refuses them; no setting of the call is at fault.
    p = params_for(1e10)
    L, _ = _box_and_step(p, 3.0)
    assert L > 16.0 and float(p.potential(L)) <= 1e-6 * 4.5
    with pytest.raises(ConvergenceError, match="too strong"):
        numerov_amplitudes(p, 3.0)
    p = params_for(1e4)
    ref = amplitudes(reduce(p, 1.0))
    try:
        amp = numerov_amplitudes(p, 1.0)
    except NumericalError:
        return
    assert abs(amp.t - ref.t) <= 1e-6 * abs(ref.t)
    assert abs(amp.r - ref.r) <= 1e-6 * abs(ref.r)


def test_amplitudes_k_is_kappa_on_every_path():
    # Amplitudes.k holds k/omega whether the closed form or Numerov built it.
    p = params_for(2.0, omega=2.0)
    built = (amplitudes(reduce(p, 3.0)), numerov_amplitudes(p, 3.0))
    assert [amp.k for amp in built] == [1.5, 1.5]


def test_rejects_zero_wavenumber():
    p = params_for(1.0)
    with pytest.raises(ValueError):
        numerov_amplitudes(p, 0.0)


def _sequential_march(p, k, L, n):
    """The step-by-step longdouble Numerov loop over all n intervals, kept as
    the reference for the transfer-matrix march."""
    ld = np.longdouble
    h = ld(2.0 * L) / n
    x = -ld(L) + h * np.arange(n + 1, dtype=ld)
    f = (2.0 * ld(p.m) / ld(p.hbar) ** 2) * (
        ld(p.v0) / np.cosh(ld(p.omega) * x) ** 2 - ld(p.hbar * p.hbar) * ld(k) ** 2 / (2.0 * ld(p.m))
    )
    c = h * h / 12.0
    a = 1.0 - c * f
    b = 2.0 + 10.0 * c * f
    pr = np.empty(n + 1, dtype=ld)
    pi = np.empty(n + 1, dtype=ld)
    pr[-2:] = np.cos(ld(k) * x[-2:])
    pi[-2:] = np.sin(ld(k) * x[-2:])
    for j in range(n - 1, 0, -1):
        pr[j - 1] = (b[j] * pr[j] - a[j + 1] * pr[j + 1]) / a[j - 1]
        pi[j - 1] = (b[j] * pi[j] - a[j + 1] * pi[j + 1]) / a[j - 1]
    return x.astype(float), pr.astype(float) + 1j * pi.astype(float)


def _verify_grid(v8, kappa):
    """The coarse grid and match window of the verify oracle suite."""
    p = params_for(v8)
    L, h = _box_and_step(p, kappa)
    n = _even_steps(L, h)
    return p, L, n, _window_indices(kappa, 2.0 * L / n, L, n)


@pytest.mark.parametrize("v8, kappa", [(0.1, 5.0), (20.0, 0.1), (0.0, 1.0)])
def test_march_matches_sequential_loop(v8, kappa):
    p, L, n, idx = _verify_grid(v8, kappa)
    t_ref, r_ref = _match_edge(*_sequential_march(p, kappa, L, n), kappa, idx)
    x, psi = _march(kappa, L, _potential_nodes(p, L, n), idx[-1])
    t, r = _match_edge(x, psi, kappa, idx)
    assert abs(t - t_ref) <= 1e-9 * abs(t_ref)
    if v8 == 0.0:
        # R = 3.1e-11 is only the e^{ikx} seed's mismatch with the discrete
        # wave, and the loop's own roundoff moves it by 2.4e-16 (7.7e-6
        # relative, against the 40-digit referee below): hold R to that.
        assert abs(r - r_ref) <= 1e-15
    else:
        assert abs(r - r_ref) <= 5e-7 * abs(r_ref)


def _mpmath_window(p, k, L, n, w):
    """psi at nodes 0..w from the Numerov recurrence run in 40-digit mpmath,
    with the nodes and V computed in mpmath too."""
    mp = pytest.importorskip("mpmath")
    ctx = mp.mp.clone()
    ctx.dps = 40
    h = ctx.mpf(2 * L) / n
    c = h * h / 12
    scale = 2 * ctx.mpf(p.m) / ctx.mpf(p.hbar) ** 2
    energy = (ctx.mpf(p.hbar) * k) ** 2 / (2 * ctx.mpf(p.m))

    def a_b(j):
        f = scale * (ctx.mpf(p.v0) / ctx.cosh(p.omega * (j * h - L)) ** 2 - energy)
        return 1 - c * f, 2 + 10 * c * f

    psi_next, psi = ctx.expj(k * (n * h - L)), ctx.expj(k * ((n - 1) * h - L))
    (a_next, _), (a_j, b_j) = a_b(n), a_b(n - 1)
    window = [None] * (w + 1)
    for j in range(n - 1, 0, -1):
        a_prev, b_prev = a_b(j - 1)
        psi_next, psi = psi, (b_j * psi - a_next * psi_next) / a_prev
        a_next, a_j, b_j = a_j, a_prev, b_prev
        if j - 1 <= w:
            window[j - 1] = complex(psi)
    return np.array(window)


@pytest.mark.parametrize(
    "v8, kappa, r_tol",
    [
        (0.1, 5.0, 1e-7),  # 13,334 steps, window 523; the loop is off by 1.3e-8
        (0.0, 1.0, 1e-6),  # |R| = 3.1e-11; the loop is off by 7.7e-6
    ],
)
def test_march_matches_mpmath_recurrence(v8, kappa, r_tol):
    p, L, n, idx = _verify_grid(v8, kappa)
    reference = _mpmath_window(p, kappa, L, n, idx[-1])
    x, psi = _march(kappa, L, _potential_nodes(p, L, n), idx[-1])
    t_ref, r_ref = _match_edge(x, reference, kappa, idx)
    t, r = _match_edge(x, psi, kappa, idx)
    assert abs(t - t_ref) <= 1e-12 * abs(t_ref)
    assert abs(r - r_ref) <= r_tol * abs(r_ref)


def test_coarse_grid_reuses_fine_potential_bit_for_bit():
    p = params_for(2.0)
    fine = _potential_nodes(p, 16.0, 2 * 2668)
    assert np.array_equal(fine[::2], _potential_nodes(p, 16.0, 2668))


def test_march_past_stability_limit_raises():
    # Numerov's free step is a rotation only while k h < sqrt(6).
    p = params_for(2.0)
    with pytest.raises(StepTooCoarseError, match="stability limit"):
        _once(p, 1.0, 16.0, 2.7)


def test_richardson_estimate_is_logged(caplog):
    p = params_for(2.0)
    quiet = numerov_amplitudes(p, 1.0)
    with caplog.at_level(logging.DEBUG, logger="coshbar.oracle"):
        logged = numerov_amplitudes(p, 1.0)
    assert logged == quiet
    (record,) = [r for r in caplog.records if r.name == "coshbar.oracle"]
    assert record.levelno == logging.DEBUG
    n = _even_steps(*_box_and_step(p, 1.0))
    assert f"n={n} and 2n={2 * n} steps" in record.getMessage()
    assert "Richardson error estimate" in record.getMessage()


def test_thread_safe_concurrent_solves():
    # Pure value computations: concurrent sweeps must agree with serial.
    from concurrent.futures import ThreadPoolExecutor

    from coshbar import amplitudes

    p = params_for(2.0)
    ks = [0.3, 0.7, 1.1, 1.9, 2.5, 3.3]
    serial = [amplitudes(reduce(p, k)).t for k in ks]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda k: amplitudes(reduce(p, k)).t, ks))
    assert serial == threaded


# ---------------------------------------------------------------------------
# grid propagator
# ---------------------------------------------------------------------------

def test_grid_free_kernel():
    from coshbar import free_kernel

    p = params_for(0.0)
    exact = free_kernel(p, 0.4, -0.3, 1.0)
    val = grid_propagator(p, 1.0, 0.4, -0.3)
    assert abs(val - exact) < 1e-6 * exact


def test_grid_symmetry_is_exact():
    p = params_for(2.0)
    a = grid_propagator(p, 1.0, 0.5, -0.5)
    b = grid_propagator(p, 1.0, -0.5, 0.5)
    assert a == b


def test_grid_positivity():
    p = params_for(5.0)
    for xf, xi, tau in ((0.0, 0.0, 0.5), (1.0, -1.0, 1.0), (0.3, 2.0, 2.0)):
        assert grid_propagator(p, tau, xf, xi) > 0


def test_grid_reference_value():
    # (v8, tau, xf, xi) = (2, 1, 0.5, -0.5): the Talbot kernel, which the
    # 30-digit mpmath referee holds to 1e-10.
    p = params_for(2.0)
    val = grid_propagator(p, 1.0, 0.5, -0.5)
    assert val == pytest.approx(0.19717516738, rel=1e-7)


def test_grid_extrapolant_error_falls_per_halving():
    # The premise of the gate: the extrapolant (4 K_{dx/2} - K_dx)/3 leaves
    # an O(dx^4) error, so each halving cuts its error against the Talbot
    # kernel by about 16, and at least by 8.  0.4 and -0.4 are nodes of
    # every grid from dx = 0.1, the oracle's first grid here; the last error,
    # about 6e-9, stays well above Talbot's own.
    p = params_for(2.0)
    points = np.array([-0.4, 0.4])
    exact = spectral_kernel(p, 0.4, -0.4, 1.0).value
    kernels = [_grid_kernel(p, 6.0, 0.1 / 2**n, 1.0, points)[0][0, 1] for n in range(4)]
    errors = [abs((4.0 * fine - coarse) / 3.0 - exact) for coarse, fine in zip(kernels, kernels[1:])]
    for coarse, fine in zip(errors, errors[1:]):
        assert fine * 8.0 <= coarse, errors


def test_grid_eigensolver_residuals():
    # ||H phi - E phi|| < 1e-10 for a sample of eigenpairs; at tau = 0.01 the
    # Boltzmann cutoff keeps all 401.
    p = params_for(2.0)
    dx = 0.03
    xs, energies, vectors = _eigensystem(p, 6.0, dx, 0.01)
    assert len(energies) == len(xs) == 401
    t0 = p.hbar**2 / (p.m * dx * dx)
    diag = t0 + p.potential(xs)
    for n in (0, 5, 50, 200, 400):
        v = vectors[:, n]
        hv = diag * v
        hv[:-1] += -0.5 * t0 * v[1:]
        hv[1:] += -0.5 * t0 * v[:-1]
        assert np.linalg.norm(hv - energies[n] * v) < 1e-10 * max(1.0, abs(energies[n]))


def test_grid_input_validation(monkeypatch):
    p = params_for(1.0)
    with pytest.raises(ValueError):
        grid_propagator(p, -1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="finite"):
        grid_propagator(p, 1.0, math.nan, 0.0)

    # a far point would need a huge eigensolve: the node cap refuses it first
    def no_solve(*args):
        raise AssertionError("eigensolve started")

    monkeypatch.setattr(oracle, "_eigensystem", no_solve)
    with pytest.raises(ValueError, match="past the cap"):
        grid_propagator(p, 1.0, 0.0, 1000.0)


def test_grid_swapped_calls_agree_bit_for_bit():
    p = params_for(2.0)
    rng = np.random.default_rng(7)
    for xf, xi in rng.uniform(-1.0, 1.0, size=(12, 2)):
        forward = grid_propagator(p, 1.0, xf, xi)
        assert forward == grid_propagator(p, 1.0, xi, xf)


def test_grid_matrix_entries_match_scalar_calls():
    p = params_for(2.0)
    xfs, xis = (-0.5, 0.1, 0.7), (0.0, -0.3)
    matrix = grid_propagator_matrix(p, 0.6, xfs, xis)
    for row, xf in zip(matrix, xfs):
        for value, xi in zip(row, xis):
            assert value == pytest.approx(grid_propagator(p, 0.6, xf, xi), rel=1e-13)


def test_grid_selected_eigenpairs_match_full_spectrum():
    # Reference: every eigenpair of the same one-grid Hamiltonian, with the
    # 4-point Lagrange interpolation written out node by node.
    from scipy.linalg import eigh_tridiagonal

    p, L, dx, tau = params_for(2.0), 6.0, 0.01, 1.0
    xs, selected, _ = _eigensystem(p, L, dx, tau)
    t0 = 1.0 / (dx * dx)
    energies, vectors = eigh_tridiagonal(t0 + p.potential(xs), np.full(len(xs) - 1, -0.5 * t0))
    assert len(selected) < len(xs) // 10
    weights = np.exp(-energies * tau)

    def reference(xf, xi):
        total = 0.0
        for jf, wf in _lagrange_weights(xs, dx, xf):
            for ji, wi in _lagrange_weights(xs, dx, xi):
                total += wf * wi * np.dot(weights * vectors[jf], vectors[ji]) / dx
        return total

    points = np.array((-0.5, -0.13, 0.0, 0.42, 1.7))
    matrix, _ = _grid_kernel(p, L, dx, tau, points)
    for a, xf in enumerate(points):
        for b, xi in enumerate(points):
            assert matrix[a, b] == pytest.approx(reference(xf, xi), rel=1e-10)


def _lagrange_weights(xs, dx, x):
    # (node index, weight) of the nodes j - 1 .. j + 2 around x = (j + t) dx
    j = math.floor(x / dx)
    stencil = range(j - 1, j + 3)
    pairs = []
    for n in stencil:
        weight = 1.0
        for other in stencil:
            if other != n:
                weight *= (x / dx - other) / (n - other)
        pairs.append((n + len(xs) // 2, weight))
    return pairs


def test_grid_unresolved_entry_reports_its_spacing():
    # The tiny kernel at (0, 6) (about 6e-9 of a diagonal 0.4) sinks below
    # its eigenvector roundoff floor: on the first halving, dx = 0.05, the
    # floor, 3.5e-14, already passes 1e-6 of the entry, so it is refused
    # there, not refined further.
    p = params_for(2.0)
    matrix = grid_propagator_matrix(p, 1.0, (0.0,), (0.0, 6.0))
    assert matrix[0][0] > 0
    assert isinstance(matrix[0][1], ConvergenceError)
    assert "at dx=0.05," in str(matrix[0][1])
    assert "roundoff floor" in str(matrix[0][1])


def test_oracle_imports_nothing_from_the_analytic_layer():
    # The oracles are ground truth only while they share no code and no
    # constant with the closed forms they check.
    imported = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["coshbar" if node.level else "", node.module]))
            imported.update(f"{base}.{alias.name}" for alias in node.names)
    analytic = {"coshbar.propagator", "coshbar.special"}
    assert [name for name in imported if ".".join(name.split(".")[:2]) in analytic] == []
