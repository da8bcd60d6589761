"""Arbitrary-precision referee for the closed-form amplitudes, wave
functions and special functions.

T and R are checked against the gamma ratios of the paper evaluated by
mpmath at 40 digits, with nu formed from v8 at that precision, over the
extreme strengths and wavenumbers the package supports; the wave functions
against mpmath Legendre functions deep in the tails and at v8 = 1e6; 2F1
and Legendre P at 30 digits across the z = 1/2 seam.  Hypothesis tests
hold the array wave-function path to its one-point case, |T|^2 + |R|^2 to
1 and the propagator matrix to its swap symmetry.  mpmath and hypothesis
are test extras, not package dependencies, so the module skips without
them.
"""

import math

import numpy as np
import pytest

from coshbar import (
    NumericalError,
    PhysicalParams,
    amplitudes,
    hyp2f1,
    legendre_P,
    legendre_P_tanh,
    log_gamma,
    reduce,
    spectral_kernel_matrix,
    wavefunction_samples,
    wavefunctions,
)
from coshbar.scattering import _log_normalization
from coshbar.special import _half_tanh, _hyp2f1_core, _legendre_core

mp = pytest.importorskip("mpmath")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

DIGITS = 40
V8_VALUES = (1e-14, 1e-10, 1e-6, 0.3, 1.0, 2.0, 1e2, 1e4, 1e6)
KAPPA_VALUES = (1e-9, 1e-4, 0.1, 1.0, 10.0, 50.0, 80.0, 120.0)
# Relative to |T| and to |R| separately.  The worst seen over this grid is
# about 1e-12, at v8 = 1e6 where the log-gamma arguments reach |Im| ~ 500.
RTOL = 1e-11
# A reference magnitude below this lies past float64's normal range
# (2.2e-308); the amplitude must then underflow instead of carrying a
# spurious value.  At v8 = 1e6, |T| is about 1e-519 to 1e-691.
UNDERFLOW = 1e-300


def gamma_ratios(v8: float, kappa: float):
    """T, R of the paper at DIGITS digits for exact float inputs."""
    with mp.workdps(DIGITS):
        v8m, k = mp.mpf(v8), mp.mpf(kappa)
        if v8m <= 1:
            nu = (-1 + mp.sqrt(1 - v8m)) / 2
        else:
            nu = mp.mpc(-0.5, mp.sqrt(v8m - 1) / 2)
        ik = mp.mpc(0, k)
        g = mp.gamma
        common = g(1 + nu - ik) * g(-nu - ik)
        t = common / (g(1 - ik) * g(-ik))
        r = common * g(ik) / (g(1 + nu) * g(-nu) * g(-ik))
        return t, r


def relative_error(value: complex, ref) -> float:
    with mp.workdps(DIGITS):
        if abs(ref) < UNDERFLOW:
            return 0.0 if abs(value) < UNDERFLOW else float("inf")
        return float(abs(mp.mpc(value) - ref) / abs(ref))


@pytest.mark.parametrize("v8", V8_VALUES)
def test_amplitudes_match_gamma_ratios(v8):
    p = PhysicalParams(m=1.0, hbar=1.0, omega=1.0, v0=v8 / 8.0)
    worst = 0.0
    for kappa in KAPPA_VALUES:
        idx = reduce(p, kappa)
        assert idx.v8 == v8 and idx.kappa == kappa
        amp = amplitudes(idx)
        t_ref, r_ref = gamma_ratios(v8, kappa)
        err = max(relative_error(amp.t, t_ref), relative_error(amp.r, r_ref))
        assert err <= RTOL, f"kappa={kappa:g}: relative error {err:.3e}"
        worst = max(worst, err)
    print(f"v8={v8:g}: worst relative error {worst:.3e} (tolerance {RTOL:.0e})")


def reference_waves(v8: float, kappa: float, x: float):
    """(psi_right, psi_left, plane-wave scale) at m = hbar = omega = 1, with
    P_nu^{i kappa}(tanh a) = e^{i kappa a} F(-nu, nu+1; 1 - i kappa;
    1/(1 + e^{2a})) / Gamma(1 - i kappa) at enough digits that 1 - z
    survives in z."""
    with mp.workdps(DIGITS + int(abs(x)) + 10):
        v8m, k, a = mp.mpf(v8), mp.mpf(kappa), mp.mpf(x)
        nu = (-1 + mp.sqrt(1 - v8m)) / 2 if v8m <= 1 else mp.mpc(-0.5, mp.sqrt(v8m - 1) / 2)
        mu = mp.mpc(0, k)
        denom = mp.re(mp.sin(mp.pi * nu) ** 2) + mp.sinh(mp.pi * k) ** 2
        norm = mp.sqrt(mp.sinh(mp.pi * k) / (2 * denom))

        def legendre(b):
            z = 1 / (1 + mp.exp(2 * b))
            return mp.exp(mu * b) / mp.gamma(1 - mu) * mp.hyp2f1(-nu, nu + 1, 1 - mu, z)

        scale = norm / abs(mp.gamma(1 - mu))
        return complex(norm * legendre(a)), complex(norm * legendre(-a)), float(scale)


@pytest.mark.parametrize("x", (20.0, 100.0, 300.0, 354.0, 360.0, 368.0, 376.0, 400.0, 700.0, 1000.0))
def test_wavefunctions_deep_tails_match_legendre(x):
    # Near |omega x| = 372 the complement (1 - |tanh|)/2 turns subnormal and
    # then underflows to 0; the z -> 1-z route needs only log(1 - z).
    p = PhysicalParams(m=1.0, hbar=1.0, omega=1.0, v0=2.0 / 8.0)
    idx = reduce(p, 1.0)
    for sample_x in (x, -x):
        w = wavefunctions(idx, p, sample_x)
        right, left, scale = reference_waves(2.0, 1.0, sample_x)
        assert abs(w.psi_right - right) <= 1e-13 * (scale + abs(right))
        assert abs(w.psi_left - left) <= 1e-13 * (scale + abs(left))


# ---------------------------------------------------------------------------
# 2F1 and Legendre P at 30 digits, one array of z across the z = 1/2 seam
# ---------------------------------------------------------------------------

REF_DIGITS = 30
# Direct series below 1/2, the z -> 1-z connection above, and both sides of
# the seam within 1e-9 of it, in one array call.
SEAM_Z = np.array([0.05, 0.3, 0.45, 0.5 - 1e-9, 0.5, 0.5 + 1e-9, 0.55, 0.7, 0.9, 0.99, 1.0 - 1e-6])
SEAM_X = np.array([-0.999, -0.9, -0.5, -0.1, -2e-7, 0.0, 2e-7, 0.1, 0.5, 0.9, 0.999])
SEAM_ALPHA = np.array([-20.0, -5.0, -1.0, -1e-6, 0.0, 1e-6, 1.0, 5.0, 20.0])


def barrier_nu(v8: float) -> complex:
    return complex(reduce(PhysicalParams(m=1.0, hbar=1.0, omega=1.0, v0=v8 / 8.0), 0.0).nu)


# Relative tolerances, each about 10x the worst error seen over SEAM_Z.  The
# generic sets reach 1.5e-12 (F ~ (1 - z)^(-0.2) at z = 1 - 1e-6).  At
# v8 = 100 (|Im nu| ~ 5) the sums near the seam cancel: 4.1e-9 for 2F1 and
# 4.5e-9 for P.
def hyp2f1_cases():
    yield (0.3 + 1j, 0.2 - 0.5j, 1.5 + 0.3j), 1e-11
    yield (1.1, -0.7, 3.3), 1e-11
    yield (-1.4, 2.2, 0.6), 1e-11
    nu = barrier_nu(2.0)
    yield (-nu, nu + 1.0, 1.0 + 30.98), 1e-11  # c - a - b = 30.98
    for v8, kappa, rtol in ((0.5, 0.3, 1e-13), (2.0, 1.0, 1e-13), (20.0, 3.0, 1e-13),
                            (100.0, 0.5, 1e-8)):
        nu, ik = barrier_nu(v8), 1j * kappa
        yield (-nu, nu + 1.0, 1.0 - ik), rtol  # the Legendre route of the wave functions
        yield (1.0 + nu - ik, -nu - ik, 1.0 - ik), rtol  # their transformed route


@pytest.mark.parametrize("abc, rtol", list(hyp2f1_cases()))
def test_hyp2f1_matches_mpmath_across_the_seam(abc, rtol):
    a, b, c = abc
    values = _hyp2f1_core(a, b, c, SEAM_Z, np.log1p(-SEAM_Z))
    with mp.workdps(REF_DIGITS):
        for z, value in zip(SEAM_Z.tolist(), values):
            ref = mp.hyp2f1(mp.mpc(a), mp.mpc(b), mp.mpc(c), mp.mpf(z))
            for mine in (complex(value), hyp2f1(a, b, c, z)):
                assert abs(mp.mpc(mine) - ref) <= rtol * abs(ref), f"z={z}"


@pytest.mark.parametrize(
    "v8, mu, rtol",
    [(0.5, 0.3j, 1e-13), (2.0, 1j, 1e-13), (2.0, 0.3 + 0.5j, 1e-13), (20.0, 3j, 1e-13),
     (100.0, 0.5j, 1e-8)],
)
def test_legendre_matches_mpmath_across_the_seam(v8, mu, rtol):
    nu = barrier_nu(v8)
    z, log_w = (1.0 - SEAM_X) / 2.0, np.log((1.0 + SEAM_X) / 2.0)
    values = _legendre_core(nu, mu, z, log_w, np.arctanh(SEAM_X))
    with mp.workdps(REF_DIGITS):
        for x, value in zip(SEAM_X.tolist(), values):
            ref = mp.legenp(mp.mpc(nu), mp.mpc(mu), mp.mpf(x), type=2)  # Ferrers P on (-1, 1)
            for mine in (complex(value), legendre_P(nu, mu, x)):
                assert abs(mp.mpc(mine) - ref) <= rtol * abs(ref), f"x={x}"
    values = _legendre_core(nu, mu, *_half_tanh(SEAM_ALPHA), SEAM_ALPHA)
    for alpha, value in zip(SEAM_ALPHA.tolist(), values):
        # tanh(alpha) = 1 - 2z with z = 1/(1 + e^(2 alpha)), kept to REF_DIGITS
        # where tanh saturates.
        with mp.workdps(REF_DIGITS + int(abs(alpha))):
            a, m = mp.mpf(alpha), mp.mpc(mu)
            f = mp.hyp2f1(-mp.mpc(nu), mp.mpc(nu) + 1, 1 - m, 1 / (1 + mp.exp(2 * a)))
            ref = mp.exp(m * a) / mp.gamma(1 - m) * f
            for mine in (complex(value), legendre_P_tanh(nu, mu, alpha)):
                assert abs(mp.mpc(mine) - ref) <= rtol * abs(ref), f"alpha={alpha}"


def test_strong_barrier_grid_flags_only_unresolvable_rows():
    # v8 = 1e6, kappa = 1 (Im nu ~ 500).  In the tails the normalization
    # (about e^-1571) meets the z -> 1-z prefactors (about e^+1571) in logs;
    # around the barrier top (|x| <= 2 here) the 2F1 sums overflow or the two
    # routes disagree, and only those rows are refused.  Tolerance: 1e-10 of
    # the largest |psi| on the grid, the incident wave's scale.  (At x = -5,
    # |psi| = 8e-4 carries 1.4e-8 relative: the rounding of the log-gammas
    # both routes share, amplified by the cancellation under the barrier.)
    p = PhysicalParams(m=1.0, hbar=1.0, omega=1.0, v0=1e6 / 8.0)
    idx = reduce(p, 1.0)
    xs = [-30.0, -10.0, -5.0, -2.0, 0.0, 2.0, 5.0, 10.0, 30.0]
    samples = wavefunction_samples(idx, p, xs)
    flagged = [x for x, w in zip(xs, samples) if isinstance(w, NumericalError)]
    assert flagged == [-2.0, 0.0, 2.0]
    refs = {x: reference_waves(1e6, 1.0, x)[:2] for x in xs if x not in flagged}
    tol = 1e-10 * max(abs(v) for pair in refs.values() for v in pair)
    for x, w in zip(xs, samples):
        if x in flagged:
            with pytest.raises(NumericalError):
                wavefunctions(idx, p, x)
            continue
        assert abs(w.psi_right - refs[x][0]) <= tol and abs(w.psi_left - refs[x][1]) <= tol, f"x={x}"


# ---------------------------------------------------------------------------
# the array wave-function path against its one-point case
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    v8=st.floats(0.0, 20.0),
    kappa=st.floats(0.05, 20.0),
    x=st.floats(-40.0, 40.0),
)
def test_array_wavefunctions_match_one_point_calls(v8, kappa, x):
    # Up to v8 = 20 the route gate refuses nothing, so every sample is a
    # value.  The array path stops each series when all its elements have
    # converged, so it may add terms below 1e-16 of the sum: the two paths
    # agree to 1e-14 of the route gate's measure, plane-wave scale + |psi|.
    p = PhysicalParams(m=1.0, hbar=1.0, omega=1.0, v0=v8 / 8.0)
    idx = reduce(p, kappa)
    xs = [x, -x, 0.5 * x, 3.0]
    samples = wavefunction_samples(idx, p, xs)
    scale = math.exp(_log_normalization(idx, p) - log_gamma(1.0 - 1j * kappa).real)
    for xi, w in zip(xs, samples):
        one = wavefunctions(idx, p, xi)
        for mine, ref in ((w.psi_right, one.psi_right), (w.psi_left, one.psi_left)):
            assert abs(mine - ref) <= 1e-14 * (scale + abs(ref))
    assert samples[0].psi_left == samples[1].psi_right
    assert samples[0].psi_right == samples[1].psi_left


# ---------------------------------------------------------------------------
# properties: unitarity, swap symmetry
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(log_v8=st.floats(-6.0, 4.0), log_kappa=st.floats(-3.0, math.log10(120.0)))
def test_flux_is_conserved(log_v8, log_kappa):
    # |T|^2 + |R|^2 = 1 to the 1e-10 the Amplitudes docstring promises, for
    # v8 in [1e-6, 1e4] and kappa in [1e-3, 120].
    kappa = min(10.0**log_kappa, 120.0)
    amp = amplitudes(reduce(PhysicalParams(m=1.0, hbar=1.0, omega=1.0, v0=10.0**log_v8 / 8.0), kappa))
    assert abs(amp.t2 + amp.r2 - 1.0) <= 1e-10


@settings(max_examples=15, deadline=None)
@given(
    v8=st.floats(0.0, 4.0),
    tau=st.floats(0.3, 2.0),
    xfs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3),
    xis=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3),
)
def test_spectral_kernel_matrix_is_swap_symmetric(v8, tau, xfs, xis):
    # K(xf, xi) = K(xi, xf) bit for bit, between a matrix and the matrix
    # over the swapped grids.
    p = PhysicalParams(m=1.0, hbar=1.0, omega=1.0, v0=v8 / 8.0)
    forward = spectral_kernel_matrix(p, xfs, xis, tau)
    backward = spectral_kernel_matrix(p, xis, xfs, tau)
    for i in range(len(xfs)):
        for j in range(len(xis)):
            assert forward[i][j].value == backward[j][i].value
