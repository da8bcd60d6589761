import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from coshbar import (
    PhysicalParams,
    amplitudes,
    asymptotic_extract,
    connection_coefficients,
    numerov_amplitudes,
    reduce,
    s_function,
    wavefunction_samples,
    wavefunctions,
)
from coshbar.scattering import _s_closed_form
from coshbar.special import log_gamma
from coshbar.verify import KAPPA_GRID, SUITES, V8_GRID


def index_of(v8, kappa, omega=1.0, m=1.0, hbar=1.0):
    p = PhysicalParams(m=m, hbar=hbar, omega=omega, v0=v8 * (hbar * omega) ** 2 / (8 * m))
    return p, reduce(p, kappa * omega)


# ---------------------------------------------------------------------------
# amplitudes / s_function
# ---------------------------------------------------------------------------

def test_free_particle_is_transparent():
    _, idx = index_of(0.0, 1.3)
    amp = amplitudes(idx)
    assert amp.t == 1.0
    assert amp.r == 0.0
    assert s_function(idx) == 1.0


def test_flux_conservation_and_unitarity_on_grid():
    # The unitarity suite makes one array call per v8; each of its residuals
    # must be the one the scalar amplitudes/s_function path gives, bit for
    # bit, at omega = 1 and off it.
    for omega in (1.0, 0.8123):
        base = PhysicalParams(m=1.0, hbar=1.0, omega=omega, v0=0.0)
        cases = iter(SUITES["unitarity"](base))
        for v8 in V8_GRID:
            for kappa in KAPPA_GRID:
                _, idx = index_of(v8, kappa, omega=omega)
                amp, s = amplitudes(idx), s_function(idx)
                closed = complex(_s_closed_form(idx.nu, np.array([idx.kappa]))[0])
                for residual in (abs(amp.t2 + amp.r2 - 1.0), abs(abs(s) - 1.0), abs(amp.s - closed)):
                    assert next(cases)["residual"] == residual
                    assert residual < 1e-10
        assert next(cases, None) is None


def test_branch_swap_invariance():
    # The gamma-argument swap nu -> -1-nu permutes the same gamma factors.
    for v8 in V8_GRID:
        for kappa in KAPPA_GRID:
            _, idx = index_of(v8, kappa)
            swapped = replace(idx, nu=-1 - idx.nu)
            a1, a2 = amplitudes(idx), amplitudes(swapped)
            assert abs(a1.t - a2.t) < 1e-12
            assert abs(a1.r - a2.r) < 1e-12


def test_monotone_transparency_in_kappa():
    for v8 in V8_GRID:
        t2 = [amplitudes(index_of(v8, kappa)[1]).t2 for kappa in KAPPA_GRID]
        assert all(b > a for a, b in zip(t2, t2[1:]))
        assert abs(amplitudes(index_of(v8, 50.0)[1]).t2 - 1.0) < 1e-8


def test_delta_barrier_limit_of_amplitudes():
    # hbar = 2m = 1 scaling: V0 = omega collapses onto the contact barrier
    # with g = 2.  The T deviation's 1/omega slope and its bound at 1e4 are
    # the delta-limit verify suite; here R converges too and T monotonically.
    g, k = 2.0, 1.0
    t_delta = 2 * k / (2 * k + 1j * g)
    r_delta = -1j * g / (2 * k + 1j * g)
    devs = []
    for om in (1e2, 1e3, 1e4):
        p = PhysicalParams(m=0.5, hbar=1.0, omega=om, v0=om)
        amp = amplitudes(reduce(p, k))
        devs.append(abs(amp.t - t_delta))
        assert abs(amp.r - r_delta) < 3.0 / om
    assert devs[0] > devs[1] > devs[2]


def test_amplitudes_match_numerov_oracle_at_reference_point():
    p, idx = index_of(2.0, 1.0)
    amp = amplitudes(idx)
    orc = numerov_amplitudes(p, 1.0)
    assert abs(orc.t - amp.t) < 1e-6 * abs(amp.t)
    assert abs(orc.r - amp.r) < 1e-6 * abs(amp.r)


def test_closed_form_scattering_function_matches_sum():
    # Gamma/cosine closed form against T + R, evaluated independently here;
    # the acceptance suite runs the same check over the verify grid.
    for v8, kappa in ((0.5, 0.3), (2.0, 1.0), (20.0, 5.0)):
        _, idx = index_of(v8, kappa)
        amp = amplitudes(idx)
        nu, ik = complex(idx.nu), 1j * kappa
        closed = cmath.exp(
            complex(log_gamma(ik)) + complex(log_gamma(-nu - ik))
            - complex(log_gamma(-ik)) - complex(log_gamma(-nu + ik))
        ) * cmath.cos(0.5 * math.pi * (nu + ik)) / cmath.cos(0.5 * math.pi * (nu - ik))
        assert abs((amp.t + amp.r) - closed) < 1e-10


def test_amplitudes_reject_zero_kappa():
    _, idx = index_of(1.0, 0.0)
    with pytest.raises(ValueError):
        amplitudes(idx)
    with pytest.raises(ValueError):
        s_function(idx)


# ---------------------------------------------------------------------------
# connection coefficients
# ---------------------------------------------------------------------------

def test_connection_identities_on_grid():
    # Off the verify grid, which the identities suite covers.
    for v8, kappa in ((0.5, 0.7), (0.03, 0.2), (3.0, 0.3), (50.0, 2.5), (1e3, 1.0), (8.0, 12.0)):
        _, idx = index_of(v8, kappa)
        cc = connection_coefficients(idx)
        assert abs(abs(cc.a) ** 2 + abs(cc.b) ** 2 - 1.0) < 1e-10
        assert abs(cc.a * cc.b.conjugate() + cc.a.conjugate() * cc.b) < 1e-10


def test_connection_free_point():
    # sin(pi nu) kills a; b reduces to a pure gamma ratio of unit modulus.
    _, idx = index_of(0.0, 0.9)
    cc = connection_coefficients(idx)
    assert cc.a == 0
    expected_b = cmath.exp(
        complex(log_gamma(1 - idx.mu)) - complex(log_gamma(1 + idx.mu))
    )
    assert abs(cc.b - expected_b) < 1e-13


@pytest.mark.parametrize("v8, kappa", [(1e6, 1.0), (1e4, 2.0), (0.5, 9.0)])
def test_connection_coefficients_match_mpmath_past_sine_overflow(v8, kappa):
    # At v8 = 1e6 (Im nu ~ 500) sin(pi nu) and sin(pi(nu+mu)) overflow
    # float64; a stays of order one and b ~ 1e-681 underflows to 0.  The
    # log-gammas there are of size 3000, so 1e-12 is a few units of their
    # rounding.  kappa = 9 takes the overflow-free log-sine at a weak barrier.
    mpmath = pytest.importorskip("mpmath")
    _, idx = index_of(v8, kappa)
    cc = connection_coefficients(idx)
    with mpmath.workdps(30):
        nu, mu = mpmath.mpc(idx.nu), mpmath.mpc(idx.mu)
        ratio = mpmath.gamma(1 + nu - mu) / mpmath.gamma(1 + nu + mu) / mpmath.sin(mpmath.pi * (nu + mu))
        a, b = (complex(ratio * mpmath.sin(mpmath.pi * w)) for w in (nu, mu))
    assert abs(cc.a - a) + abs(cc.b - b) <= 1e-12


# ---------------------------------------------------------------------------
# wave functions
# ---------------------------------------------------------------------------

def test_free_wavefunction_is_plane_wave():
    # nu = 0: psi_right = c e^{ikx} with |c|^2 = m/(2 pi hbar^2 k).
    kappa = 0.8
    p, idx = index_of(0.0, kappa)
    k = kappa * p.omega
    c_sq = p.m / (2 * math.pi * p.hbar**2 * k)
    for x in np.linspace(-5, 5, 11):
        w = wavefunctions(idx, p, float(x))
        assert abs(abs(w.psi_right) ** 2 - c_sq) < 1e-12
        ratio = w.psi_right / cmath.exp(1j * k * x)
        ratio0 = wavefunctions(idx, p, 0.0).psi_right
        assert abs(ratio - ratio0) < 1e-12


def test_wavefunction_parity():
    p, idx = index_of(2.0, 1.0)
    a = wavefunctions(idx, p, 0.6)
    b = wavefunctions(idx, p, -0.6)
    assert a.psi_left == b.psi_right
    assert a.psi_right == b.psi_left
    assert wavefunction_samples(idx, p, []) == []


def test_wavefunction_value_frozen_reference():
    # psi_right at x = 0, (v8, kappa) = (0.5, 0.3): 30-digit evaluation of
    # the normalized Legendre form, frozen.
    p, idx = index_of(0.5, 0.3)
    w = wavefunctions(idx, p, 0.0)
    assert w.psi_right == pytest.approx(
        complex(0.72108655655381956327, -0.098829628548546937947), rel=1e-12
    )


def test_wavefunction_both_routes_consistent_across_positions():
    # wavefunctions() raises internally if the Legendre and transformed
    # hypergeometric routes drift past 1e-10; sweep to exercise both the
    # series and connection branches, including deep tails.
    for v8, kappa in ((0.5, 0.3), (2.0, 1.0), (5.0, 2.0)):
        p, idx = index_of(v8, kappa)
        for x in (-12.0, -3.0, -0.4, 0.0, 0.4, 3.0, 12.0):
            wavefunctions(idx, p, x)


def test_wavefunction_asymptotics_match_plane_wave_forms():
    # Pointwise comparison with the transmitted/incident+reflected forms at
    # |omega x| = 10.
    for v8, kappa in ((0.5, 0.5), (2.0, 1.0), (5.0, 2.0)):
        p, idx = index_of(v8, kappa)
        amp = amplitudes(idx)
        k = kappa * p.omega
        samples = [wavefunctions(idx, p, x) for x in np.linspace(-12, -10, 5)] + [
            wavefunctions(idx, p, x) for x in np.linspace(10, 12, 5)
        ]
        fit = asymptotic_extract(samples, idx, p)
        c = None
        for w in samples:
            if w.x > 0:
                model = fit.t * cmath.exp(1j * k * w.x)
            else:
                model = cmath.exp(1j * k * w.x) + fit.r * cmath.exp(-1j * k * w.x)
            if c is None:
                c = w.psi_right / model
            assert abs(w.psi_right - c * model) < 1e-6 * abs(w.psi_right)


# ---------------------------------------------------------------------------
# asymptotic extraction
# ---------------------------------------------------------------------------

def sample_grid(p, idx, inner=9.0, outer=12.0, n=8):
    xs = list(np.linspace(-outer, -inner, n)) + list(np.linspace(inner, outer, n))
    return [wavefunctions(idx, p, float(x)) for x in xs]


def test_extract_free_particle():
    p, idx = index_of(0.0, 1.0)
    fit = asymptotic_extract(sample_grid(p, idx), idx, p)
    assert abs(fit.t - 1.0) < 1e-8
    assert abs(fit.r) < 1e-8


@pytest.mark.parametrize("v8,kappa", [(0.5, 0.5), (2.0, 1.0), (5.0, 2.0)])
def test_extract_reproduces_gamma_amplitudes(v8, kappa):
    p, idx = index_of(v8, kappa)
    amp = amplitudes(idx)
    fit = asymptotic_extract(sample_grid(p, idx), idx, p)
    assert abs(fit.t - amp.t) < 1e-6
    assert abs(fit.r - amp.r) < 1e-6


def test_left_moving_extraction_gives_same_scattering_function():
    p, idx = index_of(2.0, 1.0)
    samples = sample_grid(p, idx)
    right = asymptotic_extract(samples, idx, p, direction="right")
    left = asymptotic_extract(samples, idx, p, direction="left")
    assert abs((left.t + left.r) - (right.t + right.r)) < 1e-8


def test_extract_input_validation():
    p, idx = index_of(2.0, 1.0)
    with pytest.raises(ValueError):
        asymptotic_extract(sample_grid(p, idx, inner=5.0), idx, p)  # too close in
    few = sample_grid(p, idx)[:6]
    with pytest.raises(ValueError):
        asymptotic_extract(few, idx, p)


def test_extract_aliased_spacing_is_rejected():
    from coshbar import IllConditionedFitError

    kappa = 2.0
    p, idx = index_of(0.5, kappa)
    # spacing pi/k aliases exp(2ikx) exactly
    step = math.pi / (kappa * p.omega)
    xs = [-10.0 - j * step for j in range(5)] + [10.0 + j * step for j in range(5)]
    samples = [wavefunctions(idx, p, x) for x in xs]
    with pytest.raises(IllConditionedFitError):
        asymptotic_extract(samples, idx, p)
