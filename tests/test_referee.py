"""Arbitrary-precision referee for the closed-form amplitudes and wave
functions.

T and R are checked against the gamma ratios of the paper evaluated by
mpmath at 40 digits, with nu formed from v8 at that precision, over the
extreme strengths and wavenumbers the package supports; the wave functions
against mpmath Legendre functions deep in the tails.  mpmath is a test
extra, not a package dependency, so the module skips without it.
"""

import pytest

from coshbar import PhysicalParams, amplitudes, reduce, wavefunctions

mp = pytest.importorskip("mpmath")

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
