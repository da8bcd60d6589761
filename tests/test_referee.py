"""Arbitrary-precision referee for the closed-form amplitudes.

T and R are checked against the gamma ratios of the paper evaluated by
mpmath at 40 digits, with nu formed from v8 at that precision, over the
extreme strengths and wavenumbers the package supports.  mpmath is a test
extra, not a package dependency, so the module skips without it.
"""

import pytest

from coshbar import PhysicalParams, amplitudes, reduce

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
