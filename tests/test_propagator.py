import numpy as np
import pytest

from coshbar import (
    KernelValue,
    NumericalError,
    PhysicalParams,
    free_kernel,
    grid_propagator,
    spectral_kernel,
    spectral_kernel_matrix,
)


def params_for(v8, omega=1.0, m=1.0, hbar=1.0):
    return PhysicalParams(m=m, hbar=hbar, omega=omega, v0=v8 * (hbar * omega) ** 2 / (8 * m))


def test_free_case_matches_closed_form():
    p = params_for(0.0)
    for xf, xi, tau in ((0.3, -0.2, 1.0), (0.0, 0.0, 0.5), (1.5, 1.0, 2.0)):
        kv = spectral_kernel(p, xf, xi, tau)
        exact = free_kernel(p, xf, xi, tau)
        assert abs(kv.value - exact) < 1e-6 * exact
        assert kv.quad_error < 1e-6 * kv.value


def test_swap_symmetry():
    # Away from the propagator verify suite's (0.5, -0.2; 0.7) at v8 = 2.
    for v8, xf, xi, tau in ((0.5, 1.0, -0.3, 0.4), (5.0, 0.2, 1.5, 2.0)):
        a = spectral_kernel(params_for(v8), xf, xi, tau)
        b = spectral_kernel(params_for(v8), xi, xf, tau)
        assert abs(a.value - b.value) <= 1e-12 * a.value


def test_matches_grid_oracle_reference_point():
    p = params_for(2.0)
    kv = spectral_kernel(p, 0.5, -0.5, 1.0)
    ref = grid_propagator(p, 1.0, 0.5, -0.5)
    assert abs(kv.value - ref) < 1e-6 * ref


def test_short_time_approaches_free_kernel():
    p = params_for(0.5)
    kv = spectral_kernel(p, 0.0, 0.0, 0.01)
    exact = free_kernel(params_for(0.0), 0.0, 0.0, 0.01)
    assert abs(kv.value - exact) / exact < 0.01


def test_monotone_in_barrier_strength():
    values = [
        spectral_kernel(params_for(v8), 0.5, -0.5, 1.0).value for v8 in (0.0, 0.5, 2.0)
    ]
    assert values[0] > values[1] > values[2]


def test_semigroup_property():
    # int dz K(xf, z; t1) K(z, xi; t2) = K(xf, xi; t1 + t2), trapezoid over
    # [-8/omega, 8/omega].
    p = params_for(2.0)
    xf, xi, t1, t2 = 0.3, -0.2, 1.0, 1.0
    zs = np.linspace(-8.0, 8.0, 65)
    left = np.array([kv.value for kv in spectral_kernel_matrix(p, [xf], zs, t1)[0]])
    right = np.array([row[0].value for row in spectral_kernel_matrix(p, zs, [xi], t2)])
    composed = np.trapezoid(left * right, zs)
    target = spectral_kernel(p, xf, xi, t1 + t2).value
    assert abs(composed - target) < 1e-3 * target


def test_positivity_across_parameters():
    for v8 in (0.0, 1.0, 5.0):
        p = params_for(v8)
        for xf, xi, tau in ((0.0, 0.0, 0.3), (1.0, -1.5, 1.0), (2.0, 2.0, 0.1)):
            kv = spectral_kernel(p, xf, xi, tau)
            assert kv.value > 0


def test_tau_too_small_is_rejected():
    p = params_for(1.0)
    with pytest.raises(ValueError):
        spectral_kernel(p, 0.0, 0.0, 1e-5)
    with pytest.raises(ValueError):
        spectral_kernel(p, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="too small"):
        spectral_kernel_matrix(p, (0.0, 0.5), (0.0, 0.5), 1e-5)


def test_kernel_value_validation():
    with pytest.raises(ValueError):
        KernelValue(xf=0.0, xi=0.0, tau=1.0, value=-1.0, quad_error=0.0)
    with pytest.raises(ValueError):
        KernelValue(xf=0.0, xi=0.0, tau=1.0, value=1.0, quad_error=-1.0)


def referee_kernel(mp, v8, xf, xi, tau):
    """K at m = hbar = omega = 1 by mpmath's Talbot inversion of the
    paper's Green's function, with Ferrers P and gamma at 30 digits."""
    with mp.workdps(30):
        v8 = mp.mpf(v8)
        nu = (-1 + mp.sqrt(1 - v8)) / 2 if v8 <= 1 else mp.mpc(-0.5, mp.sqrt(v8 - 1) / 2)
        hi, lo = mp.mpf(max(xf, xi)), mp.mpf(min(xf, xi))

        def green(s):
            order = mp.sqrt(2 * s)
            return (
                mp.gamma(order - nu) * mp.gamma(order + nu + 1)
                * mp.legenp(nu, -order, mp.tanh(hi), type=2)
                * mp.legenp(nu, -order, -mp.tanh(lo), type=2)
            )

        return mp.re(mp.invertlaplace(green, mp.mpf(tau), method="talbot"))


@pytest.mark.parametrize("v8", (0.5, 2.0))
def test_kernel_matches_mpmath_referee(v8):
    # Down to K ~ 2e-32 at (6, -6), and to the shortest tau (0.0075 is
    # above the floor at omega = 1); at tau = 0.75 the 24-node contour's
    # real node has M = 4 exactly before the radius is nudged.  quad_error
    # must bound the deviation.
    mp = pytest.importorskip("mpmath")
    p = params_for(v8)
    cases = ((0.3, -0.2, 1.0), (0.0, 0.0, 0.1), (6.0, -6.0, 1.0), (2.0, -1.0, 0.3),
             (0.5, 0.5, 0.0075), (1.0, -1.0, 0.03), (0.5, 0.2, 0.75))
    for xf, xi, tau in cases:
        kv = spectral_kernel(p, xf, xi, tau)
        ref = float(referee_kernel(mp, v8, xf, xi, tau))
        assert abs(kv.value - ref) <= 1e-10 * ref, (xf, xi, tau)
        assert abs(kv.value - ref) <= kv.quad_error, (xf, xi, tau)


def test_matrix_entries_match_scalar_calls():
    p = params_for(2.0)
    xfs, xis = (-0.5, 0.1, 0.7), (0.0, -0.3)
    matrix = spectral_kernel_matrix(p, xfs, xis, 0.6)
    for row, xf in zip(matrix, xfs):
        for kv, xi in zip(row, xis):
            scalar = spectral_kernel(p, xf, xi, 0.6)
            assert (kv.xf, kv.xi) == (xf, xi)
            assert kv.value == pytest.approx(scalar.value, rel=1e-14, abs=0.0)
            assert kv.quad_error == pytest.approx(scalar.quad_error, rel=1e-6, abs=1e-15)


@pytest.mark.filterwarnings("error")
def test_matrix_point_without_legendre_table_fails_only_its_entries():
    # tanh(400) rounds to 1 in float64, yet the 2F1 tables at x = 400 exist
    # (their arguments carry log(1 - z)), so K(400, 400) is the free value.
    # K(0, 400) and K(400, 0) underflow and fail on their own.
    p = params_for(2.0)
    matrix = spectral_kernel_matrix(p, (0.0, 400.0), (0.0, 400.0), 1.0)
    assert matrix[0][0].value > 0
    assert matrix[1][1].value == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), rel=1e-10, abs=0.0)
    for a, b in ((0, 1), (1, 0)):
        assert isinstance(matrix[a][b], NumericalError)


@pytest.mark.parametrize("tau", (0.1, 1.0))
def test_free_case_matches_closed_form_at_every_separation(tau):
    # Within 1e-10 wherever m d^2 / (2 hbar tau) <= 72, and beyond that a
    # value within 1e-10 or a per-entry NumericalError, never a wrong value.
    p = params_for(0.0)
    xs = np.arange(-6.0, 6.5, 0.5)
    matrix = spectral_kernel_matrix(p, xs, xs, tau)
    for row, xf in zip(matrix, xs):
        for kv, xi in zip(row, xs):
            exact = free_kernel(p, xf, xi, tau)
            if (xf - xi) ** 2 / (2.0 * tau) > 72.0 and isinstance(kv, NumericalError):
                continue
            assert abs(kv.value - exact) <= 1e-10 * exact, (xf, xi)
            assert abs(kv.value - exact) <= kv.quad_error, (xf, xi)


def test_far_free_entry_is_refused_or_right():
    p = params_for(0.0)
    result = spectral_kernel_matrix(p, [0.0], [30.0], 1.0)[0][0]
    if not isinstance(result, NumericalError):
        exact = free_kernel(p, 0.0, 30.0, 1.0)
        assert abs(result.value - exact) <= 1e-10 * exact
