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
    p = params_for(2.0)
    a = spectral_kernel(p, 0.5, -0.2, 0.7)
    b = spectral_kernel(p, -0.2, 0.5, 0.7)
    assert abs(a.value - b.value) <= 1e-12 * a.value


def test_matches_grid_oracle_reference_point():
    p = params_for(2.0)
    kv = spectral_kernel(p, 0.5, -0.5, 1.0)
    ref = grid_propagator(p, 6.0, 1200, 1.0, 0.5, -0.5)
    assert abs(kv.value - ref) < 1e-3 * ref


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


def test_quadrature_error_estimate_is_honest():
    # The reported quad_error bounds the deviation from a much finer
    # quadrature.
    from coshbar.propagator import _panel_sums
    from coshbar.params import reduce

    p = params_for(2.0)
    kv = spectral_kernel(p, 0.4, -0.3, 0.8)
    nu = complex(reduce(p, 0.0).nu)
    k_max = np.sqrt(2.0 * p.m * 16.0 * np.log(10.0) / (p.hbar * kv.tau))
    fine, _, _ = _panel_sums(
        p, nu, np.array([p.omega * kv.xf]), np.array([p.omega * kv.xi]), kv.tau, float(k_max),
        512, np.ones((1, 1), dtype=bool),
    )
    assert abs(kv.value - fine[0, 0].real) <= max(kv.quad_error, 1e-12 * kv.value)


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


def test_matrix_point_without_legendre_table_fails_only_its_entries():
    # tanh(400) rounds to 1 in float64, so no Legendre table exists at x = 400.
    p = params_for(2.0)
    matrix = spectral_kernel_matrix(p, (0.0, 400.0), (0.0, 400.0), 1.0)
    assert matrix[0][0].value > 0
    for a, b in ((0, 1), (1, 0), (1, 1)):
        assert isinstance(matrix[a][b], (NumericalError, ValueError))
