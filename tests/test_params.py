import math

import pytest

from coshbar import BarrierIndex, PhysicalParams, reduce


def make_params(v8, omega=1.0, m=1.0, hbar=1.0):
    return PhysicalParams(m=m, hbar=hbar, omega=omega, v0=v8 * (hbar * omega) ** 2 / (8 * m))


def test_free_particle_has_zero_degree():
    p = PhysicalParams(m=1.3, hbar=0.7, omega=2.0, v0=0.0)
    idx = reduce(p, 1.7)
    assert idx.nu == 0
    assert idx.v8 == 0


def test_critical_strength_gives_minus_half():
    idx = reduce(make_params(1.0), 0.5)
    assert idx.nu == -0.5


def test_v8_two_gives_half_imaginary():
    idx = reduce(make_params(2.0), 0.5)
    assert idx.nu == pytest.approx(complex(-0.5, 0.5), abs=1e-15)


def test_order_is_i_kappa():
    idx = reduce(make_params(3.0, omega=2.0), 1.2)
    assert idx.kappa == pytest.approx(0.6)
    assert idx.mu == pytest.approx(1j * 0.6)
    assert idx.mu.real == 0.0


@pytest.mark.parametrize("v8", [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 123.0])
def test_degree_solves_indicial_equation(v8):
    # nu is a root of nu*(nu+1) = -v8/4 for every strength.
    nu = reduce(make_params(v8), 1.0).nu
    assert abs(nu * (nu + 1) + v8 / 4.0) <= 1e-14 * max(1.0, v8 / 4.0)


@pytest.mark.parametrize("v8", [1.5, 2.0, 40.0])
def test_strong_barrier_sits_on_critical_line(v8):
    nu = reduce(make_params(v8), 1.0).nu
    assert nu.real == pytest.approx(-0.5, abs=1e-15)
    assert nu.imag > 0
    assert abs((1 + nu.conjugate()) - (-nu)) < 1e-14


@pytest.mark.parametrize("v8", [0.2, 0.9])
def test_weak_barrier_degree_real_in_branch(v8):
    nu = reduce(make_params(v8), 1.0).nu
    assert nu.imag == 0.0
    assert -0.5 < nu.real <= 0.0


def test_weak_barrier_degree_has_no_cancellation():
    # nu = -v8/4 - v8^2/16 - ... ; the naive (-1 + sqrt(1 - v8))/2 keeps
    # only about two digits of it at v8 = 1e-14.
    v8 = 1e-14
    idx = reduce(make_params(v8), 1.0)
    assert idx.v8 == v8
    ref = -v8 / 4 - v8**2 / 16
    assert abs(idx.nu - ref) <= 1e-15 * abs(ref)
    assert idx.nu.imag == 0.0


def test_reduction_depends_only_on_dimensionless_groups():
    # Two physically different parameter sets sharing (v8, kappa) reduce
    # identically.
    v8, kappa = 3.7, 1.9
    a = reduce(make_params(v8, omega=2.0, m=1.0, hbar=1.0), kappa * 2.0)
    b = reduce(make_params(v8, omega=0.5, m=4.0, hbar=0.3), kappa * 0.5)
    assert a.kappa == pytest.approx(b.kappa, rel=1e-14)
    assert a.v8 == pytest.approx(b.v8, rel=1e-14)
    assert a.nu == pytest.approx(b.nu, rel=1e-14)
    assert a.mu == pytest.approx(b.mu, rel=1e-14)


def test_rejects_bad_physical_params():
    with pytest.raises(ValueError):
        PhysicalParams(m=-1.0, hbar=1.0, omega=1.0, v0=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(m=1.0, hbar=0.0, omega=1.0, v0=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(m=1.0, hbar=1.0, omega=1.0, v0=-0.5)
    with pytest.raises(ValueError):
        PhysicalParams(m=1.0, hbar=1.0, omega=math.inf, v0=0.0)


def test_rejects_bad_wavenumber():
    p = make_params(1.0)
    with pytest.raises(ValueError):
        reduce(p, -1.0)
    with pytest.raises(ValueError):
        reduce(p, math.nan)


def test_barrier_index_validation():
    with pytest.raises(ValueError):
        BarrierIndex(kappa=-1.0, v8=1.0, nu=0j, mu=0j)
    with pytest.raises(ValueError):
        BarrierIndex(kappa=1.0, v8=-2.0, nu=0j, mu=1j)
