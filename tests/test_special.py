import cmath
import math

import numpy as np
import pytest
import scipy.special

from coshbar import (
    ConvergenceError,
    DegenerateTransformError,
    PoleError,
    hyp2f1,
    legendre_P,
    legendre_P_tanh,
    log_gamma,
)
from coshbar.params import PhysicalParams, reduce


def reference_2f1(a, b, c, z, terms=4000):
    """Plain term-by-term Gauss series; deliberately naive, used only as an
    independent check of the production path."""
    total = 1.0 + 0j
    term = 1.0 + 0j
    for n in range(terms):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * z
        total += term
    return total


# ---------------------------------------------------------------------------
# log_gamma
# ---------------------------------------------------------------------------

def test_log_gamma_classic_values():
    assert abs(log_gamma(1.0)) < 1e-15
    assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-14)


def test_log_gamma_reflection_on_half_line():
    # Gamma(1/2-x) Gamma(1/2+x) = pi / cos(pi x), exercised at x = i.
    z = complex(0.5, 1.0)
    product = cmath.exp(complex(log_gamma(z)) + complex(log_gamma(z.conjugate())))
    assert product == pytest.approx(math.pi / math.cosh(math.pi), rel=1e-12)


@pytest.mark.parametrize("x", [0.0, 0.3, 0.3 + 0.7j])
def test_log_gamma_reflection_identity(x):
    val = cmath.exp(complex(log_gamma(0.5 - x)) + complex(log_gamma(0.5 + x))) * cmath.cos(
        math.pi * x
    )
    assert abs(val - math.pi) < 1e-12 * math.pi


def test_log_gamma_conjugation_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(20):
        z = complex(rng.uniform(0.1, 20.0), rng.uniform(-20.0, 20.0))
        assert complex(log_gamma(z.conjugate())) == pytest.approx(
            complex(log_gamma(z)).conjugate(), rel=1e-13, abs=1e-13
        )


def test_log_gamma_accuracy_against_mpmath():
    # 12+ significant digits for |z| <= 50 on both half planes, against
    # mpmath's principal-branch loggamma at 30 digits.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(11)
    with mpmath.workdps(30):
        for _ in range(400):
            z = complex(rng.uniform(-49, 49), rng.uniform(-49, 49))
            if abs(z) > 50 or (z.imag == 0 and z.real <= 0):
                continue
            if abs(z.real - round(z.real)) < 1e-6 and abs(z.imag) < 1e-6:
                continue  # stay off the poles
            mine = complex(log_gamma(z))
            ref = complex(mpmath.loggamma(mpmath.mpc(z)))
            assert abs(mine - ref) <= 1e-12 * max(1.0, abs(ref))


def test_log_gamma_pole_rejection():
    for z in (0.0, -1.0, -2.0, -17.0):
        with pytest.raises(PoleError):
            log_gamma(z)


def test_log_gamma_vectorized_matches_scalar():
    zs = np.array([0.3 + 2j, 1.5 - 4j, -0.2 + 0.9j, 5.0 + 0j])
    vec = log_gamma(zs)
    for z, v in zip(zs, vec):
        assert complex(v) == pytest.approx(complex(log_gamma(complex(z))), rel=1e-15)


# ---------------------------------------------------------------------------
# hyp2f1
# ---------------------------------------------------------------------------

def test_hyp2f1_at_zero_is_one():
    assert hyp2f1(1.3 - 2j, 0.7 + 1j, 2.2 + 0.5j, 0.0) == pytest.approx(1.0)


def test_hyp2f1_binomial_reduction():
    # F(a, b; b; z) = (1-z)^(-a)
    a, z = 1.0 - 1j, 0.3
    for b in (0.8 + 0.2j, 2.5 - 1j):
        assert hyp2f1(a, b, b, z) == pytest.approx((1 - z) ** (-a), rel=1e-12)


def test_hyp2f1_euler_transform_barrier_point():
    # Self-consistency of the Euler transformation at the barrier parameter
    # point (v8, kappa, z) = (2, 1, 0.4), both sides via the naive series.
    nu = complex(reduce(PhysicalParams(1, 1, 1, 2.0 / 8), 1.0).nu)
    a, b, c = 1 + nu - 1j, -nu - 1j, 1 - 1j
    z = 0.4
    lhs = hyp2f1(a, b, c, z)
    assert abs(lhs - reference_2f1(a, b, c, z)) < 1e-12 * abs(lhs)
    rhs = (1 - z) ** (c - a - b) * reference_2f1(c - a, c - b, c, z)
    assert abs(lhs - rhs) < 1e-10 * abs(lhs)
    # frozen 30-digit reference for the same point
    assert lhs == pytest.approx(complex(1.036768814760532869, -0.41790992889018699124), rel=1e-12)


def test_hyp2f1_euler_transform_random_draws():
    rng = np.random.default_rng(23)
    for _ in range(50):
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        c = complex(rng.uniform(0.5, 3.0), rng.uniform(-2, 2))
        z = rng.uniform(0.02, 0.45)
        lhs = hyp2f1(a, b, c, z)
        rhs = (1 - z) ** (c - a - b) * hyp2f1(c - a, c - b, c, z)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_hyp2f1_series_and_transform_agree_on_overlap_band():
    # The production rule switches representation at z = 1/2; both must
    # agree across z in [0.4, 0.6] against the naive reference.
    nu = complex(reduce(PhysicalParams(1, 1, 1, 5.0 / 8), 1.0).nu)
    for kappa in (0.3, 1.0, 2.5):
        a, b, c = -nu, nu + 1, 1 - 1j * kappa
        for z in np.linspace(0.4, 0.6, 9):
            val = hyp2f1(a, b, c, float(z))
            ref = reference_2f1(a, b, c, float(z))
            assert abs(val - ref) <= 1e-9 * abs(ref)


@pytest.mark.parametrize("order", (30.98, 60.5, 80.3))
def test_hyp2f1_transform_with_large_c_minus_a_minus_b(order):
    # c - a - b = M: the transform's first series F(a, b; 1 - M; 1 - z) dips
    # below the stopping threshold, then swells again past n = M - 1.
    nu = complex(reduce(PhysicalParams(1, 1, 1, 2.0 / 8), 1.0).nu)
    for z in (0.55, 0.6, 0.73):
        val = hyp2f1(-nu, nu + 1, 1 + order, z)
        ref = reference_2f1(-nu, nu + 1, 1 + order, z)
        assert abs(val - ref) <= 1e-12 * abs(ref)


def test_hyp2f1_degenerate_transform_error():
    # c - a - b integer and z > 1/2: the two-term connection formula blows up.
    with pytest.raises(DegenerateTransformError):
        hyp2f1(0.3 + 1j, 0.7 - 1j, 1.0, 0.7)


def test_hyp2f1_polynomial_case_bypasses_transform():
    # Terminating series is exact for any argument, degenerate or not.
    assert hyp2f1(0.0, 0.7 - 1j, 0.7, 0.9) == pytest.approx(1.0)
    assert hyp2f1(-2.0, 1.5, 2.5, 0.8) == pytest.approx(
        complex(reference_2f1(-2.0, 1.5, 2.5, 0.8)), rel=1e-13
    )


def test_hyp2f1_rejects_bad_inputs():
    with pytest.raises(PoleError):
        hyp2f1(1.0, 1.0, -2.0, 0.3)
    with pytest.raises(ValueError):
        hyp2f1(1.0, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        hyp2f1(1.0, 1.0, 2.0, -0.1)


def test_hyp2f1_nonconvergence_error():
    # Huge parameters blow the term cap before the ratio test can bite.
    with pytest.raises(ConvergenceError):
        hyp2f1(4e4, 4e4, 1.0 + 1j, 0.45)


# ---------------------------------------------------------------------------
# legendre_P
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x", [-0.7, 0.0, 0.7])
def test_legendre_trivial_degree(x):
    assert legendre_P(0.0, 0.0, x) == pytest.approx(1.0)


def test_legendre_degree_reflection_example():
    lam, mu, x = 0.8, 0.5j, 0.3
    lhs = legendre_P(-0.5 - 1j * lam, mu, x)
    rhs = legendre_P(-0.5 + 1j * lam, mu, x)
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_legendre_degree_reflection_random_draws():
    rng = np.random.default_rng(31)
    for _ in range(50):
        lam = rng.uniform(0.05, 2.5)
        mu = complex(rng.uniform(-0.8, 0.8), rng.uniform(-1.5, 1.5))
        x = rng.uniform(-0.9, 0.9)
        lhs = legendre_P(-0.5 - 1j * lam, mu, x)
        rhs = legendre_P(-0.5 + 1j * lam, mu, x)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1e-30)


def test_legendre_against_series_oracle():
    # (v8, kappa, x) = (0.5, 0.9, -0.2): direct evaluation of the
    # hypergeometric representation with the naive series, plus a frozen
    # 30-digit reference of the same expression.
    nu = complex(reduce(PhysicalParams(1, 1, 1, 0.5 / 8), 1.0).nu)
    mu, x = 0.9j, -0.2
    val = legendre_P(nu, mu, x)
    pref = ((1 + x) / (1 - x)) ** (mu / 2) / cmath.exp(complex(scipy.special.loggamma(1 - mu)))
    ref = pref * reference_2f1(-nu, nu + 1, 1 - mu, (1 - x) / 2)
    assert abs(val - ref) <= 1e-10 * abs(ref)
    assert val == pytest.approx(
        complex(1.6469860906748503241, -0.75300788637132937982), rel=1e-12
    )


def test_legendre_tanh_matches_plain_argument():
    nu = complex(-0.5, 0.5)
    mu = 1.3j
    for alpha in (-2.0, -0.3, 0.0, 1.1, 3.0):
        a = legendre_P_tanh(nu, mu, alpha)
        b = legendre_P(nu, mu, math.tanh(alpha))
        assert abs(a - b) <= 1e-12 * max(abs(a), 1e-30)


def test_legendre_tanh_deep_tail_plane_wave():
    # For nu = 0 the function collapses to e^{mu * alpha} / Gamma(1 - mu);
    # the tanh form must hold this phase exactly even where tanh saturates.
    mu = 2.0j
    for alpha in (15.0, 25.0, -25.0):
        val = legendre_P_tanh(0.0, mu, alpha)
        ref = cmath.exp(mu * alpha) / cmath.exp(complex(scipy.special.loggamma(1 - mu)))
        assert abs(val - ref) <= 1e-12 * abs(ref)


def test_legendre_rejects_bad_inputs():
    with pytest.raises(ValueError):
        legendre_P(0.5j, 0.1j, 1.0)
    with pytest.raises(PoleError):
        legendre_P(0.3, 2.0, 0.5)  # 1 - mu = -1


def test_legendre_matches_scipy_at_integer_degrees():
    # Ferrers-function convention check against scipy for integer degree
    # and non-positive integer order (positive orders pole the prefactor).
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(0, 6))
        m = -int(rng.integers(0, n + 1))
        x = float(rng.uniform(-0.95, 0.95))
        mine = legendre_P(float(n), float(m), x)
        ref = scipy.special.lpmv(m, n, x)
        assert mine.imag == pytest.approx(0.0, abs=1e-13)
        assert mine.real == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_hyp2f1_matches_scipy_for_real_parameters():
    # scipy covers real parameters on both sides of the z = 1/2 seam.
    cases = [
        (0.3, 1.7, 2.9, 0.3),
        (0.3, 1.7, 2.9, 0.8),
        (-1.4, 2.2, 0.6, 0.95),
        (1.1, -0.7, 3.3, 0.55),
        (2.5, 0.4, 1.9, 0.49),
    ]
    for a, b, c, z in cases:
        mine = hyp2f1(a, b, c, z)
        ref = scipy.special.hyp2f1(a, b, c, z)
        assert mine.real == pytest.approx(ref, rel=1e-10)
        assert abs(mine.imag) < 1e-12 * abs(ref)
