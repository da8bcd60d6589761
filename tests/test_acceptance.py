"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with `pytest tests/test_acceptance.py -v -s`."""

import cmath
import math
import time

import numpy as np

from coshbar import (
    PhysicalParams,
    amplitudes,
    asymptotic_extract,
    connection_coefficients,
    free_kernel,
    grid_propagator,
    hyp2f1,
    legendre_P,
    numerov_amplitudes,
    reduce,
    spectral_kernel,
    wavefunctions,
)
from coshbar.cli import RunConfig, _oracle_cfg_for
from coshbar.special import log_gamma

V8_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 20.0)
KAPPA_GRID = (0.1, 0.5, 1.0, 2.0, 5.0)


def index_of(v8, kappa):
    p = PhysicalParams(m=1.0, hbar=1.0, omega=1.0, v0=v8 / 8.0)
    return p, reduce(p, kappa)


def report(name: str, worst: float, tolerance: float) -> None:
    status = "PASS" if worst <= tolerance else "FAIL"
    print(f"{status} {name}: worst residual {worst:.3e} (tolerance {tolerance:.1e})")
    assert worst <= tolerance


def test_criterion_1_unitarity_grid():
    worst = 0.0
    for v8 in V8_GRID:
        for kappa in KAPPA_GRID:
            amp = amplitudes(index_of(v8, kappa)[1])
            worst = max(worst, abs(amp.t2 + amp.r2 - 1.0), abs(abs(amp.s) - 1.0))
    report("criterion-1 unitarity grid", worst, 1e-10)


def test_criterion_2_free_particle_limit():
    amp = amplitudes(index_of(0.0, 1.0)[1])
    exact_residual = max(abs(amp.t - 1.0), abs(amp.r))
    assert exact_residual == 0.0
    p_tiny = PhysicalParams(m=1.0, hbar=1.0, omega=1.0, v0=1e-12)
    amp_tiny = amplitudes(reduce(p_tiny, 1.0))
    report("criterion-2 free-particle limit", abs(amp_tiny.t - 1.0), 1e-6)


def test_criterion_3_delta_barrier_limit():
    # hbar = 2m = 1 scaling, g = 2, k = 1: V0 = omega gives the contact
    # barrier of strength g in the omega -> inf family.
    g, k = 2.0, 1.0
    t_delta = 2 * k / (2 * k + 1j * g)
    omegas = (1e2, 1e3, 1e4)
    devs = []
    for om in omegas:
        p = PhysicalParams(m=0.5, hbar=1.0, omega=om, v0=om)
        devs.append(abs(amplitudes(reduce(p, k)).t - t_delta))
    slope = np.polyfit(np.log(omegas), np.log(devs), 1)[0]
    print(
        f"{'PASS' if abs(slope + 1) <= 0.1 and devs[-1] < 1e-3 else 'FAIL'} "
        f"criterion-3 delta-barrier limit: slope {slope:+.4f} (want -1 +- 0.1), "
        f"|T(1e4) - T_delta| = {devs[-1]:.3e} (tolerance 1e-03)"
    )
    assert abs(slope + 1.0) <= 0.1
    assert devs[-1] < 1e-3


def test_criterion_4_oracle_equivalence():
    worst = 0.0
    for v8 in V8_GRID:
        for kappa in KAPPA_GRID:
            p, idx = index_of(v8, kappa)
            amp = amplitudes(idx)
            orc = numerov_amplitudes(p, kappa, _oracle_cfg_for(RunConfig(), kappa))
            worst = max(
                worst,
                abs(abs(orc.t) - abs(amp.t)) / abs(amp.t),
                abs(cmath.phase(orc.t / amp.t)),
                abs(abs(orc.r) - abs(amp.r)) / abs(amp.r),
                abs(cmath.phase(orc.r / amp.r)),
            )
    report("criterion-4 Numerov oracle equivalence (modulus+phase)", worst, 1e-6)


def test_criterion_5_connection_identities():
    worst = 0.0
    for v8 in V8_GRID:
        for kappa in KAPPA_GRID:
            cc = connection_coefficients(index_of(v8, kappa)[1])
            worst = max(
                worst,
                abs(abs(cc.a) ** 2 + abs(cc.b) ** 2 - 1.0),
                abs(cc.a * cc.b.conjugate() + cc.a.conjugate() * cc.b),
            )
    report("criterion-5 connection-coefficient identities", worst, 1e-10)


def test_criterion_6_symmetry_and_transformation():
    rng = np.random.default_rng(20250810)
    worst_sym = 0.0
    for _ in range(50):
        lam = rng.uniform(0.05, 2.5)
        mu = complex(rng.uniform(-0.8, 0.8), rng.uniform(-1.5, 1.5))
        x = rng.uniform(-0.9, 0.9)
        lhs = legendre_P(-0.5 - 1j * lam, mu, x)
        rhs = legendre_P(-0.5 + 1j * lam, mu, x)
        worst_sym = max(worst_sym, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    report("criterion-6a Legendre degree-reflection (50 draws)", worst_sym, 1e-10)
    worst_tr = 0.0
    for _ in range(50):
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        c = complex(rng.uniform(0.5, 3.0), rng.uniform(-2, 2))
        z = rng.uniform(0.02, 0.45)
        lhs = hyp2f1(a, b, c, z)
        rhs = (1 - z) ** complex(c - a - b) * hyp2f1(c - a, c - b, c, z)
        worst_tr = max(worst_tr, abs(lhs - rhs) / max(abs(lhs), 1e-30))
    report("criterion-6b 2F1 Euler transformation (50 draws)", worst_tr, 1e-9)


def test_criterion_7_wavefunction_asymptotics():
    worst_amp = 0.0
    worst_s = 0.0
    for v8, kappa in ((0.5, 0.5), (2.0, 1.0), (5.0, 2.0)):
        p, idx = index_of(v8, kappa)
        amp = amplitudes(idx)
        xs = list(np.linspace(-12, -9, 8)) + list(np.linspace(9, 12, 8))
        samples = [wavefunctions(idx, p, float(x)) for x in xs]
        fit = asymptotic_extract(samples, idx, p)
        worst_amp = max(worst_amp, abs(fit.t - amp.t), abs(fit.r - amp.r))
        fit_left = asymptotic_extract(samples, idx, p, direction="left")
        worst_s = max(worst_s, abs((fit_left.t + fit_left.r) - (fit.t + fit.r)))
    report("criterion-7a asymptotic extraction of T, R", worst_amp, 1e-6)
    report("criterion-7b left-moving analysis same S", worst_s, 1e-8)


def test_criterion_8_propagator():
    t_start = time.time()
    p_free = PhysicalParams(m=1.0, hbar=1.0, omega=1.0, v0=0.0)
    worst_free = 0.0
    for xf, xi in ((0.3, -0.2), (0.0, 0.0), (0.5, 0.5)):
        kv = spectral_kernel(p_free, xf, xi, 1.0)
        exact = free_kernel(p_free, xf, xi, 1.0)
        worst_free = max(worst_free, abs(kv.value - exact) / exact)
    report("criterion-8a spectral kernel free case", worst_free, 1e-6)

    p2, _ = index_of(2.0, 1.0)
    worst_grid = 0.0
    for xf in (-0.5, 0.0, 0.5):
        for xi in (-0.5, 0.0, 0.5):
            kv = spectral_kernel(p2, xf, xi, 1.0)
            ref = grid_propagator(p2, 6.0, 1200, 1.0, xf, xi)
            worst_grid = max(worst_grid, abs(kv.value - ref) / ref)
    report("criterion-8b spectral vs grid oracle (v8=2, tau=1)", worst_grid, 1e-3)
    elapsed = time.time() - t_start
    print(f"PASS criterion-8c propagator suite runtime {elapsed:.1f}s (limit 300s)")
    assert elapsed <= 300.0


def test_criterion_9_closed_form_consistency():
    worst = 0.0
    for v8 in V8_GRID:
        for kappa in KAPPA_GRID:
            _, idx = index_of(v8, kappa)
            amp = amplitudes(idx)
            nu, ik = complex(idx.nu), 1j * kappa
            if idx.v8 == 0:
                closed = 1.0 + 0j
            else:
                closed = cmath.exp(
                    complex(log_gamma(ik)) + complex(log_gamma(-nu - ik))
                    - complex(log_gamma(-ik)) - complex(log_gamma(-nu + ik))
                ) * cmath.cos(0.5 * math.pi * (nu + ik)) / cmath.cos(0.5 * math.pi * (nu - ik))
            worst = max(worst, abs((amp.t + amp.r) - closed))
    report("criterion-9 gamma-ratio sum vs closed-form S", worst, 1e-10)
