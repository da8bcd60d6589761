"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per case.  Run with `pytest tests/test_acceptance.py -v -s`.

The criteria and tolerances live in coshbar.verify; each test here runs
one of its suites, as `coshbar verify --suite NAME` does, and adds the
wave-function asymptotics and a scalar cmath evaluation of the closed-form
S, which no suite has."""

import cmath
import math
import time

import numpy as np
import pytest

from coshbar import (
    PhysicalParams,
    amplitudes,
    asymptotic_extract,
    reduce,
    verify,
    wavefunctions,
)
from coshbar.special import log_gamma


def index_of(v8, kappa):
    p = PhysicalParams(m=1.0, hbar=1.0, omega=1.0, v0=v8 / 8.0)
    return p, reduce(p, kappa)


def report(name: str, worst: float, tolerance: float) -> None:
    status = "PASS" if worst <= tolerance else "FAIL"
    print(f"{status} {name}: worst residual {worst:.3e} (tolerance {tolerance:.1e})")
    assert worst <= tolerance


@pytest.mark.parametrize("suite", verify.SUITES)
def test_verify_suite(suite):
    t_start = time.time()
    base = PhysicalParams(m=1.0, hbar=1.0, omega=1.0, v0=0.0)
    [result] = verify.run([suite], base)
    elapsed = time.time() - t_start
    for case in result["cases"]:
        status = "PASS" if case["pass"] else "FAIL"
        print(f"{status} {suite} {case['name']}: residual {case['residual']:.3e} "
              f"(tolerance {case['tolerance']:.1e})")
    assert result["cases"]
    assert [case["name"] for case in result["cases"] if not case["pass"]] == []
    if suite == "propagator":
        status = "PASS" if elapsed <= 300.0 else "FAIL"
        print(f"{status} propagator suite runtime {elapsed:.1f}s (limit 300s)")
        assert elapsed <= 300.0


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


def test_criterion_9_closed_form_consistency():
    worst = 0.0
    for v8 in verify.V8_GRID:
        for kappa in verify.KAPPA_GRID:
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
