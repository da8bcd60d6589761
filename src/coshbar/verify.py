"""Verification criteria: the one implementation of every invariant suite,
run by `coshbar verify` and by the acceptance tests.  A suite takes
base = PhysicalParams(m, hbar, omega, v0=0.0) and returns cases {name,
residual, tolerance, pass}; the barriers it checks are replace(base, v0=...),
and the oracles pick their own grids, so no run setting moves a criterion."""

from __future__ import annotations

import cmath
import itertools
from dataclasses import replace

import numpy as np

from .errors import unwrap
from .oracle import grid_propagator_matrix, numerov_amplitudes
from .params import PhysicalParams, reduce
from .propagator import free_kernel, spectral_kernel, spectral_kernel_matrix
from .scattering import _amplitude_arrays, _s_closed_form, amplitudes, connection_coefficients
from .special import hyp2f1, legendre_P

__all__ = ["V8_GRID", "KAPPA_GRID", "SUITES", "run"]

V8_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 20.0)
KAPPA_GRID = (0.1, 0.5, 1.0, 2.0, 5.0)


def _case(name: str, residual: float, tolerance: float) -> dict:
    residual, tolerance = float(residual), float(tolerance)
    return {"name": name, "residual": residual, "tolerance": tolerance, "pass": residual <= tolerance}


def _barrier(base: PhysicalParams, v8: float) -> PhysicalParams:
    return replace(base, v0=v8 * (base.hbar * base.omega) ** 2 / (8.0 * base.m))


def _grid_indices(base: PhysicalParams):
    """(case tag, barrier, k, index) over V8_GRID x KAPPA_GRID, v8 outermost."""
    for v8 in V8_GRID:
        p = _barrier(base, v8)
        for kappa in KAPPA_GRID:
            yield f"[v8={v8:g},kappa={kappa:g}]", p, kappa * base.omega, reduce(p, kappa * base.omega)


def suite_unitarity(base: PhysicalParams) -> list[dict]:
    # One array call per v8 over the kappa grid; each element equals the
    # scalar amplitudes/s_function value bit for bit.
    cases = []
    for _p, batch in itertools.groupby(_grid_indices(base), key=lambda point: point[1]):
        tags, _, _, idxs = zip(*batch)
        nu, kappa = idxs[0].nu, np.array([idx.kappa for idx in idxs])
        t, r = _amplitude_arrays(nu, kappa)
        closed = _s_closed_form(nu, kappa)
        for tag, t_i, r_i, c_i in zip(tags, t.tolist(), r.tolist(), closed.tolist()):
            s = t_i + r_i
            cases.append(_case(f"flux{tag}", abs(abs(t_i) ** 2 + abs(r_i) ** 2 - 1.0), 1e-10))
            cases.append(_case(f"unitary-s{tag}", abs(abs(s) - 1.0), 1e-10))
            cases.append(_case(f"closed-form-s{tag}", abs(s - c_i), 1e-10))
    return cases


def suite_identities(base: PhysicalParams) -> list[dict]:
    cases = []
    for tag, _p, _k, idx in _grid_indices(base):
        cc = connection_coefficients(idx)
        cases.append(_case(f"norm{tag}", abs(abs(cc.a) ** 2 + abs(cc.b) ** 2 - 1.0), 1e-10))
        cases.append(
            _case(f"orthogonality{tag}", abs(cc.a * cc.b.conjugate() + cc.a.conjugate() * cc.b), 1e-10)
        )
    return cases


def suite_symmetry(_base: PhysicalParams) -> list[dict]:
    rng = np.random.default_rng(20250810)
    worst_legendre = 0.0
    for _ in range(50):
        lam = rng.uniform(0.05, 2.5)
        mu = complex(rng.uniform(-0.8, 0.8), rng.uniform(-1.5, 1.5))
        x = rng.uniform(-0.9, 0.9)
        lhs = legendre_P(-0.5 - 1j * lam, mu, x)
        rhs = legendre_P(-0.5 + 1j * lam, mu, x)
        worst_legendre = max(worst_legendre, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    worst_transform = 0.0
    for _ in range(50):
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        c = complex(rng.uniform(0.5, 3.0), rng.uniform(-2, 2))
        z = rng.uniform(0.02, 0.45)
        lhs = hyp2f1(a, b, c, z)
        rhs = (1.0 - z) ** complex(c - a - b) * hyp2f1(c - a, c - b, c, z)
        worst_transform = max(worst_transform, abs(lhs - rhs) / max(abs(lhs), 1e-30))
    return [
        _case("legendre-degree-reflection[50 draws]", worst_legendre, 1e-10),
        _case("hyp2f1-euler-transform[50 draws]", worst_transform, 1e-9),
    ]


def suite_free_limit(base: PhysicalParams) -> list[dict]:
    amp = amplitudes(reduce(base, base.omega))
    amp_tiny = amplitudes(reduce(replace(base, v0=1e-12), base.omega))
    return [
        _case("free-t-exact", abs(amp.t - 1.0), 0.0),
        _case("free-r-exact", abs(amp.r), 0.0),
        _case("near-free-t[v0=1e-12]", abs(amp_tiny.t - 1.0), 1e-6),
    ]


def suite_delta_limit(_base: PhysicalParams) -> list[dict]:
    # hbar = 2m = 1 scaling, g = 2, k = 1: the narrow-barrier family
    # V0 = (hbar^2/4m) g omega collapses onto (hbar^2/2m) g delta(x).
    g, k = 2.0, 1.0
    t_delta = 2.0 * k / (2.0 * k + 1j * g)
    omegas = (1e2, 1e3, 1e4)
    devs = []
    cases = []
    for om in omegas:
        p = PhysicalParams(m=0.5, hbar=1.0, omega=om, v0=1.0**2 * g * om / (4.0 * 0.5))
        devs.append(abs(amplitudes(reduce(p, k)).t - t_delta))
        cases.append(_case(f"delta-t[omega={om:g}]", devs[-1], 1e-3 * (1e4 / om)))
    slope = np.polyfit(np.log(omegas), np.log(devs), 1)[0]
    cases.append(_case("delta-convergence-slope[+1 offset]", abs(slope + 1.0), 0.1))
    return cases


def suite_oracle(base: PhysicalParams) -> list[dict]:
    cases = []
    for tag, p, k, idx in _grid_indices(base):
        amp = amplitudes(idx)
        o = numerov_amplitudes(p, k)
        residual = max(
            abs(abs(o.t) - abs(amp.t)) / abs(amp.t),
            abs(cmath.phase(o.t / amp.t)),
            abs(abs(o.r) - abs(amp.r)) / abs(amp.r),
            abs(cmath.phase(o.r / amp.r)),
        )
        cases.append(_case(f"numerov{tag}", residual, 1e-6))
    return cases


def suite_propagator(base: PhysicalParams) -> list[dict]:
    kv = spectral_kernel(base, 0.3, -0.2, 1.0)
    exact = free_kernel(base, 0.3, -0.2, 1.0)
    cases = [_case("free-kernel[tau=1]", abs(kv.value - exact) / exact, 1e-6)]

    p2 = _barrier(base, 2.0)
    ka = spectral_kernel(p2, 0.5, -0.2, 0.7)
    kb = spectral_kernel(p2, -0.2, 0.5, 0.7)
    cases.append(_case("swap-symmetry[v8=2]", abs(ka.value - kb.value) / ka.value, 1e-12))

    grid = (-0.5, 0.0, 0.5)
    points = [x / base.omega for x in grid]
    spectral = spectral_kernel_matrix(p2, points, points, 1.0)
    reference = grid_propagator_matrix(p2, 1.0, points, points)
    for a, xf in enumerate(grid):
        for b, xi in enumerate(grid):
            kv, ko = unwrap(spectral[a][b]), unwrap(reference[a][b])
            cases.append(
                _case(f"grid-oracle[v8=2,xf={xf:g},xi={xi:g}]", abs(kv.value - ko) / ko, 1e-6)
            )
    return cases


SUITES = {
    "unitarity": suite_unitarity,
    "identities": suite_identities,
    "symmetry": suite_symmetry,
    "free-limit": suite_free_limit,
    "delta-limit": suite_delta_limit,
    "oracle": suite_oracle,
    "propagator": suite_propagator,
}


def run(names, base: PhysicalParams) -> list[dict]:
    """One {suite, cases} entry per name, in the given order."""
    return [{"suite": name, "cases": SUITES[name](base)} for name in names]
