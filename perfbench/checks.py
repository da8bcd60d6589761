"""Correctness checks of CLI outputs, computed apart from the package.

Nothing here imports coshbar.  References:

* T and R from the gamma ratios of the source paper, at 40 digits (mpmath);
* wave functions from the hypergeometric form of P_nu^{i kappa}(tanh) at
  40 digits, times the energy normalization;
* the free Euclidean kernel in closed form;
* a finite-difference Euclidean kernel on a grid whose nodes hold the
  requested points exactly (no interpolation), in its own box.

Each `check_*` function returns an Outcome: operations attempted, the
indices of failed operations, and problems that no known fault explains.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np
from scipy.linalg import eigh_tridiagonal

AMPLITUDE_RTOL = 1e-10  # T vs reference relative to |T|, R relative to |R|
UNITARITY_TOL = 1e-10  # |t2 + r2 - 1| and ||S| - 1|
ORACLE_ATOL = 1e-6  # Numerov T, R vs reference: the oracle's match_tolerance
WAVE_RTOL = 1e-8  # psi vs reference, relative to the plane-wave scale
FIT_TOL = 1e-6  # asymptotic-fit T, R (dev_t, dev_r and vs reference)
SWAP_RTOL = 1e-10  # K(xf, xi) vs K(xi, xf)
GRID_RTOL = 1e-3  # spectral kernel vs finite-difference kernel
FREE_RTOL = 1e-6  # kernel vs closed-form free kernel: equal at v0 = 0, no larger for V >= 0

mp.mp.dps = 40


@dataclass
class Outcome:
    attempted: int
    failed: set[int] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def _degree(v8: float):
    return (-1 + mp.sqrt(mp.mpc(1 - mp.mpf(v8)))) / 2


def ref_amplitudes(v8: float, kappa: float) -> tuple[complex, complex]:
    """T = G(1+nu-ik) G(-nu-ik) / [G(1-ik) G(-ik)],
    R = G(1+nu-ik) G(-nu-ik) G(ik) / [G(1+nu) G(-nu) G(-ik)]."""
    nu = _degree(v8)
    ik = mp.mpc(0, mp.mpf(kappa))
    common = mp.gamma(1 + nu - ik) * mp.gamma(-nu - ik)
    t = common / (mp.gamma(1 - ik) * mp.gamma(-ik))
    if v8 == 0.0:
        return complex(t), 0j
    r = common * mp.gamma(ik) / (mp.gamma(1 + nu) * mp.gamma(-nu) * mp.gamma(-ik))
    return complex(t), complex(r)


def ref_wave(v8: float, kappa: float, omega: float, x: float) -> tuple[complex, complex, float]:
    """(psi_right, psi_left, plane-wave scale) for m = hbar = 1.

    psi_right = N P_nu^{i kappa}(tanh(omega x)), psi_left its mirror, with
    P_nu^mu(tanh a) = exp(mu a) / G(1-mu) F(-nu, nu+1; 1-mu; 1/(1+e^{2a}))
    and N = sqrt(1/(2 omega)) sinh(pi kappa)^(1/2) / sqrt(sin^2(pi nu) + sinh^2(pi kappa)).
    """
    nu = _degree(v8)
    kap = mp.mpf(kappa)
    mu = mp.mpc(0, kap)
    alpha = mp.mpf(omega) * mp.mpf(x)
    denom = mp.re(mp.sin(mp.pi * nu) ** 2) + mp.sinh(mp.pi * kap) ** 2
    norm = mp.sqrt(1 / (2 * mp.mpf(omega))) * mp.sqrt(mp.sinh(mp.pi * kap)) / mp.sqrt(denom)

    def legendre(a):
        # 1 - z = e^{2a} / (1 + e^{2a}) must survive in z: add the digits it needs
        with mp.workdps(mp.mp.dps + int(abs(a)) + 10):
            z = 1 / (1 + mp.exp(2 * a))
            return mp.exp(mu * a) / mp.gamma(1 - mu) * mp.hyp2f1(-nu, nu + 1, 1 - mu, z)

    scale = norm / abs(mp.gamma(1 - mu))
    return complex(norm * legendre(alpha)), complex(norm * legendre(-alpha)), float(scale)


def free_kernel(xf: float, xi: float, tau: float) -> float:
    """sqrt(1 / 2 pi tau) exp(-(xf - xi)^2 / 2 tau) for m = hbar = 1."""
    return math.sqrt(1.0 / (2.0 * math.pi * tau)) * math.exp(-((xf - xi) ** 2) / (2.0 * tau))


def grid_kernel(v0: float, omega: float, tau: float, points: list[float], spacing: float) -> np.ndarray:
    """K[a, b] = <points[a]| exp(-H tau) |points[b]> for H = -1/2 d^2/dx^2 +
    v0 / cosh^2(omega x), by second-order finite differences with node
    spacing dx <= 0.005 chosen so that every point is a node.  `spacing` is
    the distance the points are multiples of (points[j] = n_j * spacing)."""
    sub = math.ceil(spacing / 0.005)
    dx = spacing / sub
    reach = max(abs(x) for x in points)
    half = math.ceil((reach + 8.0 * max(math.sqrt(tau), 1.0 / omega)) / dx)
    xs = dx * np.arange(-half + 1, half)
    t0 = 1.0 / (dx * dx)
    diag = t0 + v0 / np.cosh(omega * xs) ** 2
    off = np.full(len(xs) - 1, -0.5 * t0)
    # states with exp(-E tau) below 1e-20 of the ground state do not matter
    energies, vectors = eigh_tridiagonal(diag, off, select="v", select_range=(-1.0, 46.0 / tau + v0))
    rows = vectors[[half - 1 + round(x / dx) for x in points], :]
    return (rows * np.exp(-energies * tau)) @ rows.T / dx


# ---------------------------------------------------------------------------
# output parsing
# ---------------------------------------------------------------------------

def parse_csv(text: str) -> tuple[list[dict], dict]:
    """Rows as {column: str} plus the '# asymptotics:' footer as floats."""
    footer: dict = {}
    lines = []
    for line in text.splitlines():
        if line.startswith("# asymptotics:"):
            for pair in line.split(":", 1)[1].split():
                key, value = pair.split("=")
                footer[key] = float(value)
        else:
            lines.append(line)
    return list(csv.DictReader(io.StringIO("\n".join(lines)))), footer


def _close(value: complex, ref: complex, tol: float, scale: float) -> bool:
    return math.isfinite(abs(value)) and abs(value - ref) <= tol * scale


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------

def check_scatter(spec: dict, text: str, code: int) -> Outcome:
    """One operation per k.  spec: v8, omega, k_values, oracle (bool)."""
    ks = spec["k_values"]
    out = Outcome(len(ks))
    rows, _ = parse_csv(text)
    if len(rows) != len(ks):
        out.failed.update(range(len(ks)))
        out.problems.append(f"scatter wrote {len(rows)} rows for {len(ks)} wavenumbers")
        return out
    errors = 0
    worst_unitarity = 0.0
    for j, (k, row) in enumerate(zip(ks, rows)):
        if row["flag"]:
            errors += row["flag"].startswith("error")
            out.failed.add(j)
            continue
        if float(row["k"]) != k:
            out.problems.append(f"scatter row {j} has k={row['k']}, expected {k!r}")
        t = complex(float(row["re_t"]), float(row["im_t"]))
        r = complex(float(row["re_r"]), float(row["im_r"]))
        s = complex(float(row["re_s"]), float(row["im_s"]))
        t_ref, r_ref = ref_amplitudes(spec["v8"], k / spec["omega"])
        worst_unitarity = max(worst_unitarity, float(row["unitarity_residual"]))
        ok = (
            _close(t, t_ref, AMPLITUDE_RTOL, abs(t_ref))
            and _close(r, r_ref, AMPLITUDE_RTOL, abs(r_ref))
            and abs(float(row["t2"]) + float(row["r2"]) - 1.0) <= UNITARITY_TOL
            and abs(abs(s) - 1.0) <= UNITARITY_TOL
        )
        if ok and spec["oracle"]:
            o_t = complex(float(row["oracle_re_t"]), float(row["oracle_im_t"]))
            o_r = complex(float(row["oracle_re_r"]), float(row["oracle_im_r"]))
            ok = _close(o_t, t_ref, ORACLE_ATOL, 1.0) and _close(o_r, r_ref, ORACLE_ATOL, 1.0)
        if not ok:
            out.failed.add(j)
    expected = 3 if errors else (0 if worst_unitarity < 1e-8 else 1)
    if code != expected:
        out.problems.append(f"scatter exit code {code}, rows imply {expected}")
    return out


def check_wavefunction(spec: dict, text: str, code: int) -> Outcome:
    """One operation per x sample plus one for the asymptotic fit.
    spec: v8, omega, k, x_values."""
    xs = spec["x_values"]
    out = Outcome(len(xs) + 1)
    rows, footer = parse_csv(text)
    if len(rows) != len(xs):
        out.failed.update(range(len(xs) + 1))
        out.problems.append(f"wavefunction wrote {len(rows)} rows for {len(xs)} samples")
        return out
    kappa = spec["k"] / spec["omega"]
    errors = 0
    for j, (x, row) in enumerate(zip(xs, rows)):
        if row["flag"]:
            errors += row["flag"].startswith("error")
            out.failed.add(j)
            continue
        if float(row["x"]) != x:
            out.problems.append(f"wavefunction row {j} has x={row['x']}, expected {x!r}")
        right, left, scale = ref_wave(spec["v8"], kappa, spec["omega"], x)
        got_right = complex(float(row["re_psi_right"]), float(row["im_psi_right"]))
        got_left = complex(float(row["re_psi_left"]), float(row["im_psi_left"]))
        if not (
            _close(got_right, right, WAVE_RTOL, scale + abs(right))
            and _close(got_left, left, WAVE_RTOL, scale + abs(left))
        ):
            out.failed.add(j)
    fit = len(xs)
    if not footer:
        out.failed.add(fit)
    else:
        t_ref, r_ref = ref_amplitudes(spec["v8"], kappa)
        fit_t = complex(footer["fit_re_t"], footer["fit_im_t"])
        fit_r = complex(footer["fit_re_r"], footer["fit_im_r"])
        if not (
            footer["dev_t"] <= FIT_TOL
            and footer["dev_r"] <= FIT_TOL
            and _close(fit_t, t_ref, FIT_TOL, 1.0)
            and _close(fit_r, r_ref, FIT_TOL, 1.0)
        ):
            out.failed.add(fit)
    if code != (3 if errors else 0):
        out.problems.append(f"wavefunction exit code {code} with {errors} error rows")
    return out


def check_propagator(spec: dict, text: str, code: int) -> Outcome:
    """One operation per (xf, xi) pair.  spec: v0, omega, tau, points,
    spacing (the points are integer multiples of it)."""
    points, tau = spec["points"], spec["tau"]
    n = len(points)
    out = Outcome(n * n)
    rows, _ = parse_csv(text)
    if len(rows) != n * n:
        out.failed.update(range(n * n))
        out.problems.append(f"propagator wrote {len(rows)} rows for {n * n} pairs")
        return out
    grid = grid_kernel(spec["v0"], spec["omega"], tau, points, spec["spacing"])
    values = {}
    errors = 0
    for j, row in enumerate(rows):
        a, b = divmod(j, n)
        if row["flag"]:
            errors += row["flag"].startswith("error")
            out.failed.add(j)
            continue
        if (float(row["xf"]), float(row["xi"])) != (points[a], points[b]):
            out.problems.append(f"propagator row {j} is ({row['xf']}, {row['xi']})")
        value = float(row["k_spectral"])
        values[a, b] = value
        free = free_kernel(points[a], points[b], tau)
        ok = (
            value > 0.0
            and abs(value - grid[a, b]) <= GRID_RTOL * grid[a, b]
            and value <= free * (1.0 + FREE_RTOL)
        )
        if spec["v0"] == 0.0:
            ok = ok and abs(value - free) <= FREE_RTOL * free
        if not ok:
            out.failed.add(j)
    for (a, b), value in values.items():
        mirror = values.get((b, a))
        if mirror is not None and abs(value - mirror) > SWAP_RTOL * value:
            out.failed.add(a * n + b)
    if code != (3 if errors else 0):
        out.problems.append(f"propagator exit code {code} with {errors} error rows")
    return out


def check_verify(spec: dict, text: str, code: int) -> Outcome:
    """One operation per verification case; every suite must be present and
    non-empty and the exit code 0."""
    try:
        report = json.loads(text)
        cases = [case for suite in report for case in suite["cases"]]
        suites = {suite["suite"]: len(suite["cases"]) for suite in report}
    except (ValueError, KeyError, TypeError) as exc:
        out = Outcome(1, {0})
        out.problems.append(f"verify report unreadable: {exc}")
        return out
    out = Outcome(max(1, len(cases)))
    out.failed.update(j for j, case in enumerate(cases) if case.get("pass") is not True)
    missing = [name for name in spec["suites"] if not suites.get(name)]
    if missing or not cases:
        out.problems.append(f"verify suites missing or empty: {missing}")
    if code != 0:
        out.problems.append(f"verify exit code {code}")
    return out


CHECKS = {
    "scatter": check_scatter,
    "wavefunction": check_wavefunction,
    "propagator": check_propagator,
    "verify": check_verify,
}
