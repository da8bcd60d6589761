"""Batch front-end: parameter sweeps, verification suites, machine-readable output.

Subcommands
-----------
scatter       one row per wavenumber: T, R, S, flux fractions, unitarity residual
wavefunction  wave-function samples on an x grid, for external plotting
propagator    Euclidean spectral kernel vs the grid-Hamiltonian oracle
verify        named invariant suites with a pass/fail JSON report

Configuration comes from an optional JSON document (--config) overridden by
flags; units default to hbar = m = 1 so users specify only (omega, v0, k).
CSV output carries a fixed column order, 17 significant digits, '.' decimal
separator and LF line endings, so identical configs give byte-identical
files.  Rows are computed and written in input order; a scatter sweep is
one array computation over all its wavenumbers, and a wavefunction command
one over its x grid, with the route check applied per point.

Exit codes: 0 all residuals in contract, 1 residual/check failure,
2 configuration error, 3 numerical failure (failed rows are flagged).
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .errors import NumericalError, unwrap
from .oracle import SolverConfig, grid_propagator_matrix, numerov_amplitudes
from .params import PhysicalParams, reduce
from .propagator import free_kernel, spectral_kernel, spectral_kernel_matrix
from .scattering import (
    WaveSample,
    _amplitude_arrays,
    _check_closed_form,
    _require_positive_kappa,
    _s_closed_form,
    amplitudes,
    asymptotic_extract,
    connection_coefficients,
    s_function,
    wavefunction_samples,
)
from .special import hyp2f1, legendre_P

__all__ = ["RunConfig", "cmd_scatter", "cmd_wavefunction", "cmd_propagator", "cmd_verify", "main"]

V8_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 20.0)
KAPPA_GRID = (0.1, 0.5, 1.0, 2.0, 5.0)
RESIDUAL_GATE = 1e-8
SUITES = ("unitarity", "identities", "symmetry", "free-limit", "delta-limit", "oracle", "propagator")


@dataclass(frozen=True)
class RunConfig:
    """One batch run: units, barrier, sweep, outputs, checks, oracle overrides."""

    hbar: float = 1.0
    m: float = 1.0
    omega: float = 1.0
    v0: float = 0.0
    k_values: tuple[float, ...] = ()
    x_values: tuple[float, ...] = ()
    tau: float = 1.0
    points: tuple[float, ...] = (-0.5, 0.0, 0.5)
    use_oracle: bool = False
    fmt: str = "csv"
    out: str | None = None
    checks: tuple[str, ...] = ()
    oracle: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {self.fmt!r}")
        for name in self.checks:
            if name not in SUITES:
                raise ValueError(f"unknown verification suite {name!r}; known: {SUITES}")

    @property
    def params(self) -> PhysicalParams:
        return PhysicalParams(m=self.m, hbar=self.hbar, omega=self.omega, v0=self.v0)


def _parse_range(text: str) -> tuple[float, ...]:
    """'a:b:n' -> n points from a to b inclusive."""
    try:
        a_s, b_s, n_s = text.split(":")
        a, b, n = float(a_s), float(b_s), int(n_s)
    except ValueError as exc:
        raise ValueError(f"range must look like 'a:b:n', got {text!r}") from exc
    if n < 1:
        raise ValueError(f"range count must be >= 1, got {n}")
    return tuple(np.linspace(a, b, n))


def load_config(path: str) -> RunConfig:
    """Read the JSON config document; all fields optional."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config document must be a JSON object")
    units = doc.get("units", {})
    barrier = doc.get("barrier", {})
    sweep = doc.get("sweep", {})
    outputs = doc.get("outputs", {})
    wf = doc.get("wavefunction", {})
    prop = doc.get("propagator", {})
    k_values: tuple[float, ...] = ()
    if "k_values" in sweep:
        k_values = tuple(float(k) for k in sweep["k_values"])
    elif "k_range" in sweep:
        a, b, n = sweep["k_range"]
        k_values = tuple(np.linspace(float(a), float(b), int(n)))
    x_values: tuple[float, ...] = ()
    if "x_values" in wf:
        x_values = tuple(float(x) for x in wf["x_values"])
    elif "x_range" in wf:
        a, b, n = wf["x_range"]
        x_values = tuple(np.linspace(float(a), float(b), int(n)))
    oracle_kwargs = {
        key: doc["oracle"][key]
        for key in ("box_half_width", "step", "grid_points", "match_tolerance", "boundary_ratio_max")
        if key in doc.get("oracle", {})
    }
    return RunConfig(
        hbar=float(units.get("hbar", 1.0)),
        m=float(units.get("m", 1.0)),
        omega=float(barrier.get("omega", 1.0)),
        v0=float(barrier.get("v0", 0.0)),
        k_values=k_values,
        x_values=x_values,
        tau=float(prop.get("tau", 1.0)),
        points=tuple(float(x) for x in prop.get("points", (-0.5, 0.0, 0.5))),
        use_oracle=bool(doc.get("use_oracle", False)),
        fmt=str(outputs.get("format", "csv")),
        out=outputs.get("path"),
        checks=tuple(doc.get("checks", ())),
        oracle=SolverConfig(**oracle_kwargs),
    )


# ---------------------------------------------------------------------------
# scatter
# ---------------------------------------------------------------------------

SCATTER_COLUMNS = (
    "k", "kappa", "v8", "re_t", "im_t", "re_r", "im_r", "t2", "r2",
    "re_s", "im_s", "unitarity_residual", "flag",
)
ORACLE_COLUMNS = ("oracle_re_t", "oracle_im_t", "oracle_re_r", "oracle_im_r", "oracle_dev")


def _error_row(columns, exc: Exception, **keys) -> dict:
    row = {col: math.nan for col in columns}
    row.update(keys, flag=f"error: {exc}")
    return row


def _fill_amplitudes(row: dict, t: complex, r: complex) -> None:
    s = t + r
    row.update(
        re_t=t.real, im_t=t.imag, re_r=r.real, im_r=r.imag,
        t2=abs(t) ** 2, r2=abs(r) ** 2, re_s=s.real, im_s=s.imag,
        unitarity_residual=max(abs(abs(t) ** 2 + abs(r) ** 2 - 1.0), abs(abs(s) - 1.0)),
    )


def cmd_scatter(cfg: RunConfig) -> tuple[tuple[str, ...], list[dict], int]:
    """Sweep T/R/S over cfg.k_values.  Exit code 0 iff every unitarity
    residual is below 1e-8 (numerical failures flag the row, exit 3).

    All k > 0 rows are computed by one array call over kappa, and the
    closed-form S check runs once for the whole sweep."""
    if not cfg.k_values:
        raise ValueError("sweep is empty: give --k or --k-range (or sweep in the config)")
    columns = SCATTER_COLUMNS[:-1] + (ORACLE_COLUMNS if cfg.use_oracle else ()) + ("flag",)
    p = cfg.params
    barrier = reduce(p, 0.0)  # nu and v8 do not depend on k
    rows: list[dict] = []
    batch: list[int] = []  # indices of the rows computed from the gamma ratios
    for k in cfg.k_values:
        try:
            idx = reduce(p, k)
            if k != 0.0:
                _require_positive_kappa(idx.kappa, "amplitudes")
        except ValueError as exc:
            rows.append(_error_row(columns, exc, k=k))
            continue
        row: dict = {"k": k, "kappa": idx.kappa, "v8": idx.v8, "flag": ""}
        if k == 0.0:
            # Documented zero-energy convention: gamma poles at k = 0; the
            # physical limit is total reflection (free particle stays free).
            _fill_amplitudes(row, *((1.0 + 0j, 0j) if cfg.v0 == 0.0 else (0j, -1.0 + 0j)))
            row["flag"] = "limit"
            if cfg.use_oracle:
                row.update(dict.fromkeys(ORACLE_COLUMNS, math.nan))
        else:
            batch.append(len(rows))
        rows.append(row)
    if batch:
        kappa = np.array([rows[i]["kappa"] for i in batch])
        t, r = _amplitude_arrays(barrier.nu, kappa)
        _check_closed_form(barrier.nu, kappa, t + r, barrier.v8)
        for i, t_i, r_i in zip(batch, t.tolist(), r.tolist()):
            _fill_amplitudes(rows[i], t_i, r_i)
            if not cfg.use_oracle:
                continue
            try:
                o = numerov_amplitudes(p, rows[i]["k"], cfg.oracle)
            except (NumericalError, ValueError) as exc:
                rows[i] = _error_row(columns, exc, k=rows[i]["k"])
                continue
            rows[i].update(
                oracle_re_t=o.t.real, oracle_im_t=o.t.imag,
                oracle_re_r=o.r.real, oracle_im_r=o.r.imag,
                oracle_dev=max(abs(o.t - t_i), abs(o.r - r_i)),
            )
    if any(str(row["flag"]).startswith("error") for row in rows):
        code = 3
    elif all(row["unitarity_residual"] < RESIDUAL_GATE for row in rows):
        code = 0
    else:
        code = 1
    return columns, rows, code


# ---------------------------------------------------------------------------
# wavefunction
# ---------------------------------------------------------------------------

WAVEFUNCTION_COLUMNS = ("x", "re_psi_right", "im_psi_right", "re_psi_left", "im_psi_left", "flag")


def cmd_wavefunction(cfg: RunConfig) -> tuple[tuple[str, ...], list[dict], dict | None, int]:
    """Sample the right/left-moving wave functions on cfg.x_values at the
    first sweep wavenumber.  When the grid reaches |omega x| >= 8 on both
    sides, the asymptotic plane-wave fit and its deviation from the
    gamma-ratio amplitudes are reported alongside the table."""
    if not cfg.k_values:
        raise ValueError("wavefunction needs one wavenumber: give --k")
    if not cfg.x_values:
        raise ValueError("wavefunction needs an x grid: give --x-range")
    k = cfg.k_values[0]
    if k <= 0:
        raise ValueError(f"wavefunction requires k > 0, got {k}")
    p = cfg.params
    idx = reduce(p, k)

    samples = wavefunction_samples(idx, p, cfg.x_values)
    rows = []
    for x, w in zip(cfg.x_values, samples):
        if isinstance(w, Exception):
            rows.append(_error_row(WAVEFUNCTION_COLUMNS, w, x=x))
            continue
        rows.append({
            "x": x,
            "re_psi_right": w.psi_right.real, "im_psi_right": w.psi_right.imag,
            "re_psi_left": w.psi_left.real, "im_psi_left": w.psi_left.imag,
            "flag": "",
        })
    failed = any(isinstance(w, Exception) for w in samples)

    asymptotics = None
    far = [w for w in samples if isinstance(w, WaveSample) and abs(p.omega * w.x) >= 8.0]
    if sum(1 for w in far if w.x < 0) >= 4 and sum(1 for w in far if w.x > 0) >= 4:
        fit = asymptotic_extract(far, idx, p)
        amp = amplitudes(idx)
        asymptotics = {
            "fit_re_t": fit.t.real, "fit_im_t": fit.t.imag,
            "fit_re_r": fit.r.real, "fit_im_r": fit.r.imag,
            "dev_t": abs(fit.t - amp.t), "dev_r": abs(fit.r - amp.r),
        }
    return WAVEFUNCTION_COLUMNS, rows, asymptotics, (3 if failed else 0)


# ---------------------------------------------------------------------------
# propagator
# ---------------------------------------------------------------------------

PROPAGATOR_COLUMNS = ("xf", "xi", "tau", "k_spectral", "k_oracle", "rel_dev", "flag")


def _propagator_box(cfg: RunConfig) -> tuple[float, int]:
    p = cfg.params
    spread = math.sqrt(p.hbar * cfg.tau / p.m)
    reach = max(abs(x) for x in cfg.points) if cfg.points else 0.0
    L = max(6.0 / p.omega, reach + 5.0 * max(spread, 1.0 / p.omega))
    N = cfg.oracle.grid_points or 1200
    return L, N


def cmd_propagator(cfg: RunConfig) -> tuple[tuple[str, ...], list[dict], int]:
    """Euclidean kernel on the (xf, xi) grid cfg.points x cfg.points at
    cfg.tau, with the grid-Hamiltonian oracle value and relative deviation
    per row.  Each side is one matrix call; an entry that fails flags its
    own row (keeping k_spectral when only the oracle failed), and bad input
    raises before any row is computed."""
    if cfg.tau <= 0:
        raise ValueError(f"tau must be > 0, got {cfg.tau}")
    if not cfg.points:
        raise ValueError("propagator needs at least one point: give --points")
    p = cfg.params
    L, N = _propagator_box(cfg)
    spectral = spectral_kernel_matrix(p, cfg.points, cfg.points, cfg.tau)
    oracle = grid_propagator_matrix(p, L, N, cfg.tau, cfg.points, cfg.points)
    rows = []
    for xf, spectral_row, oracle_row in zip(cfg.points, spectral, oracle):
        for xi, kv, ko in zip(cfg.points, spectral_row, oracle_row):
            keys = {"xf": xf, "xi": xi, "tau": cfg.tau}
            if isinstance(kv, Exception):
                rows.append(_error_row(PROPAGATOR_COLUMNS, kv, **keys))
            elif isinstance(ko, Exception):
                rows.append(_error_row(PROPAGATOR_COLUMNS, ko, **keys, k_spectral=kv.value))
            else:
                rows.append({
                    **keys, "k_spectral": kv.value, "k_oracle": ko,
                    "rel_dev": abs(kv.value - ko) / abs(ko), "flag": "",
                })
    failed = any(str(r["flag"]).startswith("error") for r in rows)
    return PROPAGATOR_COLUMNS, rows, (3 if failed else 0)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _case(name: str, residual: float, tolerance: float) -> dict:
    return {
        "name": name,
        "residual": float(residual),
        "tolerance": float(tolerance),
        "pass": bool(residual <= tolerance),
    }


def _grid_indices(cfg: RunConfig):
    for v8 in V8_GRID:
        for kappa in KAPPA_GRID:
            p = PhysicalParams(
                m=cfg.m, hbar=cfg.hbar, omega=cfg.omega,
                v0=v8 * (cfg.hbar * cfg.omega) ** 2 / (8.0 * cfg.m),
            )
            yield v8, kappa, p, reduce(p, kappa * cfg.omega)


def suite_unitarity(cfg: RunConfig) -> list[dict]:
    cases = []
    for v8, kappa, _p, idx in _grid_indices(cfg):
        amp = amplitudes(idx)
        s = s_function(idx)
        closed = complex(_s_closed_form(idx.nu, np.array([idx.kappa]))[0])
        tag = f"[v8={v8:g},kappa={kappa:g}]"
        cases.append(_case(f"flux{tag}", abs(amp.t2 + amp.r2 - 1.0), 1e-10))
        cases.append(_case(f"unitary-s{tag}", abs(abs(s) - 1.0), 1e-10))
        cases.append(_case(f"closed-form-s{tag}", abs((amp.t + amp.r) - closed), 1e-10))
    return cases


def suite_identities(cfg: RunConfig) -> list[dict]:
    cases = []
    for v8, kappa, _p, idx in _grid_indices(cfg):
        cc = connection_coefficients(idx)
        tag = f"[v8={v8:g},kappa={kappa:g}]"
        cases.append(_case(f"norm{tag}", abs(abs(cc.a) ** 2 + abs(cc.b) ** 2 - 1.0), 1e-10))
        cases.append(
            _case(f"orthogonality{tag}", abs(cc.a * cc.b.conjugate() + cc.a.conjugate() * cc.b), 1e-10)
        )
    return cases


def suite_symmetry(_cfg: RunConfig) -> list[dict]:
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


def suite_free_limit(cfg: RunConfig) -> list[dict]:
    p_free = PhysicalParams(m=cfg.m, hbar=cfg.hbar, omega=cfg.omega, v0=0.0)
    amp = amplitudes(reduce(p_free, cfg.omega))
    cases = [
        _case("free-t-exact", abs(amp.t - 1.0), 0.0),
        _case("free-r-exact", abs(amp.r), 0.0),
    ]
    p_tiny = PhysicalParams(m=cfg.m, hbar=cfg.hbar, omega=cfg.omega, v0=1e-12)
    amp2 = amplitudes(reduce(p_tiny, cfg.omega))
    cases.append(_case("near-free-t[v0=1e-12]", abs(amp2.t - 1.0), 1e-6))
    return cases


def suite_delta_limit(_cfg: RunConfig) -> list[dict]:
    # hbar = 2m = 1 scaling, g = 2, k = 1: the narrow-barrier family
    # V0 = (hbar^2/4m) g omega collapses onto (hbar^2/2m) g delta(x).
    g, k = 2.0, 1.0
    t_delta = 2.0 * k / (2.0 * k + 1j * g)
    omegas = (1e2, 1e3, 1e4)
    devs = []
    cases = []
    for om in omegas:
        p = PhysicalParams(m=0.5, hbar=1.0, omega=om, v0=1.0**2 * g * om / (4.0 * 0.5))
        amp = amplitudes(reduce(p, k))
        dev = abs(amp.t - t_delta)
        devs.append(dev)
        cases.append(_case(f"delta-t[omega={om:g}]", dev, 1e-3 * (1e4 / om)))
    slope = np.polyfit(np.log(omegas), np.log(devs), 1)[0]
    cases.append(_case("delta-convergence-slope[+1 offset]", abs(slope + 1.0), 0.1))
    return cases


def _oracle_cfg_for(cfg: RunConfig, k: float) -> SolverConfig:
    if (
        cfg.oracle.box_half_width is not None
        or cfg.oracle.step is not None
        or cfg.oracle.grid_points is not None
    ):
        return cfg.oracle
    # Tight enough that even |R| ~ 1e-8 rows compare at 1e-6 relative.
    return replace(
        cfg.oracle,
        box_half_width=max(16.0 / cfg.omega, 10.0 / k),
        step=min(2.0 * math.pi / (40.0 * k), 1.0 / (40.0 * cfg.omega), 0.012 / k),
    )


def suite_oracle(cfg: RunConfig) -> list[dict]:
    cases = []
    for v8, kappa, p, idx in _grid_indices(cfg):
        k = kappa * cfg.omega
        amp = amplitudes(idx)
        o = numerov_amplitudes(p, k, _oracle_cfg_for(cfg, k))
        residual = max(
            abs(abs(o.t) - abs(amp.t)) / abs(amp.t),
            abs(cmath.phase(o.t / amp.t)),
            abs(abs(o.r) - abs(amp.r)) / abs(amp.r),
            abs(cmath.phase(o.r / amp.r)),
        )
        cases.append(_case(f"numerov[v8={v8:g},kappa={kappa:g}]", residual, 1e-6))
    return cases


def suite_propagator(cfg: RunConfig) -> list[dict]:
    cases = []
    p_free = PhysicalParams(m=cfg.m, hbar=cfg.hbar, omega=cfg.omega, v0=0.0)
    kv = spectral_kernel(p_free, 0.3, -0.2, 1.0)
    exact = free_kernel(p_free, 0.3, -0.2, 1.0)
    cases.append(_case("free-kernel[tau=1]", abs(kv.value - exact) / exact, 1e-6))

    p2 = PhysicalParams(m=cfg.m, hbar=cfg.hbar, omega=cfg.omega,
                        v0=2.0 * (cfg.hbar * cfg.omega) ** 2 / (8.0 * cfg.m))
    ka = spectral_kernel(p2, 0.5, -0.2, 0.7)
    kb = spectral_kernel(p2, -0.2, 0.5, 0.7)
    cases.append(_case("swap-symmetry[v8=2]", abs(ka.value - kb.value) / ka.value, 1e-12))

    L = 6.0 / cfg.omega
    N = cfg.oracle.grid_points or 1200
    points = [x / cfg.omega for x in (-0.5, 0.0, 0.5)]
    spectral = spectral_kernel_matrix(p2, points, points, 1.0)
    oracle = grid_propagator_matrix(p2, L, N, 1.0, points, points)
    for a, xf in enumerate((-0.5, 0.0, 0.5)):
        for b, xi in enumerate((-0.5, 0.0, 0.5)):
            kv, ko = unwrap(spectral[a][b]), unwrap(oracle[a][b])
            cases.append(
                _case(f"grid-oracle[v8=2,xf={xf:g},xi={xi:g}]", abs(kv.value - ko) / ko, 1e-3)
            )
    return cases


_SUITE_RUNNERS = {
    "unitarity": suite_unitarity,
    "identities": suite_identities,
    "symmetry": suite_symmetry,
    "free-limit": suite_free_limit,
    "delta-limit": suite_delta_limit,
    "oracle": suite_oracle,
    "propagator": suite_propagator,
}


def cmd_verify(cfg: RunConfig) -> tuple[list[dict], int]:
    """Run the selected (default: all) verification suites; exit 0 iff
    every case passes."""
    names = cfg.checks or SUITES
    report = [{"suite": name, "cases": _SUITE_RUNNERS[name](cfg)} for name in names]
    ok = all(case["pass"] for suite in report for case in suite["cases"])
    return report, 0 if ok else 1


# ---------------------------------------------------------------------------
# output plumbing and entry point
# ---------------------------------------------------------------------------

def _fmt_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return f"{value:.17g}"


def _render_csv(columns, rows, footer: dict | None = None) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt_cell(row[col]) for col in columns))
    if footer:
        pairs = " ".join(f"{key}={_fmt_cell(val)}" for key, val in footer.items())
        lines.append(f"# asymptotics: {pairs}")
    return "\n".join(lines) + "\n"


def _render_json(columns, rows, footer: dict | None = None) -> str:
    doc: dict = {"columns": list(columns), "rows": rows}
    if footer:
        doc["asymptotics"] = footer
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coshbar",
        description="Scattering and Euclidean propagation for V0/cosh^2(omega x)",
    )
    parser.add_argument("--version", action="version", version=f"coshbar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("scatter", "sweep T/R/S over wavenumbers"),
        ("wavefunction", "sample scattering wave functions on an x grid"),
        ("propagator", "Euclidean spectral kernel vs grid oracle"),
        ("verify", "run invariant verification suites"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="JSON configuration document")
        cmd.add_argument("--omega", type=float, help="barrier width parameter (default 1)")
        cmd.add_argument("--v0", type=float, help="barrier height (default 0)")
        cmd.add_argument("--k", type=float, action="append", help="wavenumber (repeatable)")
        cmd.add_argument("--k-range", help="wavenumber sweep a:b:n")
        cmd.add_argument("--oracle", action="store_true", help="add Numerov oracle columns")
        cmd.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
        cmd.add_argument("--out", help="output path (default stdout)")
        cmd.add_argument("--suite", action="append", help="verification suite name (repeatable)")
        cmd.add_argument("--x-range", help="wavefunction x grid a:b:n")
        cmd.add_argument("--tau", type=float, help="Euclidean time (default 1)")
        cmd.add_argument("--points", help="propagator positions a:b:n or comma list")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    updates: dict = {}
    if args.omega is not None:
        updates["omega"] = args.omega
    if args.v0 is not None:
        updates["v0"] = args.v0
    if args.k:
        updates["k_values"] = tuple(args.k)
    if args.k_range:
        updates["k_values"] = _parse_range(args.k_range)
    if args.oracle:
        updates["use_oracle"] = True
    if args.format:
        updates["fmt"] = args.format
    if args.out:
        updates["out"] = args.out
    if args.suite:
        updates["checks"] = tuple(args.suite)
    if args.x_range:
        updates["x_values"] = _parse_range(args.x_range)
    if args.tau is not None:
        updates["tau"] = args.tau
    if args.points:
        if ":" in args.points:
            updates["points"] = _parse_range(args.points)
        else:
            updates["points"] = tuple(float(v) for v in args.points.split(","))
    return replace(cfg, **updates)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"coshbar: config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "scatter":
            columns, rows, code = cmd_scatter(cfg)
            render = _render_csv if cfg.fmt == "csv" else _render_json
            _emit(render(columns, rows), cfg.out)
            return code
        if args.command == "wavefunction":
            columns, rows, asymptotics, code = cmd_wavefunction(cfg)
            render = _render_csv if cfg.fmt == "csv" else _render_json
            _emit(render(columns, rows, asymptotics), cfg.out)
            return code
        if args.command == "propagator":
            columns, rows, code = cmd_propagator(cfg)
            render = _render_csv if cfg.fmt == "csv" else _render_json
            _emit(render(columns, rows), cfg.out)
            return code
        report, code = cmd_verify(cfg)
        _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", cfg.out)
        return code
    except ValueError as exc:
        print(f"coshbar: config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"coshbar: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
