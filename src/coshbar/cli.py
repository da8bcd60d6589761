"""Batch front-end: parameter sweeps, verification suites, machine-readable output.

Subcommands
-----------
scatter       one row per wavenumber: T, R, S, flux fractions, unitarity residual
wavefunction  wave-function samples on an x grid, for external plotting
propagator    Euclidean spectral kernel vs the grid-Hamiltonian oracle
verify        the suites of coshbar.verify (criteria and tolerances live there,
              and the acceptance tests run the same code), as a JSON report

Configuration comes from an optional JSON document (--config) overridden by
flags; units default to hbar = m = 1 so users specify only (omega, v0, k).
Each subcommand takes only the flags it reads (_COMMANDS, _FLAGS); verify
reads only the units, omega and suite names.  Neither oracle takes a
setting: each picks its own grid.
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
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, verify
from .errors import NumericalError
from .oracle import grid_propagator_matrix, numerov_amplitudes
from .params import PhysicalParams, reduce
from .propagator import spectral_kernel_matrix
from .scattering import (
    WaveSample,
    _amplitude_arrays,
    _check_closed_form,
    _require_positive_kappa,
    amplitudes,
    asymptotic_extract,
    wavefunction_samples,
)

__all__ = ["RunConfig", "cmd_scatter", "cmd_wavefunction", "cmd_propagator", "cmd_verify", "main"]

RESIDUAL_GATE = 1e-8


@dataclass(frozen=True)
class RunConfig:
    """One batch run: units, barrier, sweep, outputs, checks."""

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

    def __post_init__(self):
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {self.fmt!r}")
        for name in self.checks:
            if name not in verify.SUITES:
                known = ", ".join(verify.SUITES)
                raise ValueError(f"unknown verification suite {name!r}; known: {known}")

    @property
    def params(self) -> PhysicalParams:
        return PhysicalParams(m=self.m, hbar=self.hbar, omega=self.omega, v0=self.v0)


def _linspace(value) -> tuple[float, ...]:
    """[a, b, n] -> n >= 1 points from a to b inclusive."""
    a, b, n = value
    if int(n) < 1 or int(n) != float(n):
        raise ValueError(f"range count must be an integer >= 1, got {n}")
    return tuple(np.linspace(float(a), float(b), int(n)))


def _parse_range(text: str) -> tuple[float, ...]:
    """'a:b:n' -> n points from a to b inclusive."""
    try:
        return _linspace(text.split(":"))
    except ValueError as exc:
        raise ValueError(f"range must look like 'a:b:n' with n >= 1, got {text!r}") from exc


def _kind(kind, name: str, convert=None):
    """Conversion of a config value that accepts only the JSON kind `name`
    (a bool is no number)."""
    def check(value):
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise TypeError(f"must be a JSON {name}, got {value!r}")
        return convert(value) if convert else value
    return check


_number = _kind((int, float), "number", float)
_string = _kind(str, "string")
_numbers = _kind(list, "array", lambda values: tuple(map(_number, values)))
_range = _kind(list, "array", lambda values: _linspace(tuple(map(_number, values))))


# The document's shape, section -> key -> conversion: the None section is the
# document itself.
_CONFIG_FIELDS = {
    "units": {"hbar": _number, "m": _number},
    "barrier": {"omega": _number, "v0": _number},
    "sweep": {"k_range": _range, "k_values": _numbers},
    "wavefunction": {"x_range": _range, "x_values": _numbers},
    "propagator": {"tau": _number, "points": _numbers},
    "outputs": {"format": _string, "path": _string},
    None: {
        "use_oracle": _kind(bool, "boolean"),
        "checks": _kind(list, "array", lambda values: tuple(map(_string, values))),
    },
}
# Keys stored under another field name; of two keys for one field the later wins.
_RENAMED = {"k_range": "k_values", "x_range": "x_values", "format": "fmt", "path": "out"}


def load_config(path: str) -> RunConfig:
    """Read the JSON config document.  Every field is optional and an
    absent one keeps its RunConfig default; an unknown key, or a present
    field (null included) of the wrong JSON kind or shape, raises
    ValueError naming it."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config document must be a JSON object")
    updates: dict = {}
    for section, keys in _CONFIG_FIELDS.items():
        fields = doc.get(section, {}) if section else doc
        if not isinstance(fields, dict):
            raise ValueError(f"config field {section!r} must be a JSON object, got {fields!r}")
        known = keys if section else keys.keys() | _CONFIG_FIELDS.keys()
        for key in fields:
            if key not in known:
                where = f"{section}.{key}" if section else key
                raise ValueError(f"config field {where!r} is not a known key")
        for key, convert in keys.items():
            if key in fields:
                try:
                    updates[_RENAMED.get(key, key)] = convert(fields[key])
                except (TypeError, ValueError) as exc:
                    where = f"{section}.{key}" if section else key
                    raise ValueError(f"config field {where!r}: {exc}") from exc
    return replace(RunConfig(), **updates)


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
    residual is below 1e-8 (numerical failures flag the row, exit 3).  With
    the oracle, oracle_dev is the larger relative deviation of its T and R
    from the closed form; a row the oracle refuses keeps its closed-form
    columns and is flagged with the oracle's error.

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
                o = numerov_amplitudes(p, rows[i]["k"])
            except (NumericalError, ValueError) as exc:
                rows[i].update(dict.fromkeys(ORACLE_COLUMNS, math.nan), flag=f"error: {exc}")
                continue
            rows[i].update(
                oracle_re_t=o.t.real, oracle_im_t=o.t.imag,
                oracle_re_r=o.r.real, oracle_im_r=o.r.imag,
                oracle_dev=max(abs(o.t - t_i) / abs(t_i), abs(o.r - r_i) / abs(r_i)),
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
    one sweep wavenumber.  When the grid reaches |omega x| >= 8 on both
    sides, the asymptotic plane-wave fit and its deviation from the
    gamma-ratio amplitudes are reported alongside the table."""
    if len(cfg.k_values) != 1:
        given = ", ".join(map(repr, cfg.k_values)) or "none"
        raise ValueError(f"wavefunction needs one wavenumber: give one --k (got {given})")
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


def cmd_propagator(cfg: RunConfig) -> tuple[tuple[str, ...], list[dict], int]:
    """Euclidean kernel on the (xf, xi) grid cfg.points x cfg.points at
    cfg.tau, with the grid-Hamiltonian oracle value and relative deviation
    per row.  Each side is one matrix call; an entry that fails flags its
    own row (keeping the other side's value when only one side failed), and
    bad input raises before any row is computed."""
    if cfg.tau <= 0:
        raise ValueError(f"tau must be > 0, got {cfg.tau}")
    if not cfg.points:
        raise ValueError("propagator needs at least one point: give --points")
    spectral = spectral_kernel_matrix(cfg.params, cfg.points, cfg.points, cfg.tau)
    oracle = grid_propagator_matrix(cfg.params, cfg.tau, cfg.points, cfg.points)
    rows = []
    for xf, spectral_row, oracle_row in zip(cfg.points, spectral, oracle):
        for xi, kv, ko in zip(cfg.points, spectral_row, oracle_row):
            keys = {"xf": xf, "xi": xi, "tau": cfg.tau}
            if isinstance(kv, Exception):
                resolved = {} if isinstance(ko, Exception) else {"k_oracle": ko}
                rows.append(_error_row(PROPAGATOR_COLUMNS, kv, **keys, **resolved))
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

def cmd_verify(cfg: RunConfig) -> tuple[list[dict], int]:
    """Run the selected (default: all) suites of coshbar.verify at cfg's
    units and omega; exit 0 iff every case passes."""
    base = PhysicalParams(m=cfg.m, hbar=cfg.hbar, omega=cfg.omega, v0=0.0)
    report = verify.run(cfg.checks or verify.SUITES, base)
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


def _parse_points(text: str) -> tuple[float, ...]:
    return _parse_range(text) if ":" in text else tuple(map(float, text.split(",")))


# Each flag once: flag -> (RunConfig field, conversion after parsing, argparse
# options); of two flags for one field the later one here wins.
_FLAGS = {
    "config": (None, None, {"help": "JSON configuration document"}),
    "omega": ("omega", None, {"type": float, "help": "barrier width parameter (default 1)"}),
    "v0": ("v0", None, {"type": float, "help": "barrier height (default 0)"}),
    "k": ("k_values", tuple, {"type": float, "action": "append",
                              "help": "wavenumber (repeatable)"}),
    "k-range": ("k_values", _parse_range, {"help": "wavenumber sweep a:b:n"}),
    "x-range": ("x_values", _parse_range, {"help": "wavefunction x grid a:b:n"}),
    "tau": ("tau", None, {"type": float, "help": "Euclidean time (default 1)"}),
    "points": ("points", _parse_points, {"help": "propagator positions a:b:n or comma list"}),
    "oracle": ("use_oracle", None, {"action": "store_true", "default": None,
                                    "help": "add Numerov oracle columns"}),
    "suite": ("checks", tuple, {"action": "append",
                                "help": "verification suite name (repeatable)"}),
    "format": ("fmt", None, {"choices": ("csv", "json"), "help": "output format (default csv)"}),
    "out": ("out", None, {"help": "output path (default stdout)"}),
}
# Each subcommand registers only the flags it reads.
_COMMANDS = {
    "scatter": ("sweep T/R/S over wavenumbers", "config omega v0 k k-range oracle format out"),
    "wavefunction": ("sample scattering wave functions on an x grid",
                     "config omega v0 k x-range format out"),
    "propagator": ("Euclidean spectral kernel vs grid oracle",
                   "config omega v0 tau points format out"),
    "verify": ("run invariant verification suites", "config omega suite out"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coshbar",
        description="Scattering and Euclidean propagation for V0/cosh^2(omega x)",
    )
    parser.add_argument("--version", action="version", version=f"coshbar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            cmd.add_argument(f"--{flag}", **_FLAGS[flag][2])
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The config document (if any) with the given flags ("" is not given) applied."""
    cfg = load_config(args.config) if args.config else RunConfig()
    given = vars(args)
    flags = {}
    for flag, (name, convert, _) in _FLAGS.items():
        value = given.get(flag.replace("-", "_"))
        if name and value not in (None, ""):
            flags[name] = convert(value) if convert else value
    return replace(cfg, **flags)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "verify":  # reads no outputs section: JSON to --out
            report, code = cmd_verify(cfg)
            _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
            return code
        footer = None
        if args.command == "scatter":
            columns, rows, code = cmd_scatter(cfg)
        elif args.command == "wavefunction":
            columns, rows, footer, code = cmd_wavefunction(cfg)
        else:
            columns, rows, code = cmd_propagator(cfg)
        render = _render_csv if cfg.fmt == "csv" else _render_json
        _emit(render(columns, rows, footer), cfg.out)
        return code
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"coshbar: config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"coshbar: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
