import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coshbar.cli import (
    RunConfig,
    cmd_propagator,
    cmd_scatter,
    cmd_verify,
    cmd_wavefunction,
    load_config,
    main,
)
from coshbar.params import reduce
from coshbar.scattering import amplitudes


def test_scatter_free_sweep_fully_transparent():
    cfg = RunConfig(v0=0.0, k_values=(0.5, 1.0, 2.0))
    columns, rows, code = cmd_scatter(cfg)
    assert code == 0
    for row in rows:
        assert row["t2"] == pytest.approx(1.0, abs=1e-14)
        assert row["r2"] == pytest.approx(0.0, abs=1e-14)


def test_scatter_zero_wavenumber_limit_row():
    cfg = RunConfig(v0=0.25, k_values=(0.0,))
    _, rows, code = cmd_scatter(cfg)
    assert code == 0
    row = rows[0]
    assert row["flag"] == "limit"
    assert row["re_t"] == 0.0 and row["im_t"] == 0.0
    assert abs(complex(row["re_r"], row["im_r"])) == pytest.approx(1.0)
    # free particle stays free even at k = 0
    _, rows0, _ = cmd_scatter(RunConfig(v0=0.0, k_values=(0.0,)))
    assert rows0[0]["re_t"] == 1.0 and rows0[0]["flag"] == "limit"


def test_scatter_batch_rows_equal_scalar_amplitudes():
    # The sweep is one array call; each row must be the scalar API's value
    # bit for bit, and a k = 0 row inside the sweep keeps its limit flag.
    ks = (0.0, 1e-9, 0.3, 1.0, 7.5, 80.0)
    cfg = RunConfig(v0=0.25, k_values=ks)
    _, rows, code = cmd_scatter(cfg)
    assert code == 0
    assert [row["k"] for row in rows] == list(ks)
    assert rows[0]["flag"] == "limit"
    for row in rows[1:]:
        amp = amplitudes(reduce(cfg.params, row["k"]))
        assert row["flag"] == ""
        assert (row["re_t"], row["im_t"], row["re_r"], row["im_r"]) == (
            amp.t.real, amp.t.imag, amp.r.real, amp.r.imag,
        )
        assert (row["t2"], row["r2"]) == (amp.t2, amp.r2)
        assert complex(row["re_s"], row["im_s"]) == amp.s


def test_scatter_checks_closed_form_once_per_sweep(caplog):
    with caplog.at_level(logging.DEBUG, logger="coshbar.scattering"):
        cmd_scatter(RunConfig(v0=0.25, k_values=(0.0, 0.5, 1.0, 2.0)))
    records = [r for r in caplog.records if "closed form" in r.getMessage()]
    assert len(records) == 1
    assert records[0].levelno == logging.DEBUG  # worst deviation within 1e-10
    assert "over 3 kappa" in records[0].getMessage()


def test_scatter_bad_rows_are_flagged_in_place():
    _, rows, code = cmd_scatter(RunConfig(v0=0.25, k_values=(1.0, -1.0, 0.0, 2.0)))
    assert code == 3
    assert [row["flag"][:5] for row in rows] == ["", "error", "limit", ""]
    assert math.isnan(rows[1]["re_t"]) and rows[1]["k"] == -1.0


def test_scatter_oracle_columns():
    cfg = RunConfig(v0=0.25, k_values=(0.5, 1.0), use_oracle=True)
    columns, rows, code = cmd_scatter(cfg)
    assert code == 0
    assert "oracle_dev" in columns
    for row in rows:
        assert row["oracle_dev"] < 1e-6


def test_scatter_oracle_refusal_keeps_closed_form_columns(capsys):
    # At v8 = 2, k = 10, |R| = 1.1e-13 sits below the oracle's floor on R:
    # the oracle refuses, and the row keeps T, R and S but is flagged.
    assert main(["scatter", "--oracle", "--v0", "0.25", "--k", "10", "--format", "json"]) == 3
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    amp = amplitudes(reduce(RunConfig(v0=0.25).params, 10.0))
    assert complex(row["re_t"], row["im_t"]) == amp.t
    assert complex(row["re_r"], row["im_r"]) == amp.r
    assert complex(row["re_s"], row["im_s"]) == amp.s
    assert all(math.isnan(row[col]) for col in ("oracle_re_r", "oracle_im_r", "oracle_dev"))
    assert row["flag"].startswith("error: |R| = ") and "floor on R" in row["flag"]


def test_scatter_unitarity_gate_and_exit_codes():
    cfg = RunConfig(v0=2.5, k_values=(0.3, 0.9, 2.0))
    _, rows, code = cmd_scatter(cfg)
    assert code == 0
    assert all(row["unitarity_residual"] < 1e-8 for row in rows)


def test_scatter_requires_sweep():
    with pytest.raises(ValueError):
        cmd_scatter(RunConfig())


def test_wavefunction_rows_and_parity():
    import numpy as np

    xs = tuple(np.linspace(-4, 4, 17))
    cfg = RunConfig(v0=0.25, k_values=(1.0,), x_values=xs)
    columns, rows, asym, code = cmd_wavefunction(cfg)
    assert code == 0 and asym is None
    by_x = {row["x"]: row for row in rows}
    for x in xs:
        a, b = by_x[x], by_x[-x]
        assert a["re_psi_left"] == pytest.approx(b["re_psi_right"], abs=1e-15)
        assert a["im_psi_left"] == pytest.approx(b["im_psi_right"], abs=1e-15)


def test_wavefunction_rejects_more_than_one_wavenumber(capsys):
    # One table samples one k: a second --k is refused by name, not dropped.
    assert main(["wavefunction", "--k", "1", "--k", "2", "--x-range=0:0:1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("coshbar: config error") and "(got 1.0, 2.0)" in err


def test_wavefunction_free_constant_modulus():
    import numpy as np

    cfg = RunConfig(v0=0.0, k_values=(0.8,), x_values=tuple(np.linspace(-3, 3, 7)))
    _, rows, _, code = cmd_wavefunction(cfg)
    mods = [abs(complex(r["re_psi_right"], r["im_psi_right"])) for r in rows]
    assert code == 0
    assert max(mods) - min(mods) < 1e-12


def test_wavefunction_asymptotics_footer():
    import numpy as np

    xs = tuple(np.linspace(-12, -9, 5)) + tuple(np.linspace(9, 12, 5))
    cfg = RunConfig(v0=0.25, k_values=(1.0,), x_values=xs)
    _, _, asym, code = cmd_wavefunction(cfg)
    assert code == 0
    assert asym is not None
    assert asym["dev_t"] < 1e-6 and asym["dev_r"] < 1e-6


def test_wavefunction_strong_barrier_rows_are_values_or_flagged(tmp_path):
    # v8 = 1e6 (Im nu ~ 500): sin(pi nu)^2 in the normalization overflowed
    # (a traceback), and the 2F1 prefactors of about e^1571 meet the
    # normalization of about e^-1571 only in logs.  Every row is a finite
    # value or flagged with nan; the tails resolve.
    out = tmp_path / "wf.csv"
    args = ["wavefunction", "--v0", "125000", "--k", "1", "--x-range=-30:30:13"]
    code = main(args + ["--out", str(out)])
    assert code == 3
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    rows = [line.split(",", 5) for line in lines[1:]]
    assert len(rows) == 13
    for row in rows:
        values = [float(v) for v in row[1:5]]
        if row[5]:
            assert row[5].startswith("error") and all(math.isnan(v) for v in values)
        else:
            assert all(math.isfinite(v) for v in values)
    resolved = [float(row[0]) for row in rows if not row[5]]
    assert resolved == [-30, -25, -20, -15, -10, -5, 5, 10, 15, 20, 25, 30]


def test_propagator_rows():
    cfg = RunConfig(v0=0.25, tau=1.0, points=(-0.5, 0.5))
    columns, rows, code = cmd_propagator(cfg)
    assert code == 0
    assert len(rows) == 4
    for row in rows:
        assert row["rel_dev"] < 1e-6
    swapped = {(r["xf"], r["xi"]): r["k_spectral"] for r in rows}
    assert swapped[(-0.5, 0.5)] == pytest.approx(swapped[(0.5, -0.5)], rel=1e-12)


def test_propagator_free_matches_closed_form():
    from coshbar import free_kernel
    from coshbar.params import PhysicalParams

    cfg = RunConfig(v0=0.0, tau=1.0, points=(0.0, 0.4))
    _, rows, code = cmd_propagator(cfg)
    assert code == 0
    p = PhysicalParams(1, 1, 1, 0)
    for row in rows:
        exact = free_kernel(p, row["xf"], row["xi"], 1.0)
        assert row["k_spectral"] == pytest.approx(exact, rel=1e-6)


@pytest.mark.parametrize(
    "v0, tau, points",
    [
        (0.25, 0.1, (-0.5, -0.25, 0.0, 0.25, 0.5)),
        (0.25, 1.0, (-2.0, -1.0, 0.0, 1.0, 2.0)),
        (0.97 / 8.0, 0.3, (-0.4846, 0.4846)),
    ],
)
def test_propagator_oracle_refines_past_starting_grid(v0, tau, points):
    # The extrapolants of the first halvings differ by more than 1e-6 here;
    # the oracle keeps halving dx instead of flagging the row.
    _, rows, code = cmd_propagator(RunConfig(v0=v0, tau=tau, points=points))
    assert code == 0
    assert [row["flag"] for row in rows] == [""] * len(points) ** 2
    assert max(row["rel_dev"] for row in rows) < 1e-6


def test_propagator_bad_tau_is_config_error(capsys):
    code = main(["propagator", "--v0", "0.25", "--tau", "1e-5", "--points=-0.5:0.5:2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error" in captured.err and "too small" in captured.err
    assert captured.out == ""


def test_propagator_unresolvable_pair_flags_only_its_rows():
    # K(6, -6; tau=1) at v8 = 2 is about 2e-32: the spectral side resolves
    # it, the grid oracle does not, and only those rows are flagged.
    _, rows, code = cmd_propagator(RunConfig(v0=0.25, tau=1.0, points=(-6.0, 6.0)))
    assert code == 3
    flags = {(row["xf"], row["xi"]): row["flag"] for row in rows}
    assert flags[(-6.0, -6.0)] == flags[(6.0, 6.0)] == ""
    for row in rows:
        assert row["k_spectral"] > 0
        if row["xf"] != row["xi"]:
            assert row["flag"].startswith("error: grid kernel")


def test_propagator_entries_below_the_roundoff_floor_are_refused_alike(tmp_path):
    # K(+-6, 0) = K(0, +-6) is about 5.8e-9 against diagonals of 0.3-0.4. On
    # the first halving, dx = 0.05, its eigenvector roundoff floor passes 1e-6
    # of it, so all four mirror images are refused there and none passes on
    # a lucky rounding; K(+-6, -+6) is about 2e-32 and is refused at once.
    main_args = ["propagator", "--v0", "0.25", "--tau", "1", "--points=-6,0,6"]
    _, rows, code = cmd_propagator(RunConfig(v0=0.25, tau=1.0, points=(-6.0, 0.0, 6.0)))
    assert code == 3 == main(main_args + ["--out", str(tmp_path / "kernel.csv")])
    flags = {(row["xf"], row["xi"]): row["flag"] for row in rows}
    for xf, xi in ((-6.0, 0.0), (6.0, 0.0), (0.0, -6.0), (0.0, 6.0), (-6.0, 6.0), (6.0, -6.0)):
        assert flags[xf, xi].startswith("error: grid kernel")
        assert "roundoff floor" in flags[xf, xi]
    for x in (-6.0, 0.0, 6.0):
        assert flags[x, x] == ""
    assert "at dx=0.05," in flags[6.0, 0.0]


def test_propagator_keeps_oracle_value_when_the_spectral_side_fails():
    # v8 = 100, tau = 3: the Talbot contour refuses every entry, while the
    # grid oracle resolves them; each row keeps its k_oracle.  References:
    # the 30-digit mpmath referee of tests/test_propagator.py.
    _, rows, code = cmd_propagator(RunConfig(v0=12.5, tau=3.0, points=(-0.5, 0.0, 0.5)))
    assert code == 3
    assert all(row["flag"].startswith("error") for row in rows)
    oracle = {(row["xf"], row["xi"]): row["k_oracle"] for row in rows}
    referee = {
        (0.0, 0.0): 8.6373404820754333e-8,
        (0.5, 0.5): 4.5578601693287672e-6,
        (0.5, -0.5): 9.9265523681280884e-8,
    }
    for pair, ref in referee.items():
        assert abs(oracle[pair] - ref) <= 1e-7 * ref, pair


def test_verify_all_suites_pass():
    report, code = cmd_verify(RunConfig())
    assert code == 0
    for suite in report:
        assert {"suite", "cases"} <= set(suite)
        for case in suite["cases"]:
            assert {"name", "residual", "tolerance", "pass"} <= set(case)
            assert case["pass"]


def test_verify_single_suite_selection():
    report, code = cmd_verify(RunConfig(checks=("free-limit",)))
    assert code == 0
    assert [s["suite"] for s in report] == ["free-limit"]


def test_readme_example_config_loads_and_verifies(tmp_path, monkeypatch, capsys):
    # verify reads no outputs section: the example's "path" is for scatter,
    # and the report goes to stdout.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    doc = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(str(path))
    assert cfg.checks == ("unitarity", "oracle") and cfg.out == "sweep.csv"
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--config", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [suite["suite"] for suite in report] == ["unitarity", "oracle"]
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--v0", "1"],
        ["verify", "--format", "csv"],
        ["scatter", "--k", "1", "--tau", "2"],
        ["wavefunction", "--k", "1", "--x-range=-1:1:3", "--oracle"],
        ["propagator", "--k", "1"],
    ],
    ids=" ".join,
)
def test_subcommand_rejects_flags_it_does_not_read(args, capsys):
    # A flag is registered only on the subcommands that read it; any other
    # is an argparse usage error, not a setting that is parsed and dropped.
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_config_file_roundtrip(tmp_path):
    doc = {
        "units": {"hbar": 2.0, "m": 0.5},
        "barrier": {"omega": 1.5, "v0": 0.3},
        "sweep": {"k_range": [0.5, 2.0, 4]},
        "outputs": {"format": "json"},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(str(path))
    assert cfg.hbar == 2.0 and cfg.m == 0.5
    assert cfg.omega == 1.5 and cfg.v0 == 0.3
    assert len(cfg.k_values) == 4 and cfg.fmt == "json"


def test_config_file_explicit_lists(tmp_path):
    doc = {
        "sweep": {"k_values": [0.25, 1.5]},
        "wavefunction": {"x_values": [-9.0, 9.0]},
        "propagator": {"tau": 0.5, "points": [0.0, 0.3]},
        "checks": ["unitarity"],
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(str(path))
    assert cfg.k_values == (0.25, 1.5)
    assert cfg.x_values == (-9.0, 9.0)
    assert cfg.tau == 0.5 and cfg.points == (0.0, 0.3)
    assert cfg.checks == ("unitarity",)


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"units": [1]}, "units"),
        ({"barrier": {"v0": None}}, "barrier.v0"),
        ({"sweep": {"k_values": 3}}, "sweep.k_values"),
        ({"oracle": {"step": 0.01}}, "oracle"),
        ({"sweep": {"k_values": "123"}}, "sweep.k_values"),
        ({"use_oracle": "false"}, "use_oracle"),
        ({"barrier": {"V0": 0.25}}, "barrier.V0"),
        ({"checks": "unitarity"}, "checks"),
        ({"oracle": {}}, "oracle"),
        ({"barrier": {"v0": True}}, "barrier.v0"),
        ({"units": {"hbar": "2"}}, "units.hbar"),
        ({"propagator": {"points": ["0.5"]}}, "propagator.points"),
        ({"outputs": {"format": ["json"]}}, "outputs.format"),
        ({"sweeps": {"k_values": [1.0]}}, "sweeps"),
        ({"sweep": {"k_range": [0.5, 1.0, 2.5]}}, "sweep.k_range"),
    ],
)
def test_malformed_config_field_is_a_config_error(doc, field, tmp_path, capsys):
    # Exit 1 is kept for residual failures: an unknown key, or a field of the
    # wrong JSON kind or shape, exits 2 with a message naming it, never a
    # traceback.  A string is no list, flag or number, a bool no number, and
    # a range count no fraction.  The oracles take no settings, so an
    # "oracle" section is an unknown key, even an empty one.
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    assert main(["scatter", "--k", "1", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("coshbar: config error") and f"config field {field!r}" in err
    assert "must be" in err or "is not a known key" in err


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        RunConfig(checks=("nonsense",))


def test_main_exit_codes(tmp_path, capsys):
    assert main(["scatter", "--v0", "0.25", "--k", "1"]) == 0
    capsys.readouterr()
    # malformed range -> config error
    assert main(["scatter", "--k-range", "oops"]) == 2
    capsys.readouterr()
    # empty sweep -> config error
    assert main(["scatter"]) == 2
    capsys.readouterr()
    # unwritable output path -> config error, not a traceback
    assert main(["scatter", "--k", "1", "--out", str(tmp_path / "missing" / "rows.csv")]) == 2
    assert "config error" in capsys.readouterr().err


def test_output_files_are_byte_identical(tmp_path):
    args = ["scatter", "--v0", "0.25", "--k-range", "0.2:2:7"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert text.startswith("k,kappa,v8,re_t,im_t,re_r,im_r,t2,r2,re_s,im_s,unitarity_residual")
    assert "\r" not in text


def test_json_output_schema(tmp_path):
    out = tmp_path / "rows.json"
    assert main(["scatter", "--v0", "0.25", "--k", "1", "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"columns", "rows"}
    assert doc["rows"][0]["t2"] == pytest.approx(0.9549222767550369)


ROOT = Path(__file__).resolve().parents[1]


def _child_env() -> dict:
    # The child imports the checkout's src/, as pytest's pythonpath does here.
    paths = (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def test_cli_subprocess_smoke(tmp_path):
    root, env = ROOT, _child_env()
    out = tmp_path / "sweep.csv"
    cmd = [
        sys.executable, "-m", "coshbar", "scatter",
        "--omega", "1", "--v0", "0.25", "--k-range", "0.5:2:4",
        "--out", str(out),
    ]
    subprocess.run(cmd, check=True, cwd=root, env=env)
    lines = out.read_text().splitlines()
    assert len(lines) == 5  # header + 4 rows
    cmd = [sys.executable, "-m", "coshbar", "verify", "--suite", "unitarity"]
    proc = subprocess.run(cmd, check=True, cwd=root, env=env, capture_output=True, text=True)
    report = json.loads(proc.stdout)
    assert all(case["pass"] for case in report[0]["cases"])


_MAIN_WITHOUT_SCIPY_SPECIAL = """
import sys
from coshbar.cli import main
code = main(sys.argv[1:])
loaded = sorted(name for name in sys.modules if name.startswith("scipy.special"))
assert not loaded, f"command imported {loaded}"
sys.exit(code)
"""


@pytest.mark.parametrize(
    "args",
    [
        ["scatter", "--v0", "0.25", "--k-range", "0.5:2:4"],
        ["wavefunction", "--v0", "0.25", "--k", "1", "--x-range=-3:3:7"],
        ["propagator", "--v0", "0.25", "--tau", "1", "--points=-0.5:0.5:2"],
        ["verify"],
    ],
    ids=lambda args: args[0],
)
def test_commands_do_not_import_scipy_special(args, tmp_path):
    # Log-gamma is computed in numpy, so no command pays the cold import of
    # scipy.special (about 60 ms per process); only scipy.linalg is loaded.
    cmd = [sys.executable, "-c", _MAIN_WITHOUT_SCIPY_SPECIAL, *args, "--out", str(tmp_path / "out")]
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
