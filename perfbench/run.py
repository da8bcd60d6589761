"""End-to-end and per-layer benchmark of the coshbar CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout.  Every CLI invocation is a fresh
interpreter that imports the package from the checkout's src/ tree, one
process at a time, with COSHBAR_THREADS unset.  A round runs all
invocations of the workload once; rounds repeat until the next one would
end past S seconds of measuring (at least one round, two when tracing).
Before every round one more fresh interpreter runs `import coshbar` alone;
setup_s is the median of those import times, so it samples the same
stretch of time as the rounds.

The first untraced round's outputs are checked against references computed
apart from the package (checks.py); every later round, traced or not, must
write the same bytes.  The last line of standard output is one JSON object
with keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  The line before it
records the machine, the seed, the rounds and the failures per known fault.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from checks import CHECKS
from spans import SPAN_NAMES, layer_totals
from workloads import WORKLOADS, Invocation, build

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0


@dataclass
class ChildRun:
    wall_s: float
    rss_mb: float
    code: int
    report: dict
    output: bytes


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "COSHBAR_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], stderr_path: Path) -> tuple[float, float, int]:
    """Run argv to its end; (wall seconds, peak RSS in MB, exit code).
    The child is killed if it outlives CHILD_TIMEOUT_S."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=child_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_child(inv: Invocation, config: Path | None, work: Path, tag: str, traced: bool) -> ChildRun:
    out, report = work / f"{tag}.out", work / f"{tag}.report.json"
    for path in (out, report):
        path.unlink(missing_ok=True)
    args = list(inv.args) + (["--config", str(config)] if config else []) + ["--out", str(out)]
    argv = [sys.executable, str(HERE / "child.py")] + (["--trace"] if traced else [])
    argv += [str(report), "--", *args]
    wall, rss, code = spawn(argv, work / f"{tag}.err")
    try:
        data = json.loads(report.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        data = {}
    output = out.read_bytes() if out.exists() else b""
    return ChildRun(wall, rss, code, data, output)


def time_import(work: Path) -> float:
    """Wall time of a fresh interpreter importing coshbar."""
    return spawn([sys.executable, "-c", "import coshbar"], work / "setup.err")[0]


def import_breakdown(work: Path) -> dict[str, float]:
    """Cumulative import seconds of coshbar and scipy.linalg from
    `python -X importtime`, median over a few fresh interpreters."""
    samples: dict[str, list[float]] = {"coshbar": [], "scipy.linalg": []}
    err = work / "importtime.err"
    for _ in range(IMPORTTIME_SAMPLES):
        spawn([sys.executable, "-X", "importtime", "-c", "import coshbar"], err)
        for line in err.read_text(encoding="utf-8").splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in samples:
                samples[fields[2].strip()].append(float(fields[1]) * 1e-6)
    return {name: statistics.median(values) if values else float("nan") for name, values in samples.items()}


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, details line)."""
    invocations = build(workload, seed)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        configs = []
        for j, inv in enumerate(invocations):
            path = None
            if inv.config is not None:
                path = work / f"inv{j}.config.json"
                path.write_text(json.dumps(inv.config), encoding="utf-8")
            configs.append(path)
        time_import(work)  # untimed: fills the bytecode cache
        setup_samples: list[float] = []

        problems: list[str] = []
        reference: list[bytes] = []
        attempted = failed = 0
        per_round_attempted = per_round_failed = 0
        faults: dict[str, int] = {}
        untraced, traced = [], []
        spent = 0.0
        while True:
            tracing = trace and len(untraced) > len(traced)
            setup_samples.append(time_import(work))
            start = time.perf_counter()
            runs = [
                run_child(inv, configs[j], work, f"inv{j}", tracing) for j, inv in enumerate(invocations)
            ]
            spent += time.perf_counter() - start
            (traced if tracing else untraced).append(runs)
            for j, run in enumerate(runs):
                if not run.report.get("package", "").startswith(str(SRC)):
                    problems.append(f"invocation {j} imported coshbar from {run.report.get('package')}")
            if not reference:
                reference = [run.output for run in runs]
                for inv, run in zip(invocations, runs):
                    outcome = CHECKS[inv.command](inv.spec, run.output.decode("utf-8", "replace"), run.code)
                    per_round_attempted += outcome.attempted
                    per_round_failed += len(outcome.failed)
                    problems.extend(outcome.problems)
                    for op in sorted(outcome.failed):
                        label = inv.known.get(op)
                        if label is None:
                            problems.append(f"{' '.join(inv.args)}: operation {op} failed its check")
                        else:
                            faults[label] = faults.get(label, 0) + 1
            elif [run.output for run in runs] != reference:
                problems.append(f"round {len(untraced) + len(traced)} output differs from round 1")
            attempted += per_round_attempted
            failed += per_round_failed
            rounds = len(untraced) + len(traced)
            enough = rounds >= (2 if trace else 1)
            if enough and spent + spent / rounds > seconds:
                break

        def totals(rounds: list[list[ChildRun]], value) -> float:
            """Sum over invocations of each invocation's median over rounds."""
            return sum(statistics.median(value(r[j]) for r in rounds) for j in range(len(invocations)))

        def compute(run: ChildRun) -> float:
            return run.report.get("compute_s", float("nan"))

        if trace:
            layers = []
            for r in traced:
                per_child = [layer_totals(run.report.get("spans", [])) for run in r]
                layers.append({name: [sum(c[name][i] for c in per_child) for i in range(3)] for name in SPAN_NAMES})
            metrics: dict[str, dict] = {}
            for name in SPAN_NAMES:
                for i, (suffix, unit) in enumerate((("calls", "count"), ("self_s", "s"), ("self_cpu_s", "s"))):
                    value = statistics.median(layer[name][i] for layer in layers)
                    metrics[f"{name}.{suffix}"] = {"value": value, "unit": unit}
            imports = import_breakdown(work)
            metrics["import.coshbar_s"] = {"value": imports["coshbar"], "unit": "s"}
            metrics["import.scipy_linalg_s"] = {"value": imports["scipy.linalg"], "unit": "s"}
            overhead = totals(traced, compute) - totals(untraced, compute)
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        else:
            metrics = {
                "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
                "wall_s": {"value": totals(untraced, lambda run: run.wall_s), "unit": "s"},
                "compute_s": {"value": totals(untraced, compute), "unit": "s"},
                "peak_rss_mb": {"value": max(run.rss_mb for r in untraced for run in r), "unit": "MB"},
            }
        result = {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
        details = {
            "workload": workload,
            "seed": seed,
            "trace": int(trace),
            "rounds": {"untraced": len(untraced), "traced": len(traced)},
            "invocations": len(invocations),
            "known_fault_failures_per_round": faults,
            "problems": problems[:20],
            "machine": machine(),
        }
        return result, details
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "coshbar" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'coshbar'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(details))
        print(json.dumps(result))
        return 0
    for workload in WORKLOADS:
        result, details = measure(workload, args.seed, args.seconds, bool(args.trace))
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} faults={details['known_fault_failures_per_round']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
        for problem in details["problems"]:
            print(f"  problem: {problem}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
