"""Steadiness of the benchmark: two sets of runs per workload, each run on
its own seed, and every end-to-end metric's spread against its bound.

    python3 perfbench/steady.py [--runs 10]

Every workload of BENCHMARK.json is run for its `run_seconds`.  For each
workload and set, the spread of a metric is the distance between the first
and third quartile of its values (statistics.quantiles, n=4) as a share of
their median.  A metric is steady when every set's spread is within its
bound from BENCHMARK.json and the second set's median differs from the
first set's by no more than the bound, in either direction.  The share of
failed operations must be identical in every run of a workload.  Seeds run
1..runs in the first set and runs+1..2*runs in the second.

The exit code is 0 when everything is steady and every run is correct,
1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    details, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return result, details


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (default 10)")
    args = parser.parse_args(argv)

    steady = True
    machine = None
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        shares = set()
        for s in range(SETS):
            runs = []
            for r in range(args.runs):
                seed = s * args.runs + r + 1
                result, details = one_run(workload, seed, bench["run_seconds"])
                runs.append(result)
                print(f"{workload} seed {seed}: " + " ".join(
                    f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
                ), flush=True)
                shares.add(Fraction(result["failed"], result["attempted"]))
                if not result["correct"]:
                    steady = False
                    print(f"{workload} seed {seed}: incorrect: {details['problems']}")
                machine = details["machine"]
            sets.append(runs)
        print(f"{workload}: failed share {sorted(str(x) for x in shares)}"
              + ("" if len(shares) == 1 else "  NOT CONSTANT"))
        steady &= len(shares) == 1
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians, spreads = [], []
            for runs in sets:
                values = [run["metrics"][name]["value"] for run in runs]
                q1, q2, q3 = statistics.quantiles(values, n=4)
                medians.append(q2)
                spreads.append((q3 - q1) / q2)
            drift = (medians[1] - medians[0]) / medians[0]
            ok = abs(drift) <= bound and max(spreads) <= bound
            steady &= ok
            print(f"  {name:<12} medians {' '.join(f'{m:.4g}' for m in medians)} {metric['unit']:<3} "
                  f"spreads {' '.join(f'{x:.3f}' for x in spreads)} drift {drift:+.3f} "
                  f"bound {bound} (a third: {bound / 3:.3f}) {'ok' if ok else 'NOT STEADY'}")
    print(f"machine: {json.dumps(machine)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
