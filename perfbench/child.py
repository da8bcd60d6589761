"""One coshbar CLI invocation, as `coshbar ARGS...` would run it, with its
timings written to a report file.

    python3 perfbench/child.py [--trace] REPORT.json -- ARGS...

The package is imported from PYTHONPATH (the benchmark points it at the
checkout's src/).  compute_s is the time spent inside coshbar.cli.main.
With --trace, the functions in spans.TRACED are wrapped before main runs
and the recorded spans are added to the report.  The exit code is main's.
"""

from __future__ import annotations

import json
import sys
import time


def run(argv: list[str]) -> int:
    traced = argv[0] == "--trace"
    if traced:
        argv = argv[1:]
    report_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: child.py [--trace] REPORT.json -- ARGS...")
    t0 = time.perf_counter()
    import coshbar.cli

    tracer = None
    if traced:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)
    t1 = time.perf_counter()
    code = coshbar.cli.main(cli_args)
    t2 = time.perf_counter()
    report = {
        "import_s": t1 - t0,
        "compute_s": t2 - t1,
        "exit": code,
        "package": coshbar.__file__,
    }
    if tracer is not None:
        report["spans"] = tracer.spans
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
