"""Span tracer for one coshbar CLI process.

`install` wraps each traced public function of the package (every name
listed in TRACED must appear in its module's ``__all__``) and rebinds every
module attribute that refers to the original, so internal calls such as
``s_function`` -> ``amplitudes`` or ``cli`` -> ``spectral_kernel`` are
recorded too.  A span is (id, name, start, end, thread CPU start, thread CPU
end, parent id, thread id); the parent is the innermost open span of the
same thread (-1 for none).  Spans are kept in memory and written out
once, when the process ends.

`layer_totals` turns the spans of one process into per-function call counts
and self times (duration minus the time covered by the span's own
children), on the wall clock and on the thread CPU clock.  Under the
CLI's thread pool the wall self time of a function includes the time its
threads waited for the interpreter lock; the CPU self time does not.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from functools import wraps

TRACED = {
    "special": ("log_gamma", "hyp2f1", "legendre_P", "legendre_P_tanh"),
    "scattering": (
        "amplitudes", "s_function", "connection_coefficients", "wavefunctions", "asymptotic_extract",
    ),
    "params": ("reduce",),
    "oracle": ("numerov_amplitudes", "grid_propagator"),
    "propagator": ("spectral_kernel", "free_kernel"),
    "cli": ("main", "cmd_scatter", "cmd_wavefunction", "cmd_propagator", "cmd_verify"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class Tracer:
    """Collects spans from any number of threads; list.append and the id
    counter are atomic under the interpreter lock."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn):
        spans, ids, local = self.spans, self._ids, self._local

        @wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start, cpu_start = time.perf_counter(), time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                end, cpu_end = time.perf_counter(), time.thread_time()
                stack.pop()
                spans.append((sid, name, start, end, cpu_start, cpu_end, parent, threading.get_ident()))

        return traced


def install(tracer: Tracer) -> None:
    """Import the package and rebind every traced function in every
    coshbar module that holds a reference to it."""
    for mod_name, fn_names in TRACED.items():
        module = importlib.import_module(f"coshbar.{mod_name}")
        for fn_name in fn_names:
            if fn_name not in module.__all__:
                raise RuntimeError(f"coshbar.{mod_name}.__all__ no longer lists {fn_name}")
            original = getattr(module, fn_name)
            wrapper = tracer.wrap(f"{mod_name}.{fn_name}", original)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "coshbar" or name.startswith("coshbar.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)


def layer_totals(spans) -> dict[str, list]:
    """{span name: [calls, wall self s, CPU self s]} over SPAN_NAMES, zeros
    included, for the spans of one process (span ids are per process)."""
    child_wall: dict[int, float] = {}
    child_cpu: dict[int, float] = {}
    for _sid, _name, start, end, cpu_start, cpu_end, parent, _tid in spans:
        if parent >= 0:
            child_wall[parent] = child_wall.get(parent, 0.0) + (end - start)
            child_cpu[parent] = child_cpu.get(parent, 0.0) + (cpu_end - cpu_start)
    totals = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
    for sid, name, start, end, cpu_start, cpu_end, _parent, _tid in spans:
        entry = totals[name]
        entry[0] += 1
        entry[1] += (end - start) - child_wall.get(sid, 0.0)
        entry[2] += (cpu_end - cpu_start) - child_cpu.get(sid, 0.0)
    return totals
