"""The benchmark tracer's contract with the package: perfbench/spans.py
rebinds each function it traces and refuses one that has left its module's
__all__, which would otherwise surface only as a RuntimeError in a traced
benchmark run."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_is_public():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for mod_name, fn_names in spans.TRACED.items():
        module = importlib.import_module(f"coshbar.{mod_name}")
        missing = [fn for fn in fn_names if fn not in module.__all__]
        assert missing == [], f"coshbar.{mod_name}.__all__ lacks {missing}"
