"""The benchmark's tracer wraps program names by string; a rename must fail here, fast."""
import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_names_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)   # dataclasses look it up
    spec.loader.exec_module(tracing)
    missing = [f"{mod}.{attr}" for mod, attr, _, _ in tracing.WRAPPED
               if not hasattr(importlib.import_module(f"pearceydet.{mod}"), attr)]
    assert missing == []
