"""The benchmark names program objects and flags by string; a rename must fail here, fast."""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from pearceydet.cli import build_parser

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)   # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(monkeypatch):
    tracing = _load(monkeypatch, "tracing")
    missing = [f"{mod}.{attr}" for mod, attr, _, _ in tracing.WRAPPED
               if not hasattr(importlib.import_module(f"pearceydet.{mod}"), attr)]
    assert missing == []


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_workload_invocations_parse(monkeypatch, seed):
    # every argv an op runs, with the --out the runner appends; nothing is computed
    workloads = _load(monkeypatch, "workloads")
    parser = build_parser()
    for name in workloads.WORKLOADS:
        for op in workloads.make_ops(name, seed):
            for argv in op.argvs:
                parser.parse_args(list(argv) + ["--out", "out.txt"])
