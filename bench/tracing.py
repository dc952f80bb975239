"""Per-layer tracing from outside the program.

`Tracer.install` replaces, for the duration of a traced run, the names
through which one pearceydet module calls the next (for example
`fredholm._kernel_matrix_from_session` or `cli.logdet_converged`) with
wrappers that record a span per call.  No file of the program changes.  The
names a module imports inside a function body (as `hamiltonian` does for
`fredholm`, `kernel` and `pearcey`) are replaced on the module they come from.

Spans stay in memory.  A span's self time is its duration minus the
durations of the spans it encloses; the per-layer metrics are sums of self
times, counts and sizes over the spans of the timed ops, divided by the
number of ops.
"""
from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass, field

import numpy as np


def _size(a) -> int:
    return int(np.size(a))


def _points(args, kwargs, result) -> dict:
    return {"points": _size(args[0])}


def _matrix(args, kwargs, result) -> dict:
    _, x, y = args[:3]
    square = x is y or (_size(x) == _size(y) > 1 and np.array_equal(x, y))
    return {"entries": _size(x) * _size(y), "square": int(square)}


def _order(args, kwargs, result) -> dict:
    return {"order": int(args[0])}


def _nfev(args, kwargs, result) -> dict:
    return {"nfev": int(result.nfev)}


# (module, attribute, span name, attributes recorded from the call)
WRAPPED = (
    ("cli", "logdet_converged", "fredholm.converged", None),
    ("cli", "moments_trace", "fredholm.moments", None),
    ("cli", "moments_mgf", "fredholm.moments", None),
    ("cli", "kernel_point", "kernel.point", None),
    ("cli", "kernel_integral", "kernel.oracle", None),
    ("cli", "kernel_rh", "kernel.oracle", None),
    ("cli", "_emit", "cli.emit", None),
    ("asymptotics", "f_large_gap", "asymptotics.closed_form", None),
    ("asymptotics", "counting_stats", "asymptotics.closed_form", None),
    ("asymptotics", "clt_distance", "asymptotics.closed_form", None),
    ("asymptotics", "barnes_ln_g", "specfun.barnes", None),
    ("chf", "verification_report", "chf.report", None),
    ("hamiltonian", "asymptotic_trajectory", "hamiltonian.trajectory", None),
    ("hamiltonian", "resolvent_anchor_state", "hamiltonian.anchor", None),
    ("hamiltonian", "integrate", "hamiltonian.integrate", None),
    ("hamiltonian", "solve_ivp", "hamiltonian.solve", _nfev),
    ("hamiltonian", "trajectory_rows", "hamiltonian.report", None),
    ("fredholm", "logdet_converged", "fredholm.converged", None),
    ("fredholm", "gauss_legendre", "fredholm.rule", _order),
    ("fredholm", "_logdet_lu", "fredholm.factor", None),
    ("fredholm", "resolvent_boundary_trace", "fredholm.resolvent", None),
    ("fredholm", "_kernel_matrix_from_session", "kernel.matrix", _matrix),
    ("fredholm", "_diag_and_slope", "kernel.diag", None),
    ("kernel", "_kernel_matrix_from_session", "kernel.matrix", _matrix),
    ("kernel", "_p_bundle", "pearcey.bundle", _points),
    ("kernel", "_q_bundle", "pearcey.bundle", _points),
    ("kernel", "_upper_v_bundle", "pearcey.bundle", _points),
    ("kernel", "tilde_psi_matrices", "pearcey.bundle", _points),
    ("pearcey", "_p_bundle", "pearcey.bundle", _points),
    ("pearcey", "tilde_psi_matrices", "pearcey.bundle", _points),
)

# (metric, unit, how, span names, attribute): how is "self_ms" (summed self
# time), "count" (spans), "sum" or "max" (of the attribute).
PER_LAYER = (
    ("pearcey.bundle_calls", "1/op", "count", ("pearcey.bundle",), None),
    ("pearcey.bundle_points", "1/op", "sum", ("pearcey.bundle",), "points"),
    ("pearcey.bundle_ms", "ms/op", "self_ms", ("pearcey.bundle",), None),
    ("kernel.assemblies", "1/op", "sum", ("kernel.matrix",), "square"),
    ("kernel.entries", "1/op", "sum", ("kernel.matrix",), "entries"),
    ("kernel.assembly_ms", "ms/op", "self_ms",
     ("kernel.matrix", "kernel.diag", "kernel.point"), None),
    ("kernel.oracle_ms", "ms/op", "self_ms", ("kernel.oracle",), None),
    ("fredholm.rules_built", "1/op", "count", ("fredholm.rule",), None),
    ("fredholm.rule_ms", "ms/op", "self_ms", ("fredholm.rule",), None),
    ("fredholm.logdets", "1/op", "count", ("fredholm.factor",), None),
    ("fredholm.max_order", "n", "max", ("fredholm.rule",), "order"),
    ("fredholm.factor_ms", "ms/op", "self_ms", ("fredholm.factor",), None),
    ("fredholm.resolvent_ms", "ms/op", "self_ms", ("fredholm.resolvent",), None),
    ("hamiltonian.anchor_ms", "ms/op", "self_ms", ("hamiltonian.anchor",), None),
    ("hamiltonian.integrate_ms", "ms/op", "self_ms",
     ("hamiltonian.integrate", "hamiltonian.solve"), None),
    ("hamiltonian.rhs_evals", "1/op", "sum", ("hamiltonian.solve",), "nfev"),
    ("hamiltonian.report_ms", "ms/op", "self_ms", ("hamiltonian.report",), None),
    ("asymptotics.closed_form_ms", "ms/op", "self_ms", ("asymptotics.closed_form",), None),
    ("specfun.barnes_calls", "1/op", "count", ("specfun.barnes",), None),
    ("specfun.barnes_ms", "ms/op", "self_ms", ("specfun.barnes",), None),
    ("chf.residual_ms", "ms/op", "self_ms", ("chf.report",), None),
    ("cli.emit_ms", "ms/op", "self_ms", ("cli.emit",), None),
)


@dataclass(slots=True)
class Span:
    name: str
    parent: int          # index of the enclosing span, -1 for an op's root
    op: int              # index of the op's root span, shared by all its spans
    start_ns: int
    end_ns: int = 0
    child_ns: int = 0    # summed durations of the spans directly inside
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans while installed; `metrics` turns them into per-op figures."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, attrs_of=None):
        """`fn` recording a span per call; a call outside any span starts an op."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = Span(name, parent, spans[parent].op if stack else idx,
                        time.perf_counter_ns())
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end_ns = time.perf_counter_ns()
                if span.parent >= 0:
                    spans[span.parent].child_ns += span.end_ns - span.start_ns
            if attrs_of is not None:
                span.attrs = attrs_of(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for mod_name, attr, name, attrs_of in WRAPPED:
            module = importlib.import_module(f"pearceydet.{mod_name}")
            original = getattr(module, attr)
            key = id(original)
            if key not in wrappers:
                wrappers[key] = self.wrap(original, name, attrs_of)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrappers[key])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for idx, s in enumerate(self.spans):
                fh.write(json.dumps({"span": idx, "op": s.op, "parent": s.parent,
                                     "name": s.name, "start_ns": s.start_ns,
                                     "end_ns": s.end_ns, **s.attrs}) + "\n")

    def metrics(self, ops: int) -> dict[str, dict]:
        out = {}
        for metric, unit, how, names, attr in PER_LAYER:
            spans = [s for s in self.spans if s.name in names]
            if how == "count":
                value = len(spans) / ops
            elif how == "self_ms":
                value = sum(s.end_ns - s.start_ns - s.child_ns for s in spans) / 1e6 / ops
            elif how == "sum":
                value = sum(s.attrs[attr] for s in spans) / ops
            else:
                value = max((s.attrs[attr] for s in spans), default=0)
            out[metric] = {"value": value, "unit": unit}
        return out
