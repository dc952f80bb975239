"""Tests of the benchmark itself: its references, its checkers and short runs.

    python3 -m pytest -q bench

Every checker must report a deliberately wrong output, and a wrong output must
count as a failed op in a run.
"""
from __future__ import annotations

import json

import numpy as np
import pytest

import run as bench_run  # puts the checkout's src/ on sys.path
import reference as ref
import tracing
import workloads as wl
from pearceydet.cli import main
from pearceydet.kernel import kernel_rh


@pytest.fixture(scope="module")
def refs():
    return ref.References()


def _part(kind: str, seed: int = 1) -> wl.Part:
    workload = next(w for w, kinds in wl.WORKLOADS.items() if kind in kinds)
    return next(p for p in wl.make_ops(workload, seed)[0].parts if p.kind == kind)


def _outputs(part: wl.Part, tmp_path) -> list[str]:
    rc, texts = bench_run.run_op(main, wl.Op("test", (part,)), tmp_path)
    assert rc == 0
    return texts


def _edit_csv(text: str, row: int, col: str, fn) -> str:
    lines = text.splitlines()
    start = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    cols = lines[start].split(",")
    vals = lines[start + 1 + row].split(",")
    j = cols.index(col)
    vals[j] = repr(fn(float(vals[j])))
    lines[start + 1 + row] = ",".join(vals)
    return "\n".join(lines) + "\n"


def _edit_meta(text: str, key: str, value: str) -> str:
    return "\n".join(f"# {key}: {value}" if ln.startswith(f"# {key}: ") else ln
                     for ln in text.splitlines()) + "\n"


def _drop_row(text: str, row: int) -> str:
    lines = text.splitlines()
    start = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    del lines[start + 1 + row]
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------ the references

@pytest.mark.parametrize("s,gamma,rho", [(12.0, 0.99, -2.0), (12.0, 0.99, 2.0),
                                         (10.0, 0.95, 2.0), (0.5, 0.95, -2.0)])
def test_reference_order_is_converged(s, gamma, rho):
    low = ref.ReferenceOperator(s, rho).logdet(gamma)
    high = ref.ReferenceOperator(s, rho, n=160).logdet(gamma)
    assert abs(low - high) <= 1e-10 * (1 + abs(high))


def test_reference_kernel_matches_matrix_oracle():
    x = np.array([-5.5, -1.0, 0.3, 4.0])
    y = np.array([-4.0, 2.5, 5.9])
    for rho in (-2.0, 0.0, 1.5):
        k = ref.reference_kernel(x, y, rho)
        want = np.array([[kernel_rh(a, b, rho) for b in y] for a in x])
        assert np.abs(k - want).max() < 1e-12


def test_reference_kernel_diagonal_is_the_limit():
    x = np.array([1.7])
    for rho in (-1.0, 1.0):
        diag = ref.reference_kernel(x, x, rho)[0, 0]
        near = ref.reference_kernel(x, x + 1e-5, rho)[0, 0]
        assert abs(diag - near) < 1e-4


# ------------------------------------------------------- the seeded op lists

def test_ops_are_seeded_and_in_range():
    for name, kinds in wl.WORKLOADS.items():
        ops = wl.make_ops(name, 3)
        assert ops == wl.make_ops(name, 3)
        assert ops != wl.make_ops(name, 4)
        assert len(ops) == wl.OPS_PER_CYCLE
        assert all(tuple(p.kind for p in op.parts) == kinds for op in ops)
    for op in wl.make_ops("trajectory_oracles", 3):
        traj, oracle = (p.params for p in op.parts)
        s0, rho = traj["s0"], traj["rho"]
        assert wl.TRAJ_S0[0] <= s0 <= wl.TRAJ_S0[1]
        theta3 = 0.75 * s0 ** (4 / 3) + 0.5 * rho * s0 ** (2 / 3)
        assert theta3 <= wl.TRAJ_THETA3_MAX + 1e-3
        assert oracle["x_hi"] - oracle["x_lo"] >= wl.ORACLE_MIN_SEPARATION


# ----------------------------------------- checkers catch a wrong output

def test_scan_checker(tmp_path, refs):
    part = _part("scan")
    (text,) = _outputs(part, tmp_path)

    def check(t):
        return ref.check_scan(part.params, [t], refs)

    assert check(text) == []
    assert check(_edit_csv(text, 3, "f_num", lambda f: f + 1e-6))
    assert check(_edit_csv(text, 0, "f_num", lambda f: -f))
    assert check(_drop_row(text, 2))
    assert check(_edit_meta(text, "tol", "1e-06"))


def test_stats_checker(tmp_path, refs):
    part = _part("stats")
    moments, clt = _outputs(part, tmp_path)
    assert ref.check_stats(part.params, [moments, clt], refs) == []
    bad = [[_edit_csv(moments, 0, "mean_trace", lambda v: v + 1e-6), clt],
           [_edit_csv(moments, 0, "var_mgf", lambda v: v * (1 + 1e-3)), clt],
           [moments, _edit_csv(clt, 0, "distance", lambda v: v + 1e-6)],
           [_edit_meta(moments, "var_const", "0.3"), clt]]
    for texts in bad:
        assert ref.check_stats(part.params, texts, refs)


def test_trajectory_checker(tmp_path, refs):
    part = _part("trajectory")
    (text,) = _outputs(part, tmp_path)
    assert ref.check_trajectory(part.params, [text], refs) == []
    bad = [_drop_row(text, 200),
           _edit_meta(text, "max_constraint_drift", "1e-6"),
           _edit_csv(text, 10, "const2", lambda v: 1e-6),
           _edit_csv(text, 399, "action", lambda v: 1e-3),
           _edit_csv(text, 100, "re_h", lambda v: v + 1e-2)]
    for t in bad:
        assert ref.check_trajectory(part.params, [t], refs)


def test_oracles_checker(tmp_path, refs):
    part = _part("oracles")
    kernel, chf = _outputs(part, tmp_path)

    def check(k, c):
        return ref.check_oracles(part.params, [k, c], refs)

    assert check(kernel, chf) == []
    assert check(_edit_csv(kernel, 1, "k_integral", lambda v: v + 1e-9), chf)
    assert check(_edit_csv(kernel, 0, "k_rational", lambda v: v * (1 + 1e-9)), chf)
    report = json.loads(chf)
    report["results"][0]["ray_residuals"]["1"]["0.5"] = 1e-6
    assert check(kernel, json.dumps(report))


# --------------------------------------------------------- short runs

@pytest.fixture
def short_runs(monkeypatch):
    monkeypatch.setattr(bench_run, "MIN_OPS", dict.fromkeys(wl.WORKLOADS, 1))
    monkeypatch.setattr(bench_run, "SETUP_REPS", 1)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_run(workload, short_runs):
    out = bench_run.run(workload, 5, 0.1, False)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == wl.OPS_PER_CYCLE
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_output_counts_as_failed(short_runs, monkeypatch):
    honest = bench_run.run_op

    def shifted(main_fn, op, tmp):
        rc, texts = honest(main_fn, op, tmp)
        return rc, [_edit_csv(texts[0], 6, "f_num", lambda f: f + 1e-6)] + texts[1:]

    monkeypatch.setattr(bench_run, "run_op", shifted)
    result = bench_run.run("scan_stats", 5, 0.1, True)["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == wl.OPS_PER_CYCLE


def test_nonzero_exit_counts_as_failed_not_completed(short_runs, monkeypatch):
    honest = bench_run.run_op

    def first_fails(main_fn, op, tmp):
        if op == first:
            return 1, []
        return honest(main_fn, op, tmp)

    first = wl.make_ops("trajectory_oracles", 5)[0]
    monkeypatch.setattr(bench_run, "run_op", first_fails)
    out = bench_run.run("trajectory_oracles", 5, 0.1, False)
    assert out["result"]["correct"]
    assert out["result"]["attempted"] == wl.OPS_PER_CYCLE
    assert out["result"]["failed"] == 1
    assert out["info"]["completed"] == wl.OPS_PER_CYCLE - 1
    ops_per_s = out["result"]["metrics"]["ops_per_s"]["value"]
    assert ops_per_s == pytest.approx((wl.OPS_PER_CYCLE - 1) / out["info"]["timed_s"])


def test_traced_counts_repeat(short_runs):
    first = bench_run.run("trajectory_oracles", 2, 0.1, True)["result"]["metrics"]
    second = bench_run.run("trajectory_oracles", 2, 0.1, True)["result"]["metrics"]
    assert list(first) == [m[0] for m in tracing.PER_LAYER]
    for name, unit, how, _, _ in tracing.PER_LAYER:
        assert first[name]["unit"] == unit
        if how != "self_ms":
            assert first[name]["value"] == second[name]["value"], name
    assert first["hamiltonian.rhs_evals"]["value"] > 0
    assert first["kernel.assemblies"]["value"] == 2
    assert first["chf.residual_ms"]["value"] > 0
