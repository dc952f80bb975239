"""CLI-level benchmark of pearceydet: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload scan_stats --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
One client drives `pearceydet.cli.main` in a closed loop, in this process:
every op is three CLI invocations (see `workloads.py`), each written to a
file under `bench/out/` and read back.  After untimed warm-up ops the run
repeats the seeded op list in whole cycles until `--seconds` have passed and
the count of completed ops reaches the workload's minimum.  The outputs are
checked against `reference.py` after the timed phase.

`--trace 0` reports the end-to-end metrics: throughput and latency of the ops
that completed (exit code 0), the set-up time of a fresh interpreter (median
of several) and peak memory.
`--trace 1` reports the per-layer metrics of `tracing.py` instead.  The last
line of standard output is the result JSON; the lines before it describe the
environment and the run.  The exit code is nonzero, with no result line, when
the package or an output cannot be run at all.
"""
import os

# One BLAS/OpenMP thread, set before numpy loads here and inherited by the
# set-up interpreters: two OpenBLAS threads on two cores made op latency
# swing by a quarter between processes.  PEARCEY_THREADS=1 keeps the CLI's
# grid points sequential, so the run stays one client and the tracer's
# single span stack sees one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PEARCEY_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads as wl  # noqa: E402

# Set-up probes per untraced run: with three, setup_s spread by 0.24 of its
# median over ten runs, next to a bound of 0.25.
SETUP_REPS = 7
WARMUP_OPS = 2
SETUP_TIMEOUT_S = 120
# Tail percentile per workload, with the op count that leaves at least ten
# ops beyond it; a run goes on in whole cycles until it has that many.
TAIL_PERCENTILE = {"scan_stats": 90, "trajectory_oracles": 80}
MIN_OPS = {name: math.ceil(10 / (1 - p / 100)) + 1 for name, p in TAIL_PERCENTILE.items()}

_PROBE = ("import json, sys\n"
          "sys.path.insert(0, sys.argv[1])\n"
          "from pearceydet.cli import main\n"
          "for argv in json.loads(sys.argv[2]):\n"
          "    rc = main(argv)\n"
          "    if rc:\n"
          "        sys.exit(rc)\n")


class BenchError(Exception):
    """The benchmark cannot run here (missing package, a cold op that fails)."""


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "git_sha": _git_sha()}


def _with_out(argvs, tmp: Path) -> list[list[str]]:
    return [list(argv) + ["--out", str(tmp / f"out{i}.txt")] for i, argv in enumerate(argvs)]


def setup_seconds(op: wl.Op, tmp: Path, reps: int) -> list[float]:
    """Wall time of fresh interpreters that import pearceydet and run `op` cold."""
    cmd = [sys.executable, "-c", _PROBE, str(SRC), json.dumps(_with_out(op.argvs, tmp))]
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"cold op exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return times


def run_op(main, op: wl.Op, tmp: Path) -> tuple[int, list[str]]:
    """Run one op through the CLI; (exit code, output texts)."""
    texts = []
    for argv in _with_out(op.argvs, tmp):
        try:
            rc = main(argv)
        except Exception as exc:  # a crash inside the program is a failed op
            print(f"# {argv[0]} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            return -1, texts
        if rc != 0:
            return rc, texts
        texts.append(Path(argv[-1]).read_text())
    return 0, texts


def check_outputs(ops: list[wl.Op], outputs: list[dict]) -> tuple[int, dict[int, list[str]]]:
    """(ops that gave a wrong output, findings per op index).

    `outputs[i]` maps each distinct output of op i to the times it was seen;
    identical outputs of one op are checked once.
    """
    import reference

    refs = reference.References()
    wrong, findings = 0, {}
    for idx, (op, seen) in enumerate(zip(ops, outputs)):
        for texts, count in seen.items():
            try:
                found = reference.check_op(op, list(texts), refs)
            except (KeyError, ValueError, IndexError, TypeError) as exc:
                found = [f"unreadable output: {type(exc).__name__}: {exc}"]
            if found:
                wrong += count
                findings.setdefault(idx, found)
    return wrong, findings


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: set-up probes (untraced only), warm-up, timed cycles, checks."""
    ops = wl.make_ops(workload, seed)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        return _run(workload, ops, seconds, trace, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(workload, ops, seconds, trace, tmp) -> dict:
    import pearceydet
    from pearceydet.cli import main
    if Path(pearceydet.__file__).resolve().parent.parent != SRC:
        raise BenchError(f"pearceydet imported from {pearceydet.__file__}, not {SRC}")

    setup = [] if trace else setup_seconds(ops[0], tmp, SETUP_REPS)
    for op in ops[:WARMUP_OPS]:
        run_op(main, op, tmp)

    tracer, call = None, run_op
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        call = tracer.wrap(run_op, "cli.op")
        tracer.install()
    outputs: list[dict] = [{} for _ in ops]   # per op: output texts -> times seen
    # Latencies of completed ops only: an op that exits nonzero is neither
    # throughput nor a latency sample.
    latencies, by_op, attempted, failed_rc = [], [[] for _ in ops], 0, 0
    t_start = time.perf_counter()
    try:
        while True:
            for idx, op in enumerate(ops):
                t0 = time.perf_counter()
                rc, texts = call(main, op, tmp)
                dt = time.perf_counter() - t0
                attempted += 1
                if rc != 0:
                    failed_rc += 1
                    continue
                latencies.append(dt)
                by_op[idx].append(dt)
                outputs[idx][tuple(texts)] = outputs[idx].get(tuple(texts), 0) + 1
            elapsed = time.perf_counter() - t_start
            if not latencies:
                raise BenchError("no op of the first cycle completed")
            if elapsed >= seconds and len(latencies) >= MIN_OPS[workload]:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    wrong, findings = check_outputs(ops, outputs)
    completed = len(latencies)
    lat_ms = np.array(latencies) * 1e3
    pct = TAIL_PERCENTILE[workload]
    p50, tail = (float(v) for v in np.percentile(lat_ms, [50, pct]))
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed_rc + wrong}
    if trace:
        result["metrics"] = tracer.metrics(attempted)
    else:
        result["metrics"] = {
            "ops_per_s": {"value": completed / elapsed, "unit": "1/s"},
            "op_p50_ms": {"value": p50, "unit": "ms"},
            "op_tail_ms": {"value": tail, "unit": "ms"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    info = {"workload": workload, "cycle": len(ops), "ops": attempted, "completed": completed,
            "timed_s": elapsed, "ops_per_s": completed / elapsed, "op_p50_ms": p50,
            "tail_percentile": pct,
            "ops_beyond_tail": int((lat_ms > tail).sum()), "setup_runs_s": setup,
            "findings": {str(k): v for k, v in findings.items()},
            "op_median_ms": [round(statistics.median(v) * 1e3, 3) if v else None
                             for v in by_op],
            "params": [{p.kind: p.params for p in op.parts} for op in ops]}
    return {"result": result, "info": info, "tracer": tracer}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment()
    print("# env: " + json.dumps(env, sort_keys=True), flush=True)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, ImportError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark cannot run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    info, result, tracer = out["info"], out["result"], out["tracer"]
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(
        json.dumps({"env": env, "args": vars(args), "info": info, "result": result},
                   indent=1) + "\n")
    if tracer is not None:
        tracer.write_jsonl(stem.with_suffix(".spans.jsonl"))
    print("# run: " + json.dumps({k: v for k, v in info.items() if k != "params"}), flush=True)
    for name, m in result["metrics"].items():
        extra = ""
        if name == "op_tail_ms":
            extra = f"  (p{info['tail_percentile']} of {info['completed']} ops)"
        print(f"# {name} = {m['value']:.6g} {m['unit']}{extra}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
