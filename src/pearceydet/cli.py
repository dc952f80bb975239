"""Command-line front end: every computation as a reproducible, scriptable run.

All output is deterministic for a given flag set.  CSV files start with
'# key: value' metadata lines and carry 17 significant digits; JSON output is
{"config": ..., "results": [...], "diagnostics": {...}}.  Exit codes: 0 on
success, 1 on numerical failure (machine-readable JSON on stderr), 2 on usage
errors.  PEARCEY_THREADS caps grid parallelism (default 1, fully sequential).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .errors import NumericsError
from .params import ModelParams
from . import asymptotics as asym
from . import chf as chf_mod
from . import hamiltonian as ham
from .fredholm import fredholm_logdet, logdet_converged, moments_mgf, moments_trace
from .kernel import kernel_integral, kernel_point, kernel_rh


def _max_workers() -> int:
    raw = os.environ.get("PEARCEY_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _grid_map(fn, items):
    workers = _max_workers()
    if workers == 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _emit(args, rows: list[dict], diagnostics: dict) -> None:
    config = {k: v for k, v in vars(args).items()
              if k not in ("func", "out") and v is not None}
    if args.format == "json":
        payload = json.dumps({"config": config, "results": rows,
                              "diagnostics": diagnostics}, indent=2, sort_keys=True)
        _write(args.out, payload + "\n")
        return
    lines = [f"# pearceydet {__version__}"]
    for key in sorted(config):
        lines.append(f"# {key}: {config[key]}")
    for key in sorted(diagnostics):
        lines.append(f"# {key}: {diagnostics[key]}")
    if rows:
        cols = list(rows[0].keys())
        lines.append(",".join(cols))
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in cols))
    _write(args.out, "\n".join(lines) + "\n")


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _s_grid(args) -> np.ndarray:
    if args.s is not None:
        return np.array([args.s])
    if args.s_min is None or args.s_max is None or args.s_steps is None:
        raise NumericsError("need either --s or --s-min/--s-max/--s-steps")
    return np.linspace(args.s_min, args.s_max, args.s_steps)


def _cmd_kernel(args) -> None:
    xs = np.linspace(args.s_min if args.s_min is not None else -3.0,
                     args.s_max if args.s_max is not None else 3.0,
                     args.s_steps or 9)
    oracle = args.oracle or "rational"
    kinds = ("rational", "integral", "rh") if oracle == "all" else (oracle,)

    def one(pt):
        x, y = pt
        row = {"x": float(x), "y": float(y)}
        for kind in kinds:
            if kind == "rational":
                row["k_rational"] = kernel_point(x, y, args.rho)
            elif kind == "integral":
                row["k_integral"] = kernel_integral(x, y, args.rho)
            elif abs(x - y) > 1e-3:
                row["k_rh"] = kernel_rh(x, y, args.rho)
            else:
                row["k_rh"] = math.nan
        return row

    pts = [(x, y) for x in xs for y in xs]
    rows = _grid_map(one, pts)
    diagnostics = {"grid_points": len(pts)}
    if args.oracle is None:         # config names the oracle only when it was given
        diagnostics["oracle"] = oracle
    _emit(args, rows, diagnostics)


def _default_tol(gamma: float) -> float:
    # the undeformed determinant carries a ~1e-7 roundoff floor at large s
    return 1e-6 if gamma == 1.0 else 1e-9


def _cmd_det(args) -> None:
    gamma = args.gamma
    if args.nu is not None:
        gamma = -math.expm1(-2.0 * math.pi * args.nu)
    params = ModelParams(max(gamma, 0.0), args.rho)
    if args.quad_order:
        res = fredholm_logdet(args.s, params, args.quad_order, gamma=gamma)
    else:
        res = logdet_converged(args.s, params, args.tol or _default_tol(gamma),
                               gamma=gamma)
    rows = [{"s": args.s, "gamma": gamma, "rho": args.rho, "f": res.f}]
    _emit(args, rows, {"order": res.order, "err_est": res.err_est})


def _cmd_scan(args) -> None:
    params = ModelParams(args.gamma, args.rho)
    tol = args.tol or _default_tol(args.gamma)

    def one(s):
        f_num = logdet_converged(s, params, tol).f
        row = {"s": float(s), "f_num": f_num}
        if params.gamma < 1.0:
            gap = asym.f_large_gap(s, params)
            row.update(f_asy=gap.total, leading=gap.leading, subleading=gap.subleading,
                       log_term=gap.log_term, constant=gap.constant)
        else:
            row["f_asy"] = asym.f_gamma1(s, params.rho)
        row["err"] = abs(f_num - row["f_asy"])
        return row

    rows = _grid_map(one, _s_grid(args))
    _emit(args, rows, {"tol": tol})


def _cmd_hamiltonian(args) -> None:
    params = ModelParams(args.gamma, args.rho)
    s_hi = args.s_max if args.s_max is not None else 10.0
    s_lo = args.s_min if args.s_min is not None else 0.5
    traj = ham.asymptotic_trajectory(params, s_from=s_hi, s_to=s_lo,
                                     tol=args.tol or 1e-10)
    rows = ham.trajectory_rows(traj, params)
    _emit(args, rows, {"anchor": s_hi, "samples": len(rows),
                       "max_constraint_drift": float(traj.constraint_drift().max())})


def _cmd_moments(args) -> None:
    n = args.quad_order or 384

    def one(s):
        mean_t, var_t = moments_trace(s, args.rho, n)
        mean_m, var_m = moments_mgf(s, args.rho, min(n, 256))
        stats = asym.counting_stats(s, args.rho)
        return {"s": float(s), "mean_trace": mean_t, "var_trace": var_t,
                "mean_mgf": mean_m, "var_mgf": var_m,
                "mu": stats.mu, "sigma2": stats.sigma2,
                "var_minus_sigma2": var_t - stats.sigma2}

    rows = _grid_map(one, _s_grid(args))
    _emit(args, rows, {"quad_order": n, "var_const": asym.VAR_CONSTANT})


def _cmd_clt(args) -> None:
    t_grid = np.linspace(-0.5, 0.5, 11)

    def one(s):
        return {"s": float(s), "distance": asym.clt_distance(s, args.rho, t_grid)}

    rows = _grid_map(one, _s_grid(args))
    _emit(args, rows, {"t_grid": "linspace(-0.5,0.5,11)"})


def _cmd_chf_verify(args) -> None:
    beta = 1j * args.beta_im
    report = chf_mod.verification_report(beta)
    if args.format == "csv":
        rows = [{"ray": ray, "r": float(r), "residual": res}
                for ray, tbl in report["ray_residuals"].items()
                for r, res in tbl.items()]
        _emit(args, rows, {"beta_im": args.beta_im,
                           "max_ray_residual": report["max_ray_residual"]})
    else:
        _write(args.out, json.dumps({"config": {"beta_im": args.beta_im},
                                     "results": [report],
                                     "diagnostics": {}}, indent=2, sort_keys=True) + "\n")


def _cmd_selftest(args) -> None:
    from .acceptance import run_all
    results = run_all(verbose=True)
    if not all(r.ok for r in results):
        raise NumericsError("acceptance criteria failed: "
                            + ", ".join(r.name for r in results if not r.ok))


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--gamma", type=float, default=0.5)
    sub.add_argument("--rho", type=float, default=0.0)
    sub.add_argument("--s", type=float)
    sub.add_argument("--s-min", dest="s_min", type=float)
    sub.add_argument("--s-max", dest="s_max", type=float)
    sub.add_argument("--s-steps", dest="s_steps", type=int)
    sub.add_argument("--nu", type=float)
    sub.add_argument("--quad-order", dest="quad_order", type=int)
    sub.add_argument("--tol", type=float)
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", type=str)
    sub.add_argument("--oracle", choices=("rational", "integral", "rh", "all"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pearceydet",
        description="Deformed Pearcey determinant computations")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    commands = [
        ("kernel", _cmd_kernel, "kernel values on a grid (all representations optional)"),
        ("det", _cmd_det, "single log-determinant F(s; gamma, rho)"),
        ("scan", _cmd_scan, "F over an s-grid with asymptotic columns"),
        ("hamiltonian", _cmd_hamiltonian, "trajectory with identity residuals (CSV)"),
        ("moments", _cmd_moments, "trace and MGF moments vs mu/sigma^2"),
        ("clt", _cmd_clt, "normal-approximation distance table"),
        ("chf-verify", _cmd_chf_verify, "parametrix jump/expansion report"),
        ("selftest", _cmd_selftest, "run the acceptance suite"),
    ]
    for name, fn, help_text in commands:
        sub = subs.add_parser(name, help=help_text)
        _add_common(sub)
        if name == "chf-verify":
            sub.add_argument("--beta-im", dest="beta_im", type=float, default=0.11)
        sub.set_defaults(func=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except NumericsError as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__,
                                     "message": str(exc)}) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
