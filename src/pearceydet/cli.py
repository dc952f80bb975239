"""Command-line front end: every computation as a reproducible, scriptable run.

Each subcommand takes only the flags its handler reads (the ``_COMMANDS``
table; README lists them).  All output is deterministic for a given flag set.
CSV files start with '# key: value' metadata lines, one per key, and carry 17
significant digits; JSON output is {"config": ..., "results": [...],
"diagnostics": {...}}.  Exit codes: 0 on success, 1 on numerical failure
(machine-readable JSON on stderr), 2 on usage errors, which include a flag the
subcommand does not take.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import ConvergenceError, NumericsError
from .params import ModelParams
from . import asymptotics as asym
from . import chf as chf_mod
from .fredholm import (_N_START, _check_args, fredholm_logdet, logdet_converged, moments,
                       moments_mgf, moments_trace)
from .kernel import DIAG_BAND_HALF_WIDTH, _check_domain, kernel_integral, kernel_point, kernel_rh


def _emit(args, rows: list[dict], diagnostics: dict) -> None:
    config = {k: v for k, v in vars(args).items()
              if k not in ("func", "out") and v is not None}
    # a diagnostic that restates a given flag (--tol, --oracle, ...) is written once
    diagnostics = {k: v for k, v in diagnostics.items() if k not in config}
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
        # one format per column, from the first row: a column keeps its type
        fmt = ",".join("%.17g" if isinstance(v, float) else "%s" for v in rows[0].values())
        lines.extend(fmt % tuple(map(row.__getitem__, cols)) for row in rows)
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
    lo = args.s_min if args.s_min is not None else -3.0
    hi = args.s_max if args.s_max is not None else 3.0
    # a non-finite end gives NaN points, which the kernel entries reject: each
    # checks its own domain, |rho| <= 4 and |x|, |y| <= 12
    with np.errstate(invalid="ignore"):
        xs = np.linspace(lo, hi, 9 if args.s_steps is None else args.s_steps)
    oracle = args.oracle or "rational"
    kinds = ("rational", "integral", "rh") if oracle == "all" else (oracle,)
    xg, yg = (g.ravel() for g in np.meshgrid(xs, xs, indexing="ij"))
    k_int = kernel_integral(xg, yg, args.rho) if "integral" in kinds else None

    def one(i):
        x, y = xg[i], yg[i]
        row = {"x": float(x), "y": float(y)}
        for kind in kinds:
            if kind == "rational":
                row["k_rational"] = kernel_point(x, y, args.rho)
            elif kind == "integral":
                row["k_integral"] = float(k_int[i])
            elif abs(x - y) > DIAG_BAND_HALF_WIDTH:
                row["k_rh"] = kernel_rh(x, y, args.rho)
            else:
                # the matrix form is singular on the band, where its domain still holds
                _check_domain("kernel_rh", x, y, args.rho)
                row["k_rh"] = math.nan
        return row

    _emit(args, [one(i) for i in range(len(xg))], {"grid_points": len(xg), "oracle": oracle})


def _default_tol(gamma: float) -> float:
    # at gamma = 1 rounding sets a floor under the doubling difference that
    # grows with s: F spreads over n in [64, 512] by 5.9e-10 at s = 8, 7.5e-8
    # at s = 10 and 1.7e-4 at s = 12 (rho = 0): 1e-6 sits above it up to
    # s = 10 but below it at s = 12, where the doubling raises ConvergenceError
    return 1e-6 if gamma == 1.0 else 1e-9


def _cmd_det(args) -> None:
    if args.nu is not None:
        # the gamma used replaces the --gamma default in the metadata too
        args.gamma = -math.expm1(-2.0 * math.pi * args.nu)
    if args.quad_order is not None:
        res = fredholm_logdet(args.s, args.gamma, args.rho, args.quad_order)
    else:
        tol = _default_tol(args.gamma) if args.tol is None else args.tol
        [res] = logdet_converged([(args.s, args.gamma)], args.rho, tol)
    rows = [{"s": args.s, "gamma": args.gamma, "rho": args.rho, "f": res.f}]
    _emit(args, rows, {"order": res.order, "err_est": res.err_est})


def _cmd_scan(args) -> None:
    params = ModelParams(args.gamma, args.rho)
    tol = _default_tol(args.gamma) if args.tol is None else args.tol
    # the Barnes-G constant depends on gamma alone: once per scan, not per s
    constant = asym.gap_constant(params) if params.gamma < 1.0 else None

    grid = _s_grid(args)
    dets = logdet_converged([(s, params.gamma) for s in grid], params.rho, tol)

    def one(s, f_num):
        row = {"s": float(s), "f_num": f_num}
        if params.gamma < 1.0:
            gap = asym.f_large_gap(s, params, constant)
            row.update(f_asy=gap.total, leading=gap.leading, subleading=gap.subleading,
                       log_term=gap.log_term, constant=gap.constant)
        else:
            row["f_asy"] = asym.f_gamma1(s, params.rho)
        row["err"] = abs(f_num - row["f_asy"])
        return row

    _emit(args, [one(s, det.f) for s, det in zip(grid, dets)], {"tol": tol})


def _cmd_hamiltonian(args) -> None:
    from . import hamiltonian as ham   # loads scipy.integrate, which no other command needs
    params = ModelParams(args.gamma, args.rho)
    s_hi = args.s_max if args.s_max is not None else 10.0
    s_lo = args.s_min if args.s_min is not None else 0.5
    traj = ham.asymptotic_trajectory(params, s_from=s_hi, s_to=s_lo,
                                     tol=1e-10 if args.tol is None else args.tol)
    rows = ham.trajectory_rows(traj, params)
    _emit(args, rows, {"anchor": s_hi, "samples": len(rows),
                       "max_constraint_drift": float(traj.constraint_drift().max()),
                       "steps": traj.steps, "nfev": traj.nfev, "min_step": traj.min_step,
                       "anchor_order": traj.anchor_order, "anchor_err": traj.anchor_err})


def _cmd_moments(args) -> None:
    n = args.quad_order
    grid = _s_grid(args)
    # every s of the grid is checked before any quadrature: the kernel range
    # and |rho| <= 4 here, then s >= 1 in counting_stats
    for s in grid:
        _check_args(s, 1.0, args.rho, _N_START if n is None else n)
    stats = [asym.counting_stats(s, args.rho) for s in grid]

    def one(s, st):
        # the routes are passed by this module's names, which the benchmark's tracer wraps
        res = moments(s, args.rho, n, trace=moments_trace, mgf=moments_mgf)
        (mean_t, var_t), (mean_m, var_m) = res.trace, res.mgf
        # Var N(s) > 0 always; a fixed --quad-order too coarse can drive either route negative
        if not all(v > 0.0 for v in (mean_t, var_t, mean_m, var_m)):
            raise ConvergenceError(f"non-positive moment at s = {s}, quad order {res.order}: "
                                   f"mean {mean_t:.6g}/{mean_m:.6g}, "
                                   f"variance {var_t:.6g}/{var_m:.6g} (trace/mgf)")
        return {"s": float(s), "order": res.order,
                "mean_trace": mean_t, "var_trace": var_t, "err_trace": res.err_trace,
                "mean_mgf": mean_m, "var_mgf": var_m, "err_mgf": res.err_mgf,
                "mu": st.mu, "sigma2": st.sigma2,
                "var_minus_sigma2": var_t - st.sigma2}

    _emit(args, [one(s, st) for s, st in zip(grid, stats)], {"var_const": asym.VAR_CONSTANT})


def _cmd_clt(args) -> None:
    t_grid = np.linspace(-0.5, 0.5, 11)
    rows = [{"s": float(s), "distance": asym.clt_distance(s, args.rho, t_grid)}
            for s in _s_grid(args)]
    _emit(args, rows, {"t_grid": "linspace(-0.5,0.5,11)"})


def _cmd_chf_verify(args) -> None:
    report = chf_mod.verification_report(1j * args.beta_im)
    if args.format == "json":
        _emit(args, [report], {})
        return
    rows = [{"ray": ray, "r": float(r), "residual": res}
            for ray, tbl in report["ray_residuals"].items()
            for r, res in tbl.items()]
    _emit(args, rows, {"max_ray_residual": report["max_ray_residual"]})


def _cmd_selftest(args) -> None:
    from .acceptance import run_all
    results = run_all()
    if not all(r.ok for r in results):
        raise NumericsError("acceptance criteria failed: "
                            + ", ".join(r.name for r in results if not r.ok))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


_FLAGS = {
    "s": {"type": float},
    "gamma": {"type": float, "default": 0.5},
    "nu": {"type": float},
    "rho": {"type": float, "default": 0.0},
    "s-min": {"type": float},
    "s-max": {"type": float},
    "s-steps": {"type": _positive_int},
    "quad-order": {"type": _positive_int},
    "tol": {"type": float},
    "oracle": {"choices": ("rational", "integral", "rh", "all")},
    "beta-im": {"type": float, "default": 0.11},
    "format": {"choices": ("csv", "json"), "default": "csv"},
    "out": {"type": str},
}

# each subcommand takes exactly the flags its handler reads
_COMMANDS = (
    ("kernel", _cmd_kernel, "kernel values on a grid (all representations optional)",
     ("rho", "s-min", "s-max", "s-steps", "oracle", "format", "out")),
    ("det", _cmd_det, "single log-determinant F(s; gamma, rho)",
     ("s", "gamma", "nu", "rho", "quad-order", "tol", "format", "out")),
    ("scan", _cmd_scan, "F over an s-grid with asymptotic columns",
     ("gamma", "rho", "s", "s-min", "s-max", "s-steps", "tol", "format", "out")),
    ("hamiltonian", _cmd_hamiltonian, "trajectory with identity residuals (CSV)",
     ("gamma", "rho", "s-min", "s-max", "tol", "format", "out")),
    ("moments", _cmd_moments, "trace and MGF moments vs mu/sigma^2",
     ("rho", "s", "s-min", "s-max", "s-steps", "quad-order", "format", "out")),
    ("clt", _cmd_clt, "normal-approximation distance table",
     ("rho", "s", "s-min", "s-max", "s-steps", "format", "out")),
    ("chf-verify", _cmd_chf_verify, "parametrix jump/expansion report",
     ("beta-im", "format", "out")),
    ("selftest", _cmd_selftest, "run the acceptance suite", ()),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing never modifies it, and each
    parse starts from a fresh namespace filled with the flags' defaults."""
    parser = argparse.ArgumentParser(
        prog="pearceydet",
        description="Deformed Pearcey determinant computations")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_text, flags in _COMMANDS:
        sub = subs.add_parser(name, help=help_text, allow_abbrev=False)
        # det's --nu sets gamma, so the two exclude each other
        group = sub.add_mutually_exclusive_group() if name == "det" else None
        for flag in flags:
            # det is the one grid-less command: its s has no default
            target = group if group is not None and flag in ("gamma", "nu") else sub
            target.add_argument(f"--{flag}", required=(name, flag) == ("det", "s"),
                                **_FLAGS[flag])
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
