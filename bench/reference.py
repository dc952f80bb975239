"""Output checks made apart from the program.

The reference determinant is built here from numpy's Gauss-Legendre rule
(`leggauss`), the kernel's 3x3 matrix representation and
`numpy.linalg.slogdet`.  It shares with the program only the contour
solutions in `tilde_psi_matrices`; the rational kernel with its Taylor band,
the Newton-built quadrature rule, the LU with sign tracking and the order
doubling are all bypassed.  Any convergent quadrature gives the same
determinant to exponential accuracy (Bornemann, Math. Comp. 79, 2010); the
reference order below is past convergence on every workload range (see
test_bench.py).

Each checker takes the parameters of one part of an op and the text of its
outputs and returns the list of its findings; an empty list means it passed.
"""
from __future__ import annotations

import json
import math

import numpy as np
from scipy.integrate import simpson

from pearceydet.pearcey import tilde_psi_matrices

import workloads as wl

REF_ORDER = 96

# Scan: |F - F_ref| <= SCAN_TOL + SCAN_ROUNDOFF * (1 + |F_ref|).  SCAN_TOL is
# the tolerance every scan in the workloads must be answered to (the CLI's
# default for gamma < 1); a `# tol:` line that reads otherwise is a finding,
# so a looser default cannot loosen the check.  The reference agrees with
# converged program values to <= 1e-10 at s = 12, gamma = 0.99.
SCAN_TOL = 1e-9
SCAN_ROUNDOFF = 1e-10

# Stats: route agreement and distance to the large-s expansion.  Measured
# over s in [4, 12]: routes agree to <= 6e-10 (the MGF variance, a finite
# difference), the expansion is off by <= 0.02.
TRACE_VS_REF = 1e-10         # trace route vs traces of the reference operator
MGF_MEAN_VS_TRACE = 1e-9     # finite-difference MGF route vs trace route
MGF_VAR_VS_TRACE = 1e-7
MEAN_VS_MU = 0.05            # |E N - mu(s)| for s in [4, 12]
VAR_VS_EXPANSION = 0.05      # |Var N - sigma^2(s) - var constant|
CLT_VS_REF = 1e-9            # distance vs its recomputation from reference F
CLT_T_GRID = np.linspace(-0.5, 0.5, 11)

# Trajectory: conservation and identity residuals over all 400 samples
# (measured <= 3e-14), and the integral representation (measured <= 3e-5
# relative for theta3(s0; rho) <= 16).
TRAJ_SAMPLES = 400
TRAJ_CONSTRAINT = 1e-10      # |p1 q1 + p2 q2 + p3 q3|
TRAJ_FIRST_INTEGRAL = 1e-10  # const2 column
TRAJ_IDENTITY = 1e-10        # dh_cross and action columns
TRAJ_ZERO_CURVATURE = 1e-10
TRAJ_IM_H = 1e-10
TRAJ_H_RECOMPUTED = 1e-12    # |H column - H(p, q; s) from the state columns| / (1 + |H|)
INTEGRAL_REP_REL = 2e-4      # |2 int Re H - (F(s0) - F(0.5))| / |F(s0) - F(0.5)|

# Oracles.
KERNEL_AGREEMENT = 1e-12     # pairwise, absolute (|K| <= 1 on the grid)
CHF_RESIDUAL = 1e-9

VAR_CONSTANT = (1.0 + math.log(4.5) + 0.5772156649015329) / math.pi ** 2
_RH_BAND = 1e-3


def parse_csv(text: str) -> tuple[dict[str, str], list[dict[str, float]]]:
    """('# key: value' metadata, rows of floats) of one CLI CSV output."""
    meta: dict[str, str] = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, sep, value = line[2:].partition(": ")
            if sep:
                meta[key] = value
        elif line:
            body.append(line.split(","))
    if not body:
        return meta, []
    cols = body[0]
    return meta, [dict(zip(cols, map(float, vals))) for vals in body[1:]
                  if len(vals) == len(cols)]


# ---------------------------------------------------------------- reference

def _psi_factors(x: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(v, u, A v) with v = psi(x) e1, u = (0 1 1) psi(x)^{-1}, psi' = A psi.

    psi^{-1} is taken as the adjugate over det(psi), which is constant in x;
    the adjugate avoids the cancellation a generic 3x3 solve has where the
    exponentially large columns dominate.
    """
    m = tilde_psi_matrices(x, rho)
    det = np.linalg.det(tilde_psi_matrices(np.zeros(1), rho))[0]
    cof = np.empty_like(m)
    for j in range(3):
        cj = [c for c in range(3) if c != j]
        for i in range(3):
            ri = [r for r in range(3) if r != i]
            cof[:, i, j] = (-1) ** (i + j) * (m[:, ri[0], cj[0]] * m[:, ri[1], cj[1]]
                                              - m[:, ri[0], cj[1]] * m[:, ri[1], cj[0]])
    u = (cof[:, :, 1] + cof[:, :, 2]) / det
    v = m[:, :, 0]
    av = np.stack([v[:, 1], v[:, 2], x * v[:, 0] + rho * v[:, 1]], axis=1)
    return v, u, av


def reference_kernel(x: np.ndarray, y: np.ndarray, rho: float) -> np.ndarray:
    """K(x_i, y_j) = u(y_j) . v(x_i) / (2 pi i (x_i - y_j)); u(x) . A v(x) / (2 pi i) at x = y."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    vx, _, avx = _psi_factors(x, rho)
    _, uy, _ = _psi_factors(y, rho)
    dxy = np.subtract.outer(x, y)
    same = dxy == 0.0
    k = (vx @ uy.T) / (2j * math.pi * np.where(same, 1.0, dxy))
    if same.any():
        i, j = np.nonzero(same)
        k[i, j] = (uy[j] * avx[i]).sum(axis=1) / (2j * math.pi)
    return k.real


class ReferenceOperator:
    """Symmetrized Nystrom matrix W^1/2 K W^1/2 of the reference kernel on (-s, s)."""

    def __init__(self, s: float, rho: float, n: int = REF_ORDER):
        nodes, weights = np.polynomial.legendre.leggauss(n)
        x = s * nodes
        sw = np.sqrt(s * weights)
        self.matrix = sw[:, None] * reference_kernel(x, x, rho) * sw[None, :]

    def logdet(self, gamma: float) -> float:
        sign, value = np.linalg.slogdet(np.eye(len(self.matrix)) - gamma * self.matrix)
        if sign <= 0:
            raise ArithmeticError("reference determinant came out non-positive")
        return float(value)

    def moments(self) -> tuple[float, float]:
        mean = float(np.trace(self.matrix))
        return mean, mean - float(np.sum(self.matrix * self.matrix.T))


class References:
    """Reference operators of one run, built once per (s, rho)."""

    def __init__(self) -> None:
        self._ops: dict[tuple[float, float], ReferenceOperator] = {}

    def operator(self, s: float, rho: float) -> ReferenceOperator:
        key = (float(s), float(rho))
        if key not in self._ops:
            self._ops[key] = ReferenceOperator(*key)
        return self._ops[key]

    def logdet(self, s: float, gamma: float, rho: float) -> float:
        return self.operator(s, rho).logdet(gamma)


# ----------------------------------------------------------------- checkers

def _close(name: str, got: float, want: float, bound: float) -> list[str]:
    if abs(got - want) <= bound:
        return []
    return [f"{name}: {got!r} vs {want!r} (|diff| {abs(got - want):.3e} > {bound:.1e})"]


def check_scan(params: dict, texts: list[str], refs: References) -> list[str]:
    meta, rows = parse_csv(texts[0])
    grid = np.linspace(wl.SCAN_S_MIN, wl.SCAN_S_MAX, wl.SCAN_S_STEPS)
    if len(rows) != len(grid) or "tol" not in meta:
        return [f"scan: {len(rows)} rows (want {len(grid)}), meta keys {sorted(meta)}"]
    found = []
    if float(meta["tol"]) != SCAN_TOL:
        found.append(f"scan: tol {meta['tol']} (want {SCAN_TOL:g})")
    f = np.array([row["f_num"] for row in rows])
    if np.abs(np.array([row["s"] for row in rows]) - grid).max() > 1e-12:
        found.append("scan: s column differs from the requested grid")
    if not (f < 0).all():
        found.append(f"scan: F not below 0: {f.max()!r}")
    if not (np.diff(f) < 0).all():
        found.append("scan: F not strictly decreasing in s")
    for s, fs in zip(grid, f):
        ref = refs.logdet(s, params["gamma"], params["rho"])
        found += _close(f"scan F(s={s:g})", fs, ref, SCAN_TOL + SCAN_ROUNDOFF * (1 + abs(ref)))
    return found


def check_stats(params: dict, texts: list[str], refs: References) -> list[str]:
    s, rho = params["s"], params["rho"]
    meta_m, rows_m = parse_csv(texts[0])
    _, rows_c = parse_csv(texts[1])
    if len(rows_m) != 1 or len(rows_c) != 1:
        return [f"stats: {len(rows_m)} moment rows and {len(rows_c)} clt rows (want 1 and 1)"]
    m, c = rows_m[0], rows_c[0]
    op_ref = refs.operator(s, rho)
    mean_ref, var_ref = op_ref.moments()
    mu = (3 * math.sqrt(3) / (4 * math.pi) * s ** (4 / 3)
          - math.sqrt(3) * rho / (2 * math.pi) * s ** (2 / 3))
    sigma2 = 4 / (3 * math.pi ** 2) * math.log(s)
    trace_tol = TRACE_VS_REF * (1 + mean_ref)
    found = []
    found += _close("mean_trace vs reference", m["mean_trace"], mean_ref, trace_tol)
    found += _close("var_trace vs reference", m["var_trace"], var_ref, trace_tol)
    found += _close("mean_mgf vs mean_trace", m["mean_mgf"], m["mean_trace"],
                    MGF_MEAN_VS_TRACE)
    found += _close("var_mgf vs var_trace", m["var_mgf"], m["var_trace"], MGF_VAR_VS_TRACE)
    found += _close("mu column", m["mu"], mu, 1e-12 * (1 + abs(mu)))
    found += _close("sigma2 column", m["sigma2"], sigma2, 1e-14)
    found += _close("var_const", float(meta_m.get("var_const", "nan")), VAR_CONSTANT, 1e-14)
    found += _close("mean vs mu(s)", m["mean_trace"], mu, MEAN_VS_MU)
    found += _close("var vs sigma^2(s) + constant", m["var_trace"], sigma2 + VAR_CONSTANT,
                    VAR_VS_EXPANSION)
    sigma = math.sqrt(sigma2)
    worst = 0.0
    for t in CLT_T_GRID:
        if t == 0.0:
            continue
        gamma = -math.expm1(t / sigma)
        mgf = math.exp(op_ref.logdet(gamma) - t * mu / sigma)
        worst = max(worst, abs(mgf - math.exp(t * t / 2)))
    found += _close("clt distance vs reference", c["distance"], worst, CLT_VS_REF)
    return found


def check_trajectory(params: dict, texts: list[str], refs: References) -> list[str]:
    s0, gamma, rho = params["s0"], params["gamma"], params["rho"]
    meta, rows = parse_csv(texts[0])
    if len(rows) != TRAJ_SAMPLES or meta.get("samples") != str(TRAJ_SAMPLES):
        return [f"trajectory: {len(rows)} rows, header says {meta.get('samples')} "
                f"(want {TRAJ_SAMPLES})"]
    col = {key: np.array([row[key] for row in rows]) for key in rows[0]}
    found = []
    if np.abs(col["s"] - np.linspace(s0, wl.TRAJ_S_END, TRAJ_SAMPLES)).max() > 1e-12:
        found.append("trajectory: s column differs from the requested sweep")
    p0, p1, p2, p3 = (col[f"re_p{k}"] + 1j * col[f"im_p{k}"] for k in range(4))
    q0, q1, q2, q3 = (col[f"re_q{k}"] + 1j * col[f"im_q{k}"] for k in range(4))
    s = col["s"]
    constraint = np.abs(p1 * q1 + p2 * q2 + p3 * q3).max()
    h = col["re_h"] + 1j * col["im_h"]
    bracket = p1 * q1 - p2 * q2 + p3 * q3
    h_ref = (math.sqrt(2) * (p0 * p2 * q1 + p3 * q0 * q2) + p1 * q2 + p2 * q3
             + s * p3 * q1 + bracket * bracket / (2 * s))
    h_err = (np.abs(h - h_ref) / (1 + np.abs(h_ref))).max()
    bounds = [("constraint |sum p_k q_k|", constraint, TRAJ_CONSTRAINT),
              ("max_constraint_drift", float(meta.get("max_constraint_drift", "nan")),
               TRAJ_CONSTRAINT),
              ("first integral const2", col["const2"].max(), TRAJ_FIRST_INTEGRAL),
              ("dh_cross", col["dh_cross"].max(), TRAJ_IDENTITY),
              ("action", col["action"].max(), TRAJ_IDENTITY),
              ("zero_curvature", col["zero_curvature"].max(), TRAJ_ZERO_CURVATURE),
              ("|Im H|", np.abs(col["im_h"]).max(), TRAJ_IM_H),
              ("H vs H(p, q; s)", h_err, TRAJ_H_RECOMPUTED)]
    for name, value, bound in bounds:
        if not value <= bound:
            found.append(f"trajectory {name}: {value:.3e} > {bound:.1e}")
    order = np.argsort(col["s"])
    integral = 2.0 * float(simpson(col["re_h"][order], x=col["s"][order]))
    delta_f = refs.logdet(s0, gamma, rho) - refs.logdet(wl.TRAJ_S_END, gamma, rho)
    found += _close("2 int Re H vs F(s0) - F(0.5)", integral, delta_f,
                    INTEGRAL_REP_REL * abs(delta_f))
    return found


def check_oracles(params: dict, texts: list[str], refs: References) -> list[str]:
    rho = params["rho"]
    _, rows = parse_csv(texts[0])
    xs = [params["x_lo"], params["x_hi"]]
    grid = [(x, y) for x in xs for y in xs]
    if len(rows) != len(grid):
        return [f"kernel: {len(rows)} rows (want {len(grid)})"]
    found = []
    for (x, y), row in zip(grid, rows):
        if (row["x"], row["y"]) != (x, y):
            found.append(f"kernel: row at ({row['x']}, {row['y']}), want ({x}, {y})")
            continue
        ref = float(reference_kernel(np.array([x]), np.array([y]), rho)[0, 0])
        values = {"k_rational": row["k_rational"], "k_integral": row["k_integral"],
                  "reference": ref}
        if abs(x - y) > _RH_BAND:
            values["k_rh"] = row["k_rh"]
        elif not math.isnan(row["k_rh"]):
            found.append(f"kernel: k_rh at ({x}, {y}) should be nan inside the band")
        names = sorted(values)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                found += _close(f"K({x}, {y}) {a} vs {b}", values[a], values[b],
                                KERNEL_AGREEMENT)
    report = json.loads(texts[1])
    result = report["results"][0]
    table = [v for ray in result["ray_residuals"].values() for v in ray.values()]
    if len(result["ray_residuals"]) != 6 or len(table) != 24:
        found.append(f"chf: {len(table)} residuals in {len(result['ray_residuals'])} rays "
                     "(want 24 in 6)")
    if result["beta_im"] != params["beta_im"]:
        found.append(f"chf: beta_im {result['beta_im']} (want {params['beta_im']})")
    worst = max(table, default=math.inf)
    if not worst <= CHF_RESIDUAL or result["max_ray_residual"] != worst:
        found.append(f"chf: jump residual {worst:.3e} (bound {CHF_RESIDUAL:.0e}), "
                     f"reported max {result['max_ray_residual']:.3e}")
    return found


CHECKERS = {"scan": check_scan, "stats": check_stats,
            "trajectory": check_trajectory, "oracles": check_oracles}


def check_op(op: wl.Op, texts: list[str], refs: References) -> list[str]:
    """Findings of every part of an op, each checked on its own outputs."""
    if len(texts) != len(op.argvs):
        return [f"{len(texts)} outputs for {len(op.argvs)} invocations"]
    found, start = [], 0
    for part in op.parts:
        stop = start + len(part.argvs)
        found += CHECKERS[part.kind](part.params, texts[start:stop], refs)
        start = stop
    return found
