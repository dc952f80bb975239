"""The acceptance suite: every exit criterion as a callable check.

Each criterion returns a CriterionResult with the measured numbers in
``detail`` so failures are diagnosable from the one-line report.  The
tolerances are pinned here, not in the tests.
"""
from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .params import ModelParams
from . import asymptotics as asym
from . import hamiltonian as ham
from .chf import chf_origin_expansion, verification_report
from .fredholm import (
    fredholm_logdet,
    logdet_converged,
    moments,
    moments_operator,
    moments_trace,
    resolvent_boundary_trace,
)
from .kernel import DIAG_BAND_HALF_WIDTH, kernel_integral, kernel_point, kernel_rh
from .pearcey import _p_bundle, _q_bundle
from .specfun import EULER_GAMMA, barnes_ln_g, digamma, kummer_phi, kummer_psi_b1, ln_gamma


@dataclass
class CriterionResult:
    name: str
    ok: bool
    detail: str
    extras: dict | None = None


def criterion_1_kernel_triple_agreement() -> CriterionResult:
    grid = np.linspace(-3.0, 3.0, 9)
    xs, ys = (g.ravel() for g in np.meshgrid(grid, grid, indexing="ij"))
    off = np.abs(xs - ys) >= DIAG_BAND_HALF_WIDTH
    xs, ys = xs[off], ys[off]
    worst = 0.0
    for rho in (-1.0, 0.0, 1.0):
        for x, y, ki in zip(xs, ys, kernel_integral(xs, ys, rho)):
            kr = kernel_point(float(x), float(y), rho)
            kh = kernel_rh(float(x), float(y), rho)
            worst = max(worst, abs(kr - ki), abs(kr - kh), abs(ki - kh))
    return CriterionResult("1 kernel triple agreement", worst <= 1e-7,
                           f"max pairwise diff {worst:.3e} (tol 1e-7)")


def criterion_2_pearcey_ode_residuals() -> CriterionResult:
    xs = np.linspace(-10.0, 10.0, 41)
    worst = 0.0
    for rho in (-1.0, 0.0, 1.0):
        pb = _p_bundle(xs, rho, kmax=3)
        res_p = np.abs(pb[3] - xs * pb[0] - rho * pb[1]).max()
        qb = _q_bundle(xs, rho, kmax=3)
        res_q = np.abs(qb[3] + xs * qb[0] - rho * qb[1]).max()
        worst = max(worst, res_p, res_q)
    return CriterionResult("2 pearcey ODE residuals", worst <= 1e-7,
                           f"max residual {worst:.3e} (tol 1e-7)")


def criterion_3_determinant_sanity() -> CriterionResult:
    checks = []
    for s in (1.0, 4.0):
        for rho in (0.0, 1.0):
            checks.append(fredholm_logdet(s, 0.0, rho, 32).f == 0.0)
    s_grid = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    g_grid = [0.3, 0.5, 0.7, 0.9, 1.0]
    f_tab = {(s, g): fredholm_logdet(s, g, 0.0, 128).f
             for s in s_grid for g in g_grid}
    checks.append(all(f < 0.0 for f in f_tab.values()))
    checks.append(all(f_tab[(s2, g)] < f_tab[(s1, g)]
                      for g in g_grid for s1, s2 in zip(s_grid, s_grid[1:])))
    checks.append(all(f_tab[(s, g2)] < f_tab[(s, g1)]
                      for s in s_grid for g1, g2 in zip(g_grid, g_grid[1:])))
    worst_doubling = 0.0
    for s in (2.0, 6.0):
        for g in (0.5, 0.9):
            worst_doubling = max(worst_doubling,
                                 abs(fredholm_logdet(s, g, 0.0, 256).f
                                     - fredholm_logdet(s, g, 0.0, 128).f))
    checks.append(worst_doubling <= 1e-10)
    return CriterionResult("3 determinant sanity", all(checks),
                           f"zero/sign/monotone {checks[:-1]}, doubling {worst_doubling:.2e}")


def criterion_4_resolvent_identity() -> CriterionResult:
    h = 1e-3
    worst = 0.0
    for s in (2.0, 3.0, 4.0):
        for g in (0.3, 0.7):
            fd = (fredholm_logdet(s + h, g, 0.0, 128).f
                  - fredholm_logdet(s - h, g, 0.0, 128).f) / (2.0 * h)
            rt = resolvent_boundary_trace(s, ModelParams(g, 0.0), 128)
            worst = max(worst, abs(fd - rt))
    return CriterionResult("4 resolvent identity", worst <= 1e-6,
                           f"max |dF/ds - trace| {worst:.3e} (tol 1e-6)")


def criterion_5_large_gap_law() -> CriterionResult:
    p = ModelParams(0.5, 0.0)
    s_grid = [4.0, 6.0, 8.0, 10.0]
    errs = []
    dets = logdet_converged([(s, p.gamma) for s in s_grid], p.rho, 1e-10)
    for s, det in zip(s_grid, dets):
        f_num = det.f
        gap = asym.f_large_gap(s, p)
        errs.append(abs(f_num - gap.total))
        if s == 10.0:
            err_full = errs[-1]
            err_noconst = abs(f_num - (gap.total - gap.constant))
    monotone = all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    slope = float(np.polyfit(np.log(s_grid), np.log(errs), 1)[0])
    slope_ok = -1.1 <= slope <= -0.35
    const_ok = err_noconst >= 10.0 * err_full
    ok = monotone and slope_ok and const_ok
    return CriterionResult("5 large-gap law with constant", ok,
                           f"errs {['%.3e' % e for e in errs]} monotone={monotone}, "
                           f"slope {slope:.3f} ok={slope_ok}, "
                           f"constant improvement {err_noconst / err_full:.1f}x ok={const_ok}",
                           extras={"monotone": monotone, "slope_ok": slope_ok,
                                   "const_ok": const_ok, "errs": errs})


def criterion_6_h_asymptotics() -> CriterionResult:
    p = ModelParams(0.5, 0.0)
    s = 10.0
    half_trace = 0.5 * resolvent_boundary_trace(s, p, 256)
    h_asy = asym.h_large_s(s, p)
    beta_i = (p.beta * 1j).real
    osc = -2.0 * math.sqrt(3.0) * beta_i / (9.0 * s) * math.cos(
        2.0 * asym.vartheta(s, p))
    rel_full = abs(half_trace - h_asy) / abs(half_trace)
    rel_noosc = abs(half_trace - (h_asy - osc)) / abs(half_trace)
    ok = rel_full <= 2e-2 and rel_full < rel_noosc
    return CriterionResult("6 H asymptotics", ok,
                           f"rel {rel_full:.3e} (tol 2e-2), without cos term {rel_noosc:.3e}")


def criterion_7_trajectory_suite() -> CriterionResult:
    p = ModelParams(0.5, 0.0)
    traj = ham.asymptotic_trajectory(p, s_from=10.0, s_to=0.5, tol=1e-11)
    drift = float(traj.constraint_drift().max())
    im_h = float(np.abs(traj.h.imag).max())
    rep = ham.identity_report(traj, p)
    dh_cross = float(np.nanmax(rep["dh_cross"]))
    zc = float(np.nanmax(rep["zero_curvature"]))
    coupled = ham.coupled_p0q0_residual(traj, p)
    cp = max(float(coupled["third_order"].max()),
             float(coupled["second_order"].max()))
    h_rel = 0.0
    for s in (2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0):
        ht = float(traj.h_at(np.array([s]))[0].real)
        hf = 0.5 * resolvent_boundary_trace(s, p, 192)
        h_rel = max(h_rel, abs(ht - hf) / abs(hf))
    ok = (drift <= 1e-6 and im_h <= 1e-6 and dh_cross <= 1e-9
          and zc <= 1e-8 and cp <= 1e-6 and h_rel <= 0.02)
    return CriterionResult("7 ODE trajectory suite", ok,
                           f"drift {drift:.1e}, |Im H| {im_h:.1e}, dH forms {dh_cross:.1e}, "
                           f"zero-curvature {zc:.1e}, coupled {cp:.1e}, H vs F' {h_rel:.1e}")


def criterion_8_integral_representation() -> CriterionResult:
    p = ModelParams(0.5, 0.0)
    out = ham.integral_representation_check(0.5, 4.0, p, s_anchor=10.0)
    rel = out["discrepancy"] / abs(out["delta_f"])
    within = rel <= 0.03
    disc8 = ham.integral_representation_check(0.5, 4.0, p, s_anchor=8.0)["discrepancy"]
    disc12 = ham.integral_representation_check(0.5, 4.0, p, s_anchor=12.0)["discrepancy"]
    shrinks = disc12 < disc8
    return CriterionResult("8 integral representation", within and shrinks,
                           f"rel discrepancy {rel:.3e} (tol 3e-2) ok={within}; "
                           f"anchor sweep 8->12: {disc8:.3e} -> {disc12:.3e} shrinks={shrinks}",
                           extras={"within": within, "shrinks": shrinks, "rel": rel,
                                   "disc8": disc8, "disc12": disc12})


def criterion_9_counting_statistics() -> CriterionResult:
    res = moments(3.0, 0.0)
    route_diff = max(abs(m - t) / t for t, m in zip(res.trace, res.mgf))
    agree = route_diff <= 1e-11
    var10 = moments_trace(*moments_operator(10.0, 0.0, 512))[1]
    var_gap = var10 - asym.counting_stats(10.0, 0.0).sigma2
    var_ok = abs(var_gap - 0.312200) <= 0.02
    mean_errs = []
    for s in (4.0, 6.0, 8.0, 10.0):
        mean_errs.append(abs(moments_trace(*moments_operator(s, 0.0, 384))[0]
                             - asym.counting_stats(s, 0.0).mu))
    mean_monotone = all(e2 < e1 for e1, e2 in zip(mean_errs, mean_errs[1:]))
    t_grid = np.linspace(-0.5, 0.5, 11)
    d4 = asym.clt_distance(4.0, 0.0, t_grid)
    d10 = asym.clt_distance(10.0, 0.0, t_grid)
    clt_ok = d10 < d4 and d10 < 0.2
    ok = agree and var_ok and mean_monotone and clt_ok
    return CriterionResult("9 counting statistics", ok,
                           f"trace/mgf rel diff {route_diff:.1e} at order {res.order} (tol 1e-11) "
                           f"ok={agree}, Var-sigma2 {var_gap:.5f} ok={var_ok}, "
                           f"|EN-mu| monotone={mean_monotone}, CLT {d10:.3f}<{d4:.3f} "
                           f"and <0.2 ok={clt_ok}",
                           extras={"order": res.order, "route_diff": route_diff, "agree": agree})


def criterion_10_gamma1_regime() -> CriterionResult:
    s_grid = np.linspace(6.0, 10.0, 9)
    fits = {}
    slopes = {}
    for rho in (0.0, 1.0):
        f_vals = np.array([r.f for r in logdet_converged([(s, 1.0) for s in s_grid],
                                                         rho, 1e-6)])
        fit = asym.fit_gamma1_constant(s_grid, f_vals, rho)
        fits[rho] = fit
        resid = f_vals - np.array([asym.f_gamma1(s, rho) for s in s_grid])
        slopes[rho] = float(np.polyfit(np.log(s_grid),
                                       np.log(np.abs(resid - fit.c_leading)), 1)[0])
    dc = abs(fits[0.0].c - fits[1.0].c)
    bars = fits[0.0].err + fits[1.0].err
    rho_indep = dc <= bars
    decay_ok = all(-1.1 <= sl <= -0.35 for sl in slopes.values())
    ok = rho_indep and decay_ok
    return CriterionResult("10 gamma=1 regime", ok,
                           f"C(0)={fits[0.0].c:.5f}+-{fits[0.0].err:.1e}, "
                           f"C(1)={fits[1.0].c:.5f}+-{fits[1.0].err:.1e}, |dC|={dc:.1e} "
                           f"ok={rho_indep}; residual slopes {slopes} ok={decay_ok}")


def criterion_11_chf_parametrix() -> CriterionResult:
    worst_jump = 0.0
    worst_u0 = 0.0
    worst_u1 = 0.0
    for b_im in (0.05, 0.11, 0.3):
        beta = 1j * b_im
        # the six rays at r = 0.5, 1, 2 and 5, all points in one array pass
        worst_jump = max(worst_jump, verification_report(beta)["max_ray_residual"])
        # chf_origin_expansion itself verifies the first-order numerics
        # against the constructed parametrix and raises on mismatch; the
        # comparison below re-transcribes the closed forms independently.
        exp = chf_origin_expansion(beta)
        u0_closed = np.array([
            [cmath.exp(ln_gamma(1 - beta) - beta * math.pi * 1j),
             cmath.exp(-ln_gamma(beta)) * _digamma_combo(1 - beta)],
            [cmath.exp(ln_gamma(1 + beta)),
             -cmath.exp(beta * math.pi * 1j - ln_gamma(-beta))
             * _digamma_combo(-beta)]], dtype=complex)
        worst_u0 = max(worst_u0, float(np.abs(exp.upsilon0 - u0_closed).max()))
        u1_closed = beta * math.pi * 1j * cmath.exp(-beta * math.pi * 1j) \
            / cmath.sin(beta * math.pi)
        worst_u1 = max(worst_u1, abs(exp.upsilon1_21 - u1_closed))
    ok = worst_jump <= 1e-9 and worst_u0 <= 1e-12 and worst_u1 <= 1e-10
    return CriterionResult("11 CHF parametrix", ok,
                           f"jump {worst_jump:.2e} (1e-9), Upsilon0 {worst_u0:.2e} (1e-12), "
                           f"Upsilon1_21 {worst_u1:.2e} (1e-10)")


def _digamma_combo(a: complex) -> complex:
    return digamma(a) + 2.0 * EULER_GAMMA


def criterion_12_special_functions() -> CriterionResult:
    rec = max(abs(barnes_ln_g(2.0 + z) - barnes_ln_g(1.0 + z) - ln_gamma(1.0 + z))
              for z in np.linspace(0.0, 2.0, 9))
    z = 1e-3
    series = 1.0 + (math.log(2 * math.pi) - 1) / 2 * z \
        + ((math.log(2 * math.pi) - 1) ** 2 / 8 - (1 + EULER_GAMMA) / 2) * z * z
    small = abs(barnes_ln_g(1.0 + z) - math.log(series))
    refl = 0.0
    for b_im in (0.05, 0.1103178, 0.3, 0.5):
        beta = 1j * b_im
        lhs = abs(cmath.exp(ln_gamma(1 + beta))) ** 2
        rhs = (beta * math.pi / cmath.sin(beta * math.pi)).real
        refl = max(refl, abs(lhs - rhs))
    kum = 0.0
    h = 1e-3
    for (a, b, zz) in ((0.3, 1.0, 1.5), (0.7 + 0.2j, 1.0, 2.0 + 1.0j)):
        for fn, b_eff in ((lambda w: kummer_phi(a, b, w), b),
                          (lambda w: kummer_psi_b1(a, w), 1.0)):
            f_m2, f_m1, f_0, f_p1, f_p2 = (fn(zz + k * h) for k in (-2, -1, 0, 1, 2))
            d1 = (f_m2 - 8 * f_m1 + 8 * f_p1 - f_p2) / (12 * h)
            d2 = (-f_m2 + 16 * f_m1 - 30 * f_0 + 16 * f_p1 - f_p2) / (12 * h * h)
            kum = max(kum, abs(zz * d2 + (b_eff - zz) * d1 - a * f_0))
    ok = rec <= 1e-10 and small <= 1e-8 and refl <= 1e-12 and kum <= 1e-7
    return CriterionResult("12 special functions", ok,
                           f"Barnes recurrence {rec:.2e} (1e-10), series {small:.2e} (1e-8), "
                           f"reflection {refl:.2e} (1e-12), Kummer residual {kum:.2e} (1e-7)")


ALL_CRITERIA: list[Callable[[], CriterionResult]] = [
    criterion_1_kernel_triple_agreement,
    criterion_2_pearcey_ode_residuals,
    criterion_3_determinant_sanity,
    criterion_4_resolvent_identity,
    criterion_5_large_gap_law,
    criterion_6_h_asymptotics,
    criterion_7_trajectory_suite,
    criterion_8_integral_representation,
    criterion_9_counting_statistics,
    criterion_10_gamma1_regime,
    criterion_11_chf_parametrix,
    criterion_12_special_functions,
]


def run_all() -> list[CriterionResult]:
    """Every criterion in order, each printed as it finishes."""
    results = []
    for fn in ALL_CRITERIA:
        t0 = time.time()
        res = fn()
        results.append(res)
        status = "PASS" if res.ok else "FAIL"
        print(f"[{status}] {res.name}: {res.detail} ({time.time() - t0:.1f}s)")
    return results
