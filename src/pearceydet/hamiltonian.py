"""The 8-function Hamiltonian system, its proved boundary data, and identity checks.

Integration always runs backward from a large-s anchor: the small-s boundary
data leaves three O(1) constants unspecified, so only the large-s side gives a
complete initial condition.

Backward perturbation growth is severe: errors in the exponentially small
q-components are amplified by exp((theta3(s0) - theta3(s))/2) (about 2.7e3
from s0 = 10 down to s = 0.5), so the O(s0^{-2/3}) leading-order boundary
data alone drives the trajectory onto a movable pole around theta3-distance
~ 10 below the anchor.  Two anchor constructions are therefore provided:

* ``asymptotic_state`` - the printed leading-order closed forms (used to
  verify the asymptotics themselves and for short-range integration);
* ``resolvent_anchor_state`` - the same solution family evaluated through its
  defining Fredholm data: the q-vector is the normalized endpoint value of
  (I - gamma K)^{-1} applied to the first matrix column, the p-vector is the
  dual endpoint value, and (p0, q0) follow from the first integral plus the
  Hamiltonian's identity with d/ds of the log-determinant.  This anchor
  survives the full backward sweep and is the default for trajectories; it
  magnifies rounding in the kernel, so at large theta3(s0) its state carries
  about 5 digits (see ``resolvent_anchor_state``).

Two exact first integrals,

    sum_{k=1..3} p_k q_k = 0
    p3 q1 + (p0 + q0 - rho/sqrt(2)) / sqrt(2) = 0,

are conserved identically by the flow; they are enforced exactly on anchors
(tiny shifts of q0 and one of q2/q3) and their drift is the quality monitor
of a trajectory.  Higher derivatives of p0, q0 used by the coupled-equation
checks are exact hand-expanded compositions of the right-hand side, never
differenced.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import simpson, solve_ivp

from .errors import ConvergenceError, DomainError
from .params import ModelParams

from .asymptotics import theta3, vartheta

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_S_ANCHOR_MIN = 4.0
_S_ANCHOR_MAX = 12.0
_ANCHOR_N = 256                 # Nystrom order of the resolvent anchor
_SAMPLES = 400                  # trajectory sample grid
_MAX_STEP = 0.05                # DOP853 step cap
_RTOL_MIN = 100 * np.finfo(float).eps   # DOP853 raises a smaller rtol to this
_CHECK_DET_TOL = 1e-9           # determinant tolerance of the integral check


@dataclass(frozen=True)
class HamState:
    """The eight complex functions at a given s."""

    s: float
    p0: complex
    p1: complex
    p2: complex
    p3: complex
    q0: complex
    q1: complex
    q2: complex
    q3: complex

    def to_array(self) -> np.ndarray:
        return np.array([self.p0, self.p1, self.p2, self.p3,
                         self.q0, self.q1, self.q2, self.q3], dtype=complex)

    @staticmethod
    def from_array(s: float, y: np.ndarray) -> "HamState":
        return HamState(s, *[complex(v) for v in y])

    def constraint_sum(self) -> complex:
        """sum_{k=1..3} p_k q_k (zero on the invariant manifold)."""
        return self.p1 * self.q1 + self.p2 * self.q2 + self.p3 * self.q3

    def first_integral(self, rho: float) -> complex:
        """p3 q1 + (p0 + q0 - rho/sqrt(2))/sqrt(2) (zero on the solution family)."""
        return self.p3 * self.q1 + (self.p0 + self.q0 - rho / _SQRT2) / _SQRT2


def _rhs_array(s: float, y: np.ndarray) -> np.ndarray:
    p0, p1, p2, p3, q0, q1, q2, q3 = y
    inv_s = 1.0 / s
    return np.array([
        -_SQRT2 * p3 * q2,
        -_SQRT2 * p0 * p2 - s * p3 + 2.0 * inv_s * p1 * p2 * q2,
        -_SQRT2 * p3 * q0 - p1 - 2.0 * inv_s * p2 * p2 * q2,
        -p2 + 2.0 * inv_s * p2 * p3 * q2,
        _SQRT2 * p2 * q1,
        q2 - 2.0 * inv_s * p2 * q1 * q2,
        _SQRT2 * p0 * q1 + q3 + 2.0 * inv_s * p2 * q2 * q2,
        s * q1 + _SQRT2 * q0 * q2 - 2.0 * inv_s * p2 * q2 * q3,
    ], dtype=complex)


def system_rhs(state: HamState, rho: float = 0.0) -> HamState:
    """The eight right-hand sides as printed; rho does not appear in the flow itself."""
    if state.s <= 0:
        raise DomainError(f"system has a pole at s = 0; got s = {state.s}")
    return HamState.from_array(state.s, _rhs_array(state.s, state.to_array()))


def hamiltonian_value(state: HamState) -> complex:
    """H(p, q; s); pole at s = 0."""
    if state.s <= 0:
        raise DomainError(f"Hamiltonian has a pole at s = 0; got s = {state.s}")
    st = state
    bracket = st.p1 * st.q1 - st.p2 * st.q2 + st.p3 * st.q3
    return (_SQRT2 * st.p0 * st.p2 * st.q1 + _SQRT2 * st.p3 * st.q0 * st.q2
            + st.p1 * st.q2 + st.p2 * st.q3 + st.s * st.p3 * st.q1
            + bracket * bracket / (2.0 * st.s))


def hamiltonian_partials(state: HamState) -> tuple[np.ndarray, np.ndarray, complex]:
    """(dH/dp_k, dH/dq_k, dH/ds) analytically."""
    st = state
    s = st.s
    b = st.p1 * st.q1 - st.p2 * st.q2 + st.p3 * st.q3
    dp = np.array([
        _SQRT2 * st.p2 * st.q1,
        st.q2 + b * st.q1 / s,
        _SQRT2 * st.p0 * st.q1 + st.q3 - b * st.q2 / s,
        _SQRT2 * st.q0 * st.q2 + s * st.q1 + b * st.q3 / s,
    ], dtype=complex)
    dq = np.array([
        _SQRT2 * st.p3 * st.q2,
        _SQRT2 * st.p0 * st.p2 + s * st.p3 + b * st.p1 / s,
        _SQRT2 * st.p3 * st.q0 + st.p1 - b * st.p2 / s,
        st.p2 + b * st.p3 / s,
    ], dtype=complex)
    ds = st.p3 * st.q1 - b * b / (2.0 * s * s)
    return dp, dq, ds


def hamiltonian_flow_derivative(state: HamState) -> complex:
    """dH/ds along the flow by exact composition of the right-hand side."""
    dp, dq, ds = hamiltonian_partials(state)
    rhs = _rhs_array(state.s, state.to_array())
    return ds + (dp * rhs[:4]).sum() + (dq * rhs[4:]).sum()


def asymptotic_state(s: float, params: ModelParams) -> HamState:
    """Leading large-s boundary data of the proved solution family.

    At gamma = 0 this degenerates to the constant solution with
    p1 = ... = q3 = 0 and p0, q0 at their rho-polynomial values.
    """
    if s < _S_ANCHOR_MIN:
        raise DomainError(f"asymptotic regime needs s >= {_S_ANCHOR_MIN}, got {s}")
    if s > 64.0:
        raise DomainError(f"s = {s} beyond the validated anchor range")
    rho = params.rho
    p0_const = (_SQRT2 / 2.0) * (rho ** 3 / 54.0 + rho / 2.0)
    q0_const = (_SQRT2 / 2.0) * (-(rho ** 3) / 54.0 + rho / 2.0)
    if params.gamma == 0.0:
        return HamState(s, p0_const, 0.0, 0.0, 0.0, q0_const, 0.0, 0.0, 0.0)
    beta = params.beta
    th = theta3(s, rho)
    vt = vartheta(s, params)
    abs_gamma_1mb = math.sqrt((beta * math.pi / cmath.sin(beta * math.pi)).real)
    sin_beta_pi = cmath.sin(beta * math.pi)
    p_pref = (2.0 * sin_beta_pi / (3.0 * math.pi)) * cmath.exp(0.5 * th + 2.0 * beta * math.pi * 1j / 3.0) * abs_gamma_1mb
    q_pref = 2.0j * cmath.exp(-0.5 * th - 2.0 * beta * math.pi * 1j / 3.0) * abs_gamma_1mb
    sqrt3_beta_i = _SQRT3 * (beta * 1j)
    s13 = s ** (1.0 / 3.0)
    p0 = (math.sqrt(6.0) / 2.0) * (beta * 1j) * s ** (2.0 / 3.0) + p0_const
    q0 = -(math.sqrt(6.0) / 2.0) * (beta * 1j) * s ** (2.0 / 3.0) + q0_const
    p1 = -p_pref * s13 * (math.cos(vt - math.pi / 3.0) + sqrt3_beta_i * math.cos(vt + math.pi / 3.0))
    p2 = p_pref * math.cos(vt)
    p3 = -p_pref / s13 * math.cos(vt + math.pi / 3.0)
    q1 = q_pref / s13 * math.sin(vt - math.pi / 3.0)
    q2 = -q_pref * math.sin(vt)
    q3 = q_pref * s13 * (math.sin(vt + math.pi / 3.0) - sqrt3_beta_i * math.sin(vt - math.pi / 3.0))
    return HamState(s, p0, p1, p2, p3, q0, q1, q2, q3)


def project_invariants(state: HamState, params: ModelParams) -> HamState:
    """Shift q0 and one of q2/q3 so both exact first integrals hold at the anchor.

    The shifts are within the O(s^{-2/3}) accuracy of the boundary data; once
    on the invariant manifold, the flow keeps the state there exactly.
    """
    rho = params.rho
    new_q0 = state.q0 - _SQRT2 * state.first_integral(rho)
    st = replace(state, q0=new_q0)
    resid = st.constraint_sum()
    if abs(resid) == 0.0:
        return st
    if abs(st.p2) >= abs(st.p3):
        if st.p2 == 0:
            raise DomainError("cannot project constraint: p2 = p3 = 0 with nonzero sum")
        st = replace(st, q2=st.q2 - resid / st.p2)
    else:
        st = replace(st, q3=st.q3 - resid / st.p3)
    return st


def _dual_weight_vector(mats: np.ndarray, gamma: float, det_ref: complex) -> np.ndarray:
    """gamma/(2 pi i) PsiTilde^{-T} (0,1,1)^T via explicit cofactors.

    The needed cofactors always pair the slowly-varying first matrix column
    with one of the exponentially large columns, so this form avoids the
    catastrophic large-times-large cancellations a generic 3x3 solve hits for
    |x| near the interval ends.  det(PsiTilde) is z-independent (the ODE has
    no second-derivative term), so the well-conditioned z = 0 value is used.
    """
    m = mats
    cof = np.empty_like(m)
    for j in range(3):
        cols = [b for b in range(3) if b != j]
        for i in range(3):
            rows = [a for a in range(3) if a != i]
            minor = (m[:, rows[0], cols[0]] * m[:, rows[1], cols[1]]
                     - m[:, rows[0], cols[1]] * m[:, rows[1], cols[0]])
            cof[:, i, j] = (-1) ** (i + j) * minor
    return gamma / (2j * math.pi) * (cof[:, :, 1] + cof[:, :, 2]) / det_ref


def resolvent_anchor_state(s0: float, params: ModelParams) -> HamState:
    """Quadrature-precision anchor from the Fredholm side (see module notes).

    The six oscillator components come from the endpoint values of the
    resolvent-transformed matrix columns; (p0, q0) then follow from the first
    integral together with the Hamiltonian identity H = (1/2) dF/ds, whose
    right-hand side is the independently computed resolvent boundary trace.
    The family's realness structure (p0, q0 real; oscillators purely
    imaginary) and both exact first integrals are enforced on the result.

    The extraction amplifies last-bit changes of K about 1e10-fold: with
    theta3(s0; rho) between 13 and 16 the state of a sweep to s = 0.5 carries
    about 5 significant digits (rounding the P and Q bundles differently
    moved it by up to 3.4e-5 relative), about 10 below theta3 ~ 11.  Anchors
    with theta3 beyond ~18 (e.g. s0 = 10 at rho = 1) sit near the
    sweep-to-0.5 cliff -- prefer s0 around 8 for long sweeps at large rho.
    """
    from .fredholm import _nystrom, resolvent_boundary_trace
    from .kernel import _p_bundle, tilde_psi_matrices

    if not _S_ANCHOR_MIN <= s0 <= _S_ANCHOR_MAX:
        raise DomainError(f"anchor must lie in [{_S_ANCHOR_MIN}, {_S_ANCHOR_MAX}]")
    g, rho = params.gamma, params.rho
    if g == 1.0:
        raise DomainError("anchor extraction requires gamma < 1")
    if g == 0.0:
        return asymptotic_state(s0, params)

    n = _ANCHOR_N
    x, w, k = _nystrom(s0, rho, n, (s0,))                  # K over (x, s0)
    kmat = k[:n, :n]
    pts = np.append(x, s0)
    f_all = 2.0 * math.pi * _p_bundle(pts, rho).T          # rows: (P0, P0', P0'') * 2pi
    mats = tilde_psi_matrices(pts, rho)
    det_ref = np.linalg.det(tilde_psi_matrices(np.array([0.0]), rho))[0]
    h_all = _dual_weight_vector(mats, g, det_ref)

    a_fwd = np.eye(n) - g * kmat * w[None, :]
    a_dual = np.eye(n) - g * (kmat * w[:, None]).T
    f_nodes = np.linalg.solve(a_fwd, f_all[:n])
    f_nodes += np.linalg.solve(a_fwd, f_all[:n] - a_fwd @ f_nodes)
    h_nodes = np.linalg.solve(a_dual, h_all[:n])
    h_nodes += np.linalg.solve(a_dual, h_all[:n] - a_dual @ h_nodes)
    f_end = f_all[n] + g * (k[n, :n] * w) @ f_nodes
    h_end = h_all[n] + g * (k[:n, n] * w) @ h_nodes

    kappa3 = rho ** 3 / 54.0 - rho / 6.0
    c0 = 1j * math.sqrt(2.0 * math.pi / 3.0) * math.exp(rho * rho / 6.0)
    frame = np.eye(3, dtype=complex)
    frame[2, 0] = kappa3 + 2.0 * rho / 3.0
    frame_inv = np.eye(3, dtype=complex)
    frame_inv[2, 0] = -frame[2, 0]
    qv = (frame_inv @ f_end) / c0
    pv = -c0 * (frame.T @ h_end)
    q1, q2, q3 = (1j * v.imag for v in qv)
    p1, p2, p3 = (1j * v.imag for v in pv)

    # enforce sum0 exactly within the oscillator block before the p0/q0 solve
    resid = p1 * q1 + p2 * q2 + p3 * q3
    if abs(p2) >= abs(p3):
        q2 = q2 - resid / p2
    else:
        q3 = q3 - resid / p3

    h_val = 0.5 * resolvent_boundary_trace(s0, params, n)
    bracket = p1 * q1 - p2 * q2 + p3 * q3
    rest = p1 * q2 + p2 * q3 + s0 * p3 * q1 + bracket * bracket / (2.0 * s0)
    coeffs = np.array([[_SQRT2 * p2 * q1, _SQRT2 * p3 * q2],
                       [1.0, 1.0]], dtype=complex)
    rhs = np.array([h_val - rest, rho / _SQRT2 - _SQRT2 * p3 * q1], dtype=complex)
    p0, q0 = np.linalg.solve(coeffs, rhs)
    state = HamState(s0, p0.real, p1, p2, p3, q0.real, q1, q2, q3)
    return project_invariants(state, params)


@dataclass(frozen=True)
class Trajectory:
    """Dense backward (or forward) solution with per-sample diagnostics."""

    s: np.ndarray                 # strictly monotone sample grid
    states: np.ndarray            # (n, 8) complex
    h: np.ndarray                 # complex Hamiltonian at samples
    direction: str                # "backward" or "forward"
    ic_source: str
    params: ModelParams
    dense: object                 # scipy OdeSolution

    def state_at(self, idx: int) -> HamState:
        return HamState.from_array(float(self.s[idx]), self.states[idx])

    def constraint_drift(self) -> np.ndarray:
        return np.abs(self.states[:, 1] * self.states[:, 5]
                      + self.states[:, 2] * self.states[:, 6]
                      + self.states[:, 3] * self.states[:, 7])

    def h_at(self, s_val: np.ndarray) -> np.ndarray:
        ys = self.dense(np.asarray(s_val, dtype=float))
        out = []
        for i, sv in enumerate(np.atleast_1d(s_val)):
            out.append(hamiltonian_value(HamState.from_array(float(sv), ys[:, i])))
        return np.array(out)


def integrate(s_from: float, s_to: float, init: HamState, params: ModelParams,
              tol: float = 1e-10, *, ic_source: str = "caller") -> Trajectory:
    """Adaptive high-order Runge-Kutta run from s_from to s_to with dense output.

    Raises ConvergenceError on step failure or if the conserved constraint
    blows past 1e-3 (a diverged trajectory, not a tolerance issue), and
    DomainError for a tol that is not finite or below the solver's floor.
    """
    if not (math.isfinite(tol) and tol >= _RTOL_MIN):
        raise DomainError(f"tol = {tol} is not finite or below the solver's "
                          f"floor {_RTOL_MIN:.1e}")
    if min(s_from, s_to) <= 0:
        raise DomainError("trajectory must stay in s > 0")
    if max(s_from, s_to) > _S_ANCHOR_MAX:
        raise DomainError(f"anchor capped at s = {_S_ANCHOR_MAX} (scale-spread guard)")
    if init.s != s_from:
        raise DomainError(f"initial state is at s = {init.s}, not s_from = {s_from}")
    # atol must sit far below the exponentially small q-components near the
    # anchor: absolute step noise there is amplified by exp(dtheta3/2) on the
    # way down, so a loose atol (not rtol) is what destroys backward sweeps.
    sol = solve_ivp(_rhs_array, (s_from, s_to), init.to_array(), method="DOP853",
                    rtol=tol, atol=1e-15, max_step=_MAX_STEP, dense_output=True)
    if not sol.success:
        raise ConvergenceError(f"integrator failed: {sol.message}")
    grid = np.linspace(s_from, s_to, _SAMPLES)
    ys = sol.sol(grid).T
    h = np.array([hamiltonian_value(HamState.from_array(float(sv), y))
                  for sv, y in zip(grid, ys)])
    traj = Trajectory(grid, ys, h, "backward" if s_to < s_from else "forward",
                      f"{ic_source}-at-{s_from:g}", params, sol.sol)
    drift = traj.constraint_drift().max()
    if drift > 1e-3:
        raise ConvergenceError(f"constraint blow-up: |sum p_k q_k| reached {drift:.2e}")
    return traj


def asymptotic_trajectory(params: ModelParams, s_from: float = 10.0, s_to: float = 0.5,
                          tol: float = 1e-10, *, ic_mode: str = "resolvent") -> Trajectory:
    """Backward trajectory of the special solution family.

    ``ic_mode='resolvent'`` (default) anchors at the quadrature-precision
    Fredholm extraction; ``'asymptotic'`` uses the printed leading-order data
    (valid only for short sweeps, see module notes).
    """
    if ic_mode == "resolvent":
        ic = resolvent_anchor_state(s_from, params)
    elif ic_mode == "asymptotic":
        ic = asymptotic_state(s_from, params)
        if params.gamma > 0.0:
            ic = project_invariants(ic, params)
    else:
        raise DomainError(f"unknown ic_mode {ic_mode!r}")
    return integrate(s_from, s_to, ic, params, tol, ic_source=ic_mode)


# -- exact composed derivatives of p0, q0 ------------------------------------

def p0_q0_derivatives(state: HamState) -> dict[str, complex]:
    """p0', p0'', p0''', q0', q0'' by exact composition of the right-hand side."""
    st = state
    s = st.s
    p0, p1, p2, p3 = st.p0, st.p1, st.p2, st.p3
    q0, q1, q2, q3 = st.q0, st.q1, st.q2, st.q3

    p0d = -_SQRT2 * p3 * q2
    q0d = _SQRT2 * p2 * q1
    p0dd = (_SQRT2 * p2 * q2 - 2.0 * p0 * p3 * q1 - _SQRT2 * p3 * q3
            - 4.0 * _SQRT2 / s * p2 * p3 * q2 * q2)
    q0dd = (-2.0 * p3 * q0 * q1 - _SQRT2 * p1 * q1 + _SQRT2 * p2 * q2
            - 4.0 * _SQRT2 / s * p2 * p2 * q1 * q2)

    p2d = -_SQRT2 * p3 * q0 - p1 - 2.0 / s * p2 * p2 * q2
    p3d = -p2 + 2.0 / s * p2 * p3 * q2
    q2d = _SQRT2 * p0 * q1 + q3 + 2.0 / s * p2 * q2 * q2

    d_p2q2 = -_SQRT2 * p3 * q0 * q2 - p1 * q2 + _SQRT2 * p0 * p2 * q1 + p2 * q3
    d_p0p3q1 = -_SQRT2 * p3 * p3 * q1 * q2 + p0 * (-p2 * q1 + p3 * q2)
    d_p3q3 = -p2 * q3 + s * p3 * q1 + _SQRT2 * p3 * q0 * q2
    d_scaled = (-p2 * p3 * q2 * q2 / (s * s)
                + (p2d * p3 * q2 * q2 + p2 * p3d * q2 * q2 + 2.0 * p2 * p3 * q2 * q2d) / s)
    p0ddd = (_SQRT2 * d_p2q2 - 2.0 * d_p0p3q1 - _SQRT2 * d_p3q3
             - 4.0 * _SQRT2 * d_scaled)
    return {"p0d": p0d, "p0dd": p0dd, "p0ddd": p0ddd, "q0d": q0d, "q0dd": q0dd}


def coupled_p0q0_residual(traj: Trajectory, params: ModelParams,
                          s_values: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """Relative residuals of the coupled third/second-order p0-q0 equations.

    Residuals are normalized by the largest absolute term entering each
    equation.  States where the pivot denominator p0 + q0 - rho/sqrt(2)
    degenerates are rejected unless the whole system is at the gamma = 0
    fixed point (where both equations reduce to 0 = 0).
    """
    rho = params.rho
    if s_values is None:
        idxs = range(len(traj.s))
        samples = [(float(traj.s[i]), traj.states[i]) for i in idxs]
    else:
        ys = traj.dense(np.asarray(s_values, float))
        samples = [(float(sv), ys[:, i]) for i, sv in enumerate(np.atleast_1d(s_values))]

    res3, res2 = [], []
    for s, y in samples:
        st = HamState.from_array(s, y)
        d = p0_q0_derivatives(st)
        denom = st.p0 + st.q0 - rho / _SQRT2
        moving = max(abs(d["p0d"]), abs(d["q0d"]), abs(d["p0dd"]), abs(d["q0dd"]))
        if abs(denom) < 1e-8:
            if moving < 1e-12:
                res3.append(0.0)
                res2.append(0.0)
                continue
            raise DomainError(f"degenerate denominator p0+q0-rho/sqrt2 at s = {s}")
        third_terms = [
            rho * d["p0d"],
            -2.0 * _SQRT2 * d["q0d"] * d["p0d"] ** 2 / (s * s * denom),
            (1.0 + 2.0 * _SQRT2 / s * d["p0d"])
            * (s * denom
               + (2.0 * d["q0d"] * d["p0dd"] + d["q0dd"] * d["p0d"]) / denom
               - d["p0d"] * d["q0d"] * (2.0 * d["q0d"] + d["p0d"]) / denom ** 2),
        ]
        rhs3 = sum(third_terms)
        scale3 = max([abs(t) for t in third_terms] + [abs(d["p0ddd"]), 1e-30])
        res3.append(abs(d["p0ddd"] - rhs3) / scale3)
        second_terms = [
            -d["p0dd"],
            d["p0d"] * d["q0d"] / denom * (3.0 + 2.0 * _SQRT2 / s * (d["p0d"] - d["q0d"])),
            _SQRT2 * (st.p0 + st.q0) * denom,
        ]
        rhs2 = sum(second_terms)
        scale2 = max([abs(t) for t in second_terms] + [abs(d["q0dd"]), 1e-30])
        res2.append(abs(d["q0dd"] - rhs2) / scale2)
    return {"third_order": np.array(res3), "second_order": np.array(res2)}


def identity_report(traj: Trajectory, params: ModelParams) -> dict[str, np.ndarray]:
    """Per-sample residuals of the Hamiltonian differential identities.

    Keys:
      dh_form1        |dH/ds (composed) - (p3 q1 - 2 p2^2 q2^2 / s^2)|
      dh_form2        |dH/ds (composed) - p0/q0 expression|
      dh_cross        |form1 - form2|
      action          residual of the action-differential identity
      const2          |p3 q1 + (p0 + q0 - rho/sqrt2)/sqrt2|
      pq2             |p2 q2 - p0' q0' / (sqrt2 (p0 + q0 - rho/sqrt2))|
      zero_curvature  relative commutator residual of A1' = -[A1, M]
    """
    rho = params.rho
    n = len(traj.s)
    out = {k: np.zeros(n) for k in
           ("dh_form1", "dh_form2", "dh_cross", "action", "const2", "pq2",
            "zero_curvature")}
    for i in range(n):
        st = traj.state_at(i)
        s = st.s
        y = st.to_array()
        rhs = _rhs_array(s, y)
        d = p0_q0_derivatives(st)
        denom = st.p0 + st.q0 - rho / _SQRT2

        hdot = hamiltonian_flow_derivative(st)
        form1 = st.p3 * st.q1 - 2.0 / (s * s) * (st.p2 * st.q2) ** 2
        if abs(denom) > 1e-12:
            form2 = (-denom / _SQRT2
                     - (d["p0d"] * d["q0d"]) ** 2 / (s * s * denom * denom))
        else:
            form2 = form1 if abs(d["p0d"] * d["q0d"]) < 1e-15 else complex("nan")
        out["dh_form1"][i] = abs(hdot - form1)
        out["dh_form2"][i] = abs(hdot - form2)
        out["dh_cross"][i] = abs(form1 - form2)

        h = hamiltonian_value(st)
        p_arr, q_arr = y[:4], y[4:]
        qdot = rhs[4:]
        lhs_action = (p_arr * qdot).sum() - h
        d_p0q0 = d["p0d"] * st.q0 + st.p0 * d["q0d"]
        d_p2q2 = (-_SQRT2 * st.p3 * st.q0 * st.q2 - st.p1 * st.q2
                  + _SQRT2 * st.p0 * st.p2 * st.q1 + st.p2 * st.q3)
        d_p3q3 = -st.p2 * st.q3 + s * st.p3 * st.q1 + _SQRT2 * st.p3 * st.q0 * st.q2
        rhs_action = h + 0.25 * (2.0 * d_p0q0 + d_p2q2 + 2.0 * d_p3q3
                                 - 3.0 * h - 3.0 * s * hdot)
        out["action"][i] = abs(lhs_action - rhs_action)

        out["const2"][i] = abs(st.first_integral(rho))
        if abs(denom) > 1e-12:
            out["pq2"][i] = abs(st.p2 * st.q2 - d["p0d"] * d["q0d"] / (_SQRT2 * denom))
        else:
            out["pq2"][i] = abs(st.p2 * st.q2)

        a1 = np.outer(q_arr[1:], p_arr[1:])
        a1_dot = np.outer(qdot[1:], p_arr[1:]) + np.outer(q_arr[1:], rhs[1:4])
        m = np.array([
            [0.0, 1.0 - 2.0 * st.p2 * st.q1 / s, 0.0],
            [_SQRT2 * st.p0 - 2.0 * st.p1 * st.q2 / s, 0.0, 1.0 - 2.0 * st.p3 * st.q2 / s],
            [s, _SQRT2 * st.q0 - 2.0 * st.p2 * st.q3 / s, 0.0],
        ], dtype=complex)
        comm = a1 @ m - m @ a1
        scale = max(np.abs(a1_dot).max(), np.abs(m @ a1).max(), 1e-30)
        out["zero_curvature"][i] = np.abs(a1_dot + comm).max() / scale
    return out


def integral_representation_check(s_lo: float, s_hi: float, params: ModelParams, *,
                                  s_anchor: float = 10.0) -> dict[str, float]:
    """|[F(s_hi) - F(s_lo)] - 2 int_{s_lo}^{s_hi} H| with Simpson over dense samples."""
    if not 0.3 <= s_lo < s_hi <= _S_ANCHOR_MAX:
        raise DomainError(f"need 0.3 <= s_lo < s_hi <= {_S_ANCHOR_MAX}")
    if params.gamma == 0.0:
        return {"discrepancy": 0.0, "delta_f": 0.0, "integral": 0.0}
    traj = asymptotic_trajectory(params, s_from=max(s_anchor, s_hi), s_to=s_lo)
    from .fredholm import logdet_converged

    grid = np.linspace(s_lo, s_hi, 801)
    h_vals = traj.h_at(grid).real
    integral = 2.0 * float(simpson(h_vals, x=grid))
    delta_f = (logdet_converged(s_hi, params, _CHECK_DET_TOL).f
               - logdet_converged(s_lo, params, _CHECK_DET_TOL).f)
    return {"discrepancy": abs(delta_f - integral), "delta_f": delta_f,
            "integral": integral}


def trajectory_rows(traj: Trajectory, params: ModelParams) -> list[dict[str, float]]:
    """Flat per-sample rows (CSV export): s, Re/Im of all functions, Re H, residuals."""
    report = identity_report(traj, params)
    rows = []
    names = ("p0", "p1", "p2", "p3", "q0", "q1", "q2", "q3")
    for i, s in enumerate(traj.s):
        row: dict[str, float] = {"s": float(s)}
        for j, name in enumerate(names):
            row[f"re_{name}"] = float(traj.states[i, j].real)
            row[f"im_{name}"] = float(traj.states[i, j].imag)
        row["re_h"] = float(traj.h[i].real)
        row["im_h"] = float(traj.h[i].imag)
        for key in ("dh_cross", "action", "const2", "zero_curvature"):
            row[key] = float(report[key][i])
        rows.append(row)
    return rows
