"""The 8-function Hamiltonian system, its proved boundary data, and identity checks.

Integration always runs backward from a large-s anchor: the small-s boundary
data leaves three O(1) constants unspecified, so only the large-s side gives a
complete initial condition.

Backward perturbation growth is severe, far beyond the
exp((theta3(s0) - theta3(s))/2) of the exponentially small q-components
(about 2.7e3 from s0 = 10 down to s = 0.5): about 1e8 over that sweep
(``resolvent_anchor_state`` gives the numbers).  So the O(s0^{-2/3})
leading-order boundary data alone drives the trajectory onto a movable pole
around theta3-distance ~ 10 below the anchor.  Two anchor constructions are
therefore provided:

* ``asymptotic_state`` - the printed leading-order closed forms (used to
  verify the asymptotics themselves and for short-range integration);
* ``resolvent_anchor_state`` - the same solution family evaluated through its
  defining Fredholm data: the q-vector is the normalized endpoint value of
  (I - gamma K)^{-1} applied to the first matrix column, the p-vector is the
  dual endpoint value on the kernel's column factors (Q'' - rho Q, -Q', Q),
  and (p0, q0) follow from the first integral plus the Hamiltonian's
  identity with d/ds of the log-determinant.  This anchor survives the full
  backward sweep and starts every ``asymptotic_trajectory``; its docstring
  states how many digits the swept state keeps.

Two exact first integrals,

    sum_{k=1..3} p_k q_k = 0
    p3 q1 + (p0 + q0 - rho/sqrt(2)) / sqrt(2) = 0,

are conserved identically by the flow; they are enforced exactly on anchors
(tiny shifts of q0 and one of q2/q3) and their drift is the quality monitor
of a trajectory.  Higher derivatives of p0, q0 used by the coupled-equation
checks are exact hand-expanded compositions of the right-hand side, never
differenced.

The family is real in fixed coordinates: p0 and q0 are real and the six
oscillators purely imaginary, p_k = i a_k and q_k = i b_k (k = 1..3), and the
flow maps such states to such states.  The eight equations are written once,
in the real coordinates (p0, a1, a2, a3, q0, b1, b2, b3) (``_flow``), and the
sweep advances those on Python floats; the complex right-hand side used by
the identity checks maps onto the same equations.  States handed out stay
complex.

A ``HamState`` holds one sample or all samples of a trajectory: every formula
here is elementwise, so the identity checks evaluate a whole trajectory in one
pass.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.integrate import DOP853, simpson, solve_ivp

from . import fredholm
from .errors import ConvergenceError, DomainError
from .params import ModelParams

from .asymptotics import theta3, vartheta

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_S_ANCHOR_MIN = 4.0
_S_ANCHOR_MAX = fredholm._S_MAX  # the anchor's square spans the kernel's |x| <= 12
_ANCHOR_N_START = 32            # first Nystrom order of the anchor's doubling
_ANCHOR_N_MAX = 512             # last one
_ANCHOR_RTOL = 1e-9             # per-block change that accepts an order, at gamma <= 1/2
_ANCHOR_GAMMA_MIN = 1e-300      # smallest nonzero gamma the extraction serves
_SAMPLES = 400                  # trajectory sample grid
_MAX_STEP = 0.05                # DOP853 step cap
_RTOL_MIN = 100 * np.finfo(float).eps   # DOP853 raises a smaller rtol to this
_CHECK_DET_TOL = 1e-9           # determinant tolerance of the integral check


@dataclass(frozen=True)
class HamState:
    """The eight complex functions at one s, or at many.

    Each field is a scalar, or an array over the same s values (then ``s`` is
    that array): one state is one sample or all samples of a trajectory.
    """

    s: float | np.ndarray
    p0: complex | np.ndarray
    p1: complex | np.ndarray
    p2: complex | np.ndarray
    p3: complex | np.ndarray
    q0: complex | np.ndarray
    q1: complex | np.ndarray
    q2: complex | np.ndarray
    q3: complex | np.ndarray

    def to_array(self) -> np.ndarray:
        """Shape (8,) for one sample, (8, N) for N."""
        return np.array([self.p0, self.p1, self.p2, self.p3,
                         self.q0, self.q1, self.q2, self.q3], dtype=complex)

    def constraint_sum(self) -> complex:
        """sum_{k=1..3} p_k q_k (zero on the invariant manifold)."""
        return self.p1 * self.q1 + self.p2 * self.q2 + self.p3 * self.q3

    def first_integral(self, rho: float) -> complex:
        """p3 q1 + (p0 + q0 - rho/sqrt(2))/sqrt(2) (zero on the solution family)."""
        return self.p3 * self.q1 + (self.p0 + self.q0 - rho / _SQRT2) / _SQRT2


# a state of the family is _UNITS times its real coordinates (module notes)
_UNITS = np.array([1, 1j, 1j, 1j, 1, 1j, 1j, 1j])
_REAL_PART = _UNITS.imag == 0


def _flow(s, p0, a1, a2, a3, q0, b1, b2, b3) -> list:
    """The eight equations in the real coordinates p_k = i a_k, q_k = i b_k (k = 1..3).

    Each term keeps the operation order of the printed complex form, so on
    the family's states it rounds exactly as that form does.  Scalars or
    arrays alike: the sweep passes Python floats.
    """
    inv_s = 1.0 / s
    return [
        _SQRT2 * a3 * b2,
        -_SQRT2 * p0 * a2 - s * a3 - 2.0 * inv_s * a1 * a2 * b2,
        -_SQRT2 * a3 * q0 - a1 + 2.0 * inv_s * a2 * a2 * b2,
        -a2 - 2.0 * inv_s * a2 * a3 * b2,
        -_SQRT2 * a2 * b1,
        b2 + 2.0 * inv_s * a2 * b1 * b2,
        _SQRT2 * p0 * b1 + b3 - 2.0 * inv_s * a2 * b2 * b2,
        s * b1 + _SQRT2 * q0 * b2 + 2.0 * inv_s * a2 * b2 * b3,
    ]


def _sweep_rhs(s: float, y: np.ndarray) -> list:
    # Python floats: numpy scalar arithmetic costs several times more per term
    return _flow(float(s), *y.tolist())


def _rhs_array(s: float | np.ndarray, y: np.ndarray) -> np.ndarray:
    """The flow on complex states of shape (8,) or (8, N).

    The real equations are evaluated at y / _UNITS, an exact change of
    variables for any complex y; on the family's states the result is
    _UNITS times the real right-hand side, bit for bit.
    """
    units = _UNITS.reshape((8,) + (1,) * (np.ndim(y) - 1))
    return units * np.array(_flow(s, *(y * units.conj())))


def _complex_states(y: np.ndarray) -> np.ndarray:
    """Complex states from real coordinates along axis 0."""
    out = np.zeros(y.shape, dtype=complex)
    out.real[_REAL_PART] = y[_REAL_PART]
    out.imag[~_REAL_PART] = y[~_REAL_PART]
    return out


def hamiltonian_value(state: HamState) -> complex:
    """H(p, q; s); pole at s = 0."""
    if np.any(state.s <= 0):
        raise DomainError(f"Hamiltonian has a pole at s = 0; got s = {np.min(state.s)}")
    st = state
    bracket = st.p1 * st.q1 - st.p2 * st.q2 + st.p3 * st.q3
    return (_SQRT2 * st.p0 * st.p2 * st.q1 + _SQRT2 * st.p3 * st.q0 * st.q2
            + st.p1 * st.q2 + st.p2 * st.q3 + st.s * st.p3 * st.q1
            + bracket * bracket / (2.0 * st.s))


def hamiltonian_partials(state: HamState) -> tuple[np.ndarray, np.ndarray, complex]:
    """(dH/dp_k, dH/dq_k, dH/ds) analytically; dH/dp and dH/dq stack along axis 0."""
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
    return _zero_sum(replace(state, q0=state.q0 - _SQRT2 * state.first_integral(params.rho)))


def _zero_sum(state: HamState) -> HamState:
    """Shift q2 (if |p2| >= |p3|) or else q3 so that sum_k p_k q_k = 0."""
    resid = state.constraint_sum()
    if abs(resid) == 0.0:
        return state
    if abs(state.p2) >= abs(state.p3):
        if state.p2 == 0:
            raise DomainError("cannot project constraint: p2 = p3 = 0 with nonzero sum")
        return replace(state, q2=state.q2 - resid / state.p2)
    return replace(state, q3=state.q3 - resid / state.p3)


@dataclass(frozen=True)
class AnchorState(HamState):
    """A ``resolvent_anchor_state``: the state, its Nystrom order and its error."""

    order: int | None             # None at gamma = 0, where the state is exact
    err: float                    # error bound relative to each block's largest component


def _block_change(a: HamState, b: HamState) -> float:
    """max |a - b| over p0..p3 and over q0..q3, each relative to a's largest in its block."""
    ya, yb = a.to_array(), b.to_array()
    return max(float(np.abs(ya[blk] - yb[blk]).max() / np.abs(ya[blk]).max())
               for blk in (slice(0, 4), slice(4, 8)))


def _extract(s0: float, params: ModelParams, n: int) -> HamState:
    """The anchor state from the order-n square over the nodes and s0 (``resolvent_anchor_state``)."""
    g, rho = params.gamma, params.rho
    f_end, h_end, trace = fredholm.resolvent_end_values(s0, params, n)
    kappa3 = rho ** 3 / 54.0 - rho / 6.0
    c0 = 1j * math.sqrt(2.0 * math.pi / 3.0) * math.exp(rho * rho / 6.0)
    frame = np.eye(3, dtype=complex)
    frame[2, 0] = kappa3 + 2.0 * rho / 3.0
    frame_inv = np.eye(3, dtype=complex)
    frame_inv[2, 0] = -frame[2, 0]
    qv = (frame_inv @ f_end) / c0
    pv = -c0 * (frame.T @ h_end)
    st = _zero_sum(HamState(s0, 0.0, *(1j * pv.imag), 0.0, *(1j * qv.imag)))

    # H with p0 = q0 = 0 is the part of H that does not depend on them
    coeffs = np.array([[_SQRT2 * st.p2 * st.q1, _SQRT2 * st.p3 * st.q2],
                       [1.0, 1.0]], dtype=complex)
    rhs = np.array([0.5 * trace - hamiltonian_value(st), rho / _SQRT2 - _SQRT2 * st.p3 * st.q1],
                   dtype=complex)
    p0, q0 = np.linalg.solve(coeffs, rhs)
    return project_invariants(replace(st, p0=p0.real, q0=q0.real), params)


def resolvent_anchor_state(s0: float, params: ModelParams) -> AnchorState:
    """Quadrature-precision anchor from the Fredholm side (see module notes).

    The six oscillator components are the end values at s0 of the resolvent
    solutions on the kernel's row and column factors
    (``fredholm.resolvent_end_values``: one square over the nodes and s0, one
    LU of I - gamma K W for both systems), normalised by the frame and c0 of
    the family; q2 or q3 is then shifted so that sum_k p_k q_k = 0.  (p0, q0)
    follow from the first integral together with the Hamiltonian identity
    H = (1/2) dF/ds, whose right-hand side is the resolvent boundary trace
    -2 R(s0, s0), a fourth right-hand side of the same solve.  The family's
    realness structure (p0, q0 real; oscillators purely imaginary) and both
    exact first integrals are enforced on the result.

    Order.  The order doubles from 32 until p0..p3 and q0..q3 each change by
    at most a * 1e-9 of their block's largest component between n/2 and n; the
    order-n state is returned, and ``ConvergenceError`` is raised past
    n = 512.  Here a = max(1, (1/2)/(1 - gamma)) is the solve's amplification
    bound 1/(1 - gamma) against its value at gamma = 1/2, so a is 1 for
    gamma <= 1/2.  Gauss-Legendre Nystrom converges exponentially for this
    analytic kernel (Bornemann, Math. Comp. 79, 2010), and n = 16 is off by
    2e-8 or more at every s0 >= 6, so the doubling starts at 32.  ``err`` is
    that tolerance, a * 1e-9, in the same per-block measure: it bounds the
    last doubling difference by construction, and the rounding spread by
    measurement.  Past the accepted order the states do not converge
    further: they differ by rounding, at the level of P(s0)'s own end-point
    error (up to 2.2e-11 relative at s0 = 12), raised by the solve and the
    normalisation, and the doubling difference at the accepted order can
    read below 1e-11 while the next order differs by far more.  Between any
    two orders from the accepted one to 512, over s0 in {4, 6, 8, 10, 12}
    and rho in {-4, -2, 0, 2, 4}, that spread reached 4.7e-10 at gamma =
    0.3, 2e-9 at 0.9, 6.9e-9 at 0.95 (0.69 of a * 1e-9), 1.6e-9 at 0.99
    and 6e-9 at 0.9999.  A fixed 1e-9 would let the rounding alone refuse
    every order at gamma = 0.9999, rho = -4, s0 = 12.  gamma = 0 gives the
    exact constant solution, with no order and ``err`` 0.  A nonzero gamma
    below 1e-300 raises DomainError before any quadrature: from about 1e-307
    down the order never settles, and below about 1e-322 the (p0, q0) solve
    is singular.

    Accuracy.  At gamma = 0.5, rho = 0 and the accepted n = 64, rounding
    noise of relative size 2.2e-16 in K moves the anchor by at most 1.6e-14
    of a block's largest component, but the state swept back to s = 0.5 by
    1.4e-6 from s0 = 10 (a growth of about 1e8), 7.7e-10 from s0 = 8 and
    2e-12 from s0 = 6: last-bit changes of K are amplified up to about
    1e10-fold.  So against its largest component a sweep to s = 0.5 keeps
    about 6 digits when theta3(s0; rho) is about 16 and about 9 when it is
    12 or less; a column small against that component keeps fewer.  Anchors
    with theta3 beyond ~18 (e.g. s0 = 10 at rho = 1) sit near the
    sweep-to-0.5 cliff -- prefer s0 around 8 for long sweeps at large rho.
    """
    if not _S_ANCHOR_MIN <= s0 <= _S_ANCHOR_MAX:
        raise DomainError(f"anchor must lie in [{_S_ANCHOR_MIN}, {_S_ANCHOR_MAX}]")
    if params.gamma == 1.0:
        raise DomainError("anchor extraction requires gamma < 1")
    # the extraction's domain, rho included, also where gamma = 0 builds no square
    fredholm._check_args(s0, params.gamma, params.rho, _ANCHOR_N_START)
    if params.gamma == 0.0:
        return AnchorState(**vars(asymptotic_state(s0, params)), order=None, err=0.0)
    if params.gamma < _ANCHOR_GAMMA_MIN:
        raise DomainError(f"gamma = {params.gamma} below the anchor's floor {_ANCHOR_GAMMA_MIN:g}")
    tol = _ANCHOR_RTOL * max(1.0, 0.5 / (1.0 - params.gamma))
    prev = _extract(s0, params, _ANCHOR_N_START)
    n = 2 * _ANCHOR_N_START
    while n <= _ANCHOR_N_MAX:
        st = _extract(s0, params, n)
        if _block_change(st, prev) <= tol:
            return AnchorState(**vars(st), order=n, err=tol)
        prev = st
        n *= 2
    raise ConvergenceError(f"anchor state did not settle to {tol:.3g} relative by "
                           f"n = {_ANCHOR_N_MAX} at s0 = {s0}, gamma = {params.gamma}, "
                           f"rho = {params.rho}")


class _StepRecord(NamedTuple):
    """What DOP853's dense output of one step reads, kept for a later pass."""

    t_old: float
    t: float
    h: float                  # the solver's h_previous
    y_old: np.ndarray         # (8,) real coordinates at the step start
    y: np.ndarray             # (8,) ... and at its end
    k: np.ndarray             # (13, 8) the step's stages, the last one f(t, y)


class _DeferredDOP853(DOP853):
    """DOP853 whose dense output only records the step.

    scipy's ``_dense_output_impl`` evaluates three extra stages per step, one
    call at a time; ``_DenseSampler.of`` evaluates them for all steps at once.
    They still count towards ``nfev``.
    """

    def _dense_output_impl(self) -> _StepRecord:
        self.nfev += len(self.A_EXTRA)
        return _StepRecord(self.t_old, self.t, self.h_previous, self.y_old, self.y,
                           self.K.copy())


@dataclass(frozen=True)
class _DenseSampler:
    """DOP853's dense output with every step interpolant stacked, sampled in one pass.

    ``of`` builds the interpolant coefficients of all steps with the
    operations of scipy's ``DOP853._dense_output_impl``, and ``__call__``
    runs the Horner recurrence of ``Dop853DenseOutput`` for all samples at
    once, so both give scipy's values bit for bit.  Segments are picked by
    ``OdeSolution``'s own rule.
    """

    ts_sorted: np.ndarray     # step boundaries, ascending
    side: str                 # searchsorted side: which segment owns a boundary
    ascending: bool           # direction of the sweep
    t_old: np.ndarray         # (steps,) start of each step
    h: np.ndarray             # (steps,) signed step sizes
    f: np.ndarray             # (steps, 7, 8) interpolant coefficients
    y_old: np.ndarray         # (steps, 8) real coordinates at each step start

    @classmethod
    def of(cls, sol) -> "_DenseSampler":
        """From ``solve_ivp(..., method=_DeferredDOP853, dense_output=True).sol``."""
        steps = sol.interpolants            # _StepRecord of each step
        t_old = np.array([st.t_old for st in steps])
        h = np.array([st.h for st in steps])
        y_old = np.stack([st.y_old for st in steps])
        y = np.stack([st.y for st in steps])
        n_done = steps[0].k.shape[0]
        k = np.empty((len(steps), n_done + len(DOP853.A_EXTRA), y.shape[1]))
        k[:, :n_done] = [st.k for st in steps]
        # the three extra stages, each for all steps at once, then F: the
        # statements of DOP853._dense_output_impl with a leading step axis
        for i, (a, c) in enumerate(zip(DOP853.A_EXTRA, DOP853.C_EXTRA), start=n_done):
            dy = np.matmul(a[:i], k[:, :i]) * h[:, None]
            k[:, i] = np.array(_flow(t_old + c * h, *(y_old + dy).T)).T
        hh = h[:, None]
        f_old = k[:, 0]
        delta_y = y - y_old
        f = np.empty((len(steps), 3 + len(DOP853.D), y.shape[1]))
        f[:, 0] = delta_y
        f[:, 1] = hh * f_old - delta_y
        f[:, 2] = 2 * delta_y - hh * (k[:, n_done - 1] + f_old)
        f[:, 3:] = hh[:, None] * np.matmul(DOP853.D, k)
        # sampling divides by t - t_old, as Dop853DenseOutput does
        t_end = np.array([st.t for st in steps])
        return cls(sol.ts_sorted, sol.side, sol.ascending, t_old, t_end - t_old, f, y_old)

    def __call__(self, t: float | np.ndarray) -> np.ndarray:
        """Real coordinates at t: shape (8,) for a scalar, (8, N) for N samples."""
        t = np.asarray(t, dtype=float)
        last = len(self.h) - 1
        seg = np.clip(np.searchsorted(self.ts_sorted, t, side=self.side) - 1, 0, last)
        if not self.ascending:
            seg = last - seg
        x = ((t - self.t_old[seg]) / self.h[seg])[..., None]
        y = np.zeros(x.shape[:-1] + self.y_old.shape[1:])
        for i, j in enumerate(range(self.f.shape[1] - 1, -1, -1)):
            y += self.f[seg, j]
            y *= x if i % 2 == 0 else 1 - x
        y += self.y_old[seg]
        return y.T


@dataclass(frozen=True)
class Trajectory:
    """Dense backward (or forward) solution, sampled with H at the samples."""

    s: np.ndarray                 # strictly monotone sample grid
    states: np.ndarray            # (n, 8) complex
    h: np.ndarray                 # complex Hamiltonian at samples
    dense: object                 # s -> complex states, (8,) or (8, N)
    steps: int                    # accepted solver steps
    nfev: int                     # right-hand-side evaluations
    min_step: float               # smallest |step|, the last one included
    anchor_order: int | None = None   # the anchor's Nystrom order (``AnchorState``)
    anchor_err: float = math.nan      # ... and its error; NaN for a given initial state

    def constraint_drift(self) -> np.ndarray:
        return np.abs(HamState(self.s, *self.states.T).constraint_sum())

    def h_at(self, s_val: np.ndarray) -> np.ndarray:
        """H from the dense output at s_val; DomainError outside the swept range,
        where the solution's end polynomial would only extrapolate."""
        s_val = np.atleast_1d(np.asarray(s_val, dtype=float))
        lo, hi = sorted((self.s[0], self.s[-1]))
        if not np.all((s_val >= lo) & (s_val <= hi)):
            raise DomainError(f"s outside the swept range [{lo}, {hi}]")
        return hamiltonian_value(HamState(s_val, *self.dense(s_val)))


def integrate(init: HamState, s_to: float, tol: float = 1e-10) -> Trajectory:
    """Adaptive high-order Runge-Kutta run from init.s to s_to with dense output.

    The sweep advances the eight real coordinates of the family (module
    notes) with the right-hand side on Python floats; the three extra
    dense-output stages of every step are evaluated in one array pass after
    the sweep (``_DeferredDOP853``).  The samples and the dense output are
    complex states again, both read from one ``_DenseSampler``.  The trajectory records the solver's step count,
    right-hand-side evaluations and smallest step.  Raises ConvergenceError on step
    failure or if the conserved constraint blows past 1e-3 (a diverged
    trajectory, not a tolerance issue), and DomainError for a tol that is not
    finite or below the solver's floor, for sweep ends that are not finite or
    equal, or for an initial state whose p0 or q0 is not real or whose
    oscillators are not purely imaginary.
    """
    if not (math.isfinite(tol) and tol >= _RTOL_MIN):
        raise DomainError(f"tol = {tol} is not finite or below the solver's "
                          f"floor {_RTOL_MIN:.1e}")
    s_from = init.s
    if not (math.isfinite(s_from) and math.isfinite(s_to)):
        raise DomainError(f"sweep ends must be finite, got {s_from} -> {s_to}")
    if s_from == s_to:
        raise DomainError(f"zero-length sweep at s = {s_from}")
    if min(s_from, s_to) <= 0:
        raise DomainError("trajectory must stay in s > 0")
    if max(s_from, s_to) > _S_ANCHOR_MAX:
        raise DomainError(f"anchor capped at s = {_S_ANCHOR_MAX} (scale-spread guard)")
    y0 = init.to_array()
    if (y0.imag[_REAL_PART] != 0).any() or (y0.real[~_REAL_PART] != 0).any():
        raise DomainError("initial state is off the family: p0 and q0 must be real, "
                          "p1..p3 and q1..q3 purely imaginary")
    # atol must sit far below the exponentially small q-components near the
    # anchor: absolute step noise there is amplified by exp(dtheta3/2) on the
    # way down, so a loose atol (not rtol) is what destroys backward sweeps.
    sol = solve_ivp(_sweep_rhs, (s_from, s_to), np.where(_REAL_PART, y0.real, y0.imag),
                    method=_DeferredDOP853, rtol=tol, atol=1e-15, max_step=_MAX_STEP,
                    dense_output=True)
    if not sol.success:
        raise ConvergenceError(f"integrator failed: {sol.message}")
    sample = _DenseSampler.of(sol.sol)
    grid = np.linspace(s_from, s_to, _SAMPLES)
    ys = _complex_states(sample(grid))
    traj = Trajectory(grid, ys.T, hamiltonian_value(HamState(grid, *ys)),
                      lambda s_val: _complex_states(sample(s_val)),
                      steps=len(sample.h), nfev=int(sol.nfev),
                      min_step=float(np.abs(sample.h).min()))
    drift = traj.constraint_drift().max()
    if drift > 1e-3:
        raise ConvergenceError(f"constraint blow-up: |sum p_k q_k| reached {drift:.2e}")
    return traj


def asymptotic_trajectory(params: ModelParams, s_from: float = 10.0, s_to: float = 0.5,
                          tol: float = 1e-10) -> Trajectory:
    """Backward trajectory of the special solution family from ``resolvent_anchor_state``.

    The trajectory records the anchor's order and error.
    """
    anchor = resolvent_anchor_state(s_from, params)
    return replace(integrate(anchor, s_to, tol),
                   anchor_order=anchor.order, anchor_err=anchor.err)


# -- exact composed derivatives of p0, q0 ------------------------------------

def p0_q0_derivatives(state: HamState) -> dict[str, complex]:
    """p0', p0'', p0''', q0', q0'', (p2 q2)', (p3 q3)' by exact composition of the flow."""
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
    return {"p0d": p0d, "p0dd": p0dd, "p0ddd": p0ddd, "q0d": q0d, "q0dd": q0dd,
            "d_p2q2": d_p2q2, "d_p3q3": d_p3q3}


def coupled_p0q0_residual(traj: Trajectory, params: ModelParams) -> dict[str, np.ndarray]:
    """Per-sample relative residuals of the coupled third/second-order p0-q0 equations.

    Residuals are normalized by the largest absolute term entering each
    equation.  States where the pivot denominator p0 + q0 - rho/sqrt(2)
    degenerates are rejected unless the whole system is at the gamma = 0
    fixed point (where both equations reduce to 0 = 0).
    """
    rho = params.rho
    st = HamState(traj.s, *traj.states.T)
    s = st.s
    d = p0_q0_derivatives(st)
    p0d, q0d, p0dd, q0dd, p0ddd = (d[k] for k in ("p0d", "q0d", "p0dd", "q0dd", "p0ddd"))
    denom = st.p0 + st.q0 - rho / _SQRT2
    degenerate = np.abs(denom) < 1e-8
    moving = degenerate & (np.abs([p0d, q0d, p0dd, q0dd]).max(axis=0) >= 1e-12)
    if moving.any():
        raise DomainError(f"degenerate denominator p0+q0-rho/sqrt2 at s = {s[moving][0]}")
    denom = np.where(degenerate, 1.0, denom)

    third_terms = [
        rho * p0d,
        -2.0 * _SQRT2 * q0d * p0d ** 2 / (s * s * denom),
        (1.0 + 2.0 * _SQRT2 / s * p0d)
        * (s * denom
           + (2.0 * q0d * p0dd + q0dd * p0d) / denom
           - p0d * q0d * (2.0 * q0d + p0d) / denom ** 2),
    ]
    scale3 = np.maximum(np.abs(third_terms + [p0ddd]).max(axis=0), 1e-30)
    res3 = np.abs(p0ddd - sum(third_terms)) / scale3
    second_terms = [
        -p0dd,
        p0d * q0d / denom * (3.0 + 2.0 * _SQRT2 / s * (p0d - q0d)),
        _SQRT2 * (st.p0 + st.q0) * denom,
    ]
    scale2 = np.maximum(np.abs(second_terms + [q0dd]).max(axis=0), 1e-30)
    res2 = np.abs(q0dd - sum(second_terms)) / scale2
    # at the gamma = 0 fixed point both equations reduce to 0 = 0
    return {"third_order": np.where(degenerate, 0.0, res3),
            "second_order": np.where(degenerate, 0.0, res2)}


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
    y = traj.states.T
    st = HamState(traj.s, *y)
    s = st.s
    p_arr, q_arr = y[:4], y[4:]
    rhs = _rhs_array(s, y)
    qdot = rhs[4:]
    d = p0_q0_derivatives(st)
    p0d, q0d = d["p0d"], d["q0d"]
    denom = st.p0 + st.q0 - rho / _SQRT2
    regular = np.abs(denom) > 1e-12
    denom = np.where(regular, denom, 1.0)
    out = {}

    # dH/ds along the flow by exact composition of the right-hand side
    dp, dq, ds = hamiltonian_partials(st)
    hdot = ds + (dp * rhs[:4]).sum(axis=0) + (dq * rhs[4:]).sum(axis=0)
    form1 = st.p3 * st.q1 - 2.0 / (s * s) * (st.p2 * st.q2) ** 2
    form2 = np.where(regular,
                     -denom / _SQRT2 - (p0d * q0d) ** 2 / (s * s * denom * denom),
                     np.where(np.abs(p0d * q0d) < 1e-15, form1, np.nan))
    out["dh_form1"] = np.abs(hdot - form1)
    out["dh_form2"] = np.abs(hdot - form2)
    out["dh_cross"] = np.abs(form1 - form2)

    h = traj.h
    lhs_action = (p_arr * qdot).sum(axis=0) - h
    d_p0q0 = p0d * st.q0 + st.p0 * q0d
    rhs_action = h + 0.25 * (2.0 * d_p0q0 + d["d_p2q2"] + 2.0 * d["d_p3q3"]
                             - 3.0 * h - 3.0 * s * hdot)
    out["action"] = np.abs(lhs_action - rhs_action)

    out["const2"] = np.abs(st.first_integral(rho))
    out["pq2"] = np.abs(st.p2 * st.q2 - np.where(regular, p0d * q0d / (_SQRT2 * denom), 0.0))

    # one 3x3 matrix per sample, stacked along axis 0
    a1 = np.einsum("in,jn->nij", q_arr[1:], p_arr[1:])
    a1_dot = (np.einsum("in,jn->nij", qdot[1:], p_arr[1:])
              + np.einsum("in,jn->nij", q_arr[1:], rhs[1:4]))
    m = np.zeros((len(s), 3, 3), dtype=complex)
    m[:, 0, 1] = 1.0 - 2.0 * st.p2 * st.q1 / s
    m[:, 1, 0] = _SQRT2 * st.p0 - 2.0 * st.p1 * st.q2 / s
    m[:, 1, 2] = 1.0 - 2.0 * st.p3 * st.q2 / s
    m[:, 2, 0] = s
    m[:, 2, 1] = _SQRT2 * st.q0 - 2.0 * st.p2 * st.q3 / s
    m_a1 = m @ a1
    scale = np.maximum(np.maximum(np.abs(a1_dot).max(axis=(1, 2)),
                                  np.abs(m_a1).max(axis=(1, 2))), 1e-30)
    out["zero_curvature"] = np.abs(a1_dot + a1 @ m - m_a1).max(axis=(1, 2)) / scale
    return out


def integral_representation_check(s_lo: float, s_hi: float, params: ModelParams, *,
                                  s_anchor: float = 10.0) -> dict[str, float]:
    """|[F(s_hi) - F(s_lo)] - 2 int_{s_lo}^{s_hi} H| with Simpson over dense samples."""
    if not 0.3 <= s_lo < s_hi <= _S_ANCHOR_MAX:
        raise DomainError(f"need 0.3 <= s_lo < s_hi <= {_S_ANCHOR_MAX}")
    if params.gamma == 0.0:
        return {"discrepancy": 0.0, "delta_f": 0.0, "integral": 0.0}
    traj = asymptotic_trajectory(params, s_from=max(s_anchor, s_hi), s_to=s_lo)
    grid = np.linspace(s_lo, s_hi, 801)
    h_vals = traj.h_at(grid).real
    integral = 2.0 * float(simpson(h_vals, x=grid))
    f_hi, f_lo = fredholm.logdet_converged([(s_hi, params.gamma), (s_lo, params.gamma)],
                                           params.rho, _CHECK_DET_TOL)
    delta_f = f_hi.f - f_lo.f
    return {"discrepancy": abs(delta_f - integral), "delta_f": delta_f,
            "integral": integral}


def trajectory_rows(traj: Trajectory, params: ModelParams) -> list[dict[str, float]]:
    """Flat per-sample rows (CSV export): s, Re/Im of all functions, Re H, residuals."""
    report = identity_report(traj, params)
    cols = {"s": traj.s}
    for j, name in enumerate(("p0", "p1", "p2", "p3", "q0", "q1", "q2", "q3")):
        cols[f"re_{name}"] = traj.states[:, j].real
        cols[f"im_{name}"] = traj.states[:, j].imag
    cols["re_h"], cols["im_h"] = traj.h.real, traj.h.imag
    for key in ("dh_cross", "action", "const2", "zero_curvature"):
        cols[key] = report[key]
    return [dict(zip(cols, row)) for row in zip(*(c.tolist() for c in cols.values()))]
