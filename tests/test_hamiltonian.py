import math

import numpy as np
import pytest

from pearceydet import fredholm as fr
from pearceydet import hamiltonian as ham
from pearceydet.errors import ConvergenceError, DomainError
from pearceydet.fredholm import logdet_converged, resolvent_boundary_trace
from pearceydet.params import ModelParams
from pearceydet.pearcey import tilde_psi_matrices

SQRT2 = math.sqrt(2.0)


def random_admissible_state(rng, s=3.0):
    """Random state on the constraint surface sum p_k q_k = 0."""
    vals = rng.uniform(-1, 1, 14)
    p1, p2, p3 = (complex(0, v) for v in vals[0:3])
    q1, q2 = (complex(0, v) for v in vals[3:5])
    q3 = -(p1 * q1 + p2 * q2) / p3
    p0, q0 = vals[5], vals[6]
    return ham.HamState(s, p0, p1, p2, p3, q0, q1, q2, q3)


UNITS = np.array([1, 1j, 1j, 1j, 1, 1j, 1j, 1j])
IS_REAL = UNITS.imag == 0


def real_coordinates(y):
    """(p0, Im p1, Im p2, Im p3, q0, Im q1, Im q2, Im q3)."""
    return np.where(IS_REAL, y.real, y.imag)


def printed_rhs(s, y):
    """The eight right-hand sides in the printed complex form."""
    p0, p1, p2, p3, q0, q1, q2, q3 = y
    return np.array([
        -SQRT2 * p3 * q2,
        -SQRT2 * p0 * p2 - s * p3 + 2.0 / s * p1 * p2 * q2,
        -SQRT2 * p3 * q0 - p1 - 2.0 / s * p2 * p2 * q2,
        -p2 + 2.0 / s * p2 * p3 * q2,
        SQRT2 * p2 * q1,
        q2 - 2.0 / s * p2 * q1 * q2,
        SQRT2 * p0 * q1 + q3 + 2.0 / s * p2 * q2 * q2,
        s * q1 + SQRT2 * q0 * q2 - 2.0 / s * p2 * q2 * q3,
    ], dtype=complex)


class TestSystemStructure:
    def test_beta_zero_fixed_point(self):
        p = ModelParams(0.0, 1.0)
        st = ham.asymptotic_state(8.0, p)
        assert np.all(ham._rhs_array(st.s, st.to_array()) == 0.0)
        assert ham.hamiltonian_value(st) == 0.0

    def test_hamilton_consistency(self):
        # rhs vs (dH/dp, -dH/dq) by central differences on the constraint surface
        rng = np.random.default_rng(2)
        for _ in range(5):
            st = random_admissible_state(rng)
            rhs = ham._rhs_array(st.s, st.to_array())
            h_step = 1e-6
            y = st.to_array()
            grad_p = np.zeros(4, dtype=complex)
            grad_q = np.zeros(4, dtype=complex)
            for k in range(4):
                for arr, idx in ((grad_p, k), (grad_q, 4 + k)):
                    yp, ym = y.copy(), y.copy()
                    yp[idx] += h_step
                    ym[idx] -= h_step
                    arr[idx % 4] = (
                        ham.hamiltonian_value(ham.HamState(st.s, *yp))
                        - ham.hamiltonian_value(ham.HamState(st.s, *ym))
                    ) / (2 * h_step)
            assert np.abs(rhs[4:] - grad_p).max() < 1e-7   # q' = dH/dp
            assert np.abs(rhs[:4] + grad_q).max() < 1e-7   # p' = -dH/dq

    def test_constraint_derivative_vanishes(self):
        rng = np.random.default_rng(4)
        st = random_admissible_state(rng)
        rhs = ham._rhs_array(st.s, st.to_array())
        y = st.to_array()
        ddt = (rhs[1] * y[5] + y[1] * rhs[5] + rhs[2] * y[6] + y[2] * rhs[6]
               + rhs[3] * y[7] + y[3] * rhs[7])
        assert abs(ddt) < 1e-10

    def test_pole_at_origin(self):
        with pytest.raises(DomainError):
            ham.hamiltonian_value(ham.HamState(0.0, 0, 0, 0, 0, 0, 0, 0, 0))

    def test_complex_rhs_is_the_real_flow(self):
        # on the family's states the complex flow is UNITS times the real one,
        # exactly, one sample or many
        rng = np.random.default_rng(6)
        states = [random_admissible_state(rng, s) for s in (0.7, 3.0, 9.5)]
        for st in states:
            y = real_coordinates(st.to_array())
            assert np.array_equal(ham._rhs_array(st.s, UNITS * y),
                                  UNITS * np.array(ham._flow(st.s, *y)))
        s = np.array([st.s for st in states])
        ys = np.array([st.to_array() for st in states]).T
        assert np.array_equal(ham._rhs_array(s, ys),
                              np.stack([ham._rhs_array(st.s, st.to_array())
                                        for st in states], axis=1))

    def test_rhs_matches_printed_complex_form(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            st = random_admissible_state(rng)
            ref = printed_rhs(st.s, st.to_array())
            assert np.abs(ham._rhs_array(st.s, st.to_array()) - ref).max() \
                <= 1e-15 * np.abs(ref).max()


class TestAsymptoticState:
    def test_gamma_zero_values(self):
        rho = 1.0
        st = ham.asymptotic_state(6.0, ModelParams(0.0, rho))
        assert st.p0 == pytest.approx((SQRT2 / 2) * (rho ** 3 / 54 + rho / 2))
        assert st.q0 == pytest.approx((SQRT2 / 2) * (-rho ** 3 / 54 + rho / 2))
        assert st.p1 == st.p2 == st.p3 == st.q1 == st.q2 == st.q3 == 0.0

    def test_first_integral_small(self):
        st = ham.asymptotic_state(10.0, ModelParams(0.5, 1.0))
        # leading-order data satisfies the first integral to O(s^{-2/3})
        assert abs(st.first_integral(1.0)) < 10.0 ** (-2.0 / 3.0)

    def test_hamiltonian_matches_tail_formula(self):
        from pearceydet.asymptotics import h_large_s
        p = ModelParams(0.5, 0.0)
        st = ham.asymptotic_state(10.0, p)
        assert abs(ham.hamiltonian_value(st) - h_large_s(10.0, p)) < 1e-2
        assert abs(ham.hamiltonian_value(st).imag) < 1e-8

    def test_system_residual_ratio_stable(self):
        # closed forms miss the O(s^{-2/3}) oscillatory corrections whose
        # derivative is O(1) relative to the right-hand side; the normalized
        # residual is bounded and stable between s = 8 and s = 16
        p = ModelParams(0.5, 0.0)

        def rel_residual(s):
            h = 1e-5
            d_num = (ham.asymptotic_state(s + h, p).to_array()
                     - ham.asymptotic_state(s - h, p).to_array()) / (2 * h)
            rhs = ham._rhs_array(s, ham.asymptotic_state(s, p).to_array())
            scale = np.maximum(np.abs(rhs), np.abs(d_num))
            scale[scale == 0] = 1.0
            return float((np.abs(d_num - rhs) / scale).max())

        r8, r16 = rel_residual(8.0), rel_residual(16.0)
        assert r8 < 1.0 and r16 < 1.0
        assert abs(r16 / r8 - 1.0) < 0.5

    def test_domain(self):
        with pytest.raises(DomainError):
            ham.asymptotic_state(2.0, ModelParams(0.5, 0.0))


def _dual_weight_vector(mats, gamma, det_ref):
    """gamma/(2 pi i) tilde_psi^{-T} (0,1,1)^T via explicit cofactors.

    The needed cofactors always pair the slowly-varying first matrix column
    with one of the exponentially large columns, so this form avoids the
    catastrophic large-times-large cancellations a generic 3x3 solve hits for
    |x| near the interval ends.  det(tilde_psi) is z-independent (the ODE has
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


class TestResolventAnchor:
    @pytest.mark.parametrize("rho", [-2.0, 0.0, 1.0, 2.0])
    def test_dual_weights_match_tilde_psi_cofactors(self, rho, monkeypatch):
        # (0 1 1) tilde_psi(y)^{-1} = i g(y) at the anchor's nodes and its end:
        # the dual right-hand side the anchor's end-point solve receives
        dual = []
        real = fr._end_solves
        monkeypatch.setattr(fr, "_end_solves", lambda k, w, g, f, h: dual.append(h)
                            or real(k, w, g, f, h))
        det_ref = np.linalg.det(tilde_psi_matrices(np.zeros(1), rho))[0]
        for s0 in (4.0, 6.0, 8.0, 10.0, 12.0):
            pts = np.append(s0 * fr.gauss_legendre(64).nodes, s0)
            mats = tilde_psi_matrices(pts, rho)
            for gamma in (0.1, 0.5, 0.95):
                ref = _dual_weight_vector(mats, gamma, det_ref)
                fr.resolvent_end_values(s0, ModelParams(gamma, rho), 64)
                got = dual.pop()
                assert (np.abs(got - ref).max(axis=0)
                        <= 1e-10 * np.abs(ref).max(axis=0)).all()

    @pytest.mark.parametrize("gamma,rho", [(0.5, 0.0), (0.9, 2.0), (0.5, -2.0),
                                           (0.99, 0.0), (0.1, 4.0), (0.5, -4.0),
                                           (0.95, 2.0), (0.999, 0.0), (0.9999, -4.0),
                                           (0.9999, 4.0)])
    def test_err_bounds_the_change_to_n_512(self, gamma, rho):
        # the doubling stops at 64 or 128, and its err, 1e-9 scaled by the
        # solve's amplification 1/(1 - gamma) against gamma = 1/2, bounds the
        # distance to a fixed n = 512 extraction in the same per-block measure;
        # near gamma = 1 a fixed 1e-9 refused every order at rho = -4, s0 = 12
        p = ModelParams(gamma, rho)
        for s0 in (4.0, 6.0, 8.0, 10.0, 12.0):
            st = ham.resolvent_anchor_state(s0, p)
            assert st.order in (64, 128)
            assert st.err == 1e-9 * max(1.0, 0.5 / (1.0 - gamma))
            assert ham._block_change(ham._extract(s0, p, 512), st) <= st.err

    def test_doubling_that_cannot_settle_raises(self, monkeypatch):
        orders = []
        real = ham._extract
        monkeypatch.setattr(ham, "_extract", lambda s0, p, n: orders.append(n) or real(s0, p, n))
        monkeypatch.setattr(ham, "_block_change", lambda a, b: 1e-8)
        with pytest.raises(ConvergenceError, match="n = 512"):
            ham.resolvent_anchor_state(8.0, ModelParams(0.5, 0.3))
        assert orders == [32, 64, 128, 256, 512]

    def test_gamma_zero_has_no_order(self):
        st = ham.resolvent_anchor_state(8.0, ModelParams(0.0, 0.3))
        assert st.order is None and st.err == 0.0
        assert st.to_array().tolist() == ham.asymptotic_state(8.0, ModelParams(0.0, 0.3)
                                                             ).to_array().tolist()

    def test_consistent_with_asymptotics_and_decaying(self):
        # closed-form boundary data approaches the extracted truth like s^{-2/3}
        p = ModelParams(0.5, 0.0)
        rel_err = {}
        for s0 in (8.0, 12.0):
            sa = ham.asymptotic_state(s0, p)
            sr = ham.resolvent_anchor_state(s0, p)
            pv_a = np.array([sa.p1, sa.p2, sa.p3])
            pv_r = np.array([sr.p1, sr.p2, sr.p3])
            rel_err[s0] = np.linalg.norm(pv_a - pv_r) / np.linalg.norm(pv_r)
        assert rel_err[8.0] < 8.0 ** (-2.0 / 3.0)
        assert rel_err[12.0] < rel_err[8.0]

    def test_invariants_exact(self):
        st = ham.resolvent_anchor_state(10.0, ModelParams(0.5, 0.0))
        assert abs(st.constraint_sum()) < 1e-12
        assert abs(st.first_integral(0.0)) < 1e-12

    @pytest.mark.parametrize("gamma,rho,s0", [(0.5, 0.3, 8.0), (0.9, -1.5, 9.5),
                                              (0.2, 1.7, 6.0), (0.5, 0.0, 10.0)])
    def test_one_factorisation_matches_separate_solves(self, monkeypatch, gamma, rho, s0):
        def separate(kmat, w, g, f, h):
            n = len(w)
            a = np.eye(n) - g * kmat * w[None, :]
            a_dual = np.eye(n) - g * (kmat * w[:, None]).T
            out = []
            for m, b in ((a, f), (a_dual, h)):
                x = np.linalg.solve(m, b)
                out.append(x + np.linalg.solve(m, b - m @ x))
            return tuple(out)

        p = ModelParams(gamma, rho)
        got = ham.resolvent_anchor_state(s0, p).to_array()
        monkeypatch.setattr(fr, "_resolvent_solves", separate)
        ref = ham.resolvent_anchor_state(s0, p).to_array()
        # p and q blocks differ in scale by up to e^{theta3}: each against its own
        for block in ([0, 4], [1, 2, 3], [5, 6, 7]):
            assert np.abs(got[block] - ref[block]).max() <= 1e-13 * np.abs(ref[block]).max()

    def test_hamiltonian_consistency(self):
        # H of the anchor equals (1/2) dF/ds by construction of (p0, q0);
        # the oscillator extraction is what this validates
        p = ModelParams(0.3, 1.0)
        st = ham.resolvent_anchor_state(8.0, p)
        hv = ham.hamiltonian_value(st).real
        hf = 0.5 * resolvent_boundary_trace(8.0, p, 256)
        assert hv == pytest.approx(hf, rel=1e-10)


class TestTrajectory:
    def test_backward_sweep_conserves(self):
        p = ModelParams(0.5, 0.0)
        traj = ham.asymptotic_trajectory(p, 10.0, 0.5, tol=1e-11)
        anchor = ham.resolvent_anchor_state(10.0, p)
        assert (traj.anchor_order, traj.anchor_err) == (anchor.order, anchor.err)
        assert traj.constraint_drift().max() < 1e-6
        assert np.abs(traj.h.imag).max() < 1e-6
        assert traj.s[0] == 10.0 and traj.s[-1] == 0.5

    def test_h_matches_fredholm(self):
        p = ModelParams(0.5, 0.0)
        traj = ham.asymptotic_trajectory(p, 10.0, 2.0, tol=1e-10)
        for s in (2.0, 5.0, 8.0):
            ht = float(traj.h_at(np.array([s]))[0].real)
            hf = 0.5 * resolvent_boundary_trace(s, p, 192)
            assert ht == pytest.approx(hf, rel=0.02)

    def test_p0_limit_at_small_s(self):
        rho = 1.0
        p = ModelParams(0.5, rho)
        traj = ham.asymptotic_trajectory(p, 10.0, 0.5, tol=1e-10)
        limit = (SQRT2 / 2) * (rho ** 3 / 54 + rho / 2)
        assert abs(traj.states[-1, 0].real - limit) < 0.1

    def test_asymptotic_ic_short_sweep(self):
        # leading-order data supports only short backward sweeps
        p = ModelParams(0.5, 0.0)
        ic = ham.project_invariants(ham.asymptotic_state(10.0, p), p)
        traj = ham.integrate(ic, 8.0, 1e-10)
        assert traj.constraint_drift().max() < 1e-10  # projected exactly

    @pytest.mark.parametrize("rho", [-2.0, 0.0, 1.7])
    def test_structural_zeros_exact(self, rho):
        t = ham.asymptotic_trajectory(ModelParams(0.5, rho), 8.0, 0.5)
        for states in (t.states, t.dense(np.linspace(0.5, 8.0, 37)).T):
            assert np.all(states.imag[:, IS_REAL] == 0.0)
            assert np.all(states.real[:, ~IS_REAL] == 0.0)

    def test_matches_complex_state_sweep(self):
        # the printed complex system through the same DOP853 settings
        from scipy.integrate import solve_ivp
        p = ModelParams(0.5, 0.3)
        ic = ham.resolvent_anchor_state(8.0, p)
        t = ham.integrate(ic, 0.5, 1e-10)
        sol = solve_ivp(printed_rhs, (8.0, 0.5), ic.to_array(), method="DOP853",
                        rtol=1e-10, atol=1e-15, max_step=0.05, dense_output=True)
        ref = sol.sol(t.s).T
        scale = np.abs(ref).max(axis=0)
        assert (np.abs(t.states - ref).max(axis=0) <= 1e-6 * scale).all()

    @pytest.mark.parametrize("field,shift", [("p0", 1e-3j), ("q0", -1e-9j),
                                             ("p1", 1e-3), ("q3", 1e-12)])
    def test_off_family_initial_state(self, field, shift):
        from dataclasses import replace
        ic = ham.resolvent_anchor_state(8.0, ModelParams(0.5, 0.0))
        bad = replace(ic, **{field: getattr(ic, field) + shift})
        with pytest.raises(DomainError):
            ham.integrate(bad, 4.0)

    def test_sweep_starts_at_initial_state(self):
        ic = ham.resolvent_anchor_state(7.0, ModelParams(0.5, 0.0))
        t = ham.integrate(ic, 6.0)
        assert t.s[0] == ic.s and t.s[-1] == 6.0

    def test_nan_initial_s_rejected_before_solve(self, monkeypatch):
        from dataclasses import replace
        ic = ham.resolvent_anchor_state(7.0, ModelParams(0.5, 0.0))
        monkeypatch.setattr(ham, "solve_ivp",
                            lambda *a, **kw: pytest.fail("solve_ivp ran from s = NaN"))
        with pytest.raises(DomainError):
            ham.integrate(replace(ic, s=math.nan), 6.0)

    def test_blowup_detected(self, recwarn):
        # ...and a full sweep from leading-order data diverges detectably: the
        # integrator's step size collapses on the pole, with no warning
        p = ModelParams(0.5, 0.0)
        with pytest.raises(ConvergenceError, match="integrator failed: dop853: step size"):
            ham.integrate(ham.project_invariants(ham.asymptotic_state(10.0, p), p), 0.5,
                          1e-10)
        assert len(recwarn) == 0


_SWEEP_OPTIONS = dict(rtol=1e-10, atol=1e-15, max_step=0.05, dense_output=True)


def _flow(s, y):
    return ham._flow(s, *y)


@pytest.fixture(scope="module")
def sweeps():
    """A backward sweep 6 -> 4 and a forward one back to 6, short enough to amplify little.

    Each entry is (a, b, steps, sample, ref): the recorded steps of the
    compiled DOP853, the dense output rebuilt from them, and scipy's
    ``solve_ivp`` DOP853 with its own dense output on the same sweep.
    """
    from scipy.integrate import solve_ivp
    ic = ham.resolvent_anchor_state(6.0, ModelParams(0.5, 0.3))
    y = real_coordinates(ic.to_array())
    out = []
    for a, b in ((6.0, 4.0), (4.0, 6.0)):
        steps = ham._dop853(1e-10).run(a, b, y)
        ref = solve_ivp(_flow, (a, b), y, method="DOP853", **_SWEEP_OPTIONS)
        out.append((a, b, steps, ham._DenseSampler.of(steps), ref))
        y = steps.y[-1]
    return out


class TestDenseSampler:
    """The dense output rebuilt from the compiled DOP853's accepted steps.

    ``_DenseSampler.of`` evaluates every stage again, for all steps at once,
    so it matches scipy's own DOP853 dense output to rounding of the stages,
    not bit for bit.
    """

    @pytest.mark.parametrize("direction", [0, 1], ids=["backward", "forward"])
    def test_reproduces_recorded_steps(self, sweeps, direction):
        a, b, steps, sample, _ = sweeps[direction]
        assert steps.t[0] == a and steps.t[-1] == b
        assert len(sample.h) == len(steps.t) - 1
        # every step's interpolant starts at the recorded state, bit for bit...
        assert sample.y_old.tobytes() == steps.y[:-1].tobytes()
        assert sample(a).tobytes() == steps.y[0].tobytes()
        # ...and a boundary samples the step that ends there, to rounding
        scale = np.abs(steps.y).max(axis=0)
        assert (np.abs(sample(steps.t) - steps.y.T).max(axis=1) <= 4e-16 * scale).all()

    @pytest.mark.parametrize("direction", [0, 1], ids=["backward", "forward"])
    def test_matches_scipy_dense_output(self, sweeps, direction):
        a, b, _, sample, ref = sweeps[direction]
        # the trajectory grid, scipy's step points and both ends
        for s in (np.linspace(a, b, 400), ref.t, np.array([a, b]), ref.t[::-1]):
            got, want = sample(s), ref.sol(s)
            assert got.shape == (8, len(s))
            assert (np.abs(got - want).max(axis=1) <= 1e-12 * np.abs(want).max(axis=1)).all()

    @pytest.mark.parametrize("direction", [0, 1], ids=["backward", "forward"])
    def test_matches_tight_reference(self, sweeps, direction):
        from scipy.integrate import solve_ivp
        a, b, steps, sample, _ = sweeps[direction]
        tight = solve_ivp(_flow, (a, b), steps.y[0], method="DOP853",
                          **{**_SWEEP_OPTIONS, "rtol": 1e-13, "max_step": 0.005})
        s = np.linspace(a, b, 400)
        want = tight.sol(s)
        assert (np.abs(sample(s) - want).max(axis=1) <= 1e-10 * np.abs(want).max(axis=1)).all()

    @pytest.mark.parametrize("direction", [0, 1], ids=["backward", "forward"])
    def test_scalar_gives_one_state(self, sweeps, direction):
        a, b, steps, sample, _ = sweeps[direction]
        s = np.array([a, b, steps.t[7], 0.5 * (a + b)])
        many = sample(s)
        for j, s_j in enumerate(s):
            got = sample(float(s_j))
            assert got.shape == (8,)
            assert got.tobytes() == many[:, j].tobytes()

    def test_trajectory_samples_and_step_statistics(self, monkeypatch):
        built = []
        real = ham.solve_ivp
        monkeypatch.setattr(ham, "solve_ivp",
                            lambda *args: built.append((args, real(*args))) or built[-1][1])
        ic = ham.resolvent_anchor_state(6.0, ModelParams(0.5, 0.3))
        t = ham.integrate(ic, 4.0, 1e-10)
        [(args, sample)] = built
        assert args[:2] == (6.0, 4.0) and args[3] == 1e-10
        assert real_coordinates(t.states).tobytes() == sample(t.s).T.tobytes()
        assert real_coordinates(t.dense(5.5)).tobytes() == sample(5.5).tobytes()
        # the same sweep again: the recorded steps and the stepping's calls
        steps = ham._dop853(1e-10).run(*args[:3])
        assert t.steps == len(steps.t) - 1 >= 40
        assert t.min_step == np.abs(np.diff(steps.t)).min() > 0
        # 12 calls per accepted step, more for the first step size and any
        # rejected one; then the rebuild: f at every record and 14 stages a step
        assert steps.nfev >= 12 * t.steps
        assert t.nfev == sample.nfev == steps.nfev + len(steps.t) + 14 * t.steps

    def test_scipy_private_names(self):
        # the dependency contract: the DOP853 coefficient tables _DenseSampler
        # reads, so a scipy that drops or reshapes one fails here by name
        from scipy.integrate import DOP853
        shapes = {"A": (12, 12), "C": (12,), "A_EXTRA": (3, 16), "C_EXTRA": (3,), "D": (4, 16)}
        got = {name: np.shape(getattr(DOP853, name, None)) for name in shapes}
        assert got == shapes
        assert getattr(DOP853, "n_stages", None) == 12


class TestCompiledDriver:
    """The cached compiled DOP853: its records, its failures, its memory."""

    def test_no_memory_growth_across_sweeps(self):
        import gc
        import tracemalloc
        ic = ham.resolvent_anchor_state(6.0, ModelParams(0.5, 0.3))
        y = real_coordinates(ic.to_array())
        driver = ham._dop853(1e-10)
        for _ in range(10):
            ham.solve_ivp(6.0, 5.5, y, 1e-10)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(200):
                ham.solve_ivp(6.0, 5.5, y, 1e-10)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # a fresh integrator per sweep is never freed: ~40 KB a sweep
        assert grown < 100_000
        assert ham._dop853(1e-10) is driver
        assert (driver._t, driver._y) == ([], [])

    def test_failure_leaves_no_records(self):
        p = ModelParams(0.5, 0.0)
        ic = ham.project_invariants(ham.asymptotic_state(10.0, p), p)
        y = real_coordinates(ic.to_array())
        driver = ham._dop853(1e-10)
        with pytest.raises(ConvergenceError, match="dop853: step size becomes too small"):
            driver.run(10.0, 0.5, y)
        assert (driver._t, driver._y) == ([], [])

    def test_too_many_steps_raises(self, monkeypatch):
        monkeypatch.setattr(ham, "_NSTEPS", 5)
        ic = ham.resolvent_anchor_state(6.0, ModelParams(0.5, 0.3))
        driver = ham._Dop853(1e-10)
        with pytest.raises(ConvergenceError, match="dop853: larger nsteps is needed"):
            driver.run(6.0, 4.0, real_coordinates(ic.to_array()))
        assert (driver._t, driver._y) == ([], [])


    def test_last_step_lands_on_the_end(self):
        # the compiled code's last step ends at X + (s_to - X), an ulp off s_to
        # below s ~ 0.05; the records end on s_to itself
        ic = ham.resolvent_anchor_state(4.0, ModelParams(0.3, 0.0))
        for s_to in (0.001, 0.0027836299928834184, 0.010381374872202241):
            steps = ham._dop853(1e-10).run(4.0, s_to, real_coordinates(ic.to_array()))
            assert steps.t[-1] == s_to

    def test_stopping_short_raises(self, monkeypatch):
        driver = ham._dop853(1e-10)

        class Short:
            """An integrator that reports success one step short of the end."""

            def set_initial_value(self, y, s):
                driver._record(s, y)
                driver._record(s - 0.5, y)
                return self

            def integrate(self, s):
                pass

            def get_return_code(self):
                return 1

        monkeypatch.setattr(driver, "_ode", Short())
        with pytest.raises(ConvergenceError, match="stopped at s = 5.5, not 4.0"):
            driver.run(6.0, 4.0, np.zeros(8))
        assert (driver._t, driver._y) == ([], [])


@pytest.fixture(scope="module")
def traj():
    p = ModelParams(0.5, 0.0)
    return p, ham.asymptotic_trajectory(p, 10.0, 0.5, tol=1e-11)


class TestIdentityReport:

    def test_dh_dual_forms(self, traj):
        p, t = traj
        rep = ham.identity_report(t, p)
        assert np.nanmax(rep["dh_cross"]) < 1e-9
        assert np.nanmax(rep["dh_form1"]) < 1e-9

    def test_action_identity(self, traj):
        p, t = traj
        rep = ham.identity_report(t, p)
        assert np.nanmax(rep["action"]) < 1e-9

    def test_first_integrals_along_flow(self, traj):
        p, t = traj
        rep = ham.identity_report(t, p)
        assert np.nanmax(rep["const2"]) < 1e-9
        assert np.nanmax(rep["pq2"]) < 1e-9

    def test_zero_curvature(self, traj):
        p, t = traj
        rep = ham.identity_report(t, p)
        assert np.nanmax(rep["zero_curvature"]) < 1e-8

    def test_beta_zero_trajectory_trivial(self):
        # p0 + q0 - rho/sqrt2 vanishes on every sample: the pole branches run
        p = ModelParams(0.0, 1.0)
        ic = ham.asymptotic_state(8.0, p)
        t = ham.integrate(ic, 1.0, 1e-10)
        rep = ham.identity_report(t, p)
        for key, vals in rep.items():
            assert vals.shape == t.s.shape, key
            # const2 is the rounding of the rho-polynomial constants, the rest exact
            assert np.all(vals <= (1e-15 if key == "const2" else 0.0)), key

    def test_h_matches_per_sample_evaluation(self, traj):
        _, t = traj
        for s, y, h in zip(t.s, t.states, t.h):
            assert abs(ham.hamiltonian_value(ham.HamState(s, *y)) - h) \
                <= 1e-15 * abs(h)

    def test_coupled_equations(self, traj):
        p, t = traj
        res = ham.coupled_p0q0_residual(t, p)
        # the samples nearest s = 2, 5 and 8
        idx = [int(np.abs(t.s - s).argmin()) for s in (2.0, 5.0, 8.0)]
        assert res["third_order"][idx].max() < 1e-6
        assert res["second_order"][idx].max() < 1e-7

    def test_coupled_beta_zero(self):
        p = ModelParams(0.0, 1.0)
        ic = ham.asymptotic_state(8.0, p)
        t = ham.integrate(ic, 2.0, 1e-10)
        res = ham.coupled_p0q0_residual(t, p)
        assert res["third_order"].shape == res["second_order"].shape == t.s.shape
        assert np.all(res["third_order"] == 0.0)
        assert np.all(res["second_order"] == 0.0)

    def test_dense_output_stays_in_the_swept_range(self):
        # the sweep runs 8 -> 2: beyond it the dense output would extrapolate
        p = ModelParams(0.5, 0.0)
        t = ham.asymptotic_trajectory(p, 8.0, 2.0)
        for s_bad in ([1.0, 0.5], [3.0, 8.5], [math.nan]):
            with pytest.raises(DomainError):
                t.h_at(s_bad)
        inside = np.array([2.0, 3.7, 8.0])
        direct = ham.hamiltonian_value(ham.HamState(inside, *t.dense(inside)))
        assert np.array_equal(t.h_at(inside), direct)


class TestIntegralRepresentation:
    def test_gamma_zero(self):
        out = ham.integral_representation_check(0.5, 4.0, ModelParams(0.0, 0.0))
        assert out["discrepancy"] == 0.0

    def test_within_budget(self):
        p = ModelParams(0.5, 0.0)
        out = ham.integral_representation_check(0.5, 4.0, p, s_anchor=10.0)
        assert out["discrepancy"] <= 0.03 * abs(out["delta_f"])

    def test_matches_fredholm_difference(self):
        p = ModelParams(0.5, 0.0)
        out = ham.integral_representation_check(1.0, 3.0, p, s_anchor=8.0)
        f3 = logdet_converged([(3.0, 0.5)], 0.0, 1e-9)[0].f
        f1 = logdet_converged([(1.0, 0.5)], 0.0, 1e-9)[0].f
        assert out["delta_f"] == pytest.approx(f3 - f1, abs=1e-8)


class TestComposedDerivatives:
    def test_against_finite_differences_along_flow(self):
        # exact compositions vs high-order differencing of a dense trajectory
        p = ModelParams(0.5, 0.0)
        traj = ham.asymptotic_trajectory(p, 10.0, 4.0, tol=1e-12)
        s = 6.0
        h = 1e-3
        ys = traj.dense(np.array([s - 2 * h, s - h, s, s + h, s + 2 * h]))
        p0_vals = ys[0]
        q0_vals = ys[4]
        st = ham.HamState(s, *ys[:, 2])
        d = ham.p0_q0_derivatives(st)
        d1 = (p0_vals[0] - 8 * p0_vals[1] + 8 * p0_vals[3] - p0_vals[4]) / (12 * h)
        d2 = (-p0_vals[0] + 16 * p0_vals[1] - 30 * p0_vals[2]
              + 16 * p0_vals[3] - p0_vals[4]) / (12 * h * h)
        d2q = (-q0_vals[0] + 16 * q0_vals[1] - 30 * q0_vals[2]
               + 16 * q0_vals[3] - q0_vals[4]) / (12 * h * h)
        d3 = (-p0_vals[0] + 2 * p0_vals[1] - 2 * p0_vals[3] + p0_vals[4]) / (2 * h ** 3)
        assert abs(d["p0d"] - d1) < 1e-9
        assert abs(d["p0dd"] - d2) < 1e-7
        assert abs(d["q0dd"] - d2q) < 1e-7
        assert abs(d["p0ddd"] - d3) < 1e-4


class TestHighGammaCorner:
    def test_large_rho_sweep_from_moderate_anchor(self):
        # high-thinning, rho = 1: anchor at 8 keeps the full sweep accurate
        p = ModelParams(0.9, 1.0)
        ic = ham.resolvent_anchor_state(8.0, p)
        t = ham.integrate(ic, 0.5, 1e-10)
        assert t.constraint_drift().max() < 1e-6
        h2 = float(t.h_at(np.array([2.0]))[0].real)
        hf = 0.5 * resolvent_boundary_trace(2.0, p, 160)
        assert abs(h2 - hf) <= 2e-3 * abs(hf)
