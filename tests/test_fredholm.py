import math

import numpy as np
import pytest

from pearceydet import asymptotics as asym
from pearceydet import fredholm as fr
from pearceydet import hamiltonian as ham
from pearceydet import kernel as kn
from pearceydet import pearcey as pc
from pearceydet.cli import main
from pearceydet.errors import ConvergenceError, DomainError, SignError
from pearceydet.kernel import kernel_point
from pearceydet.params import ModelParams


class TestGaussLegendre:
    def test_n1(self):
        rule = fr.gauss_legendre(1)
        assert rule.nodes[0] == 0.0
        assert rule.weights[0] == 2.0

    def test_n2(self):
        rule = fr.gauss_legendre(2)
        assert np.allclose(rule.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)],
                           atol=1e-15)
        assert np.allclose(rule.weights, [1.0, 1.0], atol=1e-15)

    def test_quartic_exactness_n3(self):
        rule = fr.gauss_legendre(3)
        assert (rule.weights * rule.nodes ** 4).sum() == pytest.approx(0.4, abs=1e-14)

    @pytest.mark.parametrize("n", [5, 16, 64, 257])
    def test_weight_sum_and_symmetry(self, n):
        rule = fr.gauss_legendre(n)
        assert rule.weights.sum() == pytest.approx(2.0, abs=1e-13)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.allclose(rule.nodes, -rule.nodes[::-1], atol=1e-14)
        assert np.all(rule.weights > 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 127, 256, 384, 2048])
    def test_mirror_image_bitwise(self, n):
        rule = fr.gauss_legendre(n)
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])
        assert np.array_equal(rule.weights, rule.weights[::-1])

    def test_polynomial_exactness(self):
        # degree 2n-1 exactness on random polynomials
        rng = np.random.default_rng(5)
        n = 7
        rule = fr.gauss_legendre(n)
        for _ in range(5):
            coeffs = rng.uniform(-1, 1, 2 * n)
            poly = np.polynomial.Polynomial(coeffs)
            exact = (poly.integ()(1.0) - poly.integ()(-1.0))
            quad = (rule.weights * poly(rule.nodes)).sum()
            assert quad == pytest.approx(exact, abs=1e-13)

    def test_cached_rule_is_read_only(self):
        rule = fr.gauss_legendre(8)
        assert fr.gauss_legendre(8) is rule
        for arr in (rule.nodes, rule.weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestLogdet:
    def test_gamma_zero_is_exact_zero(self):
        for s in (0.5, 3.0):
            assert fr.fredholm_logdet(s, 0.0, 1.0, 32).f == 0.0

    def test_order_stability(self):
        f32 = fr.fredholm_logdet(0.5, 0.5, 0.0, 32).f
        f64 = fr.fredholm_logdet(0.5, 0.5, 0.0, 64).f
        assert abs(f32 - f64) < 1e-10

    def test_monotone_in_s(self):
        f2 = fr.fredholm_logdet(2.0, 0.5, 0.0, 128).f
        f4 = fr.fredholm_logdet(4.0, 0.5, 0.0, 128).f
        assert f4 < f2 < 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            fr.fredholm_logdet(13.0, 0.5, 0.0, 64)
        with pytest.raises(DomainError):
            fr.fredholm_logdet(2.0, 1.5, 0.0, 64)


class TestLogdetConverged:
    def test_converges_by_256(self):
        [res] = fr.logdet_converged([(6.0, 0.5)], 0.0, 1e-10)
        assert res.order <= 256
        assert res.err_est < 1e-10

    def test_gamma_zero_immediate(self):
        [res] = fr.logdet_converged([(2.0, 0.0)], 0.0, 1e-10)
        assert res.f == 0.0

    def test_err_history_decreasing(self):
        # doubling history examined below the machine plateau (n >= 32 is
        # already converged to ~1e-14 for this kernel)
        vals = [fr.fredholm_logdet(4.0, 0.9, 1.0, n).f for n in (4, 8, 16, 32)]
        errs = [abs(b - a) for a, b in zip(vals, vals[1:])]
        assert errs[2] < errs[1] < errs[0]

    def test_spectral_rate(self):
        # err drops by >= 10x per doubling while above the roundoff floor
        vals = [fr.fredholm_logdet(5.0, 0.7, 0.0, n).f for n in (8, 16, 32)]
        e1, e2 = abs(vals[1] - vals[0]), abs(vals[2] - vals[1])
        assert e2 <= 0.1 * e1 or e2 < 1e-13


_PARITY_ORDERS = [1, 2, 3, 16, 127, 256, 384]


def _full_square(s, rho, n):
    """The order-n rule on (-s, s), its weights and the full square K over its nodes."""
    [(_, x, w, _)] = fr._nystrom((s,), rho, n)
    return x, w, kn._kernel_matrix_from_session(rho, x, x)


def _symmetrized_square(w, k):
    sqrt_w = np.sqrt(w)
    return sqrt_w[:, None] * k * sqrt_w[None, :]


class TestParityFold:
    @pytest.mark.parametrize("n", _PARITY_ORDERS)
    @pytest.mark.parametrize("rho", [-2.0, 0.0, 1.7])
    def test_nystrom_matrix_is_centrosymmetric(self, n, rho):
        # K(-x, -y) = K(x, y) on a mirror-image rule holds bitwise, so the fold is exact
        _, _, k = _full_square(4.0, rho, n)
        assert np.array_equal(k, k[::-1, ::-1])

    @pytest.mark.parametrize("n", _PARITY_ORDERS)
    @pytest.mark.parametrize("rho", [-2.0, 0.0, 1.7])
    def test_half_block_is_the_rows_of_the_nonnegative_nodes(self, n, rho):
        # each entry of the half block is the full square's, to the bit
        [(_, x, _, k)] = fr._nystrom((1.0,), rho, n)
        assert k.shape == (n - n // 2, n)
        assert k.tobytes() == kn._kernel_matrix_from_session(rho, x, x)[n // 2:].tobytes()

    @pytest.mark.parametrize("s, rho, n", [(4.0, 0.0, 16), (8.0, 0.3, 256), (2.5, -1.7, 127),
                                           (12.0, 2.0, 64), (0.5, -2.0, 3)])
    def test_extra_points_leave_the_nystrom_block_bitwise(self, s, rho, n):
        # the end point s gets bundle calls of its own, so the square over (x, s)
        # of the resolvent solves changes no bit of the Nystrom matrix
        _, w, k = _full_square(s, rho, n)
        w_e, k_e, p_e, q_e = fr._end_square(s, rho, n)
        assert k_e.shape == (n + 1, n + 1) and p_e.shape == q_e.shape == (3, n + 1)
        assert np.array_equal(w_e, w)
        assert k_e[:n, :n].tobytes() == k.tobytes()

    @pytest.mark.parametrize("n", _PARITY_ORDERS)
    @pytest.mark.parametrize("gamma", [0.7, -3.0])
    def test_matches_full_slogdet(self, n, gamma):
        [(_, x, w, k)] = fr._nystrom((2.5,), 0.6, n)
        a = _symmetrized_square(w, kn._kernel_matrix_from_session(0.6, x, x))
        sign, full = np.linalg.slogdet(np.eye(n) - gamma * a)
        assert sign == 1.0
        f = fr._parity_logdets(fr._symmetrized(w, k), [gamma])[0]
        assert abs(f - full) <= 1e-13 * max(1.0, abs(full))

    @pytest.mark.parametrize("n", _PARITY_ORDERS)
    def test_stack_matches_one_gamma_at_a_time(self, n):
        # each gamma of a stack is factored on its own: the stack changes no bit
        [(_, _, w, k)] = fr._nystrom((6.0,), -0.4, n)
        a = fr._symmetrized(w, k)
        gammas = [0.9, -3.0, 0.25, 1.0]
        stacked = fr._parity_logdets(a, gammas)
        assert stacked.shape == (4,)
        # (NaN marks a non-positive block, at the coarsest orders)
        np.testing.assert_array_equal(stacked, [fr._parity_logdets(a, [g])[0] for g in gammas])

    def test_parity_blocks_catch_a_sign_the_full_determinant_hides(self):
        # n = 2: both 1x1 parity factors of det(I - gamma A) are negative, so the
        # full determinant is positive, but F = ln E[(1 - gamma)^N] has no real value
        [(_, x, w, k)] = fr._nystrom((9.0,), -1.3, 2)
        a = fr._symmetrized(w, k)
        assert a.shape == (1, 2)        # one row: the half block
        full = _symmetrized_square(w, kn._kernel_matrix_from_session(-1.3, x, x))
        assert np.linalg.det(np.eye(2) - 0.95 * full) > 0
        with pytest.raises(SignError):
            fr._positive(fr._parity_logdets(a, [0.95]))
        with pytest.raises(SignError):
            fr.fredholm_logdet(9.0, 0.95, -1.3, 2)
        # in a stack only that gamma is marked, and the others keep their value
        f = fr._parity_logdets(a, [0.95, 0.1])
        assert math.isnan(f[0]) and f[1] == fr._parity_logdets(a, [0.1])[0]


def _parity_logdets_reference(a, gammas):
    """``_parity_logdets`` written out in one body, the bitwise reference for its helpers."""
    n = a.shape[1]
    h = n // 2
    u = a[:, h:]
    m = a[:, (n - 1) // 2::-1]
    blocks = np.stack([u + m, u - m])
    if n % 2:
        blocks[0, :, 0] *= 0.5
    stack = np.multiply.outer(-np.asarray(gammas, dtype=float), blocks)
    diag = np.arange(n - h)
    stack[..., diag, diag] += 1.0
    sign, logabs = np.linalg.slogdet(stack)
    return np.where(sign > 0, logabs, np.nan).sum(axis=1)


class TestParityBlocks:
    @pytest.mark.parametrize("n", _PARITY_ORDERS)
    @pytest.mark.parametrize("s, rho", [(2.5, 0.6), (9.0, -1.3)])
    def test_logdets_bitwise_the_one_body_form(self, n, s, rho):
        [(_, _, w, k)] = fr._nystrom((s,), rho, n)
        a = fr._symmetrized(w, k)
        gammas = [0.95, 0.5, -3.0, 1.0]         # 0.95 at (9, -1.3, 2) is a NaN
        got = fr._parity_logdets(a, gammas)
        assert got.tobytes() == _parity_logdets_reference(a, gammas).tobytes()

    @pytest.mark.parametrize("n", [3, 16, 127])
    @pytest.mark.parametrize("gamma", [0.3 + 0.2j, -0.1 - 0.25j, 0.05j])
    def test_complex_gamma_matches_full_slogdet(self, n, gamma):
        # the contour's gammas: the two blocks' determinants multiply to the full one
        [(_, x, w, k)] = fr._nystrom((2.5,), 0.6, n)
        blocks = fr._parity_blocks(fr._symmetrized(w, k))
        h = n - n // 2
        assert blocks.shape == (2, h, h)
        sign, full = np.linalg.slogdet(np.eye(n) - gamma * _symmetrized_square(
            w, kn._kernel_matrix_from_session(0.6, x, x)))
        signs, parts = np.linalg.slogdet(np.eye(h) - gamma * blocks)
        assert abs(parts.sum() - full) <= 1e-13 * max(1.0, abs(full))
        assert abs(signs.prod() - sign) <= 1e-13


def _one_point(s, gamma, rho, tol):
    return fr.logdet_converged([(s, gamma)], rho, tol)[0]


class TestLogdetGrid:
    @pytest.mark.parametrize("gamma, rho", [(0.5, 0.0), (0.99, -2.0), (0.05, 1.5),
                                            (0.9, 2.0), (-3.0, 0.7)])
    def test_matches_one_point_calls(self, gamma, rho):
        ss = np.linspace(1.0, 12.0, 7)
        grid = fr.logdet_converged([(s, gamma) for s in ss], rho, 1e-9)
        for s, res in zip(ss, grid):
            one = _one_point(s, gamma, rho, 1e-9)
            assert res.order == one.order
            assert res.f == pytest.approx(one.f, rel=1e-13, abs=1e-300)
            assert res.err_est < 1e-9

    def test_several_gammas_per_s(self):
        points = [(s, g) for s in (3.0, 8.0) for g in (0.3, -1.0, 0.97)] + [(3.0, 0.5)]
        grid = fr.logdet_converged(points, 0.4, 1e-10)
        for (s, g), res in zip(points, grid):
            one = _one_point(s, g, 0.4, 1e-10)
            assert res.order == one.order
            assert res.f == pytest.approx(one.f, rel=1e-13)

    def test_coarse_sign_error_recovers_alone(self):
        # at n = 16 a parity block of (s, gamma, rho) = (10, 0.95, -2) is negative
        with pytest.raises(SignError):
            fr.fredholm_logdet(10.0, 0.95, -2.0, 16)
        points = [(4.0, 0.95), (10.0, 0.95), (6.0, 0.95), (10.0, 0.5)]
        grid = fr.logdet_converged(points, -2.0, 1e-9)
        for (s, g), res in zip(points, grid):
            one = _one_point(s, g, -2.0, 1e-9)
            assert res.order == one.order
            assert res.f == pytest.approx(one.f, rel=1e-13)
        # the failed stage does not count: 16 is dropped, 32 and 64 must agree
        assert grid[1].order >= 64

    def test_convergence_error_names_first_pending_point(self, monkeypatch):
        monkeypatch.setattr(fr, "_N_MAX", 32)
        points = [(1.0, 0.5), (11.0, 0.99), (12.0, 0.99)]
        with pytest.raises(ConvergenceError, match=r"n = 32 at s = 11\.0, gamma = 0\.99"):
            fr.logdet_converged(points, -1.0, 1e-12)

    def test_gamma_zero_points(self, monkeypatch):
        points = [(2.0, 0.0), (5.0, 0.7), (5.0, 0.0)]
        grid = fr.logdet_converged(points, 0.0, 1e-10)
        for i in (0, 2):
            assert grid[i] == fr.DetResult(0.0, 16, 0.0)
        assert grid[1] == _one_point(5.0, 0.7, 0.0, 1e-10)
        # its s is checked as any other point's
        for s in (13.0, math.nan, 0.0):
            with pytest.raises(DomainError):
                fr.logdet_converged(points + [(s, 0.0)], 0.0, 1e-10)
        # a grid of gamma = 0 alone computes nothing
        monkeypatch.setattr(kn, "_p_bundle", lambda *a: pytest.fail("bundle ran"))
        assert fr.logdet_converged([(3.0, 0.0)], 1.0, 1e-10) == [fr.DetResult(0.0, 16, 0.0)]

    def test_domain_checked_before_quadrature(self, monkeypatch):
        monkeypatch.setattr(kn, "_p_bundle", lambda *a: pytest.fail("bundle ran"))
        for points in ([(2.0, 0.5), (13.0, 0.5)], [(2.0, 0.5), (3.0, 1.5)],
                       [(math.nan, 0.5)]):
            with pytest.raises(DomainError):
                fr.logdet_converged(points, 0.0, 1e-10)
        with pytest.raises(DomainError):
            fr.logdet_converged([(2.0, 0.5)], 0.0, 1e-13)

    def test_nan_tol_rejected_before_quadrature(self, monkeypatch):
        # a NaN tolerance passed a `tol < 1e-12` guard and doubled to n = 2048
        monkeypatch.setattr(kn, "_p_bundle", lambda *a: pytest.fail("bundle ran"))
        for tol in (math.nan, -math.inf):
            with pytest.raises(DomainError):
                fr.logdet_converged([(4.0, 0.5)], 0.0, tol)

    @pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf, 4.5, -4.5, 50.0, 1e300])
    def test_non_finite_rho(self, rho, monkeypatch):
        # a rho outside [-4, 4] doubled to n = 2048 and raised ConvergenceError
        monkeypatch.setattr(fr, "_nystrom", lambda *a: pytest.fail("quadrature ran"))
        for points in ([(4.0, 0.5), (6.0, 0.9)], [(3.0, 0.0)]):
            with pytest.raises(DomainError):
                fr.logdet_converged(points, rho, 1e-9)
        with pytest.raises(DomainError):
            fr.fredholm_logdet(4.0, 0.5, rho, 64)

    def test_each_point_checked_once(self, monkeypatch):
        # (10, 0.95) is pending through n = 64; it is not checked again at each order
        calls = []
        real = fr._check_args
        monkeypatch.setattr(fr, "_check_args", lambda *a: calls.append(a[:2]) or real(*a))
        points = [(4.0, 0.95), (10.0, 0.95)]
        grid = fr.logdet_converged(points, -2.0, 1e-9)
        assert grid[1].order >= 64
        assert calls == points

    def test_one_bundle_per_order_and_one_matrix_per_operator(self, monkeypatch):
        calls = {"p": [], "q": [], "k": []}
        real_p, real_q, real_k = kn._p_bundle, kn._q_bundle, fr._kernel_matrix_from_session

        def p_bundle(x, rho, *args, **kwargs):
            calls["p"].append(np.size(x))
            return real_p(x, rho, *args, **kwargs)

        def q_bundle(y, rho, *args, **kwargs):
            calls["q"].append(np.size(y))
            return real_q(y, rho, *args, **kwargs)

        def matrix(rho, x, y, **kwargs):
            calls["k"].append((np.size(x), np.size(y)))
            return real_k(rho, x, y, **kwargs)

        monkeypatch.setattr(kn, "_p_bundle", p_bundle)
        monkeypatch.setattr(kn, "_q_bundle", q_bundle)
        monkeypatch.setattr(fr, "_kernel_matrix_from_session", matrix)
        points = [(s, g) for s in (1.0, 6.0, 11.0) for g in (0.2, 0.99)]
        grid = fr.logdet_converged(points, 0.5, 1e-10)
        # the orders each s was pending at: 16 up to its largest accepted order
        last = {}
        for (s, _), res in zip(points, grid):
            last[s] = max(last.get(s, 0), res.order)
        orders = [16 * 2 ** j for j in range(int(math.log2(max(last.values()) // 16)) + 1)]
        pending = [[s for s in last if last[s] >= n] for n in orders]
        assert calls["p"] == calls["q"] == [n * len(ss) for n, ss in zip(orders, pending)]
        # one half block per operator: the rows of the nonnegative nodes
        assert calls["k"] == [(n - n // 2, n) for n, ss in zip(orders, pending) for _ in ss]


class TestResolventTrace:
    def test_matches_finite_difference(self):
        h = 1e-3
        for s, g in ((3.0, 0.5), (2.0, 0.7)):
            fd = (fr.fredholm_logdet(s + h, g, 0.0, 128).f
                  - fr.fredholm_logdet(s - h, g, 0.0, 128).f) / (2 * h)
            assert fr.resolvent_boundary_trace(s, ModelParams(g, 0.0), 128) == pytest.approx(
                fd, abs=1e-6)

    def test_gamma_zero(self):
        assert fr.resolvent_boundary_trace(3.0, ModelParams(0.0, 0.0), 64) == 0.0

    @pytest.mark.parametrize("n", [64, 127, 256])
    def test_matches_two_ended_form(self, n):
        # reference: R(x_i, +-s) from one dense solve, then -R(s,s) - R(-s,-s);
        # the square over (x, s, -s) takes its end points' bundles from their
        # own call, as ``_end_square`` does for s
        for s in (1.0, 3.0, 6.0, 10.0, 12.0):
            rule = fr.gauss_legendre(n)
            w = s * rule.weights
            x, ends = s * rule.nodes, np.array([s, -s])
            for rho in (-2.0, 0.0, 1.7):
                p, q = (np.concatenate([bundle(x, rho), bundle(ends, rho)], axis=1)
                        for bundle in (kn._p_bundle, kn._q_bundle))
                pts = np.append(x, ends)
                k = kn._kernel_matrix_from_session(rho, pts, pts, p=p, q=q)
                for g in (0.3, 0.9, 0.99):
                    a = np.eye(n) - g * (k[:n, :n] * w[None, :])
                    r_nodes = np.linalg.solve(a, g * k[:n, n:])
                    ref = -sum(g * k[n + i, n + i] + g * (k[n + i, :n] * w) @ r_nodes[:, i]
                               for i in range(2))
                    got = fr.resolvent_boundary_trace(s, ModelParams(g, rho), n)
                    assert got == pytest.approx(ref, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [32, 64, 127])
    def test_anchor_solve_gives_the_same_trace(self, n):
        # the trace as a fourth right-hand side of the anchor's end-point
        # solve, against a solve on the column gamma K(., s) alone
        for s in (4.0, 8.0, 12.0):
            for g, rho in ((0.5, 0.0), (0.9, 2.0), (0.3, -2.0)):
                _, _, got = fr.resolvent_end_values(s, ModelParams(g, rho), n)
                w, k, _, _ = fr._end_square(s, rho, n)
                col = g * k[:, n:]
                r_end, _ = fr._end_solves(k, w, g, col, np.zeros((n + 1, 0)))
                assert got == pytest.approx(-2.0 * r_end[0], rel=1e-13, abs=0)

    def test_matches_h_asymptotics_at_10(self):
        from pearceydet.asymptotics import h_large_s
        p = ModelParams(0.5, 0.0)
        val = fr.resolvent_boundary_trace(10.0, p, 256)
        assert abs(val - 2 * h_large_s(10.0, p)) <= 2e-2 * abs(val)


class TestMoments:
    def test_mean_equals_density_integral(self):
        s, rho, n = 2.0, 0.0, 128
        mean, _ = fr.moments_trace(*fr.moments_operator(s, rho, n))
        rule = fr.gauss_legendre(200)
        xs = s * rule.nodes
        dens = np.array([kernel_point(float(x), float(x), rho) for x in xs])
        direct = float((s * rule.weights * dens).sum())
        assert mean == pytest.approx(direct, abs=1e-8)

    def test_trace_vs_mgf(self):
        op = fr.moments_operator(3.0, 0.0, 128)
        mt = fr.moments_trace(*op)
        mm = fr.moments_mgf(*op)
        assert mt[0] == pytest.approx(mm[0], abs=1e-6)
        assert mt[1] == pytest.approx(mm[1], abs=1e-5)

    @pytest.mark.parametrize("rho", [-4.0, 0.0, 4.0])
    @pytest.mark.parametrize("s", [1.0, 4.0, 12.0])
    def test_trace_route_at_256_is_at_rounding(self, s, rho):
        # the trace route is converged by n = 256: 384 moves it by rounding only
        at256 = fr.moments_trace(*fr.moments_operator(s, rho, 256))
        at384 = fr.moments_trace(*fr.moments_operator(s, rho, 384))
        assert at256 == pytest.approx(at384, rel=2e-11)

    @pytest.mark.parametrize("rho", [math.nan, math.inf, 4.5, -4.5, 50.0, 1e300])
    def test_non_finite_rho(self, rho, monkeypatch):
        # a NaN rho gave NaN trace moments and a SignError from the MGF route
        monkeypatch.setattr(fr, "_nystrom", lambda *a: pytest.fail("quadrature ran"))
        with pytest.raises(DomainError):
            fr.moments_operator(4.0, rho, 64)

    @pytest.mark.parametrize("s, rho, n", [(3.0, 0.0, 128), (9.0, -1.2, 384)])
    def test_trace_of_square_without_product(self, s, rho, n):
        mean, var = fr.moments_trace(*fr.moments_operator(s, rho, n))
        _, w, k = _full_square(s, rho, n)
        wk = w[:, None] * k
        product = float(np.trace(wk @ wk))
        assert mean - var == pytest.approx(product, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 127, 385])
    @pytest.mark.parametrize("s, rho", [(5.0, 0.0), (2.0, -1.2), (10.0, 1.7)])
    def test_odd_orders_count_the_centre_row_once(self, n, s, rho):
        # the parity blocks against the trace formulas on the full square
        mean, var = fr.moments_trace(*fr.moments_operator(s, rho, n))
        _, w, k = _full_square(s, rho, n)
        wk = w[:, None] * k
        full_mean = float(np.trace(wk))
        full_var = full_mean - float((wk * wk.T).sum())
        assert mean == full_mean        # the diagonal mirrored out, summed in its order
        assert var == pytest.approx(full_var, rel=1e-13)

    @pytest.mark.parametrize("rho", [-4.0, 0.0, 4.0])
    @pytest.mark.parametrize("s", [1.0, 4.0, 8.0, 12.0])
    def test_contour_matches_trace_route(self, s, rho):
        # worst measured 2.6e-12, at s = 1, rho = 4, where the variance is 1.6e-3
        res = fr.moments(s, rho)
        assert res.mgf == pytest.approx(res.trace, rel=1e-11, abs=0)
        c = fr._contour_coefficients(*fr.moments_operator(s, rho, res.order))
        assert abs(c[0]) <= 1e-14              # G(0) = 0: the circle's mean at rounding

    @pytest.mark.parametrize("s, rho", [(s, rho) for s in (1.0, 2.0, 4.0, 8.0, 12.0)
                                        for rho in (-4.0, -1.0, 0.0, 1.0, 4.0)])
    def test_errors_bound_the_change_to_384(self, s, rho):
        # each route's reported error covers its value at n = 384, which carries
        # up to ~1e-11 of rounding of its own
        res = fr.moments(s, rho)
        op = fr.moments_operator(s, rho, 384)
        for got, err, fine in ((res.trace, res.err_trace, fr.moments_trace(*op)),
                               (res.mgf, res.err_mgf, fr.moments_mgf(*op))):
            assert max(abs(got[0] - fine[0]), abs(got[1] - fine[1])) <= err
            assert err <= 1e-9 * (1.0 + got[0])

    def test_order_is_the_first_converged_doubling(self):
        # at s = 12, rho = -4 the variance still moves by 8.6e-6 from 32 to 64
        res = fr.moments(12.0, -4.0)
        assert res.order == 128
        at = {n: fr.moments_trace(*fr.moments_operator(12.0, -4.0, n)) for n in (32, 64, 128)}
        assert abs(at[64][1] - at[32][1]) > 1e-9 * at[64][1]
        assert res.trace == at[128]
        assert res.err_trace >= max(abs(a - b) for a, b in zip(at[128], at[64]))

    def test_fixed_order_has_no_error(self):
        res = fr.moments(4.0, 0.0, 127)
        op = fr.moments_operator(4.0, 0.0, 127)
        assert res.order == 127
        assert res.trace == fr.moments_trace(*op) and res.mgf == fr.moments_mgf(*op)
        assert math.isnan(res.err_trace) and math.isnan(res.err_mgf)

    def test_no_convergence_by_the_last_order(self, monkeypatch):
        monkeypatch.setattr(fr, "_N_MAX", 64)
        with pytest.raises(ConvergenceError, match="n = 64"):
            fr.moments(12.0, -4.0)

    def test_slipped_phase_unwrap_raises(self, monkeypatch):
        # a 2 pi slip along the arc leaves the phase off at nu = -r, and so c0
        real = np.unwrap

        def slipped(phase, axis):
            out = real(phase, axis=axis)
            out[3:] += 2.0 * math.pi
            return out

        op = fr.moments_operator(4.0, 0.0, 32)
        fr.moments_mgf(*op)
        monkeypatch.setattr(np, "unwrap", slipped)
        with pytest.raises(ConvergenceError, match="c0"):
            fr.moments_mgf(*op)

    def test_small_interval_limit(self):
        # E N(s) -> 2 s K(0,0;rho) as s -> 0+
        s, rho = 0.05, 0.0
        mean, _ = fr.moments_mgf(*fr.moments_operator(s, rho, 32))
        assert mean == pytest.approx(2 * s * kernel_point(0.0, 0.0, rho),
                                     abs=1e-4)


def _assembled_shapes(monkeypatch) -> list:
    """The (rows, cols) of each operator assembled from now on; 1x1 point
    evaluations are not operators."""
    shapes = []
    real = kn._kernel_matrix_from_session

    def counting(first, x, y, **kwargs):
        if np.size(y) > 1:
            shapes.append((np.size(x), np.size(y)))
        return real(first, x, y, **kwargs)

    monkeypatch.setattr(kn, "_kernel_matrix_from_session", counting)
    monkeypatch.setattr(fr, "_kernel_matrix_from_session", counting)
    return shapes


class TestAssemblies:
    def test_one_square_per_operator_and_order(self, monkeypatch):
        # determinants take the half block, the resolvent the full square
        shapes = _assembled_shapes(monkeypatch)
        fr.moments_mgf(*fr.moments_operator(6.0, 0.0, 64))
        assert shapes == [(32, 64)]
        shapes.clear()
        fr.moments_trace(*fr.moments_operator(6.0, 0.0, 65))
        assert shapes == [(33, 65)]
        shapes.clear()
        asym.clt_distance(8.0, 0.0, np.linspace(-0.5, 0.5, 11))
        assert shapes == [(8, 16), (16, 32), (32, 64)]
        shapes.clear()
        fr.resolvent_boundary_trace(5.0, ModelParams(0.5, 0.0), 64)
        assert shapes == [(65, 65)]

    def test_anchor_bundles_once_per_square(self, monkeypatch):
        # the anchor's right-hand sides and H(s0) are read from one square per
        # order of its doubling (32, then 64 where it stops): each costs one P
        # and one Q call over the nodes, one for s
        shapes = _assembled_shapes(monkeypatch)
        sizes = {"p": [], "q": []}
        for name in sizes:
            real = getattr(kn, f"_{name}_bundle")
            monkeypatch.setattr(kn, f"_{name}_bundle",
                                lambda y, rho, real=real, seen=sizes[name]:
                                seen.append(np.size(y)) or real(y, rho))
        ham.resolvent_anchor_state(8.0, ModelParams(0.5, 0.3))
        assert sizes == {"p": [32, 1, 64, 1], "q": [32, 1, 64, 1]}
        assert shapes == [(33, 33), (65, 65)]

    def test_moments_one_operator_per_order(self, monkeypatch, capsys):
        # one half block per s and order of the doubling (s = 4 stops at 32, 8 and
        # 12 at 64): the MGF route at n and n/2 reads the trace route's operators
        shapes = _assembled_shapes(monkeypatch)
        assert main(["moments", "--rho", "0", "--s-min", "4", "--s-max", "12",
                     "--s-steps", "3"]) == 0
        assert shapes == [(8, 16), (16, 32)] + [(8, 16), (16, 32), (32, 64)] * 2

    def test_v_bundle_once_per_node(self, monkeypatch):
        # on mirror-image nodes [x, -x] holds each node twice; V runs once per node
        columns = []
        real = pc._upper_v_bundle

        def counting(y, *args, **kwargs):
            columns.append(np.size(y))
            return real(y, *args, **kwargs)

        monkeypatch.setattr(pc, "_upper_v_bundle", counting)
        list(fr._nystrom((5.0,), 0.3, 128))
        assert sum(columns) == 128
