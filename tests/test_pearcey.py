import cmath
import math

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from pearceydet import pearcey as pc


def _one(bundle, *args):
    """The bundle at one point: its value and first two derivatives."""
    return bundle(*args)[:, 0]


class TestPearceyP:
    def test_value_at_origin(self):
        # closed form: P(0;0) = Gamma(1/4) / (pi 4^{3/4}) by u = t^4/4
        expected = math.gamma(0.25) / (math.pi * 4.0 ** 0.75)
        assert _one(pc._p_bundle, np.array([0.0]), 0.0)[0] == pytest.approx(expected, rel=1e-11)

    def test_first_derivative_odd_integrand(self):
        assert abs(_one(pc._p_bundle, np.array([0.0]), 0.0)[1]) < 1e-14

    def test_real_on_real_axis(self):
        xs = np.linspace(-8, 8, 9)
        for rho in (-1.0, 0.0, 1.0):
            for b in (pc._p_bundle(xs, rho), pc._q_bundle(xs, rho)):
                assert (np.abs(b.imag) <= 1e-10 * (1 + np.abs(b.real))).all()

    def test_ode_residual(self):
        # third derivative from the quadrature (insert (it)^3) vs x P + rho P'
        x, rho = 1.5, 1.0
        b = pc._p_bundle(np.array([x]), rho, kmax=3)
        assert abs(b[3, 0] - x * b[0, 0] - rho * b[1, 0]) < 1e-7


class TestPearceyQ:
    def test_real_at_07(self):
        assert abs(_one(pc._q_bundle, np.array([0.7]), 0.0)[0].imag) < 1e-10

    def test_value_at_origin_vanishes(self):
        # with the figure's ray orientations Q is odd at rho = 0: Q(0) = 0
        # (and Q'(0) = 1/sqrt(pi) != 0)
        q = _one(pc._q_bundle, np.array([0.0]), 0.0)
        assert abs(q[0]) < 1e-12
        assert q[1].real == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-10)

    def test_odd_at_rho_zero(self):
        for y in (0.6, 2.3):
            a = _one(pc._q_bundle, np.array([y]), 0.0)[0]
            b = _one(pc._q_bundle, np.array([-y]), 0.0)[0]
            assert abs(a + b) < 1e-12

    def test_ode_residual(self):
        y, rho = -1.0, 0.5
        b = pc._q_bundle(np.array([y]), rho, kmax=3)
        assert abs(b[3, 0] + y * b[0, 0] - rho * b[1, 0]) < 1e-7

    def test_ode_residual_grid(self):
        xs = np.linspace(-10, 10, 41)
        for rho in (-1.0, 0.0, 1.0):
            pb = pc._p_bundle(xs, rho, kmax=3)
            qb = pc._q_bundle(xs, rho, kmax=3)
            assert np.abs(pb[3] - xs * pb[0] - rho * pb[1]).max() < 1e-7
            assert np.abs(qb[3] + xs * qb[0] - rho * qb[1]).max() < 1e-7


class TestUpperV:
    def test_real_on_axis(self):
        ys = np.linspace(-6, 6, 13)
        vals = pc._upper_v_bundle(ys, 0.7)
        assert np.abs(vals.imag).max() < 1e-12

    def test_decay_at_plus_infinity(self):
        # superexponential: V(10)/V(5) ~ exp(-3(10^{4/3}-5^{4/3})/4) ~ 6e-5
        v5 = abs(_one(pc._upper_v_bundle, np.array([5.0]), 0.0)[0])
        v10 = abs(_one(pc._upper_v_bundle, np.array([10.0]), 0.0)[0])
        assert v10 < 1e-4 * v5

    def test_assembles_q(self):
        y, rho = 1.3, -0.5
        q = _one(pc._q_bundle, np.array([y]), rho)
        vp = _one(pc._upper_v_bundle, np.array([y]), rho)
        vm = _one(pc._upper_v_bundle, np.array([-y]), rho)
        assert abs(q[0] - (vp[0] - vm[0])) < 1e-13
        assert abs(q[1] - (vp[1] + vm[1])) < 1e-13


def _pj(z, rho, j):
    return _one(pc._pj_bundle, j, np.array([complex(z)]), rho)


class TestContourSolutions:
    def test_additivity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            z = complex(rng.uniform(-3.5, 3.5), rng.uniform(-3.5, 3.5))
            rho = rng.uniform(-1, 1)
            p0, p1, p2, p4, p5 = (_pj(z, rho, j)[0] for j in (0, 1, 2, 4, 5))
            assert abs(p0 - (p1 - p2)) < 1e-9
            assert abs(p5 - (p4 - p1)) < 1e-9

    def test_additivity_fixed_points(self):
        z, rho = 0.3, 1.0
        assert abs(_pj(z, rho, 0)[0] - _pj(z, rho, 1)[0] + _pj(z, rho, 2)[0]) < 1e-9
        z, rho = -0.2j, 0.0
        assert abs(_pj(z, rho, 5)[0] - _pj(z, rho, 4)[0] + _pj(z, rho, 1)[0]) < 1e-9

    def test_derivatives_at_origin(self):
        for rho in (0.0, 1.0):
            assert abs(_pj(0.0, rho, 0)[1]) < 1e-12
            d = _pj(0.0, rho, 1)[1] - _pj(0.0, rho, 4)[1]
            assert abs(d) < 1e-12


def _tilde_psi(z, rho):
    return pc.tilde_psi_matrices(np.array([complex(z)]), rho)[0]


class TestTildePsi:
    def test_first_column_is_2pi_p(self):
        z, rho = 1.0, 0.0
        m = _tilde_psi(z, rho)
        expected = 2 * math.pi * _one(pc._p_bundle, np.array([z]), rho)
        assert np.abs(m[:, 0] - expected).max() < 1e-9

    def test_det_nonzero_at_origin(self):
        m = _tilde_psi(0.0, 0.0)
        assert abs(np.linalg.det(m)) > 1e-6

    def test_det_constant_in_z(self):
        # no second-derivative term in the equation => constant Wronskian
        rho = 0.5
        d0 = np.linalg.det(_tilde_psi(0.0, rho))
        d1 = np.linalg.det(_tilde_psi(2.0, rho))
        assert abs(d0 - d1) < 1e-8 * abs(d0)


class TestQuadratureConvergence:
    def test_panel_doubling(self):
        fine_ray = pc._ray_rule(pc.HALF_RANGE, pc.PANEL_WIDTH / 2, pc.NODES_PER_PANEL)
        for x in (0.0, 3.7, -9.2):
            for rho in (0.0, 1.0):
                base = pc._p_bundle(np.array([x]), rho)
                fine = pc._p_bundle(np.array([x]), rho, rule=fine_ray)
                rel = np.abs(base - fine) / (1.0 + np.abs(fine))
                assert rel.max() < 1e-11
        q_base = pc._q_bundle(np.array([2.2]), 0.3)
        q_fine = pc._q_bundle(np.array([2.2]), 0.3, rule=fine_ray)
        assert (np.abs(q_base - q_fine) / (1 + np.abs(q_fine))).max() < 1e-11


def _quad_complex(f, a: float, b: float) -> complex:
    opts = dict(limit=400, epsabs=1e-15, epsrel=1e-14)
    re = quad(lambda t: f(t).real, a, b, **opts)[0]
    im = quad(lambda t: f(t).imag, a, b, **opts)[0]
    return complex(re, im)


@pytest.mark.filterwarnings("ignore", category=IntegrationWarning)
class TestAdaptiveReference:
    """The bundles against adaptive quadrature of the defining contour integrals.

    P is integrated over the whole line and V over both of its rays, so
    neither the half-line folding of P nor the mirror symmetry of V's rays
    is assumed by the reference.  Both weights are below 1e-200 at |t| = 7.
    """

    @pytest.mark.parametrize("rho", [-2.0, 0.0, 1.7])
    def test_p_derivatives(self, rho):
        xs = (0.3, 5.0, 11.7)
        b = pc._p_bundle(np.array(xs), rho)
        for j, x in enumerate(xs):
            for k in range(3):
                ref = _quad_complex(
                    lambda t: cmath.exp(-t ** 4 / 4 - rho * t * t / 2 + 1j * t * x)
                    * (1j * t) ** k, -7.0, 7.0) / (2 * math.pi)
                assert abs(b[k, j] - ref) <= 1e-12 * (1 + abs(ref))

    @pytest.mark.parametrize("rho", [-2.0, 0.0, 1.7])
    def test_upper_v_derivatives(self, rho):
        ys = (-7.3, 2.2, 9.1)
        b = pc._upper_v_bundle(np.array(ys), rho)

        def ray(phi, y, k):
            e = cmath.exp(1j * phi)
            return _quad_complex(
                lambda r: cmath.exp((r * e) ** 4 / 4 + rho * (r * e) ** 2 / 2 + 1j * r * e * y)
                * (1j * r * e) ** k * e, 0.0, 7.0)

        for j, y in enumerate(ys):
            for k in range(3):
                ref = (ray(3 * math.pi / 4, y, k) - ray(math.pi / 4, y, k)) / (2 * math.pi)
                assert abs(b[k, j] - ref) <= 1e-12 * (1 + abs(ref))


class TestParity:
    # P^(k) has the parity of k and Q^(k) the opposite one, bitwise
    @pytest.mark.parametrize("rho", [-2.0, 0.0, 1.7])
    def test_reflected_bundles(self, rho):
        xs = np.random.default_rng(3).uniform(-12.0, 12.0, 41)
        signs = (-1.0) ** np.arange(4)[:, None]
        assert np.array_equal(pc._p_bundle(-xs, rho, kmax=3), signs * pc._p_bundle(xs, rho, kmax=3))
        assert np.array_equal(pc._q_bundle(-xs, rho, kmax=3), -signs * pc._q_bundle(xs, rho, kmax=3))

    def test_mirrored_points_within_one_batch(self):
        # the Nystrom nodes hold x and -x in one call: their columns agree bitwise
        xs = np.array([-7.0, -3.25, -0.5, 0.0, 0.5, 3.25, 7.0])
        signs = (-1.0) ** np.arange(3)[:, None]
        p, q = pc._p_bundle(xs, 0.4), pc._q_bundle(xs, 0.4)
        assert np.array_equal(p[:, ::-1], signs * p)
        assert np.array_equal(q[:, ::-1], -signs * q)


class TestOdeResidualsOverRho:
    @pytest.mark.parametrize("rho", [-4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0])
    def test_p_and_q(self, rho):
        xs = np.linspace(-12.0, 12.0, 97)
        pb = pc._p_bundle(xs, rho, kmax=3)
        qb = pc._q_bundle(xs, rho, kmax=3)
        res_p = np.abs(pb[3] - xs * pb[0] - rho * pb[1]).max() / (1 + np.abs(pb).max())
        res_q = np.abs(qb[3] + xs * qb[0] - rho * qb[1]).max() / (1 + np.abs(qb).max())
        assert max(res_p, res_q) < 1e-9


class TestPanelLayout:
    def test_reproduces_the_symmetric_rule(self):
        # reference: the positive half of the composite rule on [-4.8, 4.8], node by node
        xg, wg = np.polynomial.legendre.leggauss(pc.NODES_PER_PANEL)
        edges = np.linspace(-pc.HALF_RANGE, pc.HALF_RANGE, 49)
        mids = (edges[:-1] + edges[1:]) / 2
        half = (edges[1:] - edges[:-1]) / 2
        t = (mids[:, None] + half[:, None] * xg[None, :]).ravel()
        w = (half[:, None] * wg[None, :]).ravel()
        t_ref, w_ref = t[t > 0], w[t > 0]

        rule = pc._ray_rule(pc.HALF_RANGE, pc.PANEL_WIDTH, pc.NODES_PER_PANEL)
        split = np.empty_like(rule.nodes)
        for g, panels in enumerate(rule.groups):
            split[:, panels] = rule.mids[panels] + rule.offsets[g][:, None]
        order = np.argsort(split, axis=None)
        assert split.size == t_ref.size
        assert np.all(np.abs(split.ravel()[order] - t_ref) <= np.spacing(t_ref))
        assert np.array_equal(rule.weights.ravel()[order], w_ref)
        # linspace edges give three half-widths, up to 4.5e-16 apart: one
        # shared value would move the nodes nearest 0 by hundreds of ulp
        assert len(rule.groups) == 3 == len(np.unique(half[mids > 0]))


def _direct_ray(rot, z, rho, weight_sign, kmax=2):
    """sum_j c_j e^{i t_j z} node by node on t = r rot, and the sum of the terms' moduli."""
    rule = pc._ray_rule(pc.HALF_RANGE, pc.PANEL_WIDTH, pc.NODES_PER_PANEL)
    r, w = rule.nodes.ravel(), rule.weights.ravel()
    tt = r * rot
    base = w * np.exp(weight_sign * (tt ** 4 / 4 + rho * tt ** 2 / 2)) * rot
    terms = np.stack([(base * (1j * tt) ** k)[:, None] * np.exp(np.multiply.outer(1j * tt, z))
                      for k in range(kmax + 1)])
    return terms.sum(axis=1), np.abs(terms).sum(axis=1)


class TestSplitAgainstDirectSum:
    """The panel-split bundles against the node-by-node sum on the same rule."""

    RHOS = [-4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize("rho", RHOS)
    def test_p(self, rho):
        xs = np.linspace(-12.0, 12.0, 97)
        b = pc._p_bundle(xs, rho)
        ref = _direct_ray(1.0, xs, rho, -1.0)[0].real / math.pi
        assert np.abs(b - ref).max() <= 1e-14 * np.abs(b).max()

    @pytest.mark.parametrize("rho", RHOS)
    def test_upper_v(self, rho):
        # the z-integral's doubled range: y up to 200 + 12, no overflow.  At
        # negative y the terms' moduli add up to 1e5 max|V| (rho = -4), so the
        # scale is that sum, the rounding scale of any summation.
        ys = np.linspace(-12.0, 212.0, 561)
        b = pc._upper_v_bundle(ys, rho)
        total, moduli = _direct_ray(cmath.exp(1j * math.pi / 4), ys, rho, +1.0)
        assert np.isfinite(b).all()
        assert np.abs(b + total.real / math.pi).max() <= 1e-14 * moduli.max() / math.pi

    @pytest.mark.parametrize("rho", RHOS)
    def test_tilde_psi(self, rho):
        # |t z| reaches 4.8 * 40 = 192 here: rounding that exponent moves a
        # term by up to ~96 eps = 2e-14 of itself, in either sum
        rng = np.random.default_rng(8)
        z = 40.0 * np.sqrt(rng.uniform(0.0, 1.0, 120)) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, 120))
        m = pc.tilde_psi_matrices(z, rho)
        for col, j in enumerate((0, 1, 4)):
            ref = sum(sign * _direct_ray(rot, z, rho, -1.0)[0] for sign, rot in pc._GAMMA_LEGS[j])
            assert np.abs(m[:, :, col] - ref.T).max() <= 2e-14 * np.abs(m).max()


class TestTildePsiLegs:
    @pytest.mark.parametrize("rho", [-2.0, 0.0, 1.7])
    def test_four_rays_bitwise_per_contour(self, rho, monkeypatch):
        z = np.array([0.0, 2.5, -7.0 + 3.0j, 11.0j, 30.0 - 0.5j])
        ref = np.stack([pc._pj_bundle(j, z, rho) for j in (0, 1, 4)], axis=2).transpose(1, 0, 2)
        calls = []
        real = pc._ray_bundle
        monkeypatch.setattr(pc, "_ray_bundle",
                            lambda rot, *a, **kw: calls.append(rot) or real(rot, *a, **kw))
        m = pc.tilde_psi_matrices(z, rho)
        assert sorted(calls, key=lambda r: (r.real, r.imag)) == [-1, -1j, 1j, 1]
        assert m.tobytes() == np.ascontiguousarray(ref).tobytes()
        one = np.stack([pc._pj_bundle(j, z[1:2], rho)[:, 0] for j in (0, 1, 4)], axis=1)
        assert _tilde_psi(2.5, rho).tobytes() == one.tobytes()
