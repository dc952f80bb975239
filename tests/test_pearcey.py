import cmath
import math

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from pearceydet import pearcey as pc
from pearceydet.errors import DomainError


class TestPearceyP:
    def test_value_at_origin(self):
        # closed form: P(0;0) = Gamma(1/4) / (pi 4^{3/4}) by u = t^4/4
        expected = math.gamma(0.25) / (math.pi * 4.0 ** 0.75)
        assert pc.pearcey_p(0.0, 0.0).v0.real == pytest.approx(expected, rel=1e-11)

    def test_first_derivative_odd_integrand(self):
        assert abs(pc.pearcey_p(0.0, 0.0).v1) < 1e-14

    def test_real_on_real_axis(self):
        for x in np.linspace(-8, 8, 9):
            for rho in (-1.0, 0.0, 1.0):
                for v in (pc.pearcey_p(float(x), rho), pc.pearcey_q(float(x), rho)):
                    for comp in (v.v0, v.v1, v.v2):
                        assert abs(comp.imag) <= 1e-10 * (1 + abs(comp.real))

    def test_ode_residual(self):
        # third derivative from the quadrature (insert (it)^3) vs x P + rho P'
        x, rho = 1.5, 1.0
        b = pc._p_bundle(np.array([x]), rho, kmax=3)
        assert abs(b[3, 0] - x * b[0, 0] - rho * b[1, 0]) < 1e-7

    def test_domain(self):
        with pytest.raises(DomainError):
            pc.pearcey_p(61.0, 0.0)


class TestPearceyQ:
    def test_real_at_07(self):
        assert abs(pc.pearcey_q(0.7, 0.0).v0.imag) < 1e-10

    def test_value_at_origin_vanishes(self):
        # with the figure's ray orientations Q is odd at rho = 0: Q(0) = 0
        # (and Q'(0) = 1/sqrt(pi) != 0)
        assert abs(pc.pearcey_q(0.0, 0.0).v0) < 1e-12
        assert pc.pearcey_q(0.0, 0.0).v1.real == pytest.approx(
            1.0 / math.sqrt(math.pi), rel=1e-10)

    def test_odd_at_rho_zero(self):
        for y in (0.6, 2.3):
            a = pc.pearcey_q(y, 0.0).v0
            b = pc.pearcey_q(-y, 0.0).v0
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
        v5 = abs(pc.pearcey_upper(5.0, 0.0).v0)
        v10 = abs(pc.pearcey_upper(10.0, 0.0).v0)
        assert v10 < 1e-4 * v5

    def test_assembles_q(self):
        y, rho = 1.3, -0.5
        q = pc.pearcey_q(y, rho)
        vp = pc.pearcey_upper(y, rho)
        vm = pc.pearcey_upper(-y, rho)
        assert abs(q.v0 - (vp.v0 - vm.v0)) < 1e-13
        assert abs(q.v1 - (vp.v1 + vm.v1)) < 1e-13


class TestContourSolutions:
    def test_additivity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            z = complex(rng.uniform(-3.5, 3.5), rng.uniform(-3.5, 3.5))
            rho = rng.uniform(-1, 1)
            p0 = pc.pearcey_pj(z, rho, 0).v0
            p1 = pc.pearcey_pj(z, rho, 1).v0
            p2 = pc.pearcey_pj(z, rho, 2).v0
            p4 = pc.pearcey_pj(z, rho, 4).v0
            p5 = pc.pearcey_pj(z, rho, 5).v0
            assert abs(p0 - (p1 - p2)) < 1e-9
            assert abs(p5 - (p4 - p1)) < 1e-9

    def test_additivity_fixed_points(self):
        z, rho = 0.3, 1.0
        assert abs(pc.pearcey_pj(z, rho, 0).v0
                   - pc.pearcey_pj(z, rho, 1).v0 + pc.pearcey_pj(z, rho, 2).v0) < 1e-9
        z, rho = -0.2j, 0.0
        assert abs(pc.pearcey_pj(z, rho, 5).v0
                   - pc.pearcey_pj(z, rho, 4).v0 + pc.pearcey_pj(z, rho, 1).v0) < 1e-9

    def test_derivatives_at_origin(self):
        for rho in (0.0, 1.0):
            assert abs(pc.pearcey_pj(0.0, rho, 0).v1) < 1e-12
            d = pc.pearcey_pj(0.0, rho, 1).v1 - pc.pearcey_pj(0.0, rho, 4).v1
            assert abs(d) < 1e-12

    def test_bad_index(self):
        with pytest.raises(DomainError):
            pc.pearcey_pj(0.0, 0.0, 6)


class TestTildePsi:
    def test_first_column_is_2pi_p(self):
        z, rho = 1.0, 0.0
        m = pc.tilde_psi(z, rho).m
        p = pc.pearcey_p(z, rho)
        expected = 2 * math.pi * p.as_array()
        assert np.abs(m[:, 0] - expected).max() < 1e-9

    def test_det_nonzero_at_origin(self):
        m = pc.tilde_psi(0.0, 0.0).m
        assert abs(np.linalg.det(m)) > 1e-6

    def test_det_constant_in_z(self):
        # no second-derivative term in the equation => constant Wronskian
        rho = 0.5
        d0 = np.linalg.det(pc.tilde_psi(0.0, rho).m)
        d1 = np.linalg.det(pc.tilde_psi(2.0, rho).m)
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


class TestOdeResidualsOverRho:
    @pytest.mark.parametrize("rho", [-4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0])
    def test_p_and_q(self, rho):
        xs = np.linspace(-12.0, 12.0, 97)
        pb = pc._p_bundle(xs, rho, kmax=3)
        qb = pc._q_bundle(xs, rho, kmax=3)
        res_p = np.abs(pb[3] - xs * pb[0] - rho * pb[1]).max() / (1 + np.abs(pb).max())
        res_q = np.abs(qb[3] + xs * qb[0] - rho * qb[1]).max() / (1 + np.abs(qb).max())
        assert max(res_p, res_q) < 1e-9
