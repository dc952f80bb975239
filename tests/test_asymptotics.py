import math

import numpy as np
import pytest

from pearceydet import asymptotics as asym
from pearceydet.errors import DomainError
from pearceydet.params import ModelParams, beta_of_gamma


class TestBetaOfGamma:
    def test_zero(self):
        assert beta_of_gamma(0.0) == 0.0

    def test_half(self):
        b = beta_of_gamma(0.5)
        assert b.real == 0.0
        assert b.imag == pytest.approx(math.log(2) / (2 * math.pi), abs=1e-15)
        assert b.imag == pytest.approx(0.1103178, abs=1e-7)

    def test_inversion(self):
        assert beta_of_gamma(1.0 - math.exp(-2 * math.pi)) == pytest.approx(1j,
                                                                            abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            beta_of_gamma(1.0)
        with pytest.raises(DomainError):
            beta_of_gamma(-0.1)


class TestThetaVartheta:
    def test_theta3(self):
        assert asym.theta3(1.0, 0.0) == 0.75
        assert asym.theta3(8.0, 2.0) == pytest.approx(0.75 * 8 ** (4 / 3) + 8 ** (2 / 3))

    def test_vartheta_beta_zero(self):
        assert asym.vartheta(1.0, ModelParams(0.0, 0.0)) == pytest.approx(
            -3 * math.sqrt(3) / 8, abs=1e-12)

    def test_vartheta_real(self):
        # realness enforced internally at the 1e-12 budget
        val = asym.vartheta(5.0, ModelParams(0.9, -1.0))
        assert isinstance(val, float)


class TestLargeGap:
    def test_gamma_zero_identically_zero(self):
        for s in (1.0, 5.0, 10.0):
            for rho in (-1.0, 0.0, 2.0):
                assert asym.f_large_gap(s, ModelParams(0.0, rho)).total == 0.0

    def test_leading_coefficient(self):
        # (3 sqrt3/2) * (-ln 2 / 2 pi) = -0.28661405...
        gap = asym.f_large_gap(1.0, ModelParams(0.5, 0.0))
        closed = -1.5 * math.sqrt(3.0) * math.log(2.0) / (2.0 * math.pi)
        assert gap.leading == pytest.approx(closed, rel=1e-13)
        assert gap.leading == pytest.approx(-0.2866141, abs=1e-7)

    def test_all_parts_real_floats(self):
        gap = asym.f_large_gap(7.0, ModelParams(0.9, 1.5))
        for part in (gap.leading, gap.subleading, gap.log_term, gap.constant):
            assert isinstance(part, float)
        assert gap.total == pytest.approx(gap.leading + gap.subleading
                                          + gap.log_term + gap.constant)

    def test_given_constant_gives_same_bits(self):
        p = ModelParams(0.8, -0.7)
        const = asym.gap_constant(p)
        for s in (1.0, 4.5, 12.0):
            assert asym.f_large_gap(s, p, const) == asym.f_large_gap(s, p)

    def test_gamma_one_redirect(self):
        with pytest.raises(DomainError):
            asym.f_large_gap(5.0, ModelParams(1.0, 0.0))


class TestGamma1:
    def test_printed_coefficients_at_s1(self):
        # direct evaluation: -9/2^{17/3} = -0.17717636...
        val = asym.f_gamma1(1.0, 0.0)
        assert val == pytest.approx(-9.0 / 2.0 ** (17.0 / 3.0), rel=1e-14)
        assert val == pytest.approx(-0.1771763976, abs=1e-9)

    def test_rho_terms(self):
        s, rho = 2.0, 1.5
        expected = (-9 * s ** (8 / 3) / 2 ** (17 / 3) + rho * s * s / 4
                    - rho * rho * s ** (4 / 3) / 2 ** (10 / 3)
                    - (2 / 9) * math.log(s) + rho ** 4 / 216 + 0.3)
        # the undetermined constant, here 0.3, is the caller's to add
        assert asym.f_gamma1(s, rho) + 0.3 == pytest.approx(expected, rel=1e-14)


class TestHTails:
    def test_gamma_zero(self):
        assert asym.h_large_s(5.0, ModelParams(0.0, 1.0)) == 0.0

    def test_h_gamma1_matches_derivative(self):
        from pearceydet.fredholm import fredholm_logdet
        s, rho = 8.0, 0.0
        h = 1e-3
        fd = (fredholm_logdet(s + h, 1.0, rho, 256).f
              - fredholm_logdet(s - h, 1.0, rho, 256).f) / (2 * h)
        assert asym.h_gamma1(s, rho) == pytest.approx(0.5 * fd, rel=5e-2)


class TestCountingStats:
    def test_mu_at_one(self):
        assert asym.counting_stats(1.0, 0.0).mu == pytest.approx(0.4134967, abs=1e-7)

    def test_sigma2_at_one(self):
        assert asym.counting_stats(1.0, 0.0).sigma2 == 0.0

    @pytest.mark.parametrize("s,rho", [(math.inf, 0.0), (math.nan, 0.0), (4.0, math.nan)])
    def test_non_finite_input(self, s, rho):
        with pytest.raises(DomainError):
            asym.counting_stats(s, rho)

    def test_var_const(self):
        assert asym.VAR_CONSTANT == pytest.approx(0.31220024, abs=1e-7)
        direct = (1 + math.log(4.5) + 0.57721566490153286) / math.pi ** 2
        assert asym.VAR_CONSTANT == pytest.approx(direct, rel=1e-15)


class TestMgfPrefactor:
    def test_at_zero(self):
        assert asym.mgf_prefactor(0.0, 4.0, 0.0) == 1.0

    def test_second_order_coefficient(self):
        s, rho = 4.0, 0.0
        stats = asym.counting_stats(s, rho)
        closed = 2 * (math.log(4.5) + 1 + 0.57721566490153286
                      + math.pi ** 2 * (stats.mu ** 2 + stats.sigma2))
        def stencil(h):
            f = [asym.mgf_prefactor(k * h, s, rho) for k in (-2, -1, 1, 2)]
            return (-f[0] + 16 * f[1] - 30.0 + 16 * f[2] - f[3]) / (12 * h * h)

        d2 = (16.0 * stencil(5e-4) - stencil(1e-3)) / 15.0
        assert d2 / 2 == pytest.approx(closed, abs=1e-8)

    def test_tracks_determinant(self):
        from pearceydet.fredholm import logdet_converged
        nu, s, rho = 0.1, 10.0, 0.0
        gam = -math.expm1(-2 * math.pi * nu)
        [res] = logdet_converged([(s, gam)], rho, 1e-9)
        f_num = res.f
        ratio = math.exp(f_num) / asym.mgf_prefactor(nu, s, rho)
        assert abs(ratio - 1.0) < 0.05


class TestCltDistance:
    def test_zero_t_contributes_nothing(self):
        assert asym.clt_distance(4.0, 0.0, np.array([0.0])) == 0.0

    def test_decreasing_in_s(self):
        grid = np.linspace(-1.0, 1.0, 5)
        d4 = asym.clt_distance(4.0, 0.0, grid)
        d10 = asym.clt_distance(10.0, 0.0, grid)
        assert d10 < d4

    def test_small_at_s10_on_narrow_grid(self):
        grid = np.linspace(-0.5, 0.5, 5)
        d10 = asym.clt_distance(10.0, 0.0, grid)
        assert d10 < 0.2

    @pytest.mark.parametrize("s,rho", [(math.inf, 0.0), (math.nan, 0.0), (4.0, math.nan),
                                       (4.0, -math.inf)])
    def test_non_finite_input(self, s, rho, monkeypatch):
        monkeypatch.setattr(asym, "logdet_converged", lambda *a: pytest.fail("quadrature ran"))
        with pytest.raises(DomainError):
            asym.clt_distance(s, rho, np.linspace(-0.5, 0.5, 5))

    def test_nan_distance_kept(self, monkeypatch):
        # the builtin max(0.0, nan) is 0.0: a NaN mgf used to read as a perfect fit
        from pearceydet import fredholm
        real = fredholm.logdet_converged

        def one_nan(*args):
            out = real(*args)
            out[1] = fredholm.DetResult(math.nan, out[1].order, out[1].err_est)
            return out

        monkeypatch.setattr(asym, "logdet_converged", one_nan)
        assert math.isnan(asym.clt_distance(4.0, 0.0, np.linspace(-0.5, 0.5, 5)))


class TestGamma1Fit:
    def test_fit_recovers_planted_constant(self):
        s_grid = np.linspace(6.0, 10.0, 9)
        rng = np.random.default_rng(0)
        c_true = -0.31
        f_vals = np.array([asym.f_gamma1(s, 0.0) + c_true + 0.9 * s ** (-2 / 3)
                           for s in s_grid])
        fit = asym.fit_gamma1_constant(s_grid, f_vals, 0.0)
        assert fit.c == pytest.approx(c_true, abs=1e-10)
        assert fit.c_leading == pytest.approx(c_true, abs=1e-10)


class TestRealnessGuards:
    def test_beta_purely_imaginary_products_real(self):
        for g in (0.1, 0.5, 0.99):
            b = beta_of_gamma(g)
            assert abs((b * 1j).imag) < 1e-15
            assert abs((b * b).imag) < 1e-15

    def test_error_decay_slope(self):
        # |F_num - f_large_gap| fitted log-log slope in [-1.1, -0.35]
        from pearceydet.fredholm import logdet_converged
        p = ModelParams(0.5, 0.0)
        s_grid = [4.0, 6.0, 8.0, 10.0]
        errs = [abs(logdet_converged([(s, 0.5)], 0.0, 1e-10)[0].f - asym.f_large_gap(s, p).total)
                for s in s_grid]
        slope = np.polyfit(np.log(s_grid), np.log(errs), 1)[0]
        assert -1.1 <= slope <= -0.35
