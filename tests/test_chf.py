import cmath
import math

import numpy as np
import pytest

from pearceydet import chf
from pearceydet.errors import DomainError, NumericsError
from pearceydet.specfun import digamma, kummer_psi_b1, ln_gamma, EULER_GAMMA

BETAS = (0.05j, 0.11j, 0.3j)


class TestSectorGeometry:
    def test_sector_of(self):
        assert chf.sector_of(cmath.exp(0.2j)) == 1
        assert chf.sector_of(cmath.exp(1.2j)) == 2
        assert chf.sector_of(cmath.exp(2.8j)) == 3
        assert chf.sector_of(-1 - 0.5j) == 4
        assert chf.sector_of(cmath.exp(-1.8j)) == 5
        assert chf.sector_of(cmath.exp(-0.3j)) == 6

    def test_point_validation(self):
        with pytest.raises(DomainError):
            chf.SectorPoint(1.0 + 1.0j, 3)  # wrong sector
        with pytest.raises(DomainError):
            chf.SectorPoint(30.0 + 1.0j, 1)  # |z| too large


class TestPhiChf:
    def test_beta_zero_diagonal(self):
        z = 1.0 + 1.0j
        phi = chf.phi_chf(chf.SectorPoint(z, 1), 0.0)
        expected = np.diag([cmath.exp(-0.5j * z), cmath.exp(0.5j * z)])
        assert np.abs(phi - expected).max() == 0.0

    @pytest.mark.parametrize("beta", BETAS)
    def test_det_constant_in_sector(self, beta):
        d1 = np.linalg.det(chf.phi_chf(chf.SectorPoint(1 + 1j, 1), beta))
        d2 = np.linalg.det(chf.phi_chf(chf.SectorPoint(2 + 2j, 1), beta))
        assert abs(d1 - d2) < 1e-9
        assert d1 == pytest.approx(1.0, abs=1e-12)

    def test_infinity_normalization(self):
        # remainder is O(1/z); measured 6.0e-3 at |z| = 25 for beta = 0.11i
        beta = 0.11j
        z = 25j
        phi = chf.phi_chf(chf.SectorPoint(z, 2), beta)
        zb = cmath.exp(beta * cmath.log(z))
        undo = np.diag([cmath.exp(0.5j * z) * zb, cmath.exp(-0.5j * z) / zb])
        assert np.abs(phi @ undo - np.eye(2)).max() < 6.5e-3

    def test_rejects_bad_beta(self):
        with pytest.raises(DomainError):
            chf.phi_chf(chf.SectorPoint(1 + 1j, 1), 0.3 + 0.1j)

    @pytest.mark.parametrize("beta", [complex(0, math.nan), complex(0, math.inf),
                                      complex(math.nan, 0.1)])
    def test_rejects_non_finite_beta(self, beta):
        # NaN passed both comparisons: every series point then ran to its term cap
        for call in (lambda: chf.verification_report(beta),
                     lambda: chf.chf_jump_residual(1, 1.0, beta),
                     lambda: chf.chf_origin_expansion(beta)):
            with pytest.raises(DomainError):
                call()


class TestJumps:
    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("ray", range(1, 7))
    def test_residuals(self, beta, ray):
        worst = max(chf.chf_jump_residual(ray, r, beta) for r in (0.5, 1.0, 2.0, 5.0))
        assert worst < 1e-9

    @pytest.mark.parametrize("beta", (0.03j, 0.2j, 0.4j))
    def test_one_base_matrix_per_ray_point(self, beta, monkeypatch):
        # reference: each side from its own base-matrix evaluation
        jumps = chf._jumps(beta)
        sectors = chf._sector_products(jumps)

        def side(ray, r, sector, arg):
            z = r * cmath.exp(1j * chf.SECTOR_ANGLES[ray - 1])
            return chf._base_matrix(z, arg, beta) @ sectors[sector - 1]

        expected = {}
        for ray in range(1, 7):
            phi = chf.SECTOR_ANGLES[ray - 1]
            for r in chf._REPORT_RADII:
                ccw = side(ray, r, ray, phi)
                cw = side(ray, r, ray - 1 if ray > 1 else 6, phi if ray > 1 else 2 * math.pi)
                plus, minus = (ccw, cw) if chf._RAY_OUTWARD[ray - 1] else (cw, ccw)
                expected[ray, r] = float(np.abs(plus - minus @ jumps[ray - 1]).max())
        calls = []
        real = chf._base_matrix
        monkeypatch.setattr(chf, "_base_matrix", lambda *a: calls.append(a) or real(*a))
        for (ray, r), want in expected.items():
            calls.clear()
            assert chf.chf_jump_residual(ray, r, beta) == want
            assert len(calls) == (2 if ray == 1 else 1)

    def test_beta_zero_unipotent_rays(self):
        for ray in (2, 3, 5, 6):
            assert chf.chf_jump_residual(ray, 1.0, 0.0) < 1e-12

    def test_radius_domain(self):
        with pytest.raises(DomainError):
            chf.chf_jump_residual(1, 20.0, 0.11j)


class TestOriginExpansion:
    @pytest.mark.parametrize("beta", BETAS)
    def test_upsilon0_closed_form(self, beta):
        exp = chf.chf_origin_expansion(beta)
        u0 = np.array([
            [cmath.exp(ln_gamma(1 - beta) - beta * math.pi * 1j),
             cmath.exp(-ln_gamma(beta)) * (digamma(1 - beta) + 2 * EULER_GAMMA)],
            [cmath.exp(ln_gamma(1 + beta)),
             -cmath.exp(beta * math.pi * 1j - ln_gamma(-beta))
             * (digamma(-beta) + 2 * EULER_GAMMA)]], dtype=complex)
        assert np.abs(exp.upsilon0 - u0).max() < 1e-12
        assert abs(np.linalg.det(exp.upsilon0)) > 1e-6

    @pytest.mark.parametrize("beta", BETAS)
    def test_upsilon1_21(self, beta):
        exp = chf.chf_origin_expansion(beta)
        closed = beta * math.pi * 1j * cmath.exp(-beta * math.pi * 1j) \
            / cmath.sin(beta * math.pi)
        assert abs(exp.upsilon1_21 - closed) < 1e-10

    def test_numerical_first_order_match(self):
        # raises internally if the sampled remainder exceeds the O(z^2) budget
        chf.chf_origin_expansion(0.11j)

    def test_tight_budget_fails(self, monkeypatch):
        monkeypatch.setattr(chf, "_VERIFY_RADII", (1e-2,))
        monkeypatch.setattr(chf, "_FIRST_ORDER_BUDGET", 1e-12)
        with pytest.raises(NumericsError):
            chf.chf_origin_expansion(0.11j)

    def test_degenerate_beta(self):
        with pytest.raises(DomainError):
            chf.chf_origin_expansion(0.0)


class TestGammaBetaConsistency:
    @pytest.mark.parametrize("beta", BETAS)
    def test_unipotent_coefficient_identity(self, beta):
        # sin(beta pi)/pi conjugated by e^{beta pi i sigma3/2} equals
        # -gamma/(2 pi i) with gamma = 1 - e^{2 beta pi i}
        gamma_c = 1.0 - cmath.exp(2 * beta * math.pi * 1j)
        lhs = cmath.sin(beta * math.pi) / math.pi * cmath.exp(beta * math.pi * 1j)
        rhs = -gamma_c / (2j * math.pi)
        assert abs(lhs - rhs) < 1e-12
        assert abs(gamma_c - (-2j * cmath.exp(beta * math.pi * 1j)
                              * cmath.sin(beta * math.pi))) < 1e-12


class TestReport:
    def test_report_structure(self, monkeypatch):
        monkeypatch.setattr(chf, "_REPORT_RADII", (1.0, 2.0))
        rep = chf.verification_report(0.11j)
        assert rep["max_ray_residual"] < 1e-9
        assert set(rep["ray_residuals"].keys()) == {str(k) for k in range(1, 7)}
        assert "upsilon1_21" in rep


def _report_points():
    """(z, continued argument) of every base-matrix evaluation of a report."""
    pts = []
    for ray, ang in enumerate(chf.SECTOR_ANGLES, start=1):
        for r in chf._REPORT_RADII:
            z = r * cmath.exp(1j * ang)
            pts.append((z, ang))
            if ray == 1:
                pts.append((z, 2.0 * math.pi))
    for r in chf._VERIFY_RADII:
        z = r * cmath.exp(0.75j * math.pi)
        pts.append((z, cmath.phase(z) % (2.0 * math.pi)))
    return pts


def _psi_b1_loop(a: complex, z: complex, arg_z: float) -> complex:
    """The scalar log-series loop the array series replaced, kept as its reference."""
    log_z = math.log(abs(z)) + 1j * arg_z
    dig_a, dig_1 = digamma(a), -EULER_GAMMA
    poch, series, phi_sum = 1.0 + 0.0j, dig_a - 2.0 * dig_1, 1.0 + 0.0j
    for k in range(10000):
        dig_a = dig_a + 1.0 / (a + k)
        dig_1 = dig_1 + 1.0 / (1.0 + k)
        poch *= (a + k) * z / ((k + 1.0) ** 2)
        term = poch * (dig_a - 2.0 * dig_1)
        series += term
        phi_sum += poch
        if abs(term) + abs(poch) < 1e-17 * max(abs(series), 1.0):
            return -cmath.exp(-ln_gamma(a)) * (log_z * phi_sum + series)
    raise AssertionError("reference series did not converge")


class TestArraySeries:
    """The report's one array pass against the scalar path, point by point."""

    @pytest.mark.parametrize("beta", (0.03j, 0.2j, 0.4j))
    def test_kummer_array_equals_scalar(self, beta):
        z, arg = (np.array(col) for col in zip(*_report_points()))
        assert len(z) == 30
        up, dn = (z * 1j, arg + math.pi / 2), (z * -1j, arg - math.pi / 2)
        for a, (w, arg_w) in ((beta, up), (1 - beta, dn), (1 + beta, up), (-beta, dn)):
            got = kummer_psi_b1(a, w, arg_z=arg_w)
            assert got.shape == (30,)
            points = list(zip(w.tolist(), arg_w.tolist()))
            assert got.tolist() == [kummer_psi_b1(a, wi, arg_z=gi) for wi, gi in points]
            assert got.tolist() == [_psi_b1_loop(a, wi, gi) for wi, gi in points]
        # two values of a in one call, broadcast against their points
        both = kummer_psi_b1(np.array([[beta], [1 - beta]]), np.stack([up[0], dn[0]]),
                             arg_z=np.stack([up[1], dn[1]]))
        assert both[1].tolist() == kummer_psi_b1(1 - beta, dn[0], arg_z=dn[1]).tolist()

    @pytest.mark.parametrize("beta", (0.03j, 0.2j, 0.4j))
    def test_report_against_scalar_path(self, beta):
        rep = chf.verification_report(beta)
        for ray in range(1, 7):
            for r in chf._REPORT_RADII:
                want = chf.chf_jump_residual(ray, r, beta)
                assert abs(rep["ray_residuals"][str(ray)][f"{r:g}"] - want) <= 1e-15
        exp = chf.chf_origin_expansion(beta)
        assert rep["upsilon0"] == [[[v.real, v.imag] for v in row] for row in exp.upsilon0]
        assert rep["upsilon1_21"] == [exp.upsilon1_21.real, exp.upsilon1_21.imag]

    def test_base_matrix_array_equals_scalar(self):
        bf = chf._BetaFactors.of(0.2j)
        z, arg = (np.array(col) for col in zip(*_report_points()))
        got = chf._base_matrix(z, arg, bf)
        assert got.shape == (30, 2, 2)
        for zi, gi, m in zip(z, arg, got):
            assert m.tobytes() == chf._base_matrix(complex(zi), float(gi), 0.2j).tobytes()
