import cmath
import math

import numpy as np
import pytest

from pearceydet import specfun as sf
from pearceydet.errors import ConvergenceError, DomainError, PoleError


def exp1_cf(z: float, terms: int = 60) -> float:
    """Exponential integral E1 by modified Lentz continued fraction (oracle)."""
    b = z + 1.0
    c = 1e308
    d = 1.0 / b
    h = d
    for i in range(1, terms):
        a = -i * i
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        h *= c * d
    return h * math.exp(-z)


class TestLnGamma:
    def test_at_one(self):
        assert abs(sf.ln_gamma(1.0)) < 1e-14

    def test_half(self):
        assert sf.ln_gamma(0.5).real == pytest.approx(math.log(math.sqrt(math.pi)),
                                                      abs=1e-13)
        assert abs(sf.ln_gamma(0.5).imag) < 1e-14

    def test_reflection_identity_imaginary_beta(self):
        # |Gamma(1+beta)|^2 = beta pi / sin(beta pi) for purely imaginary beta
        for b_im in (0.05, 0.1103178, 0.3, 0.5):
            beta = 1j * b_im
            lhs = abs(cmath.exp(sf.ln_gamma(1 + beta))) ** 2
            rhs = (beta * math.pi / cmath.sin(beta * math.pi)).real
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_matches_math_gamma_on_reals(self):
        for x in (0.25, 1.7, 4.2, 9.5, 17.0):
            assert sf.ln_gamma(x).real == pytest.approx(math.lgamma(x), rel=1e-13)

    def test_pole(self):
        with pytest.raises(PoleError):
            sf.ln_gamma(0.0)
        with pytest.raises(PoleError):
            sf.ln_gamma(-3.0)

    def test_reproduces_gamma_off_axis(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            z = complex(rng.uniform(-15, 15), rng.uniform(0.2, 15))
            # functional equation Gamma(z+1) = z Gamma(z)
            lhs = cmath.exp(sf.ln_gamma(z + 1))
            rhs = z * cmath.exp(sf.ln_gamma(z))
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


class TestDigamma:
    def test_at_one(self):
        assert sf.digamma(1.0).real == pytest.approx(-sf.EULER_GAMMA, abs=1e-13)

    def test_recurrence(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            z = complex(rng.uniform(0.1, 5), rng.uniform(-2, 2))
            assert abs(sf.digamma(z + 1) - sf.digamma(z) - 1 / z) < 1e-12

    def test_against_lngamma_differencing(self):
        h = 1e-6
        for z in (1.3, 2.0 + 0.5j, 0.5 - 0.11j):
            fd = (sf.ln_gamma(z + h) - sf.ln_gamma(z - h)) / (2 * h)
            assert abs(sf.digamma(z) - fd) < 1e-9


class TestBarnesG:
    def test_g1_is_one(self):
        assert abs(sf.barnes_ln_g(1.0)) < 1e-14

    def test_g2_via_recurrence(self):
        # G(2) = Gamma(1) G(1) = 1
        assert abs(sf.barnes_ln_g(2.0)) < 1e-12

    def test_g4_is_two(self):
        # recurrence twice: G(4) = 1! * 2! = 2
        assert sf.barnes_ln_g(4.0).real == pytest.approx(math.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("z", np.linspace(0.0, 2.0, 9))
    def test_recurrence(self, z):
        lhs = sf.barnes_ln_g(2.0 + z) - sf.barnes_ln_g(1.0 + z) - sf.ln_gamma(1.0 + z)
        assert abs(lhs) < 1e-10

    def test_small_z_series(self):
        z = 1e-3
        c1 = (math.log(2 * math.pi) - 1) / 2
        c2 = (math.log(2 * math.pi) - 1) ** 2 / 8 - (1 + sf.EULER_GAMMA) / 2
        expected = math.log(1.0 + c1 * z + c2 * z * z)
        assert sf.barnes_ln_g(1.0 + z).real == pytest.approx(expected, abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.barnes_ln_g(-0.5)


class TestKummerPhi:
    def test_at_zero(self):
        for a, b in ((0.3, 1.0), (2.0 + 1j, 0.5)):
            assert sf.kummer_phi(a, b, 0.0) == pytest.approx(1.0)

    def test_exponential_case(self):
        assert sf.kummer_phi(1.0, 1.0, 1.0).real == pytest.approx(math.e, rel=1e-14)

    def test_kummer_transformation(self):
        a, b, z = 0.3, 1.0, 2j
        lhs = sf.kummer_phi(a, b, z)
        rhs = cmath.exp(z) * sf.kummer_phi(b - a, b, -z)
        assert abs(lhs - rhs) < 1e-12

    def test_pole_in_b(self):
        with pytest.raises(PoleError):
            sf.kummer_phi(0.3, 0.0, 1.0)

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(sf, "_SERIES_MAX_TERMS", 50)
        with pytest.raises(ConvergenceError):
            sf.kummer_phi(0.3, 1.0, 1e6)


class TestKummerPsi:
    def test_e1_value(self):
        # psi(1,1,z) = e^z E1(z)
        expected = math.e * exp1_cf(1.0)
        assert sf.kummer_psi_b1(1.0, 1.0).real == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.596347362323194, abs=1e-12)

    def test_large_z_decay(self):
        # boundary condition psi ~ z^{-a}; the exact O(1/z) correction term
        # a(a-b+1)/z is 1.6e-3 relative here, so the two-term form is checked
        a, z = 0.2, 25.0
        val = sf.kummer_psi_b1(a, z)
        leading = z ** (-a)
        assert abs(val - leading) <= 2e-3 * leading
        two_term = leading * (1.0 - a * a / z)
        assert abs(val - two_term) <= 1e-4 * leading

    def test_connection_identity(self):
        # 13.2.41 with the upper sign: phi(a,b,z)/Gamma(b) =
        #   e^{-a pi i} psi(a,b,z)/Gamma(b-a)
        #   + e^{(b-a) pi i} e^z psi(b-a,b,e^{pi i} z)/Gamma(a)
        a, b, z = 0.3, 1.0, 1.0 + 1.0j
        lhs = sf.kummer_phi(a, b, z) / cmath.exp(sf.ln_gamma(b))
        arg_up = cmath.phase(z) + math.pi
        rhs = (cmath.exp(-a * math.pi * 1j) * sf.kummer_psi_b1(a, z)
               / cmath.exp(sf.ln_gamma(b - a))
               + cmath.exp((b - a) * math.pi * 1j) * cmath.exp(z)
               * sf.kummer_psi_b1(b - a, -z, arg_z=arg_up)
               / cmath.exp(sf.ln_gamma(a)))
        assert abs(lhs - rhs) < 1e-10

    def test_branch_override(self):
        a, z = 0.3, -2.0 + 0.0j
        upper = sf.kummer_psi_b1(a, z, arg_z=math.pi)
        lower = sf.kummer_psi_b1(a, z, arg_z=-math.pi)
        assert abs(upper - lower) > 1e-3  # cut is genuine
        assert abs(upper - sf.kummer_psi_b1(a, z)) < 1e-14  # principal = upper side

    def test_domain_cap(self):
        with pytest.raises(DomainError):
            sf.kummer_psi_b1(0.3, 40.0)
        with pytest.raises(PoleError):
            sf.kummer_psi_b1(0.3, 0.0)

    def test_arrays_broadcast(self):
        # a, z and arg_z broadcast; each point rounds as its scalar evaluation
        a = np.array([[0.3], [0.7 + 0.2j]])
        z = np.array([0.01 + 0.02j, 1.0, -2.0 + 0.5j, 4.0j, 25.0])
        got = sf.kummer_psi_b1(a, z)
        assert got.shape == (2, 5)
        for i in range(2):
            assert got[i].tolist() == [sf.kummer_psi_b1(complex(a[i, 0]), complex(v)) for v in z]
        branch = sf.kummer_psi_b1(0.3, -2.0 + 0.0j, arg_z=np.array([math.pi, -math.pi]))
        assert branch.tolist() == [sf.kummer_psi_b1(0.3, -2.0, arg_z=g) for g in (math.pi, -math.pi)]
        assert isinstance(sf.kummer_psi_b1(0.3, 1.0), complex)

    def test_non_finite_arguments(self):
        for a, z, arg_z in ((0.3, complex(math.nan, 0.0), None), (0.3, 1.0, math.inf),
                            (math.nan, 1.0, None), (0.3, np.array([1.0, math.inf]), None)):
            with pytest.raises(DomainError):
                sf.kummer_psi_b1(a, z, arg_z=arg_z)
