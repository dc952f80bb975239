import numpy as np
import pytest

from pearceydet import kernel as kn
from pearceydet.errors import ConvergenceError, DomainError


class TestRationalForm:
    def test_matches_integral(self):
        assert kn.kernel_rational(1.0, -1.0, 0.0) == pytest.approx(
            kn.kernel_integral(1.0, -1.0, 0.0), abs=1e-8)
        assert kn.kernel_rational(1.3, -0.4, 0.5) == pytest.approx(
            kn.kernel_integral(1.3, -0.4, 0.5), abs=1e-8)

    def test_matches_rh(self):
        assert kn.kernel_rational(2.0, 0.5, 1.0) == pytest.approx(
            kn.kernel_rh(2.0, 0.5, 1.0), abs=1e-8)

    def test_numerator_vanishes_on_diagonal(self):
        # finiteness of K on the diagonal forces N(x,x) = 0
        for x in (0.0, 1.0, -2.0):
            p0, p1, p2 = kn._p_bundle(np.array([x]), 0.0)
            q0, q1, q2 = kn._q_bundle(np.array([x]), 0.0)
            num = p0 * q2 - p1 * q1 + p2 * q0
            assert abs(num[0]) < 1e-10

    def test_band_redirect(self):
        with pytest.raises(DomainError):
            kn.kernel_rational(1.0, 1.0 + 1e-4, 0.0)


class TestDiagonalBand:
    def test_matches_integral_on_diagonal(self):
        assert kn.kernel_diagonal_band(0.8, 0.8, 0.0) == pytest.approx(
            kn.kernel_integral(0.8, 0.8, 0.0), abs=1e-8)
        assert kn.kernel_diagonal_band(0.0, 0.0, 0.0) == pytest.approx(
            kn.kernel_integral(0.0, 0.0, 0.0), abs=1e-8)

    def test_continuity_across_branch_switch(self):
        # second difference of the three-point stencil spanning the switch
        x = 1.0
        k_outer = kn.kernel_rational(x, x + 2e-3, 0.0)
        k_inner = kn.kernel_diagonal_band(x, x + 0.5e-3, 0.0)
        k_diag = kn.kernel_diagonal_band(x, x, 0.0)
        # values at offsets 0, 0.5e-3, 2e-3: fit the chord and check deviation
        chord = k_diag + (k_outer - k_diag) * (0.5e-3 / 2e-3)
        assert abs(k_inner - chord) < 1e-6

    def test_density_positive(self):
        for rho in (-1.0, 0.0, 1.0):
            diag, _ = kn._diag_and_slope(rho, np.linspace(-5, 5, 21))
            assert diag.real.min() > 0.0


class TestIntegralForm:
    def test_tail_insensitive_to_doubling(self):
        a = kn.kernel_integral(0.0, 0.0, 0.0, z_max=25.0)
        b = kn.kernel_integral(0.0, 0.0, 0.0, z_max=50.0, panels=100)
        assert abs(a - b) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            kn.kernel_integral(13.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            kn.kernel_integral(np.array([0.0, 1.0]), np.array([0.5, -12.5]), 0.0)
        # a NaN anywhere would never pass the tail check
        for x, y, rho in ((np.nan, 0.0, 0.0), (0.0, np.array([1.0, np.nan]), 0.0),
                          (0.0, 0.0, np.nan), (0.0, 0.0, np.inf)):
            with pytest.raises(DomainError):
                kn.kernel_integral(x, y, rho)

    def test_tail_doubling_is_bounded(self):
        # from z_max = 0.5 three doublings reach only z = 4, short of the tail
        with pytest.raises(ConvergenceError):
            kn.kernel_integral(0.0, 0.0, 0.0, z_max=0.5)

    def test_scalar_returns_float(self):
        assert isinstance(kn.kernel_integral(0.1, 0.2, 0.0), float)

    def test_batched_grid_matches_scalar_calls(self):
        grid = np.linspace(-3, 3, 9)
        xs, ys = np.meshgrid(grid, grid, indexing="ij")
        batched = kn.kernel_integral(xs, ys, 0.4)
        assert batched.shape == (9, 9)
        scalar = np.array([[kn.kernel_integral(float(x), float(y), 0.4) for y in grid]
                           for x in grid])
        assert np.abs(batched - scalar).max() <= 1e-15
        row = kn.kernel_integral(grid[:, None], grid[2], 0.4)
        assert np.abs(row[:, 0] - scalar[:, 2]).max() <= 1e-15

    def test_partial_doubling_matches_scalar_calls(self):
        # at z_max = 5 the tail check passes at some grid points and fails at
        # others; a point that doubled carries the z_max = 10 value bit for bit
        grid = np.linspace(-3, 3, 9)
        xs, ys = np.meshgrid(grid, grid, indexing="ij")
        batched = kn.kernel_integral(xs, ys, 0.4, z_max=5.0)
        doubled = batched == kn.kernel_integral(xs, ys, 0.4, z_max=10.0)
        assert 0 < doubled.sum() < doubled.size
        for mask in (doubled, ~doubled):
            for i, j in np.argwhere(mask)[:3]:
                scalar = kn.kernel_integral(float(xs[i, j]), float(ys[i, j]), 0.4, z_max=5.0)
                assert abs(batched[i, j] - scalar) <= 1e-15


class TestRhForm:
    def test_real_output(self):
        # realness asserted inside via the 1e-9 imaginary budget
        val = kn.kernel_rh(-1.0, 3.0, 0.0)
        assert isinstance(val, float)

    def test_scaling_invariance(self):
        # the sandwich (0 1 1) M(y)^{-1} M(x) (1 0 0)^T is invariant under a
        # simultaneous global rescaling of both matrices
        from pearceydet.pearcey import tilde_psi_matrices
        mats = tilde_psi_matrices(np.array([2.0, 0.5]), 1.0)
        left = np.array([0.0, 1.0, 1.0])
        right = np.array([1.0, 0.0, 0.0])
        base = left @ np.linalg.solve(mats[1], mats[0] @ right)
        c = 3.7 - 0.2j
        scaled = left @ np.linalg.solve(c * mats[1], (c * mats[0]) @ right)
        assert abs(base - scaled) < 1e-12 * abs(base)

    def test_rejects_diagonal(self):
        with pytest.raises(DomainError):
            kn.kernel_rh(1.0, 1.0, 0.0)


class TestTripleAgreement:
    @pytest.mark.parametrize("rho", [-1.0, 0.0, 1.0])
    def test_grid(self, rho):
        grid = np.linspace(-3, 3, 5)
        xs, ys = (g.ravel() for g in np.meshgrid(grid, grid, indexing="ij"))
        off = np.abs(xs - ys) >= 1e-3
        xs, ys = xs[off], ys[off]
        worst = 0.0
        for x, y, ki in zip(xs, ys, kn.kernel_integral(xs, ys, rho)):
            kr = kn.kernel_rational(float(x), float(y), rho)
            kh = kn.kernel_rh(float(x), float(y), rho)
            worst = max(worst, abs(kr - ki), abs(kr - kh))
        assert worst < 1e-7

    def test_diagonal_limit_first_order(self):
        x, rho = 0.7, 0.0
        k_diag = kn.kernel_diagonal_band(x, x, rho)
        errs = []
        for h in (1e-2, 1e-3):
            errs.append(abs(kn.kernel_rational(x, x + h, rho) - k_diag))
        # first-order convergence consistent with the Taylor remainder
        assert errs[1] < 0.2 * errs[0]


class TestKernelMatrix:
    def test_band_entries_used(self):
        x = np.array([1.0, 1.0 + 5e-4, 2.0])
        k = kn.kernel_matrix(x, 0.0)
        assert np.isfinite(k).all()
        assert k[0, 1] == pytest.approx(kn.kernel_diagonal_band(1.0, 1.0 + 5e-4, 0.0),
                                        abs=1e-12)
