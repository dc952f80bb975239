import numpy as np
import pytest

from pearceydet import kernel as kn
from pearceydet import pearcey as pc
from pearceydet.fredholm import gauss_legendre
from pearceydet.errors import ConvergenceError, DomainError, RealnessError


class TestRationalForm:
    def test_matches_integral(self):
        assert kn.kernel_point(1.0, -1.0, 0.0) == pytest.approx(
            kn.kernel_integral(1.0, -1.0, 0.0), abs=1e-8)
        assert kn.kernel_point(1.3, -0.4, 0.5) == pytest.approx(
            kn.kernel_integral(1.3, -0.4, 0.5), abs=1e-8)

    def test_matches_rh(self):
        assert kn.kernel_point(2.0, 0.5, 1.0) == pytest.approx(
            kn.kernel_rh(2.0, 0.5, 1.0), abs=1e-8)

    def test_numerator_vanishes_on_diagonal(self):
        # finiteness of K on the diagonal forces N(x,x) = 0
        for x in (0.0, 1.0, -2.0):
            p0, p1, p2 = kn._p_bundle(np.array([x]), 0.0)
            q0, q1, q2 = kn._q_bundle(np.array([x]), 0.0)
            num = p0 * q2 - p1 * q1 + p2 * q0
            assert abs(num[0]) < 1e-10

    def test_domain(self):
        # the range of the oracles: a NaN anywhere, |x| or |y| above 12, or |rho| above 4;
        # rho = 1e300 printed NaN
        for x, y, rho in ((-50.0, 0.0, 0.0), (0.0, 12.5, 0.0), (12.5, 12.5, 0.0),
                          (np.nan, 0.0, 0.0), (0.0, np.nan, 0.0), (np.nan, np.nan, 0.0),
                          (0.0, 1.0, np.nan), (1.0, 1.0, np.inf), (0.0, 1.0, -np.inf),
                          (0.0, 1.0, 4.5), (1.0, 1.0, -4.5), (0.0, 1.0, 50.0),
                          (0.0, 1.0, 1e300)):
            with pytest.raises(DomainError):
                kn.kernel_point(x, y, rho)
        assert np.isfinite(kn.kernel_point(-12.0, 12.0, 0.0))
        assert np.isfinite(kn.kernel_point(12.0, 12.0, 0.0))
        for rho in (-4.0, 4.0):
            assert np.isfinite(kn.kernel_point(0.0, 1.0, rho))
            assert np.isfinite(kn.kernel_point(1.0, 1.0, rho))


class TestDiagonalBand:
    def test_matches_integral_on_diagonal(self):
        assert kn.kernel_point(0.8, 0.8, 0.0) == pytest.approx(
            kn.kernel_integral(0.8, 0.8, 0.0), abs=1e-8)
        assert kn.kernel_point(0.0, 0.0, 0.0) == pytest.approx(
            kn.kernel_integral(0.0, 0.0, 0.0), abs=1e-8)

    def test_continuity_across_branch_switch(self):
        # second difference of the three-point stencil spanning the switch
        x = 1.0
        k_outer = kn.kernel_point(x, x + 2e-3, 0.0)
        k_inner = kn.kernel_point(x, x + 0.5e-3, 0.0)
        k_diag = kn.kernel_point(x, x, 0.0)
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
                          (0.0, 0.0, np.nan), (0.0, 0.0, np.inf), (0.0, 0.0, 4.5),
                          (0.0, 0.0, -4.5), (0.0, 0.0, 50.0), (0.0, 0.0, 1e300)):
            with pytest.raises(DomainError):
                kn.kernel_integral(x, y, rho)
        for rho in (-4.0, 4.0):
            assert np.isfinite(kn.kernel_integral(0.0, 1.0, rho))

    def test_tail_doubling_is_bounded(self):
        # from z_max = 0.5 two doublings reach only z = 2, short of the tail
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


def direct_kernel_integral(xs, ys, rho, z_max=25.0, panels=50):
    """The z-integral with P and V summed node by node over the ray rule, no tables."""
    rule = pc._ray_rule(pc.HALF_RANGE, pc.PANEL_WIDTH, pc.NODES_PER_PANEL)
    r, w = rule.nodes.ravel(), rule.weights.ravel()

    def ray(rot, u, sign):
        t = r * rot
        c = w * rot * np.exp(sign * (t ** 4 / 4 + rho * t ** 2 / 2))
        return c @ np.exp(np.multiply.outer(1j * t, u))

    edges = np.linspace(0.0, z_max, panels + 1)
    mids, half = (edges[:-1] + edges[1:]) / 2, (edges[1:] - edges[:-1]) / 2
    gx, gw = np.polynomial.legendre.leggauss(16)
    zs, ws = (mids[:, None] + half[:, None] * gx).ravel(), (half[:, None] * gw).ravel()
    p = {x: ray(1.0, np.concatenate([x + zs, x - zs]), -1.0).real / np.pi for x in set(xs)}
    v = {y: -ray(np.exp(1j * np.pi / 4), np.concatenate([y + zs, zs - y]), +1.0).real / np.pi
         for y in set(ys)}
    m = len(zs)
    return np.array([-(ws * (p[x][:m] * v[y][:m] + p[x][m:] * v[y][m:])).sum()
                     for x, y in zip(xs, ys)])


class TestSharedTables:
    """One exponential table pair per ray and z-grid, shared by every x and y."""

    XS = np.array([-12.0, -7.5, -1.0, 3.3, 12.0])
    YS = np.array([-12.0, -4.0, 0.5, 8.0, 12.0])

    @pytest.mark.parametrize("rho", [-2.0, 0.0, 1.7])
    def test_matches_node_by_node_sums(self, rho):
        # x and y take different values, so a P shift applied to V (or the
        # reverse) shows, and so does P(x - z) taken from the unconjugated table
        xs, ys = (g.ravel() for g in np.meshgrid(self.XS, self.YS, indexing="ij"))
        k = kn.kernel_integral(xs, ys, rho)
        ref = direct_kernel_integral(xs, ys, rho)
        assert np.abs(k - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [1, 3, 9])
    def test_one_table_pair_per_ray_and_pass(self, n, monkeypatch):
        # the tables of a pass's 50 (then 100) z-panels of 16 nodes each
        calls = []
        real = kn._z_tables
        monkeypatch.setattr(kn, "_z_tables", lambda rot, mids, half:
                            calls.append((rot, 16 * len(mids))) or real(rot, mids, half))
        grid = np.linspace(-3, 3, n)
        xs, ys = np.meshgrid(grid, grid[::-1] / 2, indexing="ij")
        kn.kernel_integral(xs, ys, 0.4)
        assert calls == [(1.0, 800), (pc.V_RAY, 800)]
        calls.clear()
        # at z_max = 5 points double once: one more pair for the pass, none per point
        kn.kernel_integral(xs, ys, 0.4, z_max=5.0)
        assert calls == [(rot, m) for m in (800, 1600) for rot in (1.0, pc.V_RAY)]

    @pytest.mark.parametrize("z_max, panels", [(25.0, 50), (50.0, 100), (200.0, 400)])
    def test_panel_factored_tables_match_direct_ones(self, z_max, panels, monkeypatch):
        # e^{ia mids} e^{ia half xi} against e^{iaz} on the rounded nodes z: one
        # extra rounding per entry, and the exponentials' own of about |a z| ulp
        exps = []
        real_exp = np.exp
        monkeypatch.setattr(np, "exp", lambda a: exps.append(np.size(a)) or real_exp(a))
        edges = np.linspace(0.0, z_max, panels + 1)
        mids, half = (edges[:-1] + edges[1:]) / 2, (edges[1:] - edges[:-1]) / 2
        got = kn._z_tables(pc.V_RAY, mids, half)
        monkeypatch.setattr(np, "exp", real_exp)
        widths = len(np.unique(half))
        assert sum(exps) == 60 * (panels + 16 * widths)
        zs = (mids[:, None] + half[:, None] * kn._GL_X[None, :]).ravel()
        for a, b in zip(got, pc._ray_tables(pc.V_RAY, zs)):
            assert a.shape == b.shape
            assert (np.abs(a - b) <= 8e-16 * (1.0 + 4.8 * z_max) * np.abs(b)).all()

    def test_third_doubling_grid(self):
        # z = 200: the V table reaches e^-665 and the e^{ity} modulation at
        # y = -12 e^41, both normal doubles.  Beyond |u| ~ 40 the ray rule no
        # longer resolves e^{itu}, so the far z-range adds ~6e-10 of noise
        # against the default grid; |x| <= 2 keeps its tail below 1e-11.
        xs, ys = (g.ravel() for g in np.meshgrid([-2.0, 2.0], [-12.0, 12.0], indexing="ij"))
        far = kn.kernel_integral(xs, ys, -2.0, z_max=200.0, panels=400)
        ref = direct_kernel_integral(xs, ys, -2.0, z_max=200.0, panels=400)
        assert np.abs(far - ref).max() <= 1e-13 * np.abs(ref).max()
        grid = np.array([-2.0, -0.5, 0.0, 1.5, 2.0])
        xs, ys = (g.ravel() for g in np.meshgrid(grid, self.YS, indexing="ij"))
        for rho in (-2.0, 0.0, 1.7):
            far = kn.kernel_integral(xs, ys, rho, z_max=200.0, panels=400)
            assert np.abs(far - kn.kernel_integral(xs, ys, rho)).max() <= 1e-9


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

    @pytest.mark.parametrize("ratio", [2.0, 0.5])
    def test_imaginary_part_budget(self, ratio, monkeypatch):
        # the value tilted to Im K = ratio * 1e-9 (1 + |Re K|): raises above the budget
        x, y, rho = -1.0, 3.0, 0.0
        val = kn.kernel_rh(x, y, rho)
        tilt = 1.0 + 1j * ratio * 1e-9 * (1.0 + abs(val)) / abs(val)
        real = kn.tilde_psi_matrices

        def tilted(pts, r):
            mats = real(pts, r).copy()
            mats[0] *= tilt
            return mats

        monkeypatch.setattr(kn, "tilde_psi_matrices", tilted)
        if ratio > 1.0:
            with pytest.raises(RealnessError):
                kn.kernel_rh(x, y, rho)
        else:
            assert kn.kernel_rh(x, y, rho) == pytest.approx(val, rel=1e-12)

    def test_rejects_diagonal(self):
        with pytest.raises(DomainError):
            kn.kernel_rh(1.0, 1.0, 0.0)

    def test_domain(self):
        # the range of kernel_point and kernel_integral, NaN included
        for x, y, rho in ((-50.0, 0.0, 0.0), (0.0, 12.5, 0.0), (np.nan, 0.0, 0.0),
                          (np.nan, np.nan, 0.0), (0.0, 1.0, np.nan), (0.0, 1.0, np.inf),
                          (0.0, 1.0, 4.5), (0.0, 1.0, -4.5), (0.0, 1.0, 50.0),
                          (0.0, 1.0, 1e300)):
            with pytest.raises(DomainError):
                kn.kernel_rh(x, y, rho)
        for rho in (-4.0, 4.0):
            assert np.isfinite(kn.kernel_rh(0.0, 1.0, rho))


class TestTripleAgreement:
    @pytest.mark.parametrize("rho", [-1.0, 0.0, 1.0])
    def test_grid(self, rho):
        grid = np.linspace(-3, 3, 5)
        xs, ys = (g.ravel() for g in np.meshgrid(grid, grid, indexing="ij"))
        off = np.abs(xs - ys) >= 1e-3
        xs, ys = xs[off], ys[off]
        worst = 0.0
        for x, y, ki in zip(xs, ys, kn.kernel_integral(xs, ys, rho)):
            kr = kn.kernel_point(float(x), float(y), rho)
            kh = kn.kernel_rh(float(x), float(y), rho)
            worst = max(worst, abs(kr - ki), abs(kr - kh))
        assert worst < 1e-7

    def test_diagonal_limit_first_order(self):
        x, rho = 0.7, 0.0
        k_diag = kn.kernel_point(x, x, rho)
        errs = []
        for h in (1e-2, 1e-3):
            errs.append(abs(kn.kernel_point(x, x + h, rho) - k_diag))
        # first-order convergence consistent with the Taylor remainder
        assert errs[1] < 0.2 * errs[0]


class TestKernelMatrix:
    def test_band_entries_used(self):
        x = np.array([1.0, 1.0 + 5e-4, 2.0])
        k = kn._kernel_matrix_from_session(0.0, x, x)
        assert np.isfinite(k).all()
        assert k[0, 1] == pytest.approx(kn.kernel_point(1.0, 1.0 + 5e-4, 0.0),
                                        abs=1e-12)


def out_of_place_assembly(rho, x, y):
    """The assembly as one expression per step, without reused buffers."""
    p, q = pc._p_bundle(x, rho), pc._q_bundle(y, rho)
    p0, p1, p2 = p
    q0, q1, q2 = q
    num = (np.multiply.outer(p0, q2) - np.multiply.outer(p1, q1)
           + np.multiply.outer(p2, q0) - rho * np.multiply.outer(p0, q0))
    dxy = np.subtract.outer(x, y)
    band = np.abs(dxy) < kn.DIAG_BAND_HALF_WIDTH
    k = num / np.where(band, 1.0, dxy)
    if band.any():
        diag, slope = kn._diag_and_slope(rho, x, p, q if y is x else None)
        k = np.where(band, diag[:, None] - slope[:, None] * dxy, k)
    return k, int(band.sum())


class TestInPlaceAssembly:
    @pytest.mark.parametrize("rho", [-2.0, 0.0, 1.7])
    @pytest.mark.parametrize("n,s", [(1, 6.0), (2, 6.0), (3, 6.0), (16, 6.0), (127, 6.0),
                                     (384, 6.0), (384, 1.0)])
    def test_square_bitwise(self, rho, n, s):
        x = s * np.asarray(gauss_legendre(n).nodes)
        ref, in_band = out_of_place_assembly(rho, x, x)
        if (n, s) == (384, 1.0):
            assert in_band == 480   # off-diagonal band entries near the ends
        assert kn._kernel_matrix_from_session(rho, x, x).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("rho", [-2.0, 0.0, 1.7])
    def test_rectangular_bitwise(self, rho):
        x = np.array([-3.0, 0.25, 1.0, 1.0 + 4e-4, 5.5])
        y = np.array([1.0 - 2e-4, 0.25, 2.0, -3.0 + 1e-5])
        ref, in_band = out_of_place_assembly(rho, x, y)
        assert in_band == 4
        assert kn._kernel_matrix_from_session(rho, x, y).tobytes() == ref.tobytes()
