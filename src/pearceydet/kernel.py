"""The Pearcey kernel through three representations with a stable diagonal.

The production path is the rational form

    K(x, y) = [P(x)Q''(y) - P'(x)Q'(y) + P''(x)Q(y) - rho P(x)Q(y)] / (x - y),

with a two-term Taylor branch inside the band |x - y| < 1e-3 built from the
exact diagonal K(x,x) = x P Q + P'Q'' - P''Q' (the Q''' eliminated through the
Q equation).  Two independent oracles are provided:

* ``kernel_integral`` - the convergent split of the z-integral representation.
  The textbook display int_0^inf P(x+z) Q(y+z) dz does not converge with the
  actual contour Q (the integrand stays O(1) and oscillatory along the
  diagonal because Q grows like exp(+3 y^{4/3}/8) where P decays at the same
  rate).  Writing Q(y) = V(y) - V(-y) with the upper-V solution V and pushing
  each half toward the infinity where it decays gives

      K(x, y) = - int_0^inf P(x+z) V(y+z) dz - int_0^inf P(x-z) V(z-y) dz,

  both integrands decaying like exp(-c z^{4/3}); truncation at Z = 25 is
  far below double precision for |x|, |y| <= 12.
* ``kernel_rh`` - the 3x3 matrix representation through tilde_psi.

Every dense K is assembled by ``_kernel_matrix_from_session``, which computes
the P bundle at the rows and the Q bundle at the columns once per call; a
square call over all the points a computation needs therefore computes each
bundle once, and nothing is cached between calls.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, RealnessError
from .pearcey import _p_bundle, _q_bundle, _upper_v_bundle, tilde_psi_matrices

DIAG_BAND_HALF_WIDTH = 1e-3
_XY_MAX = 12.0
_INTEGRAL_Z = 25.0
_INTEGRAL_NODES = 16            # Gauss-Legendre nodes per z-panel
_REALNESS_TOL = 1e-9


def _real_checked(values: np.ndarray, what: str) -> np.ndarray:
    values = np.asarray(values)
    scale = 1.0 + np.abs(values.real)
    bad = np.abs(values.imag) / scale
    if bad.size and bad.max() > _REALNESS_TOL:
        raise RealnessError(f"{what}: |Im| = {bad.max():.3e} exceeds {_REALNESS_TOL}")
    return np.ascontiguousarray(values.real)


def _nat_band(x: float, y: float) -> bool:
    return abs(x - y) < DIAG_BAND_HALF_WIDTH


def kernel_rational(x: float, y: float, rho: float) -> float:
    """Off-diagonal rational form; redirects to the band branch when |x-y| < 1e-3."""
    if _nat_band(x, y):
        raise DomainError(
            f"|x - y| = {abs(x - y):.2e} is inside the diagonal band; "
            "use kernel_diagonal_band")
    return _kernel_matrix_from_session(rho, np.array([x]), np.array([y]))[0, 0]


def _diag_and_slope(rho: float, x: np.ndarray, p=None, q=None):
    """Exact diagonal K(x,x) and the Taylor slope in (y - x).

    With N the rational numerator, K(x,x) = -dN/dy(x,x) and the first-order
    coefficient is -(1/2) d2N/dy2 (x,x); both y-derivatives of Q beyond order
    two are eliminated through Q''' = -y Q + rho Q'.  ``p`` and ``q`` are
    the P and Q bundles at x when the caller has them already.
    """
    p0, p1, p2 = _p_bundle(x, rho) if p is None else p
    q0, q1, q2 = _q_bundle(x, rho) if q is None else q
    diag = x * p0 * q0 + p1 * q2 - p2 * q1
    # d2N/dy2(x,x) = -PQ - x P Q' + x P'Q - rho P'Q' + P''Q''
    d2 = -p0 * q0 - x * p0 * q1 + x * p1 * q0 - rho * p1 * q1 + p2 * q2
    return diag, -0.5 * d2


def kernel_diagonal_band(x: float, y: float, rho: float) -> float:
    """Two-term Taylor evaluation valid for |x - y| < 1e-3 (exact on the diagonal)."""
    diag, slope = _diag_and_slope(rho, np.array([float(x)]))
    val = diag[0] + slope[0] * (y - x)
    return float(_real_checked(np.array([val]), "kernel_diagonal_band")[0])


def kernel_point(x: float, y: float, rho: float) -> float:
    """Kernel value with automatic diagonal-band dispatch."""
    if _nat_band(x, y):
        return kernel_diagonal_band(x, y, rho)
    return kernel_rational(x, y, rho)


def _batched(bundle, pts: np.ndarray, rho: float, split: int | None) -> np.ndarray:
    if split is None or split >= len(pts):
        return bundle(pts, rho)
    return np.concatenate([bundle(pts[:split], rho), bundle(pts[split:], rho)], axis=1)


def _kernel_matrix_from_session(rho: float, x: np.ndarray, y: np.ndarray, *,
                                split: int | None = None) -> np.ndarray:
    """Dense K(x_i, y_j) with the band branch applied entrywise.

    Pass the same array as x and y for a square: the Q bundle then serves the
    diagonal too.  ``split`` computes the bundles of a square in two batches,
    the first ``split`` points and the rest, so that the block over the first
    batch is bitwise the same with or without the points after it (a
    multi-threaded BLAS rounds a batch differently by its size).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p = _batched(_p_bundle, x, rho, split)
    q = _batched(_q_bundle, y, rho, split)
    p0, p1, p2 = p
    q0, q1, q2 = q
    num = (np.multiply.outer(p0, q2) - np.multiply.outer(p1, q1)
           + np.multiply.outer(p2, q0) - rho * np.multiply.outer(p0, q0))
    dxy = np.subtract.outer(x, y)
    band = np.abs(dxy) < DIAG_BAND_HALF_WIDTH
    safe = np.where(band, 1.0, dxy)
    k = num / safe
    if band.any():
        diag, slope = _diag_and_slope(rho, x, p, q if y is x else None)
        taylor = diag[:, None] - slope[:, None] * dxy
        k = np.where(band, taylor, k)
    return _real_checked(k, "kernel matrix")


def kernel_matrix(x: np.ndarray, rho: float) -> np.ndarray:
    """K(x_i, x_j) on a node array (the Nystrom building block)."""
    x = np.asarray(x, dtype=float)
    return _kernel_matrix_from_session(rho, x, x)


def kernel_integral(x: float, y: float, rho: float, *, z_max: float = _INTEGRAL_Z,
                    panels: int = 50) -> float:
    """Oracle: convergent two-sided z-integral representation (see module notes).

    The tail is monitored: the last panel of either half must contribute
    less than 1e-11, otherwise z_max is doubled (the default already leaves
    ~1e-15 tails for |x|, |y| <= 12).
    """
    if abs(x) > _XY_MAX or abs(y) > _XY_MAX:
        raise DomainError(f"kernel_integral validated for |x|,|y| <= {_XY_MAX}")
    xg, wg = np.polynomial.legendre.leggauss(_INTEGRAL_NODES)
    while True:
        edges = np.linspace(0.0, z_max, panels + 1)
        mids = (edges[:-1] + edges[1:]) / 2
        half = (edges[1:] - edges[:-1]) / 2
        zs = (mids[:, None] + half[:, None] * xg[None, :]).ravel()
        ws = (half[:, None] * wg[None, :]).ravel()
        p_fwd = _p_bundle(x + zs, rho, kmax=0)[0]
        v_fwd = _upper_v_bundle(y + zs, rho, kmax=0)[0]
        p_bwd = _p_bundle(x - zs, rho, kmax=0)[0]
        v_bwd = _upper_v_bundle(zs - y, rho, kmax=0)[0]
        contrib = -ws * (p_fwd * v_fwd + p_bwd * v_bwd)
        tail = abs(contrib[-_INTEGRAL_NODES:].sum())
        if tail < 1e-11:
            return float(_real_checked(np.array([contrib.sum()]), "kernel_integral")[0])
        z_max *= 2.0
        panels *= 2


def kernel_rh(x: float, y: float, rho: float) -> float:
    """Oracle: (1/(2 pi i (x-y))) (0 1 1) tilde_psi(y)^{-1} tilde_psi(x) (1 0 0)^T."""
    if x == y:
        raise DomainError("kernel_rh requires x != y")
    if abs(x) > _XY_MAX or abs(y) > _XY_MAX:
        raise DomainError(f"kernel_rh validated for |x|,|y| <= {_XY_MAX}")
    mats = tilde_psi_matrices(np.array([x, y]), rho)
    ax, ay = mats[0], mats[1]
    if abs(np.linalg.det(ay)) < 1e-12:
        raise DomainError(f"tilde_psi({y}) numerically singular")
    v = np.linalg.solve(ay, ax @ np.array([1.0, 0.0, 0.0]))
    val = (v[1] + v[2]) / (2j * math.pi * (x - y))
    return float(_real_checked(np.array([val]), "kernel_rh")[0])
