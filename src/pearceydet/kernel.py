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
  far below double precision for |x|, |y| <= 12.  Every term of the four ray
  sums is c_t e^{i t (u +- z)} over one z-grid, so each pass builds one pair
  of exponential tables per ray and contracts every shift against it
  (``pearcey`` notes, shared tables): P(x + z) with shift x, P(x - z) with
  the conjugate table (t and z are real on P's ray), and V(z + y) and
  V(z - y) with shifts y and -y on V's table.  On a 25 x 25 grid over
  [-12, 12] it agrees with the rational form to 2.8e-13 max|K| at rho = -2
  and 1e-14 at rho = 0.
* ``kernel_rh`` - the 3x3 matrix representation through tilde_psi.

Every dense K is assembled by ``_kernel_matrix_from_session``, which computes
the P bundle at the rows and the Q bundle at the columns once per call unless
the caller passes them in (``fredholm`` does, with one bundle call for the
nodes of all its operators); nothing is cached between calls.  The
rows need not be the columns: the Nystrom operators of the determinants and
traces keep only the rows of the nonnegative nodes, the tail of the columns,
and the band branch then takes the Q bundle at the rows as the tail of the
column bundle, so a square and a half block each cost one P and one Q
bundle.  The P and Q bundles are real by construction, so only
``kernel_rh``, built from complex contour solutions, checks that its value
is real.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, DomainError, RealnessError
# _upper_v_bundle is not called here; bench/tracing.py wraps it under this module
from .pearcey import (V_RAY, _p_bundle, _q_bundle, _ray_tables, _shifted_ray_sums,
                      _upper_v_bundle, tilde_psi_matrices)

DIAG_BAND_HALF_WIDTH = 1e-3
_XY_MAX = 12.0
_INTEGRAL_Z = 25.0
_INTEGRAL_NODES = 16            # Gauss-Legendre nodes per z-panel
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_INTEGRAL_NODES)
_INTEGRAL_DOUBLINGS = 2         # z_max doublings before the tail check gives up
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
    return float(diag[0] + slope[0] * (y - x))


def kernel_point(x: float, y: float, rho: float) -> float:
    """Kernel value with automatic diagonal-band dispatch."""
    if _nat_band(x, y):
        return kernel_diagonal_band(x, y, rho)
    return kernel_rational(x, y, rho)


def _kernel_matrix_from_session(rho: float, x: np.ndarray, y: np.ndarray, *,
                                p: np.ndarray | None = None,
                                q: np.ndarray | None = None) -> np.ndarray:
    """Dense K(x_i, y_j) with the band branch applied entrywise.

    When x is the tail of y (the same array for a square, or the nonnegative
    nodes of a mirror-image rule for ``fredholm._nystrom``'s half block), the
    band branch reads the Q bundle at x from the tail of the one at y, so an
    assembly makes at most one P and one Q bundle call.  ``p`` and ``q`` are
    the P bundle at x and the Q bundle at y when the caller has them already
    (``fredholm._nystrom`` computes them for all its operators at once).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p = _p_bundle(x, rho) if p is None else p
    q = _q_bundle(y, rho) if q is None else q
    p0, p1, p2 = p
    q0, q1, q2 = q
    # the numerator P Q'' - P'Q' + P''Q - rho P Q, accumulated in place in
    # that order of operations; ``tmp`` holds each further outer product
    k = np.multiply.outer(p0, q2)
    tmp = np.multiply.outer(p1, q1)
    k -= tmp
    np.multiply.outer(p2, q0, out=tmp)
    k += tmp
    np.multiply.outer(p0, q0, out=tmp)
    tmp *= rho
    k -= tmp
    dxy = np.subtract.outer(x, y, out=tmp)
    bi, bj = np.nonzero(np.abs(dxy) < DIAG_BAND_HALF_WIDTH)
    d_band = dxy[bi, bj]
    dxy[bi, bj] = 1.0
    k /= dxy
    if bi.size:
        # rows that are the tail of the columns (a square, or the half block of
        # ``fredholm._nystrom``) take the Q bundle at the rows from the columns'
        first = len(y) - len(x)
        tail = first >= 0 and np.array_equal(x, y[first:])
        diag, slope = _diag_and_slope(rho, x, p, q[:, first:] if tail else None)
        k[bi, bj] = diag[bi] - slope[bi] * d_band
    return k


def kernel_matrix(x: np.ndarray, rho: float) -> np.ndarray:
    """K(x_i, x_j) on a node array (the Nystrom building block)."""
    x = np.asarray(x, dtype=float)
    return _kernel_matrix_from_session(rho, x, x)


def kernel_integral(x: float | np.ndarray, y: float | np.ndarray, rho: float, *,
                    z_max: float = _INTEGRAL_Z, panels: int = 50) -> float | np.ndarray:
    """Oracle: convergent two-sided z-integral representation (see module notes).

    ``x`` and ``y`` broadcast against each other; scalars give a float.  Each
    pass builds one pair of exponential tables over its z-grid per ray and
    contracts every shift against them: P(x + z) and P(x - z) for each
    distinct x, V(z + u) for each distinct u in [y, -y] (module notes).  The
    tail is monitored per point: the last panel must contribute less than
    1e-11, otherwise that point is redone with z_max doubled (the default
    already leaves ~1e-15 tails for |x|, |y| <= 12); a tail still above it
    after two doublings raises ConvergenceError (a third cannot help: the ray
    rule resolves e^{itu} only for |u| up to about 40).
    """
    xb, yb = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    if not (math.isfinite(rho) and (np.abs(xb) <= _XY_MAX).all()
            and (np.abs(yb) <= _XY_MAX).all()):
        raise DomainError(f"kernel_integral validated for finite rho and |x|,|y| <= {_XY_MAX}")
    xf, yf = xb.ravel(), yb.ravel()
    out = np.empty(xf.shape)
    todo = np.arange(xf.size)
    z_last = z_max * 2 ** _INTEGRAL_DOUBLINGS
    while todo.size:
        if z_max > z_last:
            raise ConvergenceError(f"kernel_integral: tail above 1e-11 at {todo.size} "
                                   f"point(s) with z_max = {z_last:g}")
        edges = np.linspace(0.0, z_max, panels + 1)
        mids = (edges[:-1] + edges[1:]) / 2
        half = (edges[1:] - edges[:-1]) / 2
        zs = (mids[:, None] + half[:, None] * _GL_X[None, :]).ravel()
        ws = (half[:, None] * _GL_W[None, :]).ravel()
        # P: t and z are real on its ray, so e^{it(x - z)} = e^{itx} conj(e^{itz})
        p_tab = _ray_tables(1.0, zs)
        ux, ix = np.unique(xf[todo], return_inverse=True)
        p_plus, p_minus = (_shifted_ray_sums(1.0, tab, ux, rho, weight_sign=-1.0).real / math.pi
                           for tab in (p_tab, tuple(t.conj() for t in p_tab)))
        # V(z + y) and V(z - y) from one table: shifts y and -y
        yt = yf[todo]
        uy, iy = np.unique(np.concatenate([yt, -yt]), return_inverse=True)
        v = -_shifted_ray_sums(V_RAY, _ray_tables(V_RAY, zs), uy, rho,
                               weight_sign=+1.0).real / math.pi
        contrib = -ws * (p_plus[ix] * v[iy[:todo.size]] + p_minus[ix] * v[iy[todo.size:]])
        done = np.abs(contrib[:, -_INTEGRAL_NODES:].sum(axis=1)) < 1e-11
        out[todo[done]] = contrib[done].sum(axis=1)
        todo = todo[~done]
        z_max *= 2.0
        panels *= 2
    return float(out[0]) if xb.ndim == 0 else out.reshape(xb.shape)


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
