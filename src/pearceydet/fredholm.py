"""Nystrom discretization of det(I - gamma K) on (-s, s) and derived statistics.

A map of the module; each function's docstring holds its contract.

* Entries: ``fredholm_logdet`` at a fixed order, ``logdet_converged`` for a
  grid of (s, gamma) points doubled in lockstep, ``resolvent_end_values``
  for the resolvent anchor's end values and the boundary trace at s from
  one square and one LU, ``resolvent_boundary_trace`` for that trace alone,
  and ``moments`` with its two routes ``moments_trace`` and ``moments_mgf``.
* Operators: ``_nystrom`` builds every determinant and trace operator, the
  half block of the rows of the nonnegative nodes; ``_end_square`` builds
  the full square over the nodes and s that the resolvent solves read, one
  per call of either resolvent entry.
* Parity: ``_parity_blocks`` is the one fold of a half block into its even
  and odd half-size blocks, which the determinants, the contour and the
  trace of (WK)^2 read.
* Inputs: ``_check_args`` checks s, gamma, rho and the order before any
  quadrature, s and rho against the kernel's domain (|x| <= 12, |rho| <= 4).
  gamma may lie in (-16, 1]: the CLT evaluates F(s; 1 - e^{-2 pi nu}, rho)
  at nu < 0, where det(I - gamma K) = det(I + |gamma| K) is well
  conditioned.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from . import kernel
from .errors import ConvergenceError, DomainError, SignError
# _diag_and_slope is unused here; the benchmark's tracer looks it up on this module
from .kernel import _diag_and_slope, _kernel_matrix_from_session  # noqa: F401
from .params import ModelParams

_S_MAX = kernel._XY_MAX          # the interval (-s, s) stays inside the kernel's domain
_N_MAX = 2048
_N_START = 16                   # first order of the doubling
_GAMMA_MIN = -16.0
_MOMENTS_RTOL = 1e-9            # relative change of the trace moments that accepts an order
_MOMENTS_ROUNDING = 1e-11       # floor of a moment's error, times 1 + E N (``moments``)
_CONTOUR_RADIUS = 0.05          # |nu| of the MGF route's Cauchy integral
_CONTOUR_POINTS = 16            # samples on that circle, 9 evaluated and 7 conjugated
_C0_TOL = 1e-12                 # |c_0| allowed, times 1 + max |G| on the circle


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class DetResult:
    """Log-determinant F(s; gamma, rho) with its convergence diagnostics."""

    f: float
    order: int
    err_est: float


@lru_cache(maxsize=16)
def gauss_legendre(n: int) -> QuadratureRule:
    """Gauss-Legendre rule on (-1, 1) by Newton iteration on the recurrence.

    Newton runs on the nonnegative half and the rule is its mirror image, so
    nodes[n-1-i] == -nodes[i] and weights[n-1-i] == weights[i] hold bitwise
    (the centre of an odd rule is exactly 0).  Nodes/weights are accurate to
    ~1e-15; the weights sum to 2 to 1e-14.  Rules are cached and shared, so
    their arrays are read-only.
    """
    if not 1 <= n <= _N_MAX:
        raise DomainError(f"gauss_legendre order must be in [1, {_N_MAX}], got {n}")
    def legendre(x):
        """P_n(x) and P_n'(x) by the three-term recurrence."""
        p_prev = np.ones_like(x)
        p = x.copy()
        for m in range(2, n + 1):
            p, p_prev = ((2 * m - 1) * x * p - (m - 1) * p_prev) / m, p
        return p, n * (x * p - p_prev) / (x * x - 1.0)

    k = np.arange((n + 1) // 2)
    x = np.cos(math.pi * (k + 0.75) / (n + 0.5))        # descending, nonnegative
    for _ in range(100):
        p, dp = legendre(x)
        dx = p / dp
        x -= dx
        if np.abs(dx).max() < 1e-15:
            break
    x[n // 2:] = 0.0                                    # the centre of an odd rule
    dp = legendre(x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x = np.concatenate([-x[:n // 2], x[::-1]])
    w = np.concatenate([w[:n // 2], w[::-1]])
    x.flags.writeable = w.flags.writeable = False
    return QuadratureRule(x, w)


def _check_args(s: float, gamma: float, rho: float, n: int) -> None:
    """Raise ``DomainError`` unless (s, gamma, rho, n) is a point the Nystrom layer serves."""
    if not 0 < s <= _S_MAX:
        raise DomainError(f"s = {s} outside the kernel evaluation range (0, {_S_MAX}]")
    if not _GAMMA_MIN < gamma <= 1.0:
        raise DomainError(f"gamma = {gamma} outside ({_GAMMA_MIN}, 1]")
    if not abs(rho) <= kernel._RHO_MAX:
        raise DomainError(f"rho = {rho} outside [-{kernel._RHO_MAX}, {kernel._RHO_MAX}]")
    if not 1 <= n <= _N_MAX:
        raise DomainError(f"quadrature order {n} outside [1, {_N_MAX}]")


def _logdet_lu(m: np.ndarray) -> np.ndarray:
    """ln det of every matrix of a stack (..., h, h), NaN where one is not positive.

    A non-positive determinant has no real logarithm; the caller decides
    whether that raises ``SignError`` or marks a coarse order to retry.  Each
    parity block is checked on its own, which a full factorization cannot do:
    two negative blocks multiply to a positive determinant.
    """
    sign, logabs = np.linalg.slogdet(m)
    return np.where(sign > 0, logabs, np.nan)


def _parity_blocks(a: np.ndarray) -> np.ndarray:
    """The (2, h, h) stack of the even part U + M and the odd part U - M of a centrosymmetric A.

    ``a`` is the half block A[n//2:, :] of the rows of the nonnegative nodes,
    which determines A.  U holds its columns of the nonnegative nodes and M
    the mirrored columns; I - g A acts on even vectors as I - g (U + M) and
    on odd ones as I - g (U - M), so det(I - g A) is the product of the two
    blocks' determinants at every g, real or complex, and tr(A^2) the sum of
    their tr(B^2).  An odd order's centre node x = 0 is its own mirror image:
    in the even basis (e_0, e_j + e_-j) its column is A(x_i, 0), not the
    2 A(x_i, 0) of U + M, so that column is halved.  The odd block's first
    column is then exactly 0 and contributes a factor 1.
    """
    n = a.shape[1]
    u = a[:, n // 2:]
    m = a[:, (n - 1) // 2::-1]
    blocks = np.stack([u + m, u - m])
    if n % 2:
        blocks[0, :, 0] *= 0.5
    return blocks


def _shifted(gammas: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The (G, 2, h, h) stack I - g B over every g of ``gammas`` and both parity blocks."""
    # -g * B with 1 added on the diagonal: bitwise I - g B
    stack = np.multiply.outer(-gammas, blocks)
    diag = np.arange(blocks.shape[-1])
    stack[..., diag, diag] += 1.0
    return stack


def _parity_logdets(a: np.ndarray, gammas) -> np.ndarray:
    """ln det(I - g A) at each g of ``gammas`` for a centrosymmetric A: even part plus odd part.

    ``a`` is the half block of ``_parity_blocks``.  Both blocks of every gamma
    are factored in one (G, 2, h, h) stack, about a quarter of the LU work of
    one n x n matrix; a gamma with a block of non-positive determinant gives
    NaN (``_logdet_lu``).
    """
    stack = _shifted(np.asarray(gammas, dtype=float), _parity_blocks(a))
    return _logdet_lu(stack).sum(axis=1)


def _positive(logdets: np.ndarray) -> np.ndarray:
    if np.isnan(logdets).any():
        raise SignError("determinant of I - gamma K came out non-positive")
    return logdets


def _nystrom(ss, rho: float, n: int):
    """Yield (s, x, w, K) per s of ``ss``: the order-n rule on (-s, s) and its half block K.

    K is K[n//2:, :], the rows of the nonnegative nodes against all n
    columns: P is even and Q odd, so K(-x, -y) = K(x, y), which on the
    mirror-image rule gives the other rows bitwise, and every entry is the
    bits the full square would hold.  One P and one Q
    bundle call cover the nodes of every s.  Each K is assembled only when it
    is yielded: a consumer that drops it before the next keeps one operator
    alive at a time.
    """
    rule = gauss_legendre(n)
    x = np.multiply.outer(ss, rule.nodes)                 # a row of nodes per s
    p = kernel._p_bundle(x.ravel(), rho).reshape(3, *x.shape)
    q = kernel._q_bundle(x.ravel(), rho).reshape(3, *x.shape)
    h = n // 2                                            # the first row assembled
    for j, s in enumerate(ss):
        k = _kernel_matrix_from_session(rho, x[j, h:], x[j], p=p[:, j, h:], q=q[:, j])
        yield s, x[j], s * rule.weights, k


def _end_square(s: float, rho: float, n: int):
    """(w, K, p, q): the order-n weights on (-s, s) and the square K over (x, s).

    K[:n, :n] is the Nystrom matrix over the nodes x, K[n, :n] holds K(s, x_j)
    and K[:n, n] holds K(x_i, s).  p and q are the P and Q bundles at (x, s)
    that K was assembled from: one call each over the nodes, one each for s,
    so K[:n, :n] holds the bits of the full Nystrom square.
    """
    rule = gauss_legendre(n)
    pts = np.append(s * rule.nodes, s)
    p = np.concatenate([kernel._p_bundle(pts[:n], rho), kernel._p_bundle(pts[n:], rho)], axis=1)
    q = np.concatenate([kernel._q_bundle(pts[:n], rho), kernel._q_bundle(pts[n:], rho)], axis=1)
    return s * rule.weights, _kernel_matrix_from_session(rho, pts, pts, p=p, q=q), p, q


def _symmetrized(w: np.ndarray, k: np.ndarray) -> np.ndarray:
    """D^{1/2} K D^{1/2} on the rows K holds, the last len(k) of the rule.

    It is similar to WK, so it has the same determinants and traces, and it
    is better conditioned.
    """
    sqrt_w = np.sqrt(w)
    return sqrt_w[len(w) - len(k):, None] * k * sqrt_w[None, :]


def fredholm_logdet(s: float, gamma: float, rho: float, n: int) -> DetResult:
    """F(s; gamma, rho) = ln det(I - gamma K) at fixed Nystrom order n, with a NaN error."""
    _check_args(s, gamma, rho, n)
    if gamma == 0.0:
        return DetResult(0.0, n, 0.0)
    [(_, _, w, k)] = _nystrom((s,), rho, n)
    f = _positive(_parity_logdets(_symmetrized(w, k), [gamma]))[0]
    return DetResult(float(f), n, math.nan)


def logdet_converged(points, rho: float, tol: float) -> list[DetResult]:
    """F at every (s, gamma) of ``points``, the order doubled from 16 until |F_{2n} - F_n| < tol.

    Each point's error estimate is that last difference; a gamma = 0 point is
    exactly 0 and builds nothing.  tol, rho and every point are checked once,
    before any quadrature.  The points still pending double their order
    in lockstep: at each order ``_nystrom`` builds one K per pending s from
    one P and one Q bundle call over all their nodes, and each K serves all
    of its pending gammas in one stacked factorisation and is dropped before
    the next s is built.  A point leaves once two successive orders agree, so
    it follows the doubling it would follow on its own.  The
    ``ConvergenceError`` names the first point in grid order that is still
    pending at n = 2048.
    """
    if not tol >= 1e-12:
        raise DomainError(f"tol = {tol} is not at or above the achievable 1e-12 floor")
    points = [(float(s), float(g)) for s, g in points]
    done = [DetResult(0.0, _N_START, 0.0) if g == 0.0 else None for _, g in points]
    for s, g in points:
        _check_args(s, g, rho, _N_START)
    prev: list[float | None] = [None] * len(done)
    n = _N_START
    while True:
        todo = [i for i, r in enumerate(done) if r is None]
        if not todo:
            return done
        if n > _N_MAX:
            s, g = points[todo[0]]
            raise ConvergenceError(f"logdet did not converge to {tol} by n = {_N_MAX} "
                                   f"at s = {s}, gamma = {g}")
        by_s: dict[float, list[int]] = {}
        for i in todo:
            by_s.setdefault(points[i][0], []).append(i)
        for s, _, w, k in _nystrom(list(by_s), rho, n):
            idx = by_s[s]
            fs = _parity_logdets(_symmetrized(w, k), [points[i][1] for i in idx])
            del k                       # one operator alive at a time
            for i, f in zip(idx, fs.tolist()):
                if math.isnan(f):
                    # a coarse Nystrom stage can push an eigenvalue of the discretized
                    # kernel past 1/gamma; finer stages recover
                    prev[i] = None
                    continue
                if prev[i] is not None and abs(f - prev[i]) < tol:
                    done[i] = DetResult(f, n, abs(f - prev[i]))
                prev[i] = f
        n *= 2


def _resolvent_solves(kmat: np.ndarray, w: np.ndarray, g: float,
                      f: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solutions of A x = f and A_dual y = h, each refined once, from one LU.

    A = I - gamma K W and A_dual = I - gamma K^T W = W^{-1} A^T W, so the
    dual system is A^T (W y) = W h: a transposed solve with the same factors,
    refined in W y.  ``f`` and ``h`` hold one right-hand side per column.
    """
    a = np.eye(len(w)) - g * kmat * w[None, :]
    lu = scipy.linalg.lu_factor(a)
    x = scipy.linalg.lu_solve(lu, f)
    x += scipy.linalg.lu_solve(lu, f - a @ x)
    wh = w[:, None] * h
    wy = scipy.linalg.lu_solve(lu, wh, trans=1)
    wy += scipy.linalg.lu_solve(lu, wh - a.T @ wy, trans=1)
    return x, wy / w[:, None]


def _end_solves(k: np.ndarray, w: np.ndarray, g: float,
                f: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward and dual resolvent solutions at the end point s of an ``_end_square`` K.

    ``f`` and ``h`` hold right-hand sides at (x, s), one per column; they are
    solved on the nodes by ``_resolvent_solves`` and extended to s by the
    Nystrom formula, u(s) = f(s) + gamma sum_i K(s, x_i) w_i u(x_i) and, for
    the dual system on K^T, v(s) = h(s) + gamma sum_i K(x_i, s) w_i v(x_i).
    """
    n = len(w)
    u, v = _resolvent_solves(k[:n, :n], w, g, f[:n], h[:n])
    return f[n] + g * (k[n, :n] * w) @ u, h[n] + g * (k[:n, n] * w) @ v


def resolvent_boundary_trace(s: float, params: ModelParams, n: int) -> float:
    """-R(s,s) - R(-s,-s) = -2 R(s,s), the s-derivative of the log-determinant.

    The trace that ``resolvent_end_values`` solves for alongside the anchor's
    end values, from the same square and LU.
    """
    if params.gamma == 0.0:
        _check_args(s, 0.0, params.rho, n)
        return 0.0
    return resolvent_end_values(s, params, n)[2]


def resolvent_end_values(s: float, params: ModelParams,
                         n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """The resolvent anchor's end values at s: the forward and the dual solution, and the trace.

    The forward system I - gamma K W is solved on f = 2 pi (P, P', P''), the
    kernel's row factors, and the dual one on gamma/(2 pi) (Q'' - rho Q, -Q', Q),
    its column factors, both read from the bundles ``_end_square`` assembled
    K from.  Since (0 1 1) tilde_psi(y)^{-1} = i g(y) (``kernel.kernel_rh``),
    the dual side is gamma/(2 pi i) tilde_psi(y)^{-T} (0, 1, 1)^T without a 3x3
    inverse.  Each value has three components, one per factor.  The column
    gamma K(., s) rides along as a fourth forward right-hand side: the
    resolvent R = gamma K (I - gamma K)^{-1} at (s, s) is its end value, and
    since K is centrosymmetric, R(-s, -s) = R(s, s), so the boundary trace
    -R(s, s) - R(-s, -s) is -2 R(s, s) from the one end.
    """
    g, rho = params.gamma, params.rho
    _check_args(s, g, rho, n)
    w, k, p, q = _end_square(s, rho, n)
    f = np.concatenate([2.0 * math.pi * p.T, g * k[:, n:]], axis=1)
    h = g / (2.0 * math.pi) * np.stack([q[2] - rho * q[0], -q[1], q[0]], axis=1)
    f_end, h_end = _end_solves(k, w, g, f, h)
    return f_end[:3], h_end, float(-2.0 * f_end[3])


def moments_operator(s: float, rho: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(w, K): the order-n weights on (-s, s) and the half block both moment routes read.

    One operator serves ``moments_trace`` and ``moments_mgf`` at its (s, rho, n),
    one per order of the doubling in ``moments``: K is the half block
    K[n//2:, :] that ``_nystrom`` yields.
    """
    _check_args(s, 1.0, rho, n)
    [(_, _, w, k)] = _nystrom((s,), rho, n)
    return w, k


def moments_trace(w: np.ndarray, k: np.ndarray) -> tuple[float, float]:
    """(E N(s), Var N(s)) from the determinantal trace formulas tr(WK), tr(WK)^2.

    ``w`` and ``k`` are the operator of ``moments_operator``, which the MGF
    route reads too.  WK is centrosymmetric, so its diagonal is a mirror
    image: tr(WK) sums the diagonal of the half block mirrored out to all n
    nodes, in the order (and to the bits) of the full square's trace.
    tr((WK)^2) is the sum of tr(B^2) = sum(B o B^T) over the two parity blocks
    B of the symmetrized operator (``_parity_blocks``), which is similar to WK.
    """
    h = len(w) // 2
    diag = w[h:] * np.diagonal(k[:, h:])            # (WK)_ii at the nonnegative nodes
    mean = float(np.concatenate([diag[::-1][:h], diag]).sum())
    blocks = _parity_blocks(_symmetrized(w, k))
    var = mean - float((blocks * blocks.transpose(0, 2, 1)).sum())
    return mean, var


def _contour_coefficients(w: np.ndarray, k: np.ndarray) -> np.ndarray:
    """(c_0, c_1, c_2), c_j = a_j r^j, of G(nu) = F(s; 1 - e^{-2 pi nu}, rho) = sum a_j nu^j.

    G is analytic for |nu| < 1/2 (det(I - gamma K) vanishes only at gamma =
    1/lambda >= 1, which 1 - e^{-2 pi nu} reaches at Im nu = 1/2 or beyond),
    and the trapezoidal rule on |nu| = r = 0.05 gives its Taylor coefficients
    as the discrete Fourier transform of 16 samples, aliased by
    a_{j+16} r^{j+16}: about 0.1^16 of c_j.  K is real, so G(conj nu) =
    conj G(nu): the upper half of the circle, nu = r down to -r, is
    evaluated and the lower half conjugated.  Each sample is the sum of the
    two parity blocks' ln det at complex gamma, from one stacked complex
    ``slogdet``.  A block's phase comes out on the principal branch; it is
    unwrapped along the arc from nu = r, where gamma is real in (0, 1) and
    the phase 0, and must come back to 0 at nu = -r.  G(0) = 0, so c_0 = 0
    up to rounding (about 1e-15 over s in [1, 12] and rho in [-4, 4]); a
    wrong branch, or a zero of the determinant inside or near the circle (a
    too-coarse operator), moves it and raises ``ConvergenceError``.  See
    Bornemann, Found. Comput. Math. 11 (2011), on the radius and the
    rounding of Cauchy-integral derivatives.
    """
    m = _CONTOUR_POINTS
    nu = _CONTOUR_RADIUS * np.exp(2j * math.pi / m * np.arange(m // 2 + 1))
    stack = _shifted(-np.expm1(-2.0 * math.pi * nu), _parity_blocks(_symmetrized(w, k)))
    sign, logabs = np.linalg.slogdet(stack)
    g = (logabs + 1j * np.unwrap(np.angle(sign), axis=0)).sum(axis=1)
    g = np.concatenate([g, g[-2:0:-1].conj()])
    c = np.exp(-2j * math.pi / m * np.outer(np.arange(3), np.arange(m))) @ g / m
    if not abs(c[0]) <= _C0_TOL * (1.0 + np.abs(g).max()):
        raise ConvergenceError(f"contour mean c0 = {c[0]:.3g} of ln det over |nu| = "
                               f"{_CONTOUR_RADIUS} is not at rounding (order {len(w)})")
    return c


def moments_mgf(w: np.ndarray, k: np.ndarray) -> tuple[float, float]:
    """Moments from nu-derivatives of G(nu) = F(s; 1 - e^{-2 pi nu}, rho) at nu = 0.

    ``w`` and ``k`` are the operator of ``moments_operator``, the one
    ``moments_trace`` reads.  G'(0) = a_1 and G''(0) = 2 a_2 come from the
    Cauchy integral on |nu| = 0.05 (``_contour_coefficients``), so mean =
    -a_1 / (2 pi) and variance = 2 a_2 / (4 pi^2).  At one operator both
    agree with the trace route to about 1e-14 relative, and to 3e-12 where
    the variance is small (1.6e-3 at s = 1, rho = 4).
    """
    c = _contour_coefficients(w, k)
    a1 = float(c[1].real) / _CONTOUR_RADIUS
    a2 = float(c[2].real) / _CONTOUR_RADIUS ** 2
    return -a1 / (2.0 * math.pi), 2.0 * a2 / (4.0 * math.pi ** 2)


@dataclass(frozen=True)
class Moments:
    """E N(s) and Var N(s) by both routes at one Nystrom order, with each route's error."""

    order: int
    trace: tuple[float, float]          # (mean, variance) from the trace formulas
    mgf: tuple[float, float]            # (mean, variance) from the contour
    err_trace: float                    # both errors are NaN at a fixed order
    err_mgf: float


def _moments_err(at_n: tuple[float, float], at_half: tuple[float, float]) -> float:
    return max(abs(at_n[0] - at_half[0]), abs(at_n[1] - at_half[1]),
               _MOMENTS_ROUNDING * (1.0 + abs(at_n[0])))


def moments(s: float, rho: float, n: int | None = None, *,
            trace=moments_trace, mgf=moments_mgf) -> Moments:
    """Counting-statistics moments at the first order where the trace route has converged.

    The order doubles from 16 until both trace moments change by at most
    1e-9 relative between n/2 and n.  Both routes are then evaluated on the
    order-n operator, and the MGF route also on the order-n/2 one, so each
    route checks its own order.  A route's error is the larger of its
    doubling difference, over the mean and the variance, and a rounding
    floor of 1e-11 (1 + E N).  The raw difference alone understates it: the
    kernel entries carry up to ~1e-11 relative rounding at the edges (V's
    cancellation at negative rho, P's at |x| = 12), both routes sum them,
    and each moment scales like E N (the variance is E N - tr((WK)^2)).  So
    a finer order moves a value by that rounding, while two orders past
    convergence can agree to 1e-15.  On s in {1, 2, 4, 8, 12} x rho in
    {-4, -1, 0, 1, 4}, the raw difference was below the change to n = 384
    at 19 of the 25 points; that change was at most 8.8e-12 (s = 12,
    rho = 4) and at most 0.29 of the floored error.

    A given ``n`` evaluates both routes at that order alone, with NaN errors.
    ``trace`` and ``mgf`` are the two routes, each called on an operator.
    """
    if n is not None:
        op = moments_operator(s, rho, n)
        return Moments(n, trace(*op), mgf(*op), math.nan, math.nan)
    prev = None
    n = _N_START
    while n <= _N_MAX:
        op = moments_operator(s, rho, n)
        t = trace(*op)
        if prev is not None and all(abs(a - b) <= _MOMENTS_RTOL * abs(a)
                                    for a, b in zip(t, prev[1])):
            m = mgf(*op)
            return Moments(n, t, m, _moments_err(t, prev[1]), _moments_err(m, mgf(*prev[0])))
        prev = op, t
        n *= 2
    raise ConvergenceError(f"trace moments did not converge to {_MOMENTS_RTOL} relative "
                           f"by n = {_N_MAX} at s = {s}, rho = {rho}")
