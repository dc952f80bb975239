"""Nystrom discretization of det(I - gamma K) on (-s, s) and derived statistics.

Every Nystrom matrix comes from one builder, ``_nystrom``, over the cached
Gauss-Legendre rule of order n scaled to (-s, s).  It takes the s values to
build at one order, makes one P and one Q bundle call over all their nodes
plus one more each for any extra points (the end s, or an anchor s0), and
yields the operators one at a time, each from one assembly call.  Without
extra points an operator is the half block K[n//2:, :], the rows of the
nonnegative nodes, which is all the determinants and the trace moments read
(parity fold below): (n - n//2) x n entries instead of n x n, each the bits
the full square would hold.  With extra points it is the full square over
the nodes and the extra points, for the resolvent solves.  The fixed-order
routines pass one s, the lockstep doubling every pending s.  One K at fixed
(s, rho, n) serves every gamma.  The determinant uses the symmetrized
weighting D^{1/2} K D^{1/2} (equal to the plain weighting in determinant but
better conditioned) and order doubling for convergence control.

Lockstep doubling.  ``_logdet_converged_many`` converges a whole grid of
(s, gamma) points at once: every point still pending doubles its order
together with the others.  At each order ``_nystrom`` covers the nodes of
every pending s with one P and one Q bundle call; each K it yields serves
all of that s's pending gammas and is dropped before the next s is built, so
only one operator is alive at a time.  A point leaves the grid once two
successive orders agree, so each point follows the doubling it would follow
on its own.

The determinant is folded by parity.  P is even and Q odd, so K(-x, -y) =
K(x, y); the rule is a bitwise mirror image, so the symmetrized matrix A is
exactly centrosymmetric, and I - gamma A maps even and odd vectors to
themselves.  The rows of the nonnegative nodes therefore determine A, and
only they are assembled.  ``_parity_logdets`` factors two half-size blocks
built from them, the even part U + M and the odd part U - M over the
nonnegative nodes, instead of one n x n matrix: about a quarter of the LU
work.  ``moments_trace`` folds its two traces over the same rows.  Both
blocks of every gamma of one operator go through one stacked factorisation
(``_logdet_lu``), and each block must have a positive determinant on its
own, which a full factorization cannot see (two negative factors multiply to
a positive one).

Every resolvent solve goes through ``_resolvent_solves``: one LU of
I - gamma K W, a forward and a dual solve, each refined once, over the square
of ``_nystrom`` with one extra point: the end s of ``resolvent_boundary_trace``
(one column, as R(-s, -s) = R(s, s)) or the anchor s0 in ``hamiltonian``.  The
right-hand sides have parity, so the solves could split into the same two
half-size blocks; they do not yet.

``gamma`` is accepted slightly outside [0, 1]: the moment-generating-function
route differentiates F(s; 1 - e^{-2 pi nu}, rho) at nu = 0 and the CLT check
evaluates it at nu < 0, both of which need gamma < 0 (where det(I - gamma K) =
det(I + |gamma| K) > 1 is perfectly well conditioned).
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

_S_MAX = 12.0
_N_MAX = 2048
_N_START = 16                   # first order of the doubling
_GAMMA_MIN = -16.0
_MGF_STEPS = (1e-3, 5e-4)       # nu steps of the Richardson pair


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray
    order: int


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
    k = np.arange((n + 1) // 2)
    x = np.cos(math.pi * (k + 0.75) / (n + 0.5))        # descending, nonnegative
    for _ in range(100):
        p_prev = np.ones_like(x)
        p = x.copy()
        for m in range(2, n + 1):
            p, p_prev = ((2 * m - 1) * x * p - (m - 1) * p_prev) / m, p
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        dx = p / dp
        x -= dx
        if np.abs(dx).max() < 1e-15:
            break
    x[n // 2:] = 0.0                                    # the centre of an odd rule
    p_prev = np.ones_like(x)
    p = x.copy()
    for m in range(2, n + 1):
        p, p_prev = ((2 * m - 1) * x * p - (m - 1) * p_prev) / m, p
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x = np.concatenate([-x[:n // 2], x[::-1]])
    w = np.concatenate([w[:n // 2], w[::-1]])
    x.flags.writeable = w.flags.writeable = False
    return QuadratureRule(x, w, n)


def _check_rho(rho: float) -> None:
    if not math.isfinite(rho):
        raise DomainError(f"rho must be finite, got {rho}")


def _check_args(s: float, gamma: float, n: int) -> None:
    if not 0 < s <= _S_MAX:
        raise DomainError(f"s = {s} outside the kernel evaluation range (0, {_S_MAX}]")
    if not _GAMMA_MIN < gamma <= 1.0:
        raise DomainError(f"gamma = {gamma} outside ({_GAMMA_MIN}, 1]")
    if not 1 <= n <= _N_MAX:
        raise DomainError(f"quadrature order {n} outside [1, {_N_MAX}]")


def _logdet_lu(m: np.ndarray) -> np.ndarray:
    """ln det of every matrix of a stack (..., h, h), NaN where one is not positive.

    A non-positive determinant has no real logarithm; the caller decides
    whether that raises ``SignError`` or marks a coarse order to retry.
    """
    sign, logabs = np.linalg.slogdet(m)
    return np.where(sign > 0, logabs, np.nan)


def _parity_logdets(a: np.ndarray, gammas) -> np.ndarray:
    """ln det(I - g A) at each g of ``gammas`` for a centrosymmetric A: even part plus odd part.

    ``a`` is the half block A[n//2:, :] of the rows of the nonnegative nodes,
    which determines A.  U holds its columns of the nonnegative nodes and M
    the mirrored columns; the even part acts as U + M and the odd part
    as U - M.  An odd order's centre node x = 0 is its own mirror image: in
    the even basis (e_0, e_j + e_-j) its column is A(x_i, 0), not the
    2 A(x_i, 0) of U + M, so that column is halved.  The odd block's first
    column is then exactly 0 and contributes a factor 1.  Both blocks of every
    gamma are factored in one (G, 2, h, h) stack; a gamma with a block of
    non-positive determinant gives NaN (``_logdet_lu``).
    """
    n = a.shape[1]
    h = n // 2
    u = a[:, h:]
    m = a[:, (n - 1) // 2::-1]
    blocks = np.stack([u + m, u - m])
    if n % 2:
        blocks[0, :, 0] *= 0.5
    # -g * B with 1 added on the diagonal: bitwise I - g B
    stack = np.multiply.outer(-np.asarray(gammas, dtype=float), blocks)
    diag = np.arange(n - h)
    stack[..., diag, diag] += 1.0
    return _logdet_lu(stack).sum(axis=1)


def _positive(logdets: np.ndarray) -> np.ndarray:
    if np.isnan(logdets).any():
        raise SignError("determinant of I - gamma K came out non-positive")
    return logdets


def _nystrom(ss, rho: float, n: int, extra=()):
    """Yield (s, x, w, K) per s of ``ss``: the order-n rule on (-s, s) and its operator K.

    Without ``extra`` K is the half block K[n//2:, :], the rows of the
    nonnegative nodes against all n columns: centrosymmetry gives the other
    rows bitwise (module notes), and every entry is the bits the full square
    would hold.  With ``extra`` K is the full square over x then the extra
    points, for the resolvent solves (one point: s, or the anchor's s0); its
    K[:n, :n] is the same bits whatever ``extra`` holds, and the other rows
    and columns hold its values at the extra points.  One P and one Q bundle
    call cover the nodes of every s, and one more each the extra points.
    Each K is assembled only when it is yielded: a consumer that drops it
    before the next keeps one operator alive at a time.
    """
    rule = gauss_legendre(n)
    x = np.multiply.outer(ss, rule.nodes)                 # a row of nodes per s
    p = kernel._p_bundle(x.ravel(), rho).reshape(3, *x.shape)
    q = kernel._q_bundle(x.ravel(), rho).reshape(3, *x.shape)
    extra = np.asarray(extra, dtype=float)
    if extra.size:
        p_extra, q_extra = kernel._p_bundle(extra, rho), kernel._q_bundle(extra, rho)
    first = 0 if extra.size else n // 2                   # the first row assembled
    for j, s in enumerate(ss):
        pts, pj, qj = x[j], p[:, j], q[:, j]
        if extra.size:
            pts = np.concatenate([pts, extra])
            pj = np.concatenate([pj, p_extra], axis=1)
            qj = np.concatenate([qj, q_extra], axis=1)
        k = _kernel_matrix_from_session(rho, pts[first:], pts, p=pj[:, first:], q=qj)
        yield s, x[j], s * rule.weights, k


def _symmetrized(w: np.ndarray, k: np.ndarray) -> np.ndarray:
    """D^{1/2} K D^{1/2} on the rows K holds, the last len(k) of the rule."""
    sqrt_w = np.sqrt(w)
    return sqrt_w[len(w) - len(k):, None] * k * sqrt_w[None, :]


def fredholm_logdet(s: float, params: ModelParams, n: int, *,
                    gamma: float | None = None) -> DetResult:
    """F(s; gamma, rho) = ln det(I - gamma K) at fixed Nystrom order n."""
    g = params.gamma if gamma is None else gamma
    _check_args(s, g, n)
    if g == 0.0:
        return DetResult(0.0, n, 0.0)
    [(_, _, w, k)] = _nystrom((s,), params.rho, n)
    f = _positive(_parity_logdets(_symmetrized(w, k), [g]))[0]
    return DetResult(float(f), n, math.nan)


def logdet_converged(s: float, params: ModelParams, tol: float = 1e-10, *,
                     gamma: float | None = None) -> DetResult:
    """Double n from 16 until |F_{2n} - F_n| < tol; error estimate is that difference."""
    g = params.gamma if gamma is None else gamma
    return _logdet_converged_many([(s, g)], params.rho, tol)[0]


def _logdet_converged_many(points, rho: float, tol: float) -> list[DetResult]:
    """``logdet_converged`` at every (s, gamma) of a grid, doubling in lockstep.

    At each order ``_nystrom`` builds one K per pending s from one P and one
    Q bundle call over all their nodes; each K serves all of its pending
    gammas in one stacked factorisation (module notes).  The
    ``ConvergenceError`` names the first point in grid order that is still
    pending at n = 2048.
    """
    if not tol >= 1e-12:
        raise DomainError(f"tol = {tol} is not at or above the achievable 1e-12 floor")
    points = [(float(s), float(g)) for s, g in points]
    done = [DetResult(0.0, _N_START, 0.0) if g == 0.0 else None for _, g in points]
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
            _check_args(*points[i], n)
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
    refined in W y.  ``f`` and ``h`` hold one right-hand side per column; a
    caller that needs no dual solve passes h with no columns.
    """
    a = np.eye(len(w)) - g * kmat * w[None, :]
    lu = scipy.linalg.lu_factor(a)
    x = scipy.linalg.lu_solve(lu, f)
    x += scipy.linalg.lu_solve(lu, f - a @ x)
    wh = w[:, None] * h
    wy = scipy.linalg.lu_solve(lu, wh, trans=1)
    wy += scipy.linalg.lu_solve(lu, wh - a.T @ wy, trans=1)
    return x, wy / w[:, None]


def resolvent_boundary_trace(s: float, params: ModelParams, n: int) -> float:
    """-R(s,s) - R(-s,-s) = -2 R(s,s), the s-derivative of the log-determinant.

    The resolvent R = gamma K (I - gamma K)^{-1} is extended off-grid by the
    Nystrom formula R(u, v) = gamma K(u, v) + gamma sum_i w_i K(u, x_i) R(x_i, v),
    the node values R(x_i, s) from one refined solve (``_resolvent_solves``).
    K is centrosymmetric, so R(-s, -s) = R(s, s): one end serves both.
    """
    g = params.gamma
    _check_args(s, g, n)
    if g == 0.0:
        return 0.0
    [(_, _, w, k)] = _nystrom((s,), params.rho, n, (s,))
    col = g * k[:n, n:]                                   # gamma K(x_i, s)
    r_nodes, _ = _resolvent_solves(k[:n, :n], w, g, col, col[:, :0])
    return float(-2.0 * (g * k[n, n] + g * (k[n, :n] * w) @ r_nodes[:, 0]))


def moments_operator(s: float, rho: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(w, K): the order-n weights on (-s, s) and the half block both moment routes read.

    One operator serves ``moments_trace`` and ``moments_mgf`` at its (s, rho, n):
    K is the half block K[n//2:, :] that ``_nystrom`` yields (module notes).
    """
    _check_rho(rho)
    _check_args(s, 1.0, n)
    [(_, _, w, k)] = _nystrom((s,), rho, n)
    return w, k


def moments_trace(w: np.ndarray, k: np.ndarray) -> tuple[float, float]:
    """(E N(s), Var N(s)) from the determinantal trace formulas tr(WK), tr(WK)^2.

    ``w`` and ``k`` are the operator of ``moments_operator``, which the MGF
    route reads too.  B = WK is centrosymmetric, so its diagonal and the
    diagonal of B^2 are mirror images, and both traces come from the rows of
    the nonnegative nodes, the half block H = B[n//2:, :].  tr(B) sums the
    diagonal mirrored out to all n nodes, in the order (and to the bits) of
    the full square's trace.  tr(B^2) folds: each row's (B^2)_ii counts twice
    but the centre row of an odd order, its own mirror image, counts once.
    Row i of H meets column i of B, whose entries at the negative nodes are
    read from H mirrored: B(x_j, x_i) = B(-x_j, -x_i).
    """
    n = len(w)
    h = n // 2
    wk = w[h:, None] * k                    # H: the rows of the nonnegative nodes
    u = wk[:, h:]
    # column i at the negative nodes, x_j = -x_l with l from the last node down:
    # B(x_j, x_i) = B(x_l, -x_i), the mirrored columns of H's rows reversed
    lower = wk[::-1][:h, (n - 1) // 2::-1]
    col_dot_row = (u * u.T).sum(axis=1) + (wk[:, :h] * lower.T).sum(axis=1)
    times = np.full(n - h, 2.0)
    times[:n % 2] = 1.0                     # the centre of an odd order is counted once
    diag = np.diagonal(u)
    mean = float(np.concatenate([diag[::-1][:h], diag]).sum())
    var = mean - float(times @ col_dot_row)   # tr((WK)^2)
    return mean, var


def moments_mgf(w: np.ndarray, k: np.ndarray) -> tuple[float, float]:
    """Moments from nu-differentiation of F(s; 1 - e^{-2 pi nu}, rho) at nu = 0.

    ``w`` and ``k`` are the operator of ``moments_operator``, the one
    ``moments_trace`` reads.  Central second-order differences at the two
    step sizes with one Richardson sweep; mean = -G'(0)/(2 pi), variance =
    G''(0)/(4 pi^2) for G(nu) = F(gamma(nu)).  The operator serves all four
    evaluations, factored in one stack.  The variance carries about 9
    significant digits: its second difference at h = 5e-4 divides the
    rounding of F by h^2 = 2.5e-7.  Reordering the same LU moved it by up to
    1.7e-9 relative where ``moments_trace``'s variance moved by 9e-16.
    """
    gammas = [-math.expm1(-2.0 * math.pi * nu) for h in _MGF_STEPS for nu in (h, -h)]
    g = _positive(_parity_logdets(_symmetrized(w, k), gammas)).tolist()
    d1 = []
    d2 = []
    for j, h in enumerate(_MGF_STEPS):
        gp, gm = g[2 * j], g[2 * j + 1]
        d1.append((gp - gm) / (2.0 * h))
        d2.append((gp + gm) / (h * h))
    ratio = (_MGF_STEPS[0] / _MGF_STEPS[1]) ** 2
    d1_r = (ratio * d1[1] - d1[0]) / (ratio - 1.0)
    d2_r = (ratio * d2[1] - d2[0]) / (ratio - 1.0)
    mean = -d1_r / (2.0 * math.pi)
    var = d2_r / (4.0 * math.pi ** 2)
    return mean, var
