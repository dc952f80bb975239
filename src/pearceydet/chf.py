"""Confluent hypergeometric 2x2 parametrix: sector construction, jumps, origin data.

The six jump rays are conventional (the jump matrices are constant, so any
admissible angles give the same object up to relabeling); they are fixed at

    ray 1: 0      ray 2: pi/3   ray 3: 5pi/6
    ray 4: pi     ray 5: 7pi/6  ray 6: 5pi/3

so that both benchmark directions arg z = pi/2 (infinity normalization) and
arg z = 3pi/4 (origin expansion) lie strictly inside the sector between rays
2 and 3.  Rays 1, 2, 6 are oriented outward and rays 3, 4, 5 toward the
origin, matching the orientation pattern of the model problem.

The base solution lives in the sector between rays 1 and 2 and is written in
Kummer psi functions with branches fixed by an explicit unwrapped argument
(arg of the psi argument runs continuously from the base sector).  Every other
sector is the counterclockwise continuation of the base across the rays; the
jump on ray 1 then closes the monodromy of the log branch and is the one
numerically nontrivial consistency check.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericsError
from .specfun import EULER_GAMMA, _cmul, digamma, kummer_psi_b1, ln_gamma

SECTOR_ANGLES = (0.0, math.pi / 3.0, 5.0 * math.pi / 6.0, math.pi,
                 7.0 * math.pi / 6.0, 5.0 * math.pi / 3.0)
_RAY_OUTWARD = (True, True, False, False, False, True)
_R_MIN, _R_MAX = 1e-3, 25.0
_VERIFY_RADII = (1e-2, 5e-3)            # origin-expansion sample radii
_FIRST_ORDER_BUDGET = 1e-4              # allowed O(z^2) remainder there
_REPORT_RADII = (0.5, 1.0, 2.0, 5.0)    # jump-residual radii of the report


@dataclass(frozen=True)
class SectorPoint:
    """A point strictly inside sector k (between rays k and k+1, 1-based)."""

    z: complex
    sector: int

    def __post_init__(self) -> None:
        if not 1 <= self.sector <= 6:
            raise DomainError(f"sector must be 1..6, got {self.sector}")
        if not _R_MIN <= abs(self.z) <= _R_MAX:
            raise DomainError(f"|z| = {abs(self.z)} outside [{_R_MIN}, {_R_MAX}]")
        if sector_of(self.z) != self.sector:
            raise DomainError(f"z = {self.z} is not inside sector {self.sector}")


def sector_of(z: complex) -> int:
    """Sector index of z (raises on a ray, up to float fuzz)."""
    ang = cmath.phase(z) % (2.0 * math.pi)
    bounds = list(SECTOR_ANGLES) + [2.0 * math.pi]
    for k in range(6):
        if bounds[k] < ang < bounds[k + 1]:
            return k + 1
    raise DomainError(f"z = {z} lies on a jump ray")


def _check_beta(beta: complex) -> complex:
    beta = complex(beta)
    if not (abs(beta.real) <= 1e-14 and abs(beta) <= 0.5):
        raise DomainError(f"beta must be purely imaginary with |beta| <= 0.5, got {beta}")
    return 1j * beta.imag


def _jumps(beta: complex) -> np.ndarray:
    """The six constant jumps, stacked: entry k - 1 is the jump on ray k."""
    e_p = cmath.exp(beta * math.pi * 1j)
    e_m = cmath.exp(-beta * math.pi * 1j)
    return np.array([
        [[0.0, e_m], [-e_p, 0.0]],
        [[1.0, 0.0], [e_p, 1.0]],
        [[1.0, 0.0], [e_m, 1.0]],
        [[0.0, e_p], [-e_m, 0.0]],
        [[1.0, 0.0], [e_m, 1.0]],
        [[1.0, 0.0], [e_p, 1.0]],
    ], dtype=complex)


def _sector_products(jumps: np.ndarray) -> np.ndarray:
    """Accumulated jump products, stacked: entry k - 1 carries the base formula into sector k.

    Counterclockwise: crossing an outward ray k multiplies by J_k on the
    right, crossing an inward one by J_k^{-1}.
    """
    acc = np.eye(2, dtype=complex)
    out = [acc]
    for k in range(2, 7):
        j = jumps[k - 1]
        acc = acc @ (j if _RAY_OUTWARD[k - 1] else np.linalg.inv(j))
        out.append(acc)
    return np.array(out)


@dataclass(frozen=True)
class _BetaFactors:
    """Everything of the parametrix that depends on beta alone, computed once.

    ``ln_gamma`` holds ln Gamma at beta, 1 - beta, 1 + beta and -beta, in
    that order (empty at beta = 0, where the parametrix is diagonal).
    """

    beta: complex
    jumps: np.ndarray       # (6, 2, 2), see _jumps
    sectors: np.ndarray     # (6, 2, 2), see _sector_products
    ln_gamma: tuple

    @classmethod
    def of(cls, beta: "complex | _BetaFactors") -> "_BetaFactors":
        """The factors of a checked beta; factors pass through unchanged."""
        if isinstance(beta, cls):
            return beta
        jumps = _jumps(beta)
        lg = () if beta == 0 else tuple(ln_gamma(a) for a in
                                        (beta, 1.0 - beta, 1.0 + beta, -beta))
        return cls(beta, jumps, _sector_products(jumps), lg)


def _base_matrix(z: complex | np.ndarray, arg_z: float | np.ndarray,
                 beta: complex | _BetaFactors) -> np.ndarray:
    """The explicit solution of the model problem in the sector between rays 1 and 2.

    ``arg_z`` is the continued argument of z (counterclockwise from the base
    sector); it fixes the log branches of the psi functions.  z and arg_z
    are scalars or arrays of one shape; the result has shape z.shape + (2, 2).
    """
    bf = _BetaFactors.of(beta)
    beta = bf.beta
    z = np.asarray(z, dtype=complex)
    e_half_minus = np.exp(-0.5j * z)
    e_half_plus = np.exp(0.5j * z)
    m = np.zeros(z.shape + (2, 2), dtype=complex)
    if beta == 0:
        m[..., 0, 0] = e_half_minus
        m[..., 1, 1] = e_half_plus
        return m
    # one series pass for the four psi functions: a = beta, 1 - beta, 1 + beta,
    # -beta at the points z e^{+pi i/2}, z e^{-pi i/2}, z e^{+pi i/2}, z e^{-pi i/2}
    w = np.stack([z * 1j, z * (-1j)])[[0, 1, 0, 1]]
    arg_w = np.stack([arg_z + math.pi / 2.0, arg_z - math.pi / 2.0])[[0, 1, 0, 1]]
    a = np.array([beta, 1.0 - beta, 1.0 + beta, -beta]).reshape((4,) + (1,) * z.ndim)
    psi = kummer_psi_b1(a, w, arg_z=arg_w)
    lg_b, lg_1mb, lg_1pb, lg_mb = bf.ln_gamma
    r_top = -cmath.exp(lg_1mb - lg_b)
    r_bot = -cmath.exp(lg_1pb - lg_mb)
    e_b = cmath.exp(beta * math.pi * 1j)
    # products in the order, and with the rounding, of the scalar formula
    m[..., 0, 0] = _cmul(_cmul(psi[0], cmath.exp(2.0 * beta * math.pi * 1j)), e_half_minus)
    m[..., 0, 1] = _cmul(_cmul(_cmul(r_top, psi[1]), e_b), e_half_plus)
    m[..., 1, 0] = _cmul(_cmul(_cmul(r_bot, psi[2]), e_b), e_half_minus)
    m[..., 1, 1] = _cmul(psi[3], e_half_plus)
    c1 = np.array([[cmath.exp(-1.5 * beta * math.pi * 1j), 0.0],
                   [0.0, cmath.exp(0.5 * beta * math.pi * 1j)]], dtype=complex)
    return c1 @ m


def phi_chf(pt: SectorPoint, beta: complex) -> np.ndarray:
    """The parametrix at a sector point."""
    bf = _BetaFactors.of(_check_beta(beta))
    arg = cmath.phase(pt.z) % (2.0 * math.pi)
    return _base_matrix(pt.z, arg, bf) @ bf.sectors[pt.sector - 1]


def _jump_residuals(rays: np.ndarray, base: np.ndarray, base_cw: np.ndarray,
                    bf: _BetaFactors) -> np.ndarray:
    """max-norm of Phi_+ - Phi_- J at points on the given rays.

    ``base`` is the base matrix at each point's own ray angle, ``base_cw``
    the one of the clockwise sector: the same except on ray 1, whose
    clockwise sector 6 continues the argument to 2 pi.
    """
    k = np.asarray(rays) - 1
    ccw = base @ bf.sectors[k]
    cw = base_cw @ bf.sectors[k - 1]            # index -1 is sector 6, ray 1's
    outward = np.array(_RAY_OUTWARD)[k, None, None]
    plus = np.where(outward, ccw, cw)
    minus = np.where(outward, cw, ccw)
    return np.abs(plus - minus @ bf.jumps[k]).max(axis=(-2, -1))


def chf_jump_residual(ray: int, r: float, beta: complex) -> float:
    """max-norm of Phi_+ - Phi_- J_ray on the given ray at radius r.

    Phi_+ is the boundary value on the left of the ray's orientation.  Each
    side evaluates the point on the ray through its own sector's formula: the
    base matrix at that sector's continued argument times the sector's jump
    product.  Only ray 1's clockwise sector (6) continues to 2 pi, so on rays
    2..6 both sides share one base matrix and are construction-exact; ray 1
    closes the monodromy of the psi log branches against the full jump cycle
    and is the substantive check.
    """
    bf = _BetaFactors.of(_check_beta(beta))
    if ray not in range(1, 7):
        raise DomainError(f"ray must be 1..6, got {ray}")
    if not 0.1 <= r <= 10.0:
        raise DomainError(f"jump residual validated for 0.1 <= r <= 10, got {r}")
    phi_ray = SECTOR_ANGLES[ray - 1]
    z = r * cmath.exp(1j * phi_ray)
    base = _base_matrix(z, phi_ray, bf)
    cw = base if ray > 1 else _base_matrix(z, 2.0 * math.pi, bf)
    return float(_jump_residuals(ray, base, cw, bf))


@dataclass(frozen=True)
class ChfExpansion:
    """Origin expansion data: the constant matrix and the known (2,1) entry."""

    upsilon0: np.ndarray
    upsilon1_21: complex


def _origin_points() -> tuple[np.ndarray, np.ndarray]:
    """The sample points z = r e^{3 pi i/4}, r in _VERIFY_RADII, and their arguments."""
    z = np.array([r * cmath.exp(0.75j * math.pi) for r in _VERIFY_RADII])
    return z, np.array([cmath.phase(v) % (2.0 * math.pi) for v in z])


def _origin_expansion(bf: _BetaFactors, z: np.ndarray, phi: np.ndarray) -> ChfExpansion:
    """The closed-form origin data, checked against the parametrix ``phi`` at ``z``."""
    beta = bf.beta
    lg_b, lg_1mb, lg_1pb, lg_mb = bf.ln_gamma
    gamma_c = 1.0 - cmath.exp(2.0 * beta * math.pi * 1j)
    u0 = np.array([
        [cmath.exp(lg_1mb) * cmath.exp(-beta * math.pi * 1j),
         cmath.exp(-lg_b) * (digamma(1.0 - beta) + 2.0 * EULER_GAMMA)],
        [cmath.exp(lg_1pb),
         -cmath.exp(beta * math.pi * 1j) * cmath.exp(-lg_mb)
         * (digamma(-beta) + 2.0 * EULER_GAMMA)],
    ], dtype=complex)
    u1_21 = beta * math.pi * 1j * cmath.exp(-beta * math.pi * 1j) / cmath.sin(beta * math.pi)
    u0_inv = np.linalg.inv(u0)
    sig3_half = np.array([[cmath.exp(-0.5 * beta * math.pi * 1j), 0.0],
                          [0.0, cmath.exp(0.5 * beta * math.pi * 1j)]], dtype=complex)
    u_inv = np.zeros((len(z), 2, 2), dtype=complex)
    u_inv[:, 0, 0] = u_inv[:, 1, 1] = 1.0
    u_inv[:, 0, 1] = [gamma_c / (2.0 * math.pi * 1j) * cmath.log(v * cmath.exp(-0.5j * math.pi))
                      for v in z]
    d = u0_inv @ (phi @ sig3_half @ u_inv) - np.eye(2)
    for r, v, d21 in zip(_VERIFY_RADII, z, d[:, 1, 0]):
        first_order = abs(d21 - u1_21 * v)
        if first_order > _FIRST_ORDER_BUDGET:
            raise NumericsError(
                f"origin expansion mismatch at |z| = {r}: (2,1) remainder {first_order:.3e}")
    return ChfExpansion(u0, u1_21)


def chf_origin_expansion(beta: complex) -> ChfExpansion:
    """Closed-form origin data, cross-checked against the constructed parametrix.

    Verifies at z = r e^{3 pi i/4} (inside sector 2) that

        Upsilon0^{-1} [Phi(z) e^{-beta pi i sigma3/2} U(z)^{-1}] - I - Upsilon1 z

    has (2,1) entry within ``_FIRST_ORDER_BUDGET`` (the O(z^2) remainder).
    """
    bf = _BetaFactors.of(_check_beta(beta))
    if bf.beta == 0:
        raise DomainError("origin expansion degenerates at beta = 0")
    z, arg = _origin_points()
    return _origin_expansion(bf, z, _base_matrix(z, arg, bf) @ bf.sectors[1])


def verification_report(beta: complex) -> dict:
    """JSON-able per-ray jump residual table plus origin-expansion diagnostics.

    The base matrices at all its points, the ray points (ray 1's twice, at
    both of its arguments) and the origin-expansion samples, come from one
    call.
    """
    bf = _BetaFactors.of(_check_beta(beta))
    beta = bf.beta
    rays = np.repeat(np.arange(1, 7), len(_REPORT_RADII))
    radii = np.tile(_REPORT_RADII, 6)
    args = np.array(SECTOR_ANGLES)[rays - 1]
    z_ray = np.array([r * cmath.exp(1j * a) for r, a in zip(radii, args)])
    on_1 = rays == 1
    z_origin, arg_origin = _origin_points() if beta != 0 else (np.empty(0), np.empty(0))
    # rows: the ray points, ray 1's points again at 2 pi, the origin samples
    base = _base_matrix(np.concatenate([z_ray, z_ray[on_1], z_origin]),
                        np.concatenate([args, np.full(on_1.sum(), 2.0 * math.pi), arg_origin]),
                        bf)
    base_ray, base_2pi, base_origin = np.split(base, [len(z_ray), len(z_ray) + on_1.sum()])
    base_cw = base_ray.copy()
    base_cw[on_1] = base_2pi
    res = _jump_residuals(rays, base_ray, base_cw, bf).tolist()
    table = {str(ray): {} for ray in range(1, 7)}
    for ray, r, v in zip(rays.tolist(), radii.tolist(), res):
        table[str(ray)][f"{r:g}"] = v
    out = {"beta_im": beta.imag, "ray_residuals": table, "max_ray_residual": max(res)}
    if beta != 0:
        exp = _origin_expansion(bf, z_origin, base_origin @ bf.sectors[1])
        out["upsilon0"] = [[[v.real, v.imag] for v in row] for row in exp.upsilon0]
        out["upsilon1_21"] = [exp.upsilon1_21.real, exp.upsilon1_21.imag]
    return out
