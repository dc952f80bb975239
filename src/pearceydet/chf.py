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
from .specfun import EULER_GAMMA, digamma, kummer_psi_b1, ln_gamma

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
    if abs(beta.real) > 1e-14 or abs(beta) > 0.5:
        raise DomainError(f"beta must be purely imaginary with |beta| <= 0.5, got {beta}")
    return 1j * beta.imag


def jump_matrix(ray: int, beta: complex) -> np.ndarray:
    """The constant jump on ray 1..6."""
    e_p = cmath.exp(beta * math.pi * 1j)
    e_m = cmath.exp(-beta * math.pi * 1j)
    mats = {
        1: [[0.0, e_m], [-e_p, 0.0]],
        2: [[1.0, 0.0], [e_p, 1.0]],
        3: [[1.0, 0.0], [e_m, 1.0]],
        4: [[0.0, e_p], [-e_m, 0.0]],
        5: [[1.0, 0.0], [e_m, 1.0]],
        6: [[1.0, 0.0], [e_p, 1.0]],
    }
    if ray not in mats:
        raise DomainError(f"ray must be 1..6, got {ray}")
    return np.array(mats[ray], dtype=complex)


def _base_matrix(z: complex, arg_z: float, beta: complex) -> np.ndarray:
    """The explicit solution of the model problem in the sector between rays 1 and 2.

    ``arg_z`` is the continued argument of z (counterclockwise from the base
    sector); it fixes the log branches of the psi functions.
    """
    if beta == 0:
        return np.array([[cmath.exp(-0.5j * z), 0.0],
                         [0.0, cmath.exp(0.5j * z)]], dtype=complex)
    w_up = z * 1j
    w_dn = z * (-1j)
    arg_up = arg_z + math.pi / 2.0
    arg_dn = arg_z - math.pi / 2.0
    e_half_minus = cmath.exp(-0.5j * z)
    e_half_plus = cmath.exp(0.5j * z)
    r_top = -cmath.exp(ln_gamma(1.0 - beta) - ln_gamma(beta))
    r_bot = -cmath.exp(ln_gamma(1.0 + beta) - ln_gamma(-beta))
    m = np.array([
        [kummer_psi_b1(beta, w_up, arg_z=arg_up)
         * cmath.exp(2.0 * beta * math.pi * 1j) * e_half_minus,
         r_top * kummer_psi_b1(1.0 - beta, w_dn, arg_z=arg_dn)
         * cmath.exp(beta * math.pi * 1j) * e_half_plus],
        [r_bot * kummer_psi_b1(1.0 + beta, w_up, arg_z=arg_up)
         * cmath.exp(beta * math.pi * 1j) * e_half_minus,
         kummer_psi_b1(-beta, w_dn, arg_z=arg_dn) * e_half_plus],
    ], dtype=complex)
    c1 = np.array([[cmath.exp(-1.5 * beta * math.pi * 1j), 0.0],
                   [0.0, cmath.exp(0.5 * beta * math.pi * 1j)]], dtype=complex)
    return c1 @ m


def _sector_factor(sector: int, beta: complex) -> np.ndarray:
    """Accumulated jump product carrying the base formula into ``sector``.

    Counterclockwise: crossing an outward ray k multiplies by J_k on the
    right, crossing an inward one by J_k^{-1}.
    """
    acc = np.eye(2, dtype=complex)
    for k in range(2, sector + 1):
        j = jump_matrix(k, beta)
        acc = acc @ (j if _RAY_OUTWARD[k - 1] else np.linalg.inv(j))
    return acc


def phi_chf(pt: SectorPoint, beta: complex) -> np.ndarray:
    """The parametrix at a sector point."""
    beta = _check_beta(beta)
    arg = cmath.phase(pt.z) % (2.0 * math.pi)
    return _base_matrix(pt.z, arg, beta) @ _sector_factor(pt.sector, beta)


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
    beta = _check_beta(beta)
    if not 0.1 <= r <= 10.0:
        raise DomainError(f"jump residual validated for 0.1 <= r <= 10, got {r}")
    phi_ray = SECTOR_ANGLES[ray - 1]
    z = r * cmath.exp(1j * phi_ray)
    base = _base_matrix(z, phi_ray, beta)
    ccw = base @ _sector_factor(ray, beta)
    if ray > 1:
        cw = base @ _sector_factor(ray - 1, beta)
    else:
        cw = _base_matrix(z, 2.0 * math.pi, beta) @ _sector_factor(6, beta)
    j = jump_matrix(ray, beta)
    if _RAY_OUTWARD[ray - 1]:
        plus, minus = ccw, cw
    else:
        plus, minus = cw, ccw
    return float(np.abs(plus - minus @ j).max())


@dataclass(frozen=True)
class ChfExpansion:
    """Origin expansion data: the constant matrix and the known (2,1) entry."""

    upsilon0: np.ndarray
    upsilon1_21: complex


def chf_origin_expansion(beta: complex) -> ChfExpansion:
    """Closed-form origin data, cross-checked against the constructed parametrix.

    Verifies at z = r e^{3 pi i/4} (inside sector 2) that

        Upsilon0^{-1} [Phi(z) e^{-beta pi i sigma3/2} U(z)^{-1}] - I - Upsilon1 z

    has (2,1) entry within ``_FIRST_ORDER_BUDGET`` (the O(z^2) remainder).
    """
    beta = _check_beta(beta)
    if beta == 0:
        raise DomainError("origin expansion degenerates at beta = 0")
    gamma_c = 1.0 - cmath.exp(2.0 * beta * math.pi * 1j)
    u0 = np.array([
        [cmath.exp(ln_gamma(1.0 - beta)) * cmath.exp(-beta * math.pi * 1j),
         cmath.exp(-ln_gamma(beta)) * (digamma(1.0 - beta) + 2.0 * EULER_GAMMA)],
        [cmath.exp(ln_gamma(1.0 + beta)),
         -cmath.exp(beta * math.pi * 1j) * cmath.exp(-ln_gamma(-beta))
         * (digamma(-beta) + 2.0 * EULER_GAMMA)],
    ], dtype=complex)
    u1_21 = beta * math.pi * 1j * cmath.exp(-beta * math.pi * 1j) / cmath.sin(beta * math.pi)
    u0_inv = np.linalg.inv(u0)
    sig3_half = np.array([[cmath.exp(-0.5 * beta * math.pi * 1j), 0.0],
                          [0.0, cmath.exp(0.5 * beta * math.pi * 1j)]], dtype=complex)
    for r in _VERIFY_RADII:
        z = r * cmath.exp(0.75j * math.pi)
        phi = phi_chf(SectorPoint(z, 2), beta)
        log_factor = gamma_c / (2.0 * math.pi * 1j) * cmath.log(z * cmath.exp(-0.5j * math.pi))
        u_inv = np.array([[1.0, log_factor], [0.0, 1.0]], dtype=complex)
        d = u0_inv @ (phi @ sig3_half @ u_inv) - np.eye(2)
        first_order = abs(d[1, 0] - u1_21 * z)
        if first_order > _FIRST_ORDER_BUDGET:
            raise NumericsError(
                f"origin expansion mismatch at |z| = {r}: (2,1) remainder {first_order:.3e}")
    return ChfExpansion(u0, u1_21)


def verification_report(beta: complex) -> dict:
    """JSON-able per-ray jump residual table plus origin-expansion diagnostics."""
    beta = _check_beta(beta)
    rays = {}
    for ray in range(1, 7):
        rays[str(ray)] = {f"{r:g}": chf_jump_residual(ray, r, beta) for r in _REPORT_RADII}
    out = {
        "beta_im": beta.imag,
        "ray_residuals": rays,
        "max_ray_residual": max(v for tbl in rays.values() for v in tbl.values()),
    }
    if beta != 0:
        exp = chf_origin_expansion(beta)
        out["upsilon0"] = [[[v.real, v.imag] for v in row] for row in exp.upsilon0]
        out["upsilon1_21"] = [exp.upsilon1_21.real, exp.upsilon1_21.imag]
    return out
