"""Pearcey integrals P and Q, the six contour solutions, and the matrix built from them.

All integrals share one fixed composite Gauss-Legendre grid: panels of width
0.2 with 12 nodes each on [0, 4.8] per ray.  The quartic weight exp(-t^4/4) is
~1e-58 at the truncation point, so truncation error is negligible and the only
accuracy limit is oscillation of exp(itx), resolved to ~1e-10 relative for
|x| <= 40.  Derivatives are taken by inserting (it)^k under the integral,
never by differencing.

Contour conventions (these were cross-validated against the 3x3 matrix
representation of the kernel, which is orientation-unambiguous):

* P integrates over the real line.  Its weight exp(-t^4/4 - rho t^2/2) is real
  and even, so for real x the line integral folds onto the half-line: P is
  the cosine transform (1/pi) int_0^inf e^{-r^4/4 - rho r^2/2} cos(rx) dr, and
  P^(k) inserts r^k and shifts the phase by k pi/2.  It is computed in real
  arithmetic on the ray rule.
* Q integrates over the four rays at angles pi/4, 3pi/4, 5pi/4, 7pi/4 with the
  first and third rays running from infinity to 0 and the other two outward.
  Equivalently Q(y) = V(y) - V(-y) where V is the upper-V contour below.
* V (``pearcey_upper``) runs from e^{i pi/4} inf down to 0 and out to
  e^{3 i pi/4} inf with the Q-type weight exp(+t^4/4 + rho t^2/2).  For real y
  the 3pi/4 ray is minus the conjugate of the pi/4 ray, so V is computed from
  the pi/4 ray alone and is real on the real axis.  It decays
  superexponentially as y -> +inf; it is the ingredient that makes the
  kernel's integral representation convergent.
* The contours Gamma_j of the six solutions of the P-type equation are ordered
  unions of half-lines along the coordinate axes; exp(-t^4/4) decays on every
  one of them, so each leg is integrated straight with the same panel scheme.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

HALF_RANGE = 4.8
PANEL_WIDTH = 0.2
NODES_PER_PANEL = 12

_P_ARG_MAX = 60.0
_PJ_ARG_MAX = 40.0


@dataclass(frozen=True)
class PearceyValues:
    """Value and first two derivatives at one point."""

    v0: complex
    v1: complex
    v2: complex

    def as_array(self) -> np.ndarray:
        return np.array([self.v0, self.v1, self.v2])


@lru_cache(maxsize=8)
def _ray_rule(half_range: float, panel_width: float, nodes: int):
    """Composite GL nodes/weights on [0, half_range]: the positive half of the
    symmetric composite rule on [-half_range, half_range]."""
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    n_panels = int(round(2.0 * half_range / panel_width))
    edges = np.linspace(-half_range, half_range, n_panels + 1)
    mids = (edges[:-1] + edges[1:]) / 2
    half = (edges[1:] - edges[:-1]) / 2
    t = (mids[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    keep = t > 0
    return t[keep], w[keep]


# cos(a + k pi/2) is sign * cos(a) for even k and sign * sin(a) for odd k
_PHASE_SIGN = (1.0, -1.0, -1.0, 1.0)


def _p_bundle(x: np.ndarray, rho: float, kmax: int = 2, *,
              rule=None) -> np.ndarray:
    """(kmax+1, len(x)) array of d^k/dx^k of (1/2pi) int e^{-t^4/4 - rho t^2/2 + itx} dt.

    Real x only: the half-line cosine transform
    (1/pi) sum_r w e^{-r^4/4 - rho r^2/2} r^k cos(rx + k pi/2) over the ray rule.
    """
    r, w = rule if rule is not None else _ray_rule(HALF_RANGE, PANEL_WIDTH, NODES_PER_PANEL)
    base = w * np.exp(-r ** 4 / 4 - rho * r ** 2 / 2) / math.pi
    arg = np.multiply.outer(r, np.asarray(x, dtype=float))
    trig = (np.cos(arg), np.sin(arg) if kmax >= 1 else None)
    return np.stack([(_PHASE_SIGN[k % 4] * base * r ** k) @ trig[k % 2]
                     for k in range(kmax + 1)])


def _ray_bundle(phi: float, z: np.ndarray, rho: float, kmax: int = 2, *,
                weight_sign: float = -1.0, rule=None) -> np.ndarray:
    """Derivative bundle of int_0^inf e^{s*(t^4/4) ... } over the outward ray arg t = phi.

    weight_sign -1 gives the P-type weight exp(-t^4/4 - rho t^2/2 + itz),
    weight_sign +1 the Q-type weight exp(+t^4/4 + rho t^2/2 + itz).
    """
    r, w = rule if rule is not None else _ray_rule(HALF_RANGE, PANEL_WIDTH, NODES_PER_PANEL)
    tt = r * np.exp(1j * phi)
    base = w * np.exp(weight_sign * (tt ** 4 / 4 + rho * tt ** 2 / 2)) * np.exp(1j * phi)
    osc = np.exp(1j * np.multiply.outer(tt, z))
    it = 1j * tt
    return np.stack([(base * it ** k) @ osc for k in range(kmax + 1)])


def _upper_v_bundle(y: np.ndarray, rho: float, kmax: int = 2, *, rule=None) -> np.ndarray:
    """Upper-V contour with the Q-type weight: (-ray(pi/4) + ray(3pi/4)) / 2pi.

    For real y the 3pi/4 ray is -conj of the pi/4 ray, so V = -Re ray(pi/4) / pi.
    """
    ray = _ray_bundle(math.pi / 4, np.asarray(y, dtype=float), rho, kmax,
                      weight_sign=+1.0, rule=rule)
    return -ray.real / math.pi


def _q_bundle(y: np.ndarray, rho: float, kmax: int = 2, *, rule=None) -> np.ndarray:
    """Q bundle assembled from the upper-V solution: Q^(k)(y) = V^(k)(y) - (-1)^k V^(k)(-y)."""
    y = np.asarray(y, dtype=float)
    v = _upper_v_bundle(np.concatenate([y, -y]), rho, kmax, rule=rule)
    signs = (-1.0) ** np.arange(kmax + 1)
    return v[:, :len(y)] - signs[:, None] * v[:, len(y):]


def _check_arg(x: float, bound: float, name: str) -> None:
    if abs(x) > bound:
        raise DomainError(f"{name} argument {x} outside validated range |.| <= {bound}")


def pearcey_p(x: float, rho: float) -> PearceyValues:
    """P(x) = (1/2pi) int_R exp(-t^4/4 - rho t^2/2 + itx) dt with two derivatives."""
    _check_arg(x, _P_ARG_MAX, "pearcey_p")
    b = _p_bundle(np.array([float(x)]), rho)
    return PearceyValues(*(b[k, 0] for k in range(3)))


def pearcey_q(y: float, rho: float) -> PearceyValues:
    """Q(y) over the four-ray contour with the figure's orientations."""
    _check_arg(y, _P_ARG_MAX, "pearcey_q")
    b = _q_bundle(np.array([float(y)]), rho)
    return PearceyValues(*(b[k, 0] for k in range(3)))


def pearcey_upper(y: float, rho: float) -> PearceyValues:
    """The upper-V solution of the Q equation; real on R, decaying as y -> +inf."""
    _check_arg(y, _P_ARG_MAX, "pearcey_upper")
    b = _upper_v_bundle(np.array([float(y)]), rho)
    return PearceyValues(*(b[k, 0] for k in range(3)))


# Each contour Gamma_j as (sign, angle) legs: sign -1 means the outward ray is
# traversed from infinity to 0.
_GAMMA_LEGS = {
    0: ((-1, math.pi), (+1, 0.0)),
    1: ((-1, math.pi / 2), (+1, 0.0)),
    2: ((-1, math.pi / 2), (+1, math.pi)),
    3: ((-1, -math.pi / 2), (+1, math.pi)),
    4: ((-1, -math.pi / 2), (+1, 0.0)),
    5: ((-1, -math.pi / 2), (+1, math.pi / 2)),
}


def _pj_bundle(j: int, z: np.ndarray, rho: float, kmax: int = 2, *, rule=None) -> np.ndarray:
    total = None
    for sign, phi in _GAMMA_LEGS[j]:
        leg = _ray_bundle(phi, z, rho, kmax, weight_sign=-1.0, rule=rule)
        total = sign * leg if total is None else total + sign * leg
    return total


def pearcey_pj(z: complex, rho: float, j: int) -> PearceyValues:
    """Contour solution P_j(z) = int_{Gamma_j} exp(-t^4/4 - rho t^2/2 + itz) dt."""
    if j not in _GAMMA_LEGS:
        raise DomainError(f"contour index must be 0..5, got {j}")
    _check_arg(abs(z), _PJ_ARG_MAX, "pearcey_pj")
    b = _pj_bundle(j, np.array([complex(z)]), rho)
    return PearceyValues(*(b[k, 0] for k in range(3)))


@dataclass(frozen=True)
class PsiTilde:
    """3x3 matrix with columns (P_0, P_1, P_4) and rows (value, ', '')."""

    m: np.ndarray


def tilde_psi(z: float, rho: float) -> PsiTilde:
    """Entire 3x3 matrix solution used by the kernel's matrix representation."""
    _check_arg(abs(z), _PJ_ARG_MAX, "tilde_psi")
    zz = np.array([complex(z)])
    cols = [_pj_bundle(j, zz, rho)[:, 0] for j in (0, 1, 4)]
    return PsiTilde(np.stack(cols, axis=1))


def tilde_psi_matrices(z: np.ndarray, rho: float) -> np.ndarray:
    """Vectorized tilde_psi: returns (len(z), 3, 3)."""
    z = np.asarray(z, dtype=complex)
    cols = [_pj_bundle(j, z, rho) for j in (0, 1, 4)]  # each (3, n)
    return np.stack(cols, axis=2).transpose(1, 0, 2)
