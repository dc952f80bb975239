"""Pearcey integrals P and Q, the six contour solutions, and the matrix built from them.

All integrals share one fixed composite Gauss-Legendre grid: panels of width
0.2 with 12 nodes each on [0, 4.8] per ray.  The quartic weight exp(-t^4/4) is
~1e-58 at the truncation point, so truncation error is negligible and the only
accuracy limit is oscillation of exp(itx), resolved to ~1e-10 relative for
|x| <= 40.  Derivatives are taken by inserting (it)^k under the integral,
never by differencing.

Panel split.  Every ray sum is sum_{q,p} c_qp e^{i t_qp z} with
t_qp = rot (m_p + h_p xi_q): a panel midpoint plus a half-width times one of
the 12 Gauss nodes.  The exponential factors into e^{i rot m_p z} and
e^{i rot h_p xi_q z}, so per point a bundle takes one exponential per panel
(24) and one per distinct node offset h xi_q (36), not one per node (288).
The ``linspace`` edges give three half-widths that differ by up to 4.5e-16,
and each group of panels keeps its own: one shared half-width would move
nodes by up to 4.5e-16, hundreds of ulp for those nearest 0.  Per group, one
matmul sums the coefficients against the panel factors, and a product with
the node factors, summed over q, finishes it.

Shared tables.  The panel and node-offset factors depend on z alone
(``_ray_tables``), and e^{i t (u + z)} = e^{i t u} e^{i t z}: a sum at u + z
for many shifts u over one z-grid folds e^{i t u} into the 288 coefficients
per shift and contracts them all against one pair of tables
(``_shifted_ray_sums``), 60 exponentials per z plus 288 per shift.  The
shifts stack on a leading axis of the matmul, so each is summed with the same
array shapes whatever else is in the batch.  ``kernel_integral`` takes its
four ray sums this way; ``_ray_bundle`` is the same contraction with no
shift.

Contour conventions (these were cross-validated against the 3x3 matrix
representation of the kernel, which is orientation-unambiguous):

* P integrates over the real line.  Its weight exp(-t^4/4 - rho t^2/2) is real
  and even, so for real x the line integral folds onto the half-line: P is
  the cosine transform (1/pi) int_0^inf e^{-r^4/4 - rho r^2/2} cos(rx) dr, and
  P^(k) inserts r^k and shifts the phase by k pi/2: P^(k) is the real part
  of the positive-axis ray sum, divided by pi.
* Q integrates over the four rays at angles pi/4, 3pi/4, 5pi/4, 7pi/4 with the
  first and third rays running from infinity to 0 and the other two outward.
  Equivalently Q(y) = V(y) - V(-y) where V is the upper-V contour below.
* V (``_upper_v_bundle``) runs from e^{i pi/4} inf down to 0 and out to
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

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

HALF_RANGE = 4.8
PANEL_WIDTH = 0.2
NODES_PER_PANEL = 12

V_RAY = cmath.exp(1j * math.pi / 4)    # direction of the ray that carries V


@dataclass(frozen=True)
class _RayRule:
    """Composite Gauss-Legendre rule on [0, half_range] with its panel layout.

    Node q of panel p is nodes[q, p] = mids[p] + offsets[g, q], where
    offsets[g] is the half-width of group g times the Gauss nodes on [-1, 1]
    and p lies in the slice ``groups[g]``: panels are ordered by their exact
    half-width.
    """

    nodes: np.ndarray      # (nodes per panel, panels)
    weights: np.ndarray    # (nodes per panel, panels)
    mids: np.ndarray       # (panels,)
    offsets: np.ndarray    # (groups, nodes per panel)
    groups: tuple          # one slice of panels per distinct half-width


@lru_cache(maxsize=8)
def _ray_rule(half_range: float, panel_width: float, nodes: int) -> _RayRule:
    """The positive half of the symmetric composite rule on [-half_range, half_range].

    ``linspace`` edges leave half-widths that differ in the last bits (three
    distinct values for the default rule).  Each panel keeps its own, so the
    nodes and weights are bitwise those of the symmetric rule.
    """
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    n_panels = int(round(2.0 * half_range / panel_width))
    edges = np.linspace(-half_range, half_range, n_panels + 1)
    if n_panels % 2 or edges[n_panels // 2] != 0.0:
        raise DomainError("the ray rule needs an even number of panels")
    mids = ((edges[:-1] + edges[1:]) / 2)[n_panels // 2:]
    half = ((edges[1:] - edges[:-1]) / 2)[n_panels // 2:]
    order = np.argsort(half, kind="stable")
    mids, half = mids[order], half[order]
    widths, starts = np.unique(half, return_index=True)
    bounds = np.append(starts, half.size)
    rule = _RayRule(nodes=mids + np.multiply.outer(xg, half),
                    weights=np.multiply.outer(wg, half), mids=mids,
                    offsets=np.multiply.outer(widths, xg),
                    groups=tuple(slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])))
    for a in (rule.nodes, rule.weights, rule.mids, rule.offsets):
        a.setflags(write=False)
    return rule


def _ray_coefficients(rot: complex, rho: float, kmax: int, weight_sign: float,
                      rule: _RayRule) -> np.ndarray:
    """(kmax+1, nodes per panel, panels) array of w t'(r) e^{weight} (it)^k on t = r rot."""
    tt = rule.nodes * rot
    t2 = tt * tt
    coef = np.empty((kmax + 1,) + tt.shape, dtype=complex)
    coef[0] = rule.weights * rot * np.exp(weight_sign * (t2 * t2 / 4 + rho * t2 / 2))
    for k in range(1, kmax + 1):
        coef[k] = coef[k - 1] * (1j * tt)
    return coef


def _ray_tables(rot: complex, z: np.ndarray,
                rule: _RayRule | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The panel factors e^{i rot m_p z} (panels, len(z)) and the node-offset
    factors e^{i rot h_g xi_q z} (groups, nodes per panel, len(z))."""
    rule = rule or _ray_rule(HALF_RANGE, PANEL_WIDTH, NODES_PER_PANEL)
    lz = 1j * rot * np.asarray(z)
    return (np.exp(np.multiply.outer(rule.mids, lz)),
            np.exp(np.multiply.outer(rule.offsets, lz)))


def _ray_contract(coef: np.ndarray, tables: tuple[np.ndarray, np.ndarray],
                  rule: _RayRule) -> np.ndarray:
    """sum_{q,p} coef[..., q, p] e^{i t_qp z} at every z of ``tables``.

    Any leading axes of ``coef`` stack: each slice goes through matmuls of
    the same shapes, so its sums do not depend on what else is stacked.  One
    buffer holds every group's matmul product and its node-offset product in
    turn: fresh temporaries of this size cost more in page faults than the
    arithmetic.
    """
    by_panel, by_offset = tables
    out = np.zeros(coef.shape[:-2] + by_panel.shape[1:], dtype=complex)
    terms = np.empty(coef.shape[:-1] + by_panel.shape[1:], dtype=complex)
    for g, panels in enumerate(rule.groups):
        np.matmul(coef[..., panels], by_panel[panels], out=terms)
        terms *= by_offset[g]
        out += terms.sum(axis=-2)
    return out


def _ray_bundle(rot: complex, z: np.ndarray, rho: float, kmax: int = 2, *,
                weight_sign: float = -1.0, rule: _RayRule | None = None) -> np.ndarray:
    """Derivative bundle of int_0^inf e^{s*(t^4/4) ... } over the outward ray t = r * rot.

    ``rot`` = e^{i phi} is the ray's unit direction, exact for the axis rays:
    a rounded cos(pi/2) would tilt the ray and shift the phase of e^{itz} by
    ~1e-16 |t z|.

    weight_sign -1 gives the P-type weight exp(-t^4/4 - rho t^2/2 + itz),
    weight_sign +1 the Q-type weight exp(+t^4/4 + rho t^2/2 + itz).
    The sum over the rule runs through the panel split (module notes).
    """
    rule = rule or _ray_rule(HALF_RANGE, PANEL_WIDTH, NODES_PER_PANEL)
    return _ray_contract(_ray_coefficients(rot, rho, kmax, weight_sign, rule),
                         _ray_tables(rot, z, rule), rule)


def _shifted_ray_sums(rot: complex, tables: tuple[np.ndarray, np.ndarray],
                      shifts: np.ndarray, rho: float, *, weight_sign: float) -> np.ndarray:
    """(len(shifts), len(z)) values of the ray sum (kmax = 0) at u + z.

    ``tables`` are ``_ray_tables(rot, z)``: e^{it(u+z)} = e^{itu} e^{itz}, so
    each shift u only multiplies the coefficients by e^{itu}, and one pair of
    tables serves every shift (module notes).
    """
    rule = _ray_rule(HALF_RANGE, PANEL_WIDTH, NODES_PER_PANEL)
    coef = _ray_coefficients(rot, rho, 0, weight_sign, rule)
    phase = np.exp(np.multiply.outer(np.asarray(shifts, dtype=float), 1j * rule.nodes * rot))
    return _ray_contract(coef * phase[:, None], tables, rule)[:, 0]


def _p_bundle(x: np.ndarray, rho: float, kmax: int = 2, *,
              rule: _RayRule | None = None) -> np.ndarray:
    """(kmax+1, len(x)) array of d^k/dx^k of (1/2pi) int e^{-t^4/4 - rho t^2/2 + itx} dt.

    Real x only: the negative half-line is the conjugate of the positive one,
    so P^(k) is Re ray(+1) / pi.  Each distinct |x| is evaluated once: P^(k)
    has the parity of k, so the odd derivatives at negative x are the values
    at |x| with their sign flipped.
    """
    x = np.asarray(x, dtype=float)
    ax, at = np.unique(np.abs(x), return_inverse=True)
    out = _ray_bundle(1.0, ax, rho, kmax, rule=rule).real[:, at] / math.pi
    out[1::2] *= np.where(x < 0, -1.0, 1.0)
    return out


def _upper_v_bundle(y: np.ndarray, rho: float, kmax: int = 2, *,
                    rule: _RayRule | None = None) -> np.ndarray:
    """Upper-V contour with the Q-type weight: (-ray(pi/4) + ray(3pi/4)) / 2pi.

    For real y the 3pi/4 ray is -conj of the pi/4 ray, so V = -Re ray(pi/4) / pi.
    """
    ray = _ray_bundle(V_RAY, np.asarray(y, dtype=float), rho, kmax,
                      weight_sign=+1.0, rule=rule)
    return -ray.real / math.pi


def _q_bundle(y: np.ndarray, rho: float, kmax: int = 2, *,
              rule: _RayRule | None = None) -> np.ndarray:
    """Q bundle assembled from the upper-V solution: Q^(k)(y) = V^(k)(y) - (-1)^k V^(k)(-y).

    V is evaluated once per distinct value of [y, -y]: on points symmetric
    about 0, once per point instead of twice.
    """
    y = np.asarray(y, dtype=float)
    u, at = np.unique(np.concatenate([y, -y]), return_inverse=True)
    v = _upper_v_bundle(u, rho, kmax, rule=rule)[:, at]
    signs = (-1.0) ** np.arange(kmax + 1)
    return v[:, :len(y)] - signs[:, None] * v[:, len(y):]


# Each contour Gamma_j as (sign, direction) legs along the axes: sign -1 means
# the outward ray is traversed from infinity to 0.
_GAMMA_LEGS = {
    0: ((-1, -1), (+1, 1)),
    1: ((-1, 1j), (+1, 1)),
    2: ((-1, 1j), (+1, -1)),
    3: ((-1, -1j), (+1, -1)),
    4: ((-1, -1j), (+1, 1)),
    5: ((-1, -1j), (+1, 1j)),
}


def _contour_sum(j: int, legs: dict) -> np.ndarray:
    """P_j from its legs' ray sums, ``legs`` keyed by direction."""
    total = None
    for sign, rot in _GAMMA_LEGS[j]:
        total = sign * legs[rot] if total is None else total + sign * legs[rot]
    return total


def _pj_bundle(j: int, z: np.ndarray, rho: float) -> np.ndarray:
    """(3, len(z)) derivatives of P_j(z) = int_{Gamma_j} exp(-t^4/4 - rho t^2/2 + itz) dt."""
    return _contour_sum(j, {rot: _ray_bundle(rot, z, rho) for _, rot in _GAMMA_LEGS[j]})


_PSI_COLUMNS = (0, 1, 4)


def tilde_psi_matrices(z: np.ndarray, rho: float) -> np.ndarray:
    """(len(z), 3, 3) entire matrix solution: columns P_0, P_1, P_4, rows value, ', ''.

    The three contours share the positive real leg, so one ray sum per
    distinct direction (four) serves all three columns.
    """
    z = np.asarray(z, dtype=complex)
    rots = dict.fromkeys(rot for j in _PSI_COLUMNS for _, rot in _GAMMA_LEGS[j])
    legs = {rot: _ray_bundle(rot, z, rho) for rot in rots}
    cols = [_contour_sum(j, legs) for j in _PSI_COLUMNS]  # each (3, n)
    return np.stack(cols, axis=2).transpose(1, 0, 2)
