"""Complex log-Gamma, digamma, Barnes G, and Kummer confluent hypergeometric functions.

Everything here is pure and branch-explicit, and scalar except the Kummer
psi series, which also takes arrays of points.  These routines back the
asymptotic formulas (Gamma/Barnes factors) and the confluent hypergeometric
parametrix (phi/psi pair), so their accuracy budgets are the tightest in the
package: log-Gamma is good to ~1e-13 relative for |z| <= 20 off the negative
real axis, Barnes G to ~1e-12, and the Kummer series terminate at 1e-17
relative term size.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError

EULER_GAMMA = 0.57721566490153286

# Lanczos g=7, 9-term coefficients (double-precision set).
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
# 24-point Gauss-Legendre rule of the Barnes G segment integral
_BARNES_NODES, _BARNES_WEIGHTS = np.polynomial.legendre.leggauss(24)
# Kummer series: stop at this relative term size, give up after this many terms
_SERIES_TOL = 1e-17
_SERIES_MAX_TERMS = 10000

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _is_nonpositive_integer(z: complex, tol: float = 1e-14) -> bool:
    return abs(z.imag) < tol and z.real <= 0.5 and abs(z.real - round(z.real)) < tol


def _log_sin_pi(z: complex) -> complex:
    """log(sin(pi z)) continuous off the real axis, principal on (0,1).

    Uses sin(pi z) = (i/2) e^{-i pi z} (1 - e^{2 i pi z}) for Im z > 0 (and the
    conjugate for Im z < 0) so the log never wraps for large |Im z|.
    """
    if z.imag > 0:
        return (0.5j * math.pi - math.log(2.0)) - 1j * math.pi * z \
            + cmath.log(1.0 - cmath.exp(2j * math.pi * z))
    if z.imag < 0:
        return _log_sin_pi(z.conjugate()).conjugate()
    return cmath.log(cmath.sin(math.pi * z))


def ln_gamma(z: complex) -> complex:
    """Principal-branch log-Gamma, continuous on the plane cut along (-inf, 0].

    Raises PoleError at nonpositive integers.
    """
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"ln_gamma pole at z = {z}")
    if z.real < 0.5:
        # Reflection: ln Gamma(z) = ln pi - log sin(pi z) - ln Gamma(1 - z).
        return math.log(math.pi) - _log_sin_pi(z) - ln_gamma(1.0 - z)
    zm = z - 1.0
    acc = _LANCZOS_C[0]
    for k, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += c / (zm + k)
    t = zm + _LANCZOS_G + 0.5
    return _HALF_LOG_2PI + (zm + 0.5) * cmath.log(t) - t + cmath.log(acc)


# Bernoulli numbers B_2 .. B_14 for the digamma asymptotic series.
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)


def digamma(z: complex) -> complex:
    """Complex digamma psi0(z) = Gamma'(z)/Gamma(z), accurate to ~1e-13.

    Recurrence pushes the argument to Re z >= 10, then the Bernoulli
    asymptotic series applies.  Real z <= 0 at integers raises PoleError.
    """
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"digamma pole at z = {z}")
    acc = 0.0 + 0.0j
    while z.real < 10.0:
        acc -= 1.0 / z
        z = z + 1.0
    inv2 = 1.0 / (z * z)
    series = 0.0 + 0.0j
    p = inv2
    for n, b in enumerate(_BERNOULLI, start=1):
        series += b * p / (2 * n)
        p *= inv2
    return acc + cmath.log(z) - 0.5 / z - series


def barnes_ln_g(one_plus_z: complex) -> complex:
    """ln G(1+z) through the integral definition, Re z > -1.

    ln G(1+z) = (z/2) ln(2 pi) - z(z+1)/2 + z ln Gamma(1+z)
                - int_0^z ln Gamma(1+x) dx,
    the integral running along the straight segment from 0 to z, evaluated by
    panel-doubling Gauss-Legendre until it is stable to 1e-13.
    """
    z = complex(one_plus_z) - 1.0
    if z.real <= -1.0:
        raise DomainError(f"barnes_ln_g requires Re(1+z) > 0, got 1+z = {one_plus_z}")
    if z == 0:
        return 0.0 + 0.0j

    def segment_integral(panels: int) -> complex:
        total = 0.0 + 0.0j
        for p in range(panels):
            a = p / panels
            b = (p + 1) / panels
            ts = (a + b) / 2 + (b - a) / 2 * _BARNES_NODES
            vals = np.array([ln_gamma(1.0 + tt * z) for tt in ts])
            total += (b - a) / 2 * (_BARNES_WEIGHTS * vals).sum()
        return z * total

    prev = segment_integral(1)
    for panels in (2, 4, 8, 16, 32):
        cur = segment_integral(panels)
        if abs(cur - prev) <= 1e-13 * max(1.0, abs(cur)):
            prev = cur
            break
        prev = cur
    integral = prev
    return (z / 2.0) * math.log(2.0 * math.pi) - z * (z + 1.0) / 2.0 \
        + z * ln_gamma(1.0 + z) - integral


def kummer_phi(a: complex, b: complex, z: complex) -> complex:
    """Kummer's entire function phi(a,b,z) = sum_k (a)_k/(b)_k z^k/k!.

    Raises ConvergenceError if the 10000-term cap is hit (caller should keep
    |z| <= 30 or so).
    """
    a, b, z = complex(a), complex(b), complex(z)
    if _is_nonpositive_integer(b):
        raise PoleError(f"kummer_phi requires b not a nonpositive integer, got b = {b}")
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    for k in range(_SERIES_MAX_TERMS):
        term *= (a + k) / (b + k) * z / (k + 1)
        total += term
        if abs(term) < _SERIES_TOL * max(abs(total), 1e-300):
            return total
    raise ConvergenceError(f"kummer_phi series cap hit at |z| = {abs(z)}")


def _cmul(x, y):
    """x * y for complex scalars or arrays, rounded as Python's complex product.

    numpy's complex multiply may fuse the multiply-adds; this one rounds each
    real product and sum on its own, so the array series below gives the
    values of the scalar recurrence it replaces bit for bit.
    """
    x, y = np.asarray(x), np.asarray(y)
    out = np.empty(np.broadcast(x, y).shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def kummer_psi_b1(a: complex | np.ndarray, z: complex | np.ndarray, *,
                  arg_z: float | np.ndarray | None = None) -> complex | np.ndarray:
    """Tricomi's psi(a, 1, z) via the logarithmic series.

    psi(a,1,z) = -(1/Gamma(a)) [ ln(z) phi(a,1,z)
                  + sum_k ((a)_k/(k!)^2) (psi0(a+k) - 2 psi0(1+k)) z^k ].

    ``a``, ``z`` and ``arg_z`` may be arrays, broadcast together: the series
    runs over all points at once, each point stops at its own last term, and
    the coefficients are computed once per distinct a.  Scalars give a scalar.
    Every point rounds as a scalar evaluation does.

    ``arg_z`` overrides the argument used in ln(z); the default is the
    principal value.  Passing an unwrapped argument analytically continues the
    function across the cut, which the parametrix construction relies on.
    Points on the negative real axis are principal-branch boundary values
    (approach from above); pass ``arg_z`` explicitly if the other side is
    wanted.
    """
    a, z = np.asarray(a, dtype=complex), np.asarray(z, dtype=complex)
    if arg_z is None:
        arg_z = np.reshape([cmath.phase(v) for v in z.ravel().tolist()], z.shape)
    a, z, arg_z = np.broadcast_arrays(a, z, np.asarray(arg_z, dtype=float))
    shape = z.shape
    values, a_idx = np.unique(a.ravel(), return_inverse=True)
    values = values.tolist()
    for v in values:
        if not cmath.isfinite(v):
            raise DomainError(f"kummer_psi_b1 requires a finite a, got a = {v}")
        if _is_nonpositive_integer(v):
            raise PoleError(f"kummer_psi_b1 requires a not a nonpositive integer, got a = {v}")
    abs_z = np.hypot(z.real, z.imag).ravel()
    if (abs_z == 0).any():
        raise PoleError("kummer_psi_b1 has a logarithmic singularity at z = 0")
    if not ((abs_z <= 30.0).all() and np.isfinite(arg_z).all()):
        raise DomainError("kummer_psi_b1 restricted to |z| <= 30 and a finite arg_z, "
                          f"got |z| up to {abs_z.max()}")

    # per distinct a: psi0(a + k), updated iteratively; psi0(1 + k) is shared
    dig_a = [digamma(v) for v in values]
    dig_1 = -EULER_GAMMA
    series = np.array([d - 2.0 * dig_1 for d in dig_a])[a_idx]
    phi_sum = np.ones(z.size, dtype=complex)
    # the points still summing, in real and imaginary parts: their indices,
    # a and z, (a)_k z^k / (k!)^2 and the two partial sums
    left, aj = np.arange(z.size), a_idx
    ar, zr, zi = a.real.ravel(), z.real.ravel(), z.imag.ravel()
    ai_zr, ai_zi = a.imag.ravel() * zr, a.imag.ravel() * zi
    pr, pi = np.ones(z.size), np.zeros(z.size)
    sr, si = series.real.copy(), series.imag.copy()
    fr, fi = np.ones(z.size), np.zeros(z.size)
    for k in range(_SERIES_MAX_TERMS):
        if not left.size:
            break
        dig_a = [d + 1.0 / (v + k) for d, v in zip(dig_a, values)]
        dig_1 = dig_1 + 1.0 / (1.0 + k)
        coef = np.array([d - 2.0 * dig_1 for d in dig_a])[aj]
        sq = (k + 1.0) ** 2
        ak = ar + k
        tr = (ak * zr - ai_zi) / sq
        ti = (ak * zi + ai_zr) / sq
        pr, pi = pr * tr - pi * ti, pr * ti + pi * tr
        term_r = pr * coef.real - pi * coef.imag
        term_i = pr * coef.imag + pi * coef.real
        sr += term_r
        si += term_i
        fr += pr
        fi += pi
        done = (np.hypot(term_r, term_i) + np.hypot(pr, pi)
                < _SERIES_TOL * np.maximum(np.hypot(sr, si), 1.0))
        if done.any():
            idx = left[done]
            series.real[idx], series.imag[idx] = sr[done], si[done]
            phi_sum.real[idx], phi_sum.imag[idx] = fr[done], fi[done]
            more = ~done
            left, aj, ar, zr, zi, ai_zr, ai_zi, pr, pi, sr, si, fr, fi = (
                x[more] for x in (left, aj, ar, zr, zi, ai_zr, ai_zi, pr, pi, sr, si, fr, fi))
    if left.size:
        raise ConvergenceError(f"kummer_psi_b1 series cap hit at |z| = "
                               f"{np.hypot(zr, zi).max()}")
    log_z = np.empty(z.size, dtype=complex)
    log_z.real = [math.log(v) for v in abs_z.tolist()]
    log_z.imag = arg_z.ravel()
    inv_gamma = np.array([-cmath.exp(-ln_gamma(v)) for v in values])[a_idx]
    out = _cmul(inv_gamma, _cmul(log_z, phi_sum) + series).reshape(shape)
    return complex(out) if out.ndim == 0 else out
