"""Closed-form large-s expansions: gap law, Hamiltonian tails, counting statistics, CLT.

Every returned value is real for gamma in [0, 1): beta is purely imaginary, so
beta*i and beta^2 are real, arg Gamma(1 - beta) is real, and the Barnes factor
pairs conjugates.  Imaginary residue above 1e-12 raises rather than being
silently truncated, since that is exactly where a Barnes-G or arg-Gamma bug
would show up.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RealnessError
from .params import ModelParams
from .specfun import EULER_GAMMA, barnes_ln_g, ln_gamma

_LOG_9_2 = math.log(4.5)
_IM_TOL = 1e-12


def _coerce_real(value: complex, what: str) -> float:
    if abs(complex(value).imag) > _IM_TOL * max(1.0, abs(complex(value).real)):
        raise RealnessError(f"{what}: imaginary part {complex(value).imag:.3e}")
    return float(complex(value).real)


@dataclass(frozen=True)
class GapAsymptotics:
    """The four printed pieces of the large-gap expansion and their sum."""

    leading: float
    subleading: float
    log_term: float
    constant: float

    @property
    def total(self) -> float:
        return self.leading + self.subleading + self.log_term + self.constant


@dataclass(frozen=True)
class CountingStats:
    mu: float
    sigma2: float
    var_const: float


def theta3(s: float, rho: float) -> float:
    """theta_3(s) = (3/4) s^{4/3} + (rho/2) s^{2/3}."""
    if s <= 0:
        raise DomainError(f"theta3 requires s > 0, got {s}")
    return 0.75 * s ** (4.0 / 3.0) + 0.5 * rho * s ** (2.0 / 3.0)


def vartheta(s: float, params: ModelParams) -> float:
    """Oscillation phase of the large-s regime (real for gamma < 1)."""
    if s <= 0:
        raise DomainError(f"vartheta requires s > 0, got {s}")
    beta = params.beta
    val = (-3.0 * math.sqrt(3.0) / 8.0 * s ** (4.0 / 3.0)
           + math.sqrt(3.0) * params.rho / 4.0 * s ** (2.0 / 3.0)
           + ln_gamma(1.0 - beta).imag
           - (beta * 1j) * (4.0 / 3.0 * math.log(s) + _LOG_9_2))
    return _coerce_real(val, "vartheta")


def gap_constant(params: ModelParams) -> float:
    """Constant term of the large-gap expansion, -2 beta^2 ln(9/2) + 2 ln G(1+beta)G(1-beta).

    It depends on gamma alone, so a caller evaluating many s computes it once.
    """
    beta = params.beta
    if beta == 0:
        return 0.0
    beta_sq = _coerce_real(beta * beta, "beta^2")
    barnes = barnes_ln_g(1.0 + beta) + barnes_ln_g(1.0 - beta)
    return _coerce_real(-2.0 * beta_sq * _LOG_9_2 + 2.0 * barnes, "gap constant term")


def f_large_gap(s: float, params: ModelParams,
                constant: float | None = None) -> GapAsymptotics:
    """Large-gap expansion of F(s; gamma, rho) including the Barnes-G constant.

    ``constant`` is ``gap_constant(params)`` when the caller has it already.
    """
    if params.gamma == 1.0:
        raise DomainError("gamma = 1 has its own expansion; use f_gamma1")
    if s <= 0:
        raise DomainError(f"f_large_gap requires s > 0, got {s}")
    beta = params.beta
    beta_i = _coerce_real(beta * 1j, "beta*i")
    beta_sq = _coerce_real(beta * beta, "beta^2")
    leading = 1.5 * math.sqrt(3.0) * beta_i * s ** (4.0 / 3.0)
    subleading = -math.sqrt(3.0) * params.rho * beta_i * s ** (2.0 / 3.0)
    log_term = -(8.0 / 3.0) * beta_sq * math.log(s)
    if constant is None:
        constant = gap_constant(params)
    return GapAsymptotics(leading, subleading, log_term, constant)


def f_gamma1(s: float, rho: float, c: float = 0.0) -> float:
    """Undeformed (gamma = 1) expansion; c is the caller-supplied constant."""
    if s <= 0:
        raise DomainError(f"f_gamma1 requires s > 0, got {s}")
    return (-9.0 * s ** (8.0 / 3.0) / 2.0 ** (17.0 / 3.0)
            + rho * s * s / 4.0
            - rho * rho * s ** (4.0 / 3.0) / 2.0 ** (10.0 / 3.0)
            - (2.0 / 9.0) * math.log(s)
            + rho ** 4 / 216.0
            + c)


@dataclass(frozen=True)
class Gamma1Fit:
    """Fitted gamma = 1 constant with an honest error bar.

    ``err`` is the larger of the covariance error and the spread between the
    one-correction (C + a s^{-2/3}) and two-correction (+ b s^{-4/3}) models;
    the model-truncation systematic dominates on desk-scale grids.
    ``c_leading`` is the one-correction value, whose remainder exhibits the
    clean s^{-2/3} decay.
    """

    c: float
    err: float
    c_leading: float


def _lstsq_constant(s_grid: np.ndarray, resid: np.ndarray, powers: tuple[float, ...]
                    ) -> tuple[float, float]:
    a_mat = np.column_stack([s_grid ** p for p in powers])
    coef, rss, *_ = np.linalg.lstsq(a_mat, resid, rcond=None)
    dof = max(len(s_grid) - a_mat.shape[1], 1)
    rss_val = float(rss[0]) if len(rss) else float(((a_mat @ coef - resid) ** 2).sum())
    cov = rss_val / dof * np.linalg.inv(a_mat.T @ a_mat)
    return float(coef[0]), float(math.sqrt(max(cov[0, 0], 0.0)))


def fit_gamma1_constant(s_grid: np.ndarray, f_values: np.ndarray, rho: float
                        ) -> Gamma1Fit:
    """Least-squares fit of the undetermined gamma = 1 constant (see Gamma1Fit)."""
    s_grid = np.asarray(s_grid, float)
    resid = np.asarray(f_values, float) - np.array([f_gamma1(s, rho) for s in s_grid])
    c2, _ = _lstsq_constant(s_grid, resid, (0.0, -2.0 / 3.0))
    c3, stat3 = _lstsq_constant(s_grid, resid, (0.0, -2.0 / 3.0, -4.0 / 3.0))
    return Gamma1Fit(c3, max(stat3, abs(c3 - c2)), c2)


def h_large_s(s: float, params: ModelParams) -> float:
    """Large-s Hamiltonian tail including the oscillatory cos(2 vartheta) term."""
    if s < 2:
        raise DomainError(f"h_large_s validated for s >= 2, got {s}")
    beta = params.beta
    if beta == 0:
        return 0.0
    beta_i = _coerce_real(beta * 1j, "beta*i")
    beta_sq = _coerce_real(beta * beta, "beta^2")
    vt = vartheta(s, params)
    return (math.sqrt(3.0) * beta_i * s ** (1.0 / 3.0)
            - params.rho * beta_i / (math.sqrt(3.0) * s ** (1.0 / 3.0))
            - 4.0 * beta_sq / (3.0 * s)
            - 2.0 * math.sqrt(3.0) * beta_i / (9.0 * s) * math.cos(2.0 * vt))


def h_gamma1(s: float, rho: float) -> float:
    """gamma = 1 Hamiltonian tail."""
    if s <= 0:
        raise DomainError(f"h_gamma1 requires s > 0, got {s}")
    return (-3.0 * s ** (5.0 / 3.0) / 2.0 ** (11.0 / 3.0)
            + rho * s / 4.0
            - rho * rho * s ** (1.0 / 3.0) / (3.0 * 2.0 ** (7.0 / 3.0))
            - 1.0 / (9.0 * s))


VAR_CONSTANT = (1.0 + _LOG_9_2 + EULER_GAMMA) / math.pi ** 2


def counting_stats(s: float, rho: float) -> CountingStats:
    """mu(s), sigma(s)^2 and the additive variance constant."""
    if not (math.isfinite(s) and math.isfinite(rho)):
        raise DomainError(f"counting_stats needs finite s and rho, got s = {s}, rho = {rho}")
    if s < 1:
        raise DomainError(f"counting_stats validated for s >= 1, got {s}")
    mu = (3.0 * math.sqrt(3.0) / (4.0 * math.pi) * s ** (4.0 / 3.0)
          - math.sqrt(3.0) * rho / (2.0 * math.pi) * s ** (2.0 / 3.0))
    sigma2 = 4.0 / (3.0 * math.pi ** 2) * math.log(s)
    return CountingStats(mu, sigma2, VAR_CONSTANT)


def mgf_prefactor(nu: float, s: float, rho: float) -> float:
    """(9/2)^{2 nu^2} G(1+i nu)^2 G(1-i nu)^2 exp(-2 pi mu nu + 2 pi^2 sigma^2 nu^2)."""
    if abs(nu) > 0.5:
        raise DomainError(f"mgf_prefactor validated for |nu| <= 0.5, got {nu}")
    if s < 2:
        raise DomainError(f"mgf_prefactor validated for s >= 2, got {s}")
    stats = counting_stats(s, rho)
    if nu == 0.0:
        return 1.0
    barnes = 2.0 * (barnes_ln_g(1.0 + 1j * nu) + barnes_ln_g(1.0 - 1j * nu))
    log_val = (2.0 * nu * nu * _LOG_9_2 + _coerce_real(barnes, "mgf Barnes factor")
               - 2.0 * math.pi * stats.mu * nu
               + 2.0 * math.pi ** 2 * stats.sigma2 * nu * nu)
    return math.exp(log_val)


def clt_distance(s: float, rho: float, t_grid: np.ndarray) -> float:
    """sup_t | E exp(t (N - mu)/sigma) - exp(t^2/2) | via the deformed determinant.

    The expectation is exp(F(s; gamma(nu), rho) - t mu / sigma) at
    nu = -t / (2 pi sigma), F converged to 1e-8 over the whole gamma grid at
    once (one Nystrom matrix and one stacked factorisation per order).  An s
    below 4 and a non-finite s or rho raise DomainError before any quadrature
    (``counting_stats``).
    """
    if s < 4:
        raise DomainError(f"clt_distance validated for s >= 4, got {s}")
    from .fredholm import _logdet_converged_many

    stats = counting_stats(s, rho)
    sigma = math.sqrt(stats.sigma2)
    ts = [t for t in np.asarray(t_grid, float) if t != 0.0]
    nus = [-t / (2.0 * math.pi * sigma) for t in ts]
    gammas = [-math.expm1(-2.0 * math.pi * nu) for nu in nus]
    dets = _logdet_converged_many([(s, g) for g in gammas], rho, 1e-8)
    dists = [abs(math.exp(res.f - t * stats.mu / sigma) - math.exp(t * t / 2.0))
             for t, res in zip(ts, dets)]
    # np.max keeps a NaN distance, which the builtin max would drop
    return float(np.max(dists, initial=0.0))
