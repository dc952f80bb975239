"""Deformed Pearcey determinant toolkit.

Computes ln det(I - gamma K^Pe) on (-s, s) by Nystrom quadrature, integrates
the associated 8-function Hamiltonian system from its large-s boundary data,
and cross-validates both against closed-form large-gap expansions, counting
statistics, and the confluent hypergeometric parametrix.

``hamiltonian`` is not imported here: it loads scipy, which the determinants,
the asymptotics and the parametrix never need.
"""

from .params import ModelParams, beta_of_gamma
from .kernel import kernel_integral, kernel_point, kernel_rh
from .fredholm import (
    DetResult,
    Moments,
    QuadratureRule,
    fredholm_logdet,
    gauss_legendre,
    logdet_converged,
    moments,
    moments_mgf,
    moments_operator,
    moments_trace,
    resolvent_boundary_trace,
)
from .asymptotics import (
    CountingStats,
    Gamma1Fit,
    GapAsymptotics,
    clt_distance,
    counting_stats,
    f_gamma1,
    fit_gamma1_constant,
    f_large_gap,
    gap_constant,
    h_gamma1,
    h_large_s,
    mgf_prefactor,
    theta3,
    vartheta,
)
from .chf import ChfExpansion, SectorPoint, chf_origin_expansion, phi_chf

__version__ = "0.1.0"
