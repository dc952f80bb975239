"""Deformed Pearcey determinant toolkit.

Computes ln det(I - gamma K^Pe) on (-s, s) by Nystrom quadrature, integrates
the associated 8-function Hamiltonian system from its large-s boundary data,
and cross-validates both against closed-form large-gap expansions, counting
statistics, and the confluent hypergeometric parametrix.
"""

from .params import ModelParams, beta_of_gamma
from .pearcey import (
    PearceyValues,
    pearcey_p,
    pearcey_pj,
    pearcey_q,
    pearcey_upper,
    tilde_psi,
)
from .kernel import (
    kernel_diagonal_band,
    kernel_integral,
    kernel_matrix,
    kernel_point,
    kernel_rational,
    kernel_rh,
)
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
from .hamiltonian import (
    HamState,
    Trajectory,
    asymptotic_state,
    asymptotic_trajectory,
    coupled_p0q0_residual,
    hamiltonian_value,
    identity_report,
    integral_representation_check,
    integrate,
    project_invariants,
    resolvent_anchor_state,
    system_rhs,
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
from .chf import ChfExpansion, SectorPoint, chf_jump_residual, chf_origin_expansion, phi_chf

__version__ = "0.1.0"
