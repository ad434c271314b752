"""Fractional Vasicek model toolkit.

Simulation of dX_t = (alpha - beta X_t) dt + gamma dB^H_t for Hurst index
H in (1/2, 1), continuous-path drift MLEs built from singular-kernel
statistics, closed-form moment generating functions, and Monte Carlo
verification harnesses for the exact and long-horizon distribution theory.
"""

from .estimators import (
    DegenerateStatsError,
    estimate_gamma,
    estimate_hurst,
    loglik,
    mle_alpha,
    mle_beta,
    mle_joint,
    mle_mu_kappa,
)
from .fbm import FbmPath, SampleGrid, exact_gaussian_oracle, fbm_cov, generate_fbm
from .harness import ExperimentConfig, TestReport, ks_test, replication_seed, run_experiment
from .limits import (
    NormalLaw,
    RatioLaw,
    ScaledChiSquareLaw,
    VectorLimit,
    ZetaLaw,
    law_alpha_limit,
    law_beta_limit,
    law_I_limit,
    law_J_limit,
    law_J_limit_identity,
    law_mu_kappa_limit,
    law_S_limit,
    law_xi_limit,
    ratio_cdf,
    sample_limit,
    special_case_ratio,
    vector_limit,
    zeta_law,
)
from .mgf import (
    MgfDomainError,
    mgf1_domain_boundary,
    mgf1_log,
    mgf2_log,
    mgf_product_bivariate,
    mgf_quadratic_pair,
)
from .model import ModelParams, VasicekPath, simulate_euler, simulate_exact
from .transforms import (
    PanelEngine,
    SufficientStats,
    constants,
    martingale_M,
    shared_engine,
)

__all__ = [
    "DegenerateStatsError",
    "ExperimentConfig",
    "FbmPath",
    "MgfDomainError",
    "ModelParams",
    "NormalLaw",
    "PanelEngine",
    "RatioLaw",
    "SampleGrid",
    "ScaledChiSquareLaw",
    "SufficientStats",
    "TestReport",
    "VasicekPath",
    "VectorLimit",
    "ZetaLaw",
    "constants",
    "estimate_gamma",
    "estimate_hurst",
    "exact_gaussian_oracle",
    "fbm_cov",
    "generate_fbm",
    "ks_test",
    "law_I_limit",
    "law_J_limit",
    "law_J_limit_identity",
    "law_S_limit",
    "law_alpha_limit",
    "law_beta_limit",
    "law_mu_kappa_limit",
    "law_xi_limit",
    "loglik",
    "martingale_M",
    "mgf1_domain_boundary",
    "mgf1_log",
    "mgf2_log",
    "mgf_product_bivariate",
    "mgf_quadratic_pair",
    "mle_alpha",
    "mle_beta",
    "mle_joint",
    "mle_mu_kappa",
    "ratio_cdf",
    "replication_seed",
    "run_experiment",
    "sample_limit",
    "shared_engine",
    "simulate_euler",
    "simulate_exact",
    "special_case_ratio",
    "vector_limit",
    "zeta_law",
]
