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
    mle_alpha,
    mle_beta,
    mle_joint,
    mle_mu_kappa,
)
from .fbm import FbmPath, SampleGrid, generate_fbm
from .harness import ExperimentConfig, TestReport, ks_test, replication_seed, run_experiment
from .limits import (
    NormalLaw,
    RatioLaw,
    ScaledChiSquareLaw,
    ZetaLaw,
    law_alpha_limit,
    law_beta_limit,
    law_I_limit,
    law_J_limit,
    law_J_limit_identity,
    law_mu_limit,
    law_S_limit,
    ratio_cdf,
    special_case_ratio,
    zeta_law,
)
from .mgf import MgfDomainError, mgf1_log, mgf2_log
from .model import ModelParams, VasicekPath, simulate_exact
from .transforms import PanelEngine, SufficientStats, constants, shared_engine

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
    "ZetaLaw",
    "constants",
    "estimate_gamma",
    "estimate_hurst",
    "generate_fbm",
    "ks_test",
    "law_I_limit",
    "law_J_limit",
    "law_J_limit_identity",
    "law_S_limit",
    "law_alpha_limit",
    "law_beta_limit",
    "law_mu_limit",
    "mgf1_log",
    "mgf2_log",
    "mle_alpha",
    "mle_beta",
    "mle_joint",
    "mle_mu_kappa",
    "ratio_cdf",
    "replication_seed",
    "run_experiment",
    "shared_engine",
    "simulate_exact",
    "special_case_ratio",
    "zeta_law",
]
