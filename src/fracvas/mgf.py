"""Closed-form moment generating functions of the path statistics.

m1 is the joint MGF of (S_T, I_T); m2 extends it to (S_T, I_T, J_T, K_T)
by a drift reparameterization.  Every building block grows or decays like
exp(c |beta| T) while the assembled answers stay O(1), so each block is
kept as a coefficient times exp(log scale), and each signed sum of blocks
(the gate D and the correction A1 + ... + A4) is one
scipy.special.logsumexp(logs, b=coefficients, return_sign=True) call: the
large exponents cancel before anything is exponentiated.

The formulas take the mean-repelling branch (beta < 0): fractional powers
of -beta appear throughout, so beta >= 0 is rejected here.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np
from scipy.special import logsumexp

from .model import ModelParams
from .specfun import log_bessel_i, log_gamma
from .transforms import constants

_LOG_EIGHT = math.log(8.0)
_SCAN_STEPS = 4096


class MgfDomainError(ValueError):
    """Argument outside the finiteness domain of the generating function."""


def _require_domain(params: ModelParams, horizon: float) -> None:
    if not params.beta < 0.0:
        raise MgfDomainError(f"generating functions need beta < 0, got {params.beta!r}")
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon!r}")


def _bessel_logs(hurst: float, x: float) -> dict[float, float]:
    orders = (-hurst, hurst - 1.0, 1.0 - hurst, hurst)
    return {nu: log_bessel_i(nu, x) for nu in orders}


def _log_d(xi2: float | np.ndarray, params: ModelParams, horizon: float):
    """(log |D|, sign D) of the gate quantity, elementwise in xi2."""
    _require_domain(params, horizon)
    beta, hurst = params.beta, params.hurst
    lb = _bessel_logs(hurst, -beta * horizon / 2.0)
    log_pair = np.logaddexp(lb[-hurst] + lb[hurst - 1.0], lb[1.0 - hurst] + lb[hurst])
    u = 1.0 - xi2 / (2.0 * beta)
    logs = (
        0.0,
        -math.log(4.0 * beta * beta) - 2.0 * beta * horizon,
        math.log(-beta * math.pi * horizon / (4.0 * math.sin(math.pi * hurst)))
        - beta * horizon
        + log_pair,
    )
    coefficients = np.stack((u * u, xi2 * xi2, xi2 / beta * u), axis=-1)
    return logsumexp(logs, b=coefficients, axis=-1, return_sign=True)


def mgf1_D(xi2: float, params: ModelParams, horizon: float) -> float:
    """The gate quantity of m1's domain; its sign is the information."""
    log_abs, sign = _log_d(xi2, params, horizon)
    try:
        return sign * math.exp(log_abs)
    except OverflowError:
        return sign * math.inf


def _coefficients(params: ModelParams) -> tuple[float, float, float, float, float, float]:
    hurst = params.hurst
    kc = constants(hurst, params.gamma)
    offset = params.x0 - params.mean_level
    rho = kc.rho
    lam_star = kc.lam_star
    gam_h = math.exp(log_gamma(hurst))
    gam_1h = math.exp(log_gamma(1.0 - hurst))
    c1 = offset * 4.0 * rho
    c2 = offset**2 * lam_star * 2.0 ** (2.0 * hurst + 1.0) * rho**2 / gam_1h
    c3 = 2.0 * gam_h * gam_1h / lam_star
    c4 = offset * rho * 2.0 ** (2.0 * hurst + 1.0) * gam_h
    c5 = offset**2 * lam_star * 2.0 ** (4.0 * hurst - 1.0) * rho**2 * gam_h / gam_1h
    c6 = offset**2 * 2.0 * lam_star * rho**2
    return (c1, c2, c3, c4, c5, c6)


def mgf1_log(xi1: float, xi2: float, params: ModelParams, horizon: float) -> float:
    """log E exp(xi1 S_T + xi2 I_T) on the domain D > 0.

    The start level folds into the linear argument: the A-terms are
    evaluated at xi1 + xi2 x0 / gamma.  Joint tilts of the level process
    act on S_T only through that combination, because I_T contributes
    x0/gamma times its own S_T-linear part.
    """
    log_d, sign_d = _log_d(xi2, params, horizon)
    if not sign_d > 0.0:
        raise MgfDomainError(f"argument outside the domain: D sign {sign_d:+.0f}")
    beta, hurst = params.beta, params.hurst
    lin = xi1 + xi2 * params.x0 / params.gamma
    c1, c2, c3, c4, c5, c6 = _coefficients(params)
    lb = _bessel_logs(hurst, -beta * horizon / 2.0)
    log_mb = math.log(-beta)
    log_t = math.log(horizon)
    logs = (
        (hurst - 1.0) * log_mb + (1.0 - hurst) * log_t - 1.5 * beta * horizon + lb[1.0 - hurst],
        (2.0 - 2.0 * hurst) * log_t - beta * horizon + lb[1.0 - hurst] + lb[hurst - 1.0],
        (2.0 * hurst - 1.0) * log_mb + log_t - beta * horizon + lb[1.0 - hurst] + lb[-hurst],
        (hurst - 1.0) * log_mb + (1.0 - hurst) * log_t - 0.5 * beta * horizon + lb[1.0 - hurst],
    )
    coefficients = (
        xi2 * (c1 * lin - c2 * xi2),
        lin**2 * c3 - lin * xi2 * c4 + xi2**2 * c5,
        xi2 * (xi2 - 2.0 * beta) * c6,
        (c1 * lin - c2 * xi2) * (xi2 - 2.0 * beta),
    )
    log_a, sign_a = logsumexp(logs, b=coefficients, return_sign=True)
    correction = sign_a * math.exp(log_a - _LOG_EIGHT - log_d)
    return -0.5 * log_d + correction - xi2 * horizon / 2.0


def _derived_drift(theta3: float, theta4: float, params: ModelParams) -> tuple[float, float]:
    """(alpha1, beta1): the equivalent drift absorbing theta3, theta4."""
    disc = params.beta**2 - 2.0 * theta4
    if not disc > 0.0:
        raise MgfDomainError(f"theta4 = {theta4!r} is not below beta^2/2")
    root = math.sqrt(disc)
    return -(params.gamma * theta3 + params.alpha * params.beta) / root, -root


def mgf2_log(
    theta: tuple[float, float, float, float], params: ModelParams, horizon: float
) -> float:
    """log E exp(theta . (S_T, I_T, J_T, K_T)) via the drift substitution."""
    _require_domain(params, horizon)
    theta1, theta2, theta3, theta4 = theta
    alpha1, beta1 = _derived_drift(theta3, theta4, params)
    xi2 = theta2 - params.beta + beta1
    # the stated domain gates D at the original drift; the substituted
    # evaluation gates it again at (alpha1, beta1)
    if not mgf1_D(xi2, params, horizon) > 0.0:
        raise MgfDomainError("argument outside the domain: D at the original drift")
    inner = dataclasses.replace(params, alpha=alpha1, beta=beta1)
    xi1 = theta1 + (params.alpha - alpha1) / params.gamma
    w_t = constants(params.hurst, params.gamma).w(horizon)
    return mgf1_log(xi1, xi2, inner, horizon) + (alpha1**2 - params.alpha**2) * w_t / (
        2.0 * params.gamma**2
    )


def mgf1_domain_boundary(
    params: ModelParams,
    horizon: float,
    xi2_cap: float = 64.0,
    tol: float = 1e-10,
) -> float:
    """Smallest xi2 > 0 where D crosses zero, to relative accuracy tol.

    A scan of (0, xi2_cap] finds the first cell where the sign of D
    changes, and bisection on that sign narrows the cell.  Returns inf
    when D stays positive up to xi2_cap.  No claim is made about the
    shape of the domain beyond this first crossing.
    """
    # imported here: scipy.optimize costs every process that imports
    # fracvas about 0.2 s, and no experiment calls this function
    from scipy.optimize import bisect

    probes = xi2_cap * np.arange(1, _SCAN_STEPS + 1) / _SCAN_STEPS
    outside = np.flatnonzero(_log_d(probes, params, horizon)[1] <= 0.0)
    if outside.size == 0:
        return math.inf
    k = outside[0]
    lo = probes[k - 1] if k > 0 else 0.0  # D(0) = 1
    # halving from the cell width to tol * boundary can take far more than
    # bisect's default 100 steps when the boundary is tiny
    return bisect(lambda xi2: _log_d(xi2, params, horizon)[1], lo, probes[k],
                  xtol=sys.float_info.min, rtol=tol, maxiter=1100)
