"""Closed-form moment generating functions of the path statistics.

m1 is the joint MGF of (S_T, I_T); m2 extends it to (S_T, I_T, J_T, K_T)
by a drift reparameterization.  Every building block grows or decays like
exp(c |beta| T) while the assembled answers stay O(1), so all terms are
carried as (sign, log magnitude) pairs and the large exponents cancel
analytically before anything is exponentiated.

The formulas take the mean-repelling branch (beta < 0): fractional powers
of -beta appear throughout, so beta >= 0 is rejected here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ModelParams
from .specfun import log_bessel_i, log_gamma
from .transforms import constants

_LOG_EIGHT = math.log(8.0)

SignedLog = tuple[float, float]  # (sign in {-1, 0, 1}, log |value|)


class MgfDomainError(ValueError):
    """Argument outside the finiteness domain of the generating function."""


def _require_nonergodic(beta: float) -> None:
    if not beta < 0.0:
        raise MgfDomainError(f"generating functions need beta < 0, got {beta!r}")


def _slog(value: float) -> SignedLog:
    if value == 0.0:
        return (0.0, -math.inf)
    return (math.copysign(1.0, value), math.log(abs(value)))


def _slog_scale(term: SignedLog, log_factor: float) -> SignedLog:
    sign, log_abs = term
    if sign == 0.0:
        return term
    return (sign, log_abs + log_factor)


def _slog_sum(terms: list[SignedLog]) -> SignedLog:
    live = [t for t in terms if t[0] != 0.0]
    if not live:
        return (0.0, -math.inf)
    top = max(log_abs for _, log_abs in live)
    total = math.fsum(sign * math.exp(log_abs - top) for sign, log_abs in live)
    if total == 0.0:
        return (0.0, -math.inf)
    return (math.copysign(1.0, total), top + math.log(abs(total)))


@dataclass(frozen=True)
class Mgf1Input:
    """Arguments of the (S_T, I_T) generating function."""

    xi1: float
    xi2: float
    params: ModelParams
    horizon: float

    def __post_init__(self) -> None:
        _require_nonergodic(self.params.beta)
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon!r}")


@dataclass(frozen=True)
class Mgf1Parts:
    """Scaled building blocks of m1: D and A1..A4 as (sign, log) pairs."""

    D: SignedLog
    A1: SignedLog
    A2: SignedLog
    A3: SignedLog
    A4: SignedLog
    c: tuple[float, float, float, float, float, float]
    lam_star: float
    rho: float

    def __post_init__(self) -> None:
        c1, c2, c3, c4, c5, c6 = self.c
        if not c3 > 0.0:
            raise ValueError("c3 must be positive")
        if c2 < 0.0 or c5 < 0.0 or c6 < 0.0:
            raise ValueError("squared-offset coefficients must be nonnegative")


def _bessel_logs(hurst: float, x: float) -> dict[float, float]:
    orders = (-hurst, hurst - 1.0, 1.0 - hurst, hurst)
    return {nu: log_bessel_i(nu, x) for nu in orders}


def _logaddexp(a: float, b: float) -> float:
    top = max(a, b)
    return top + math.log(math.exp(a - top) + math.exp(b - top))


def _d_signed_log(xi2: float, params: ModelParams, horizon: float) -> SignedLog:
    beta = params.beta
    hurst = params.hurst
    _require_nonergodic(beta)
    t_len = horizon
    lb = _bessel_logs(hurst, -beta * t_len / 2.0)
    log_pair = _logaddexp(
        lb[-hurst] + lb[hurst - 1.0],
        lb[1.0 - hurst] + lb[hurst],
    )
    u = 1.0 - xi2 / (2.0 * beta)
    terms = [
        _slog(u * u),
        _slog_scale(_slog(xi2 * xi2), -math.log(4.0 * beta * beta) - 2.0 * beta * t_len),
        _slog_scale(
            _slog(xi2 / beta * u),
            math.log(-beta * math.pi * t_len / (4.0 * math.sin(math.pi * hurst)))
            - beta * t_len
            + log_pair,
        ),
    ]
    return _slog_sum(terms)


def mgf1_D(xi2: float, params: ModelParams, horizon: float) -> float:
    """The gate quantity of m1's domain; its sign is the information."""
    sign, log_abs = _d_signed_log(xi2, params, horizon)
    if sign == 0.0:
        return 0.0
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


def mgf1_parts(inp: Mgf1Input) -> Mgf1Parts:
    """All scaled building blocks of m1 at one argument.

    The start level folds into the linear argument: the A-terms are
    evaluated at xi1 + xi2 x0 / gamma.  Joint tilts of the level process
    act on S_T only through that combination, because I_T contributes
    x0/gamma times its own S_T-linear part.
    """
    params = inp.params
    beta = params.beta
    hurst = params.hurst
    t_len = inp.horizon
    xi2 = inp.xi2
    xi1 = inp.xi1 + xi2 * params.x0 / params.gamma
    c = _coefficients(params)
    c1, c2, c3, c4, c5, c6 = c
    kc = constants(hurst, params.gamma)
    lb = _bessel_logs(hurst, -beta * t_len / 2.0)
    log_mb = math.log(-beta)
    log_t = math.log(t_len)

    log_part_1 = (hurst - 1.0) * log_mb + (1.0 - hurst) * log_t - 1.5 * beta * t_len + lb[1.0 - hurst]
    log_part_2 = (2.0 - 2.0 * hurst) * log_t - beta * t_len + lb[1.0 - hurst] + lb[hurst - 1.0]
    log_part_3 = (2.0 * hurst - 1.0) * log_mb + log_t - beta * t_len + lb[1.0 - hurst] + lb[-hurst]
    log_part_4 = (hurst - 1.0) * log_mb + (1.0 - hurst) * log_t - 0.5 * beta * t_len + lb[1.0 - hurst]

    a1 = _slog_scale(_slog(xi2 * (c1 * xi1 - c2 * xi2)), log_part_1)
    a2 = _slog_scale(_slog(xi1**2 * c3 - xi1 * xi2 * c4 + xi2**2 * c5), log_part_2)
    a3 = _slog_scale(_slog(xi2 * (xi2 - 2.0 * beta) * c6), log_part_3)
    a4 = _slog_scale(_slog((c1 * xi1 - c2 * xi2) * (xi2 - 2.0 * beta)), log_part_4)

    return Mgf1Parts(
        D=_d_signed_log(xi2, params, t_len),
        A1=a1,
        A2=a2,
        A3=a3,
        A4=a4,
        c=c,
        lam_star=kc.lam_star,
        rho=kc.rho,
    )


def mgf1_log(inp: Mgf1Input) -> float:
    """log E exp(xi1 S_T + xi2 I_T) on the domain D > 0."""
    parts = mgf1_parts(inp)
    sign_d, log_d = parts.D
    if not sign_d > 0.0:
        raise MgfDomainError(f"argument outside the domain: D sign {sign_d:+.0f}")
    sign_a, log_a = _slog_sum([parts.A1, parts.A2, parts.A3, parts.A4])
    correction = 0.0
    if sign_a != 0.0:
        correction = sign_a * math.exp(log_a - _LOG_EIGHT - log_d)
    return -0.5 * log_d + correction - inp.xi2 * inp.horizon / 2.0


@dataclass(frozen=True)
class Mgf2Input:
    """Arguments of the (S_T, I_T, J_T, K_T) generating function."""

    theta1: float
    theta2: float
    theta3: float
    theta4: float

    def derived_drift(self, params: ModelParams) -> tuple[float, float]:
        """(alpha1, beta1): the equivalent drift absorbing theta3, theta4."""
        _require_nonergodic(params.beta)
        disc = params.beta**2 - 2.0 * self.theta4
        if not disc > 0.0:
            raise MgfDomainError(f"theta4 = {self.theta4!r} is not below beta^2/2")
        root = math.sqrt(disc)
        alpha1 = -(params.gamma * self.theta3 + params.alpha * params.beta) / root
        return alpha1, -root


def mgf2_log(inp: Mgf2Input, params: ModelParams, horizon: float) -> float:
    """log E exp(theta . (S_T, I_T, J_T, K_T)) via the drift substitution."""
    alpha1, beta1 = inp.derived_drift(params)
    xi2 = inp.theta2 - params.beta + beta1
    # the stated domain gates D at the original drift; the substituted
    # evaluation gates it again at (alpha1, beta1)
    if not mgf1_D(xi2, params, horizon) > 0.0:
        raise MgfDomainError("argument outside the domain: D at the original drift")
    inner_params = ModelParams(
        alpha=alpha1,
        beta=beta1,
        gamma=params.gamma,
        hurst=params.hurst,
        x0=params.x0,
    )
    inner = Mgf1Input(
        xi1=inp.theta1 + (params.alpha - alpha1) / params.gamma,
        xi2=xi2,
        params=inner_params,
        horizon=horizon,
    )
    w_t = constants(params.hurst, params.gamma).w(horizon)
    return mgf1_log(inner) + (alpha1**2 - params.alpha**2) * w_t / (2.0 * params.gamma**2)


def mgf_product_bivariate(t: float, m1: float, m2: float, s1: float, s2: float, r: float) -> float:
    """E exp(t X Y) for jointly normal X, Y with means m1, m2, spreads
    s1, s2 and correlation r."""
    if not (s1 >= 0.0 and s2 >= 0.0):
        raise ValueError("spreads must be nonnegative")
    if not -1.0 <= r <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {r!r}")
    gate = (1.0 - (1.0 + r) * s1 * s2 * t) * (1.0 + (1.0 - r) * s1 * s2 * t)
    if not gate > 0.0:
        raise MgfDomainError(f"argument outside the domain: gate = {gate}")
    top = (m1**2 * s2**2 + m2**2 * s1**2 - 2.0 * r * m1 * m2 * s1 * s2) * t**2 + 2.0 * m1 * m2 * t
    return gate**-0.5 * math.exp(top / (2.0 * gate))


def mgf_quadratic_pair(theta1: float, theta2: float, m: float, sigma: float) -> float:
    """E exp(theta1 X Y + theta2 X^2), X ~ N(m, sigma^2), Y ~ N(0,1) indep."""
    if not sigma >= 0.0:
        raise ValueError("sigma must be nonnegative")
    load = theta1**2 + 2.0 * theta2
    gate = 1.0 - sigma**2 * load
    if not gate > 0.0:
        raise MgfDomainError(f"argument outside the domain: gate = {gate}")
    return gate**-0.5 * math.exp(m**2 * load / (2.0 * gate))


def mgf1_domain_boundary(
    params: ModelParams,
    horizon: float,
    xi2_cap: float = 64.0,
    tol: float = 1e-10,
) -> float:
    """Smallest xi2 > 0 where D crosses zero, by scan plus bisection.

    Returns inf when D stays positive up to xi2_cap.  No claim is made
    about the shape of the domain beyond this first crossing.
    """
    _require_nonergodic(params.beta)

    def d_sign(xi2: float) -> float:
        return _d_signed_log(xi2, params, horizon)[0]

    if d_sign(0.0) <= 0.0:
        raise RuntimeError("D(0) must be 1; scaled assembly is inconsistent")
    lo = 0.0
    hi = None
    steps = 4096
    for k in range(1, steps + 1):
        probe = xi2_cap * k / steps
        if d_sign(probe) <= 0.0:
            hi = probe
            break
        lo = probe
    if hi is None:
        return math.inf
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if d_sign(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
