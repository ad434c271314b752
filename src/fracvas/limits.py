"""Long-horizon limit laws of the drift estimators and path statistics.

All laws live on the non-ergodic branch beta < 0, where the level process
grows like e^{-beta T} and the estimator errors normalize to products and
ratios of three independent building blocks: a standard normal eta, a
normal zeta whose mean carries the start-level offset, and an independent
normal xi from the martingale itself.  Ratio laws are heavy-tailed, so
everything here is compared through CDFs and quantiles, never moments.
Every CDF is vectorized and closed form: the ratio law through Owen's T
(scipy.special.owens_t), the others through the normal CDF
(scipy.special.ndtr).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, owens_t

from .model import ModelParams
from .specfun import log_gamma
from .transforms import constants


def _require_nonergodic(value: float, name: str) -> None:
    if not value < 0.0:
        raise ValueError(f"limit laws need {name} < 0, got {value!r}")


@dataclass(frozen=True)
class NormalLaw:
    mean: float
    variance: float

    def __post_init__(self) -> None:
        if not self.variance >= 0.0:
            raise ValueError(f"variance must be nonnegative, got {self.variance!r}")

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def cdf(self, x) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        if self.variance == 0.0:
            return np.heaviside(x - self.mean, 1.0)  # point mass at the mean
        return ndtr((x - self.mean) / self.std)


@dataclass(frozen=True)
class ZetaLaw(NormalLaw):
    """Normal denominator block, refused unless its variance is positive;
    its mean carries the start-level offset."""

    def __post_init__(self) -> None:
        if not self.variance > 0.0:
            raise ValueError(f"variance must be positive, got {self.variance!r}")


@dataclass(frozen=True)
class RatioLaw:
    """eta / zeta with eta standard normal independent of zeta.

    Heavy-tailed (Cauchy-type when zeta is centered): no moments exist,
    so the law is exposed through its cdf only.
    """

    zeta: ZetaLaw

    def cdf(self, z) -> np.ndarray | float:
        return ratio_cdf(z, self)


@dataclass(frozen=True)
class ScaledChiSquareLaw:
    """Law of scale * zeta^2 for a positive scale factor."""

    scale: float
    zeta: ZetaLaw

    def __post_init__(self) -> None:
        if not self.scale > 0.0:
            raise ValueError(f"scale must be positive, got {self.scale!r}")

    def cdf(self, y) -> np.ndarray | float:
        y = np.asarray(y, dtype=float)
        root = np.sqrt(np.maximum(y / self.scale, 0.0))
        m, s = self.zeta.mean, self.zeta.std
        out = ndtr((root - m) / s) - ndtr((-root - m) / s)
        return np.where(y > 0.0, out, 0.0)[()]


def zeta_law(params: ModelParams) -> ZetaLaw:
    _require_nonergodic(params.beta, "beta")
    kc = constants(params.hurst, params.gamma)
    offset = params.x0 - params.mean_level
    mean = (
        offset
        * kc.rho
        * math.sqrt(kc.lam_star)
        * (-params.beta) ** (params.hurst - 1.0)
        / math.sqrt(2.0 * math.pi)
    )
    variance = 1.0 / (4.0 * params.beta**2 * math.sin(math.pi * params.hurst))
    return ZetaLaw(mean=mean, variance=variance)


def law_S_limit(params: ModelParams) -> NormalLaw:
    """Limit of T^(H-1/2) e^(beta T) S_T."""
    _require_nonergodic(params.beta, "beta")
    kc = constants(params.hurst, params.gamma)
    offset = params.x0 - params.mean_level
    hurst = params.hurst
    mean = offset * kc.rho * (-params.beta) ** (hurst - 0.5) / math.sqrt(math.pi)
    variance = math.exp(log_gamma(hurst) + log_gamma(1.0 - hurst)) / (
        2.0 * math.pi * (-params.beta) * kc.lam_star
    )
    return NormalLaw(mean=mean, variance=variance)


def law_J_limit(params: ModelParams) -> NormalLaw:
    """Limit stated for T^(H-1/2) e^(beta T) J_T, constants as displayed.

    These constants are internally inconsistent with law_S_limit under the
    exact relation -beta J_T = S_T - (S_T + beta J_T) (the subtracted term
    vanishes under this normalization): they are 8x in mean and 4x in
    variance relative to the law that identity implies.  Kept as stated;
    law_J_limit_identity exposes the identity-derived alternative and the
    limit-check harness reports goodness of fit against both.
    """
    _require_nonergodic(params.beta, "beta")
    kc = constants(params.hurst, params.gamma)
    offset = params.x0 - params.mean_level
    hurst = params.hurst
    mean = 8.0 * offset * kc.rho * (-params.beta) ** (hurst - 1.5) / math.sqrt(math.pi)
    variance = 4.0 * math.exp(log_gamma(hurst) + log_gamma(1.0 - hurst)) / (
        kc.lam_star * (-params.beta) ** 3 * math.pi
    )
    return NormalLaw(mean=mean, variance=variance)


def law_J_limit_identity(params: ModelParams) -> NormalLaw:
    """J-limit implied by law_S_limit through -beta J = S + o(1)."""
    s_lim = law_S_limit(params)
    return NormalLaw(mean=s_lim.mean / (-params.beta), variance=s_lim.variance / params.beta**2)


def law_I_limit(params: ModelParams) -> ScaledChiSquareLaw:
    """Limit of e^(2 beta T) I_T: the scaled square (-beta) zeta^2."""
    _require_nonergodic(params.beta, "beta")
    return ScaledChiSquareLaw(scale=-params.beta, zeta=zeta_law(params))


def law_alpha_limit(params: ModelParams) -> NormalLaw:
    """Limit of T^(1-H) (alpha_hat - alpha): centered normal."""
    _require_nonergodic(params.beta, "beta")
    kc = constants(params.hurst, params.gamma)
    return NormalLaw(mean=0.0, variance=kc.lam * params.gamma**2)


def law_beta_limit(params: ModelParams) -> RatioLaw:
    """Limit of e^(-beta T) (beta_hat - beta): the ratio eta / zeta."""
    return RatioLaw(zeta=zeta_law(params))


def special_case_ratio(hurst: float) -> RatioLaw:
    """Ratio law of X sqrt(sin pi H) / Y for independent standard normals.

    Arises as the limit of e^(-beta T)/(2 beta) (beta_hat - beta) when the
    start level sits exactly at the long-run mean: zeta centers and only
    its variance survives.  X sqrt(sin pi H)/Y = eta/zeta' with zeta' a
    centered normal of variance 1/sin(pi H).
    """
    if not 0.5 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (1/2, 1), got {hurst!r}")
    return RatioLaw(zeta=ZetaLaw(mean=0.0, variance=1.0 / math.sin(math.pi * hurst)))


def law_mu_kappa_limit(params: ModelParams) -> tuple[NormalLaw, RatioLaw]:
    """Limits for the level/speed parameterization (mu, kappa) = (alpha/beta, beta).

    The level estimate inherits the alpha fluctuation scaled by the speed;
    the speed estimate has the same ratio limit as beta_hat.
    """
    kappa = params.beta
    _require_nonergodic(kappa, "kappa")
    kc = constants(params.hurst, params.gamma)
    mu_law = NormalLaw(mean=0.0, variance=kc.lam * params.gamma**2 / kappa**2)
    return mu_law, RatioLaw(zeta=zeta_law(params))


def ratio_cdf(z, law: RatioLaw) -> np.ndarray | float:
    """P(eta / zeta <= z) in closed form (Hinkley 1969), vectorized over z.

    With zeta ~ N(m, s^2) the CDF is Phi(a) + Phi(-b) - 2 Phi_2(a, -b; r)
    for a = z m / sqrt(1 + z^2 s^2), b = m / s and r = -z s / sqrt(1 + z^2 s^2).
    Writing Phi_2 through Owen's T, one T term vanishes identically and the
    rest reduces to T(|a|, q) with q = 1 / (|z| s): the CDF is 1 - 2 T for
    z >= 0 and 2 T for z < 0.  At z = 0, T(0, inf) = 1/4 gives the median
    1/2; for m = 0, T(0, q) = atan(q) / (2 pi) gives the Cauchy law
    1/2 + atan(z s) / pi.
    """
    z = np.asarray(z, dtype=float)
    m, s = law.zeta.mean, law.zeta.std
    with np.errstate(divide="ignore"):
        q = 1.0 / (np.abs(z) * s)
    t = owens_t(abs(m) / s / np.hypot(1.0, q), q)
    return np.where(z >= 0.0, 1.0 - 2.0 * t, 2.0 * t)[()]
