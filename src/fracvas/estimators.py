"""Drift MLEs and noise-parameter recovery.

All drift estimators are algebraic functions of the sufficient statistics
(S, I, J, K, w) in the SufficientStats record of PanelEngine.statistics,
so the same closed forms serve one path (float fields) or a block of paths
(array fields, one entry per path; a degenerate or non-finite entry
anywhere raises for the block).  They return plain values, as tuples for
the two joint forms:

    joint:      alpha_hat = gamma (S K - I J) / (w K - J^2)
                beta_hat  = (S J - w I) / (w K - J^2)
    known beta: alpha_tilde = (gamma / w) (S + beta J)
    known alpha: beta_tilde = ((alpha / gamma) J - I) / K
    mean-level form: mu_hat = gamma (S K - I J) / (S J - w I), kappa_hat = beta_hat

which maximize the log-likelihood ratio against the zero-drift measure,

    (alpha/gamma) S - beta I - alpha^2 w / (2 gamma^2)
        + (alpha beta / gamma) J - beta^2 K / 2.

The noise scale is recovered without the drift parameters: the transformed
process Z is a Gaussian martingale with bracket gamma^2 w(t), so the sum of
squared panel increments of Z divided by w(T) converges to gamma^2.  The
roughness index is recovered from the dyadic ratio of second-difference
variations, which annihilate the smooth drift to first order.
"""

from __future__ import annotations

import math

import numpy as np

from .transforms import SufficientStats, quadratic_variation, shared_engine

_MIN_RECOVERY_N = 4096


class DegenerateStatsError(ValueError):
    """Estimator denominator vanished; the path is constant or degenerate."""


def _finite(name: str, value):
    """`value`, after checking that every entry of it is finite."""
    if not np.all(np.isfinite(value)):
        raise DegenerateStatsError(f"{name} is not finite; the statistics overflow it")
    return value


def _joint_denominator(stats: SufficientStats) -> float | np.ndarray:
    # J * J, not J**2: a Python float power goes through libm pow, which can
    # differ from the array square in the last bit
    denom = stats.w * stats.K - stats.J * stats.J
    if not np.all(denom > 0.0):
        raise DegenerateStatsError(
            f"w K - J^2 reaches {np.min(denom)}; path carries no slope information"
        )
    return denom


def mle_joint(stats: SufficientStats, gamma: float) -> tuple:
    """Joint MLE (alpha_hat, beta_hat) of the level and reversion parameters."""
    denom = _joint_denominator(stats)
    alpha_hat = gamma * (stats.S * stats.K - stats.I * stats.J) / denom
    beta_hat = (stats.S * stats.J - stats.w * stats.I) / denom
    return _finite("alpha_hat", alpha_hat), _finite("beta_hat", beta_hat)


def mle_alpha(stats: SufficientStats, gamma: float, beta_known: float) -> float | np.ndarray:
    """MLE of the level parameter when the reversion parameter is known."""
    return _finite("alpha_tilde", gamma / stats.w * (stats.S + beta_known * stats.J))


def mle_beta(stats: SufficientStats, gamma: float, alpha_known: float) -> float | np.ndarray:
    """MLE of the reversion parameter when the level parameter is known."""
    if not np.all(stats.K > 0.0):
        raise DegenerateStatsError("K = 0; path carries no slope information")
    return _finite("beta_tilde", (alpha_known / gamma * stats.J - stats.I) / stats.K)


def mle_mu_kappa(stats: SufficientStats, gamma: float) -> tuple:
    """Joint MLE (mu_hat, kappa_hat) in the mean-level, reversion-speed form.

    Identical to mle_joint up to the reparameterization mu = alpha/beta,
    kappa = beta; kept as its own closed form so the identity is testable.
    """
    denom = _joint_denominator(stats)
    mu_denom = stats.S * stats.J - stats.w * stats.I
    if np.any(mu_denom == 0.0):
        raise DegenerateStatsError("S J - w I = 0; mean level is unidentified")
    mu_hat = gamma * (stats.S * stats.K - stats.I * stats.J) / mu_denom
    return _finite("mu_hat", mu_hat), _finite("kappa_hat", mu_denom / denom)


def _path_arrays(path) -> tuple[np.ndarray, object]:
    values = getattr(path, "values", None)
    grid = getattr(path, "grid", None)
    if values is None or grid is None:
        raise TypeError("expected a sampled path with .grid and .values")
    return np.asarray(values, dtype=float), grid


def estimate_gamma(path, hurst: float) -> float:
    """Recover the noise scale from the quadratic variation of Z.

    Z is the kernel transform of the path (gamma times the S panel); its
    squared increments over any refining partition sum to gamma^2 w(T),
    unbiased at any partition since Z has independent Gaussian increments.
    Z alone (no F, P, I or K) comes from one `PanelEngine.transform` on the
    engine the drift statistics use, `shared_engine(grid.n, hurst)`, and
    `quadratic_variation` applies the partition `statistics` uses; w(T)
    comes from the engine's kernel constants.
    """
    values, grid = _path_arrays(path)
    if grid.n < _MIN_RECOVERY_N:
        raise ValueError(f"noise recovery needs n >= {_MIN_RECOVERY_N}, got {grid.n}")
    engine = shared_engine(grid.n, hurst)
    z = np.pad(engine.transform(np.diff(values)[None, :], grid), ((0, 0), (1, 0)))
    variation = float(quadratic_variation(z)[0])
    if not variation > 0.0:
        raise DegenerateStatsError("flat path: zero quadratic variation")
    return math.sqrt(variation / float(engine.kc.w(grid.horizon)))


def _second_difference(v: np.ndarray) -> np.ndarray:
    """v[2:] - 2 v[1:-1] + v[:-2], formed in one buffer."""
    d = np.multiply(v[1:-1], 2.0)
    np.subtract(v[2:], d, out=d)
    d += v[:-2]
    return d


def estimate_hurst(path) -> float:
    """Recover the roughness index from dyadic second-difference variations.

    V at the full resolution scales like n^(1-2H) times the squared mesh
    to the 2H, so halving the resolution multiplies V by 2^(2H-1) and
    H = 1/2 - log2(V_fine / V_coarse) / 2.
    """
    values, grid = _path_arrays(path)
    if grid.n < _MIN_RECOVERY_N:
        raise ValueError(f"roughness recovery needs n >= {_MIN_RECOVERY_N}, got {grid.n}")
    if grid.n % 2:
        raise ValueError("roughness recovery needs an even n")
    d_fine = _second_difference(values)
    d_coarse = _second_difference(values[::2])
    v_fine = float(d_fine @ d_fine)
    v_coarse = float(d_coarse @ d_coarse)
    if not (v_fine > 0.0 and v_coarse > 0.0):
        raise DegenerateStatsError("flat path: zero second-difference variation")
    hurst = 0.5 - 0.5 * math.log2(v_fine / v_coarse)
    if not 0.0 < hurst < 1.0:
        raise DegenerateStatsError(f"second-difference ratio gives H = {hurst:.3f}, outside (0, 1)")
    return hurst
