"""Reference implementations that tests check fracvas against.

No experiment, CLI path or library entry point reaches these: each is an
independent oracle for code the package computes another way (the dense
Gaussian fBm sampler, the Euler scheme, the inverse kernel transform, the
limit-law samplers, the Bessel functions in linear scale, ...), or a
search that only tests need (the first edge of m1's domain).  Tests
import this module the way they import _anchors.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft
from scipy.optimize import bisect
from scipy.special import iv, ive, roots_jacobi

from fracvas.fbm import FbmPath, SampleGrid, _check_hurst
from fracvas.limits import (
    NormalLaw,
    RatioLaw,
    ScaledChiSquareLaw,
    ZetaLaw,
    _require_nonergodic,
    zeta_law,
)
from fracvas.mgf import MgfDomainError, _log_d
from fracvas.model import ModelParams, VasicekPath, _resolve_driver
from fracvas.transforms import (
    _DEFAULT_STRIDE,
    PanelEngine,
    SufficientStats,
    _check_transform_hurst,
    constants,
)

_ORACLE_MAX_CELLS = 2048
_SCAN_STEPS = 4096
_BOUNDARY_RTOL = 1e-10


def loglik(alpha: float, beta: float, stats: SufficientStats, gamma: float) -> float:
    """Log density ratio of the (alpha, beta) drift against zero drift."""
    return (
        alpha / gamma * stats.S
        - beta * stats.I
        - alpha**2 / (2.0 * gamma**2) * stats.w
        + alpha * beta / gamma * stats.J
        - beta**2 / 2.0 * stats.K
    )


def fbm_cov(s: float, t: float, hurst: float) -> float:
    """Cov(B^H_s, B^H_t) = (s^2H + t^2H - |t-s|^2H) / 2."""
    _check_hurst(hurst)
    if s < 0.0 or t < 0.0:
        raise ValueError("times must be nonnegative")
    h2 = 2.0 * hurst
    return 0.5 * (s**h2 + t**h2 - abs(t - s) ** h2)


def exact_gaussian_oracle(hurst: float, grid: SampleGrid, seed: int) -> FbmPath:
    """Dense covariance square-root sampler; test oracle, n <= 2048 only."""
    _check_hurst(hurst)
    if grid.n > _ORACLE_MAX_CELLS:
        raise ValueError(f"oracle limited to n <= {_ORACLE_MAX_CELLS}")
    t = grid.times()[1:]
    h2 = 2.0 * hurst
    s_col = t[:, None]
    t_row = t[None, :]
    cov = 0.5 * (s_col**h2 + t_row**h2 - np.abs(t_row - s_col) ** h2)
    root = np.linalg.cholesky(cov)
    rng = np.random.default_rng(seed)
    values = np.empty(grid.n + 1)
    values[0] = 0.0
    values[1:] = root @ rng.standard_normal(grid.n)
    return FbmPath(grid=grid, hurst=hurst, values=values)


@dataclass(frozen=True)
class VectorLimit:
    """Joint limit (xi, eta*zeta, zeta^2) with xi, eta, zeta independent.

    The middle component given zeta is N(0, zeta^2) by construction.
    """

    xi: NormalLaw
    zeta: ZetaLaw


def law_xi_limit(params: ModelParams) -> NormalLaw:
    """Limit (exact at every horizon) of T^(H-1) times the core martingale."""
    _require_nonergodic(params.beta, "beta")
    kc = constants(params.hurst, params.gamma)
    return NormalLaw(mean=0.0, variance=1.0 / kc.lam)


def vector_limit(params: ModelParams) -> VectorLimit:
    return VectorLimit(xi=law_xi_limit(params), zeta=zeta_law(params))


def sample_limit(law, seed: int, count: int) -> np.ndarray:
    """i.i.d. draws from any of the limit laws, deterministic in (seed, count).

    VectorLimit returns shape (count, 3) with columns (xi, eta zeta,
    zeta^2); everything else returns shape (count,).  Component draws use
    a fixed order, so a given seed always yields the same sample.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count!r}")
    rng = np.random.default_rng(np.random.SeedSequence([0x4C494D, int(seed)]))
    if isinstance(law, (NormalLaw, ZetaLaw)):
        return law.mean + law.std * rng.standard_normal(count)
    if isinstance(law, RatioLaw):
        eta = rng.standard_normal(count)
        zeta = law.zeta.mean + law.zeta.std * rng.standard_normal(count)
        return eta / zeta
    if isinstance(law, ScaledChiSquareLaw):
        zeta = law.zeta.mean + law.zeta.std * rng.standard_normal(count)
        return law.scale * zeta**2
    if isinstance(law, VectorLimit):
        xi = law.xi.mean + law.xi.std * rng.standard_normal(count)
        eta = rng.standard_normal(count)
        zeta = law.zeta.mean + law.zeta.std * rng.standard_normal(count)
        return np.column_stack([xi, eta * zeta, zeta**2])
    raise TypeError(f"no sampler for {type(law).__name__}")


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


def mgf1_domain_boundary(params: ModelParams, horizon: float, xi2_cap: float = 64.0) -> float:
    """Smallest xi2 > 0 where mgf1's gate D crosses zero, to relative
    accuracy _BOUNDARY_RTOL.

    A scan of (0, xi2_cap] finds the first cell where the sign of D
    changes, and bisection on that sign narrows the cell.  Returns inf
    when D stays positive up to xi2_cap.  No claim is made about the
    shape of the domain beyond this first crossing.
    """
    probes = xi2_cap * np.arange(1, _SCAN_STEPS + 1) / _SCAN_STEPS
    outside = np.flatnonzero(_log_d(probes, params, horizon)[1] <= 0.0)
    if outside.size == 0:
        return math.inf
    k = outside[0]
    lo = probes[k - 1] if k > 0 else 0.0  # D(0) = 1
    # halving from the cell width to the relative tolerance can take far
    # more than bisect's default 100 steps when the boundary is tiny
    return bisect(lambda xi2: _log_d(xi2, params, horizon)[1], lo, probes[k],
                  xtol=sys.float_info.min, rtol=_BOUNDARY_RTOL, maxiter=1100)


def simulate_euler(
    params: ModelParams,
    grid: SampleGrid,
    seed: int | None = None,
    driver: FbmPath | None = None,
) -> VasicekPath:
    """Euler scheme on the same driver; test oracle with O(dt) strong error."""
    noise, used_seed = _resolve_driver(params, grid, seed, driver)
    dt = grid.dt
    dnoise = np.diff(noise)
    values = np.empty(grid.n + 1)
    values[0] = params.x0
    x = params.x0
    drift_const = params.alpha * dt
    decay_step = 1.0 - params.beta * dt
    for i in range(grid.n):
        x = x * decay_step + drift_const + params.gamma * dnoise[i]
        values[i + 1] = x
    return VasicekPath(grid=grid, params=params, values=values, driver_seed=used_seed)


def exact_solution_formula(params: ModelParams, grid: SampleGrid, noise: np.ndarray) -> np.ndarray:
    """The explicit solution of fracvas.model as one plain expression, one
    temporary per operation; simulate_exact evaluates it in place."""
    beta = params.beta
    t = grid.times()
    with np.errstate(over="ignore", invalid="ignore"):
        decay = np.exp(-beta * t)
        y = np.exp(beta * t) * noise
        g = np.concatenate([[0.0], np.cumsum(grid.dt * (y[1:] + y[:-1]) / 2.0)])
        convolution = noise - beta * decay * g
        return params.x0 * decay + params.mean_level * (1.0 - decay) + params.gamma * convolution


def phase_transform(engine: PanelEngine, cells: np.ndarray, grid: SampleGrid) -> np.ndarray:
    """PanelEngine.transform as plain per-phase arithmetic: each phase's
    strided cells times its m_pow slice, zero-padded by the rfft's own n,
    times its tap spectrum, summed, one irfft, the end-cell fixes and the
    dt^(1-2H)/kappa scale; the engine reuses one padded buffer instead."""
    spectrum = 0.0
    for r, taps in enumerate(engine._phase_spectra):
        phase = cells[:, r :: engine.stride] * engine._m_pow[r :: engine.stride]
        spectrum = spectrum + sfft.rfft(phase, engine._fft_len, axis=1) * taps
    out = sfft.irfft(spectrum, engine._fft_len, axis=1)[:, 1 : engine.n_inner + 1]
    out = out + engine._first_fix * cells[:, :1]
    out = out + engine._last_fix * cells[:, engine._last]
    return out * (grid.dt ** (1.0 - 2.0 * engine.hurst) / engine.kc.kappa)


def _check(nu: float, x: float, name: str) -> None:
    if not nu > -1.0:
        raise ValueError(f"Bessel order must be > -1, got {nu!r}")
    if not x >= 0.0:
        raise ValueError(f"{name} needs x >= 0, got {x!r}")


def bessel_i(nu: float, x: float) -> float:
    """Modified Bessel function of the first kind I_nu(x), x >= 0, nu > -1."""
    _check(nu, x, "bessel_i")
    return float(iv(nu, x))


def bessel_i_scaled(nu: float, x: float) -> float:
    """exp(-x) I_nu(x): the overflow-safe evaluation, primary over bessel_i."""
    _check(nu, x, "bessel_i_scaled")
    # ive gives nan at x = 0 for negative order, where exp(-0) I_nu(0) = inf.
    return float(ive(nu, x) if x > 0.0 else iv(nu, x))


def bessel_ratio_even(nu: float, x: float) -> float:
    """I_nu(|x|) / |x|^nu, an even function of x, finite at 0 (limit 2^-nu / Gamma(1+nu))."""
    ax = abs(x)
    _check(nu, ax, "bessel_ratio_even")
    if ax == 0.0:
        return math.exp(-nu * math.log(2.0) - math.lgamma(1.0 + nu))
    return math.exp(math.log(ive(nu, ax)) + ax - nu * math.log(ax))


class QuadratureConvergenceError(RuntimeError):
    """Statistics moved by more than the gate under grid refinement."""


def kernel_k(t: float, s: float, hurst: float) -> float:
    """k(t,s) = kappa^{-1} s^{1/2-H} (t-s)^{1/2-H} on 0 < s < t."""
    _check_transform_hurst(hurst)
    if not 0.0 < s < t:
        raise ValueError(f"kernel_k needs 0 < s < t, got s={s!r}, t={t!r}")
    a = 0.5 - hurst
    kc = constants(hurst, 1.0)
    return s**a * (t - s) ** a / kc.kappa


def martingale_M(stats: SufficientStats, params: ModelParams) -> float:
    """M_T = S_T + beta J_T - (alpha/gamma) w_T, exactly N(0, w_T) in law."""
    return stats.S + params.beta * stats.J - (params.alpha / params.gamma) * stats.w


def refinement_check(
    path: VasicekPath, stride: int = _DEFAULT_STRIDE, rtol: float = 0.01
) -> dict[str, float]:
    """Relative movement of the statistics when the inner grid is doubled.

    Raises QuadratureConvergenceError when any gap exceeds rtol.  S and J are
    insensitive to the stride by construction, so the informative gaps are in
    I and K (P-differencing resolution).
    """
    if stride % 2 != 0:
        raise ValueError("stride must be even to allow halving")
    params = path.params
    grid, hurst = path.grid, params.hurst
    coarse = PanelEngine(grid.n, hurst, stride).statistics(path.values, grid, params.gamma)
    fine = PanelEngine(grid.n, hurst, stride // 2).statistics(path.values, grid, params.gamma)
    gaps = {}
    for name in ("S", "I", "J", "K"):
        c, f = float(getattr(coarse, name)[0]), float(getattr(fine, name)[0])
        gaps[name] = abs(f - c) / max(abs(f), abs(c), 1e-12)
    if max(gaps.values()) > rtol:
        raise QuadratureConvergenceError(f"quadrature not converged: {gaps}")
    return gaps


def _jacobi_rule_01(n: int, left_exp: float, right_exp: float):
    """Nodes/weights for int_0^1 u^left (1-u)^right f(u) du."""
    x, w = roots_jacobi(n, right_exp, left_exp)
    return 0.5 * (x + 1.0), w * 2.0 ** (-(left_exp + right_exp + 1.0))


def reconstruct_X(
    times: np.ndarray,
    s_values: np.ndarray,
    params: ModelParams,
    out_indices: np.ndarray | None = None,
    inner_nodes: int = 16,
) -> tuple[np.ndarray, np.ndarray]:
    """Invert the transform: X_t = int_0^t K(t,s) dS_s for the model kernel

    K(t,s) = gamma H (2H-1) int_s^t r^{H-1/2} (r-s)^{H-3/2} dr,

    with the inner integral done by Gauss-Jacobi in the (r-s)^{H-3/2} weight
    and the outer dS integral as a midpoint Riemann-Stieltjes sum over the
    panel cells.  `times` and `s_values` are an S panel (for example every
    stride-th grid time and Z / gamma from `raw_panels`), which must be
    fine (stride 1..4).  Returns (times, values) at the requested panel
    indices (default: every panel node past the first eighth, where the dS
    history is long enough to resolve).
    """
    hurst = params.hurst
    gamma = params.gamma
    if not 0.5 < hurst < 1.0:
        raise ValueError("reconstruction needs H in (1/2, 1)")
    ds = np.diff(s_values)
    mids = 0.5 * (times[1:] + times[:-1])
    m = len(ds)
    if out_indices is None:
        step = max(1, m // 64)
        out_indices = np.arange(max(m // 8, 1), m + 1, step)
    v, wt = _jacobi_rule_01(inner_nodes, hurst - 1.5, 0.0)
    front = gamma * hurst * (2.0 * hurst - 1.0)
    out_t = times[out_indices]
    out_x = np.empty(len(out_indices))
    for pos, q in enumerate(out_indices):
        t = times[q]
        s = mids[:q]
        gap = t - s
        # inner integral: (t-s)^{H-1/2} * sum wt * (s + gap*v)^{H-1/2}
        nodes = s[:, None] + gap[:, None] * v[None, :]
        inner = (nodes ** (hurst - 0.5)) @ wt
        kvals = front * gap ** (hurst - 0.5) * inner
        out_x[pos] = kvals @ ds[:q]
    return out_t, out_x
