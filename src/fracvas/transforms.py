"""Singular-kernel transforms of observed paths.

The whole estimation theory runs through the weighted transform

    S_t = (1/gamma) int_0^t k(t,s) dX_s,
    k(t,s) = kappa^{-1} s^{1/2-H} (t-s)^{1/2-H},

its ds-companion F_t = int_0^t k(t,s) X_s ds, the derivative process
P(t) = (1/gamma) dF/dw taken against the variance clock w(t) = t^{2-2H}/lambda,
and the horizon statistics

    J_T = F_T / gamma,      I_T = int_0^T P dS,      K_T = int_0^T P^2 dw.

Numerics: integrals against the path are Riemann-Stieltjes product sums on
the path cells, with one weight definition per (grid, H, stride) that
PanelEngine applies in one of two ways.  Interior cells use the kernel
midpoint value; the two endpoint cells of every output time, where k has
the integrable singularities s^{1/2-H} and (t-s)^{1/2-H}, use exact
Gauss-Jacobi cell integrals with those weights.  At H = 1/2 the scheme is
exact on the path's linear interpolant (kernel identically one).  dX
integrals consume path increments and ds integrals cell midpoint values.

P is computed by centered differences of F in the w clock on an inner grid
of every stride-th node (default n/16 points); panels start at the first
inner node and the value at T is one-sided.  The Ito sum for I uses
backward differences instead (see PanelEngine.statistics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft
from scipy.special import roots_jacobi

from .fbm import SampleGrid
from .model import ModelParams, VasicekPath
from .specfun import log_gamma

__all__ = [
    "KernelConstants",
    "SufficientStats",
    "PanelEngine",
    "QuadratureConvergenceError",
    "constants",
    "kernel_k",
    "shared_engine",
    "sufficient_stats",
    "martingale_M",
    "reconstruct_X",
    "refinement_check",
]

_DEFAULT_STRIDE = 16
_END_RULE_NODES = 8
_MAX_DENSE_CELLS = 5_000_000


class QuadratureConvergenceError(RuntimeError):
    """Statistics moved by more than the gate under grid refinement."""


def _check_transform_hurst(hurst: float) -> None:
    # Transforms are well defined at H = 1/2 (kernel == 1) and the identity
    # checks rely on it, so the left endpoint is allowed here.
    if not 0.5 <= hurst < 1.0:
        raise ValueError(f"hurst must lie in [1/2, 1), got {hurst!r}")


@dataclass(frozen=True)
class KernelConstants:
    """Normalizing constants of the kernel calculus for one (H, gamma)."""

    hurst: float
    gamma: float
    kappa: float
    lam: float
    lam_star: float
    rho: float

    def w(self, t) -> float | np.ndarray:
        """Variance clock w(t) = t^{2-2H} / lambda of the core martingale."""
        return np.asarray(t, dtype=float) ** (2.0 - 2.0 * self.hurst) / self.lam


def constants(hurst: float, gamma: float) -> KernelConstants:
    _check_transform_hurst(hurst)
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    g32h = math.exp(log_gamma(1.5 - hurst))
    gh12 = math.exp(log_gamma(hurst + 0.5))
    kappa = 2.0 * hurst * g32h * gh12
    lam = 2.0 * hurst * math.exp(log_gamma(3.0 - 2.0 * hurst)) * gh12 / g32h
    lam_star = lam / (2.0 - 2.0 * hurst)
    rho = math.sqrt(math.pi) * g32h / (gamma * kappa)
    return KernelConstants(
        hurst=hurst, gamma=gamma, kappa=kappa, lam=lam, lam_star=lam_star, rho=rho
    )


def kernel_k(t: float, s: float, hurst: float) -> float:
    """k(t,s) = kappa^{-1} s^{1/2-H} (t-s)^{1/2-H} on 0 < s < t."""
    _check_transform_hurst(hurst)
    if not 0.0 < s < t:
        raise ValueError(f"kernel_k needs 0 < s < t, got s={s!r}, t={t!r}")
    a = 0.5 - hurst
    kc = constants(hurst, 1.0)
    return s**a * (t - s) ** a / kc.kappa


def _jacobi_rule_01(n: int, left_exp: float, right_exp: float):
    """Nodes/weights for int_0^1 u^left (1-u)^right f(u) du."""
    x, w = roots_jacobi(n, right_exp, left_exp)
    return 0.5 * (x + 1.0), w * 2.0 ** (-(left_exp + right_exp + 1.0))


@dataclass(frozen=True)
class SufficientStats:
    """Horizon statistics feeding the drift estimators.

    S, I, J, K and w are floats for one path, or arrays with one entry per
    path for a block of replications (w may stay a float).
    """

    S: float | np.ndarray
    I: float | np.ndarray
    J: float | np.ndarray
    K: float | np.ndarray
    w: float | np.ndarray
    horizon: float
    hurst: float
    gamma: float

    def __post_init__(self) -> None:
        for name in ("S", "I", "J", "K", "w"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if not np.all(self.K >= 0.0):
            raise ValueError(f"K must be nonnegative, got {np.min(self.K)}")
        if not np.all(self.w > 0.0):
            raise ValueError(f"w must be positive, got {np.min(self.w)}")


class PanelEngine:
    """Kernel-weight quadrature for one (grid, H, stride), built once.

    Row j of the weights is output time t_j = j * stride * dt and holds the
    kernel on the path cells below it: the midpoint value m_pow[i] *
    m_pow[j*stride - 1 - i] / kappa with m_pow = mids^(1/2-H), corrected
    to the exact Gauss-Jacobi cell average on the row's first and last cell.
    One weight definition, two ways to apply it: a dense matrix when it is
    small, else an FFT convolution of the cells with m_pow (spectrum
    cached) plus the two corrections.  One engine serves a Monte Carlo loop.
    """

    def __init__(self, grid: SampleGrid, hurst: float, stride: int = _DEFAULT_STRIDE) -> None:
        _check_transform_hurst(hurst)
        if stride < 1 or grid.n % stride != 0:
            raise ValueError(f"stride must divide n={grid.n}, got {stride!r}")
        n = grid.n
        m = n // stride
        if m < 4:
            raise ValueError("inner grid needs at least 4 points")
        self.grid = grid
        self.hurst = hurst
        self.stride = stride
        self.n_inner = m
        self.kc = constants(hurst, 1.0)
        self.inner_times = grid.times()[::stride]  # includes t=0
        self.w_inner = self.kc.w(self.inner_times)

        a = 0.5 - hurst
        dt = grid.dt
        m_pow = ((np.arange(n) + 0.5) * dt) ** a
        last = np.arange(1, m + 1) * stride - 1
        # end cells: exact Gauss-Jacobi cell average minus the midpoint value
        v_l, wt_l = _jacobi_rule_01(_END_RULE_NODES, a, 0.0)
        v_r, wt_r = _jacobi_rule_01(_END_RULE_NODES, 0.0, a)
        t_col = self.inner_times[1:, None]
        mid = m_pow[0] * m_pow[last]
        first_fix = dt**a * ((t_col - dt * v_l[None, :]) ** a @ wt_l) - mid
        last_fix = dt**a * (((t_col - dt) + dt * v_r[None, :]) ** a @ wt_r) - mid
        if stride == 1:
            # single-cell row: both singular ends in one cell, exact Beta value
            b_exact = math.exp(2.0 * log_gamma(1.0 + a) - log_gamma(2.0 + 2.0 * a))
            first_fix[0] = dt ** (2.0 * a) * b_exact - mid[0]
            last_fix[0] = 0.0

        if m * n <= _MAX_DENSE_CELLS:
            # row j reads m_pow backwards from its last cell, zeros past it
            reversed_pad = np.concatenate([m_pow[::-1], np.zeros(n)])
            hankel = np.lib.stride_tricks.sliding_window_view(reversed_pad, n)
            weights = hankel[n - 1 - last]
            weights *= m_pow
            weights[:, 0] += first_fix
            weights[np.arange(m), last] += last_fix
            weights /= self.kc.kappa
            self._weights = weights
        else:
            self._weights = None
            self._m_pow = m_pow
            self._last = last
            self._first_fix = first_fix
            self._last_fix = last_fix
            self._fft_len = sfft.next_fast_len(2 * n - 1)
            self._kernel_spectrum = sfft.rfft(m_pow, self._fft_len)

    def _apply(self, cells: np.ndarray) -> np.ndarray:
        """Row sums of the weights against per-cell data, one row per path."""
        if self._weights is not None:
            return cells @ self._weights.T
        spectrum = sfft.rfft(cells * self._m_pow, self._fft_len, axis=1)
        spectrum *= self._kernel_spectrum
        out = sfft.irfft(spectrum, self._fft_len, axis=1)[:, self._last]
        out += self._first_fix * cells[:, :1]
        out += self._last_fix * cells[:, self._last]
        return out / self.kc.kappa

    def raw_panels(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Z, F) panels for a batch of paths, inner times including t=0.

        Z is the dX transform before the 1/gamma scaling (so S = Z/gamma);
        F is the ds transform of the path itself.
        """
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if values.shape[1] != self.grid.n + 1:
            raise ValueError("path length does not match the engine grid")
        dx = np.diff(values, axis=1)
        xmid = 0.5 * (values[:, 1:] + values[:, :-1]) * self.grid.dt
        r = values.shape[0]
        z = np.zeros((r, self.n_inner + 1))
        f = np.zeros((r, self.n_inner + 1))
        z[:, 1:] = self._apply(dx)
        f[:, 1:] = self._apply(xmid)
        return z, f

    def derivative_panel(self, f: np.ndarray, gamma: float) -> np.ndarray:
        """P on inner times[1:]: centered dF/dw, one-sided at the horizon."""
        w = self.w_inner
        p = np.empty((f.shape[0], self.n_inner))
        p[:, :-1] = (f[:, 2:] - f[:, :-2]) / (w[2:] - w[:-2]) / gamma
        p[:, -1] = (f[:, -1] - f[:, -2]) / (w[-1] - w[-2]) / gamma
        return p

    def statistics(self, values: np.ndarray, gamma: float) -> dict[str, np.ndarray]:
        """Batched horizon statistics {S, I, J, K} plus the scalar w.

        I = int P dS and K = int P^2 dw are left-point sums on the inner
        grid, each backfilling its integrand on [0, t_1] with the t_1 value.
        A centered difference at a cell's left node already contains the
        next F value, which biases E[int P dS] at any resolution; so I
        integrates the backward-difference (causal) P, which depends only on
        F up to its own node, while K squares the more accurate centered P.

        "qv" is each path's quadratic variation of the S panel on the inner
        grid; gamma sqrt(qv / w) estimates the noise scale.
        """
        if not gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {gamma!r}")
        z, f = self.raw_panels(values)
        s = z / gamma
        ds = np.diff(s, axis=1)
        dw = np.diff(self.w_inner)
        p = self.derivative_panel(f, gamma)
        p_causal = np.diff(f, axis=1) / dw / gamma
        p_left = np.concatenate([p[:, :1], p[:, :-1]], axis=1)
        pc_left = np.concatenate([p_causal[:, :1], p_causal[:, :-1]], axis=1)
        return {
            "S": s[:, -1],
            "I": np.einsum("rj,rj->r", pc_left, ds),
            "J": f[:, -1] / gamma,
            "K": (p_left**2) @ dw,
            "w": float(self.w_inner[-1]),
            "qv": np.sum(ds**2, axis=1),
        }


_ENGINE_CACHE: dict[tuple[int, float, float, int], PanelEngine] = {}
_ENGINE_CACHE_SLOTS = 3


def shared_engine(grid: SampleGrid, hurst: float, stride: int = _DEFAULT_STRIDE) -> PanelEngine:
    """Engine for (grid, H, stride), reused across calls.

    The dense weight matrix costs far more to build than to apply, so Monte
    Carlo loops must not rebuild it per path.  Engines are immutable after
    construction; the cache holds a few of them (simulation plus estimation
    configurations) and evicts the oldest beyond that.
    """
    key = (grid.n, grid.horizon, hurst, stride)
    engine = _ENGINE_CACHE.get(key)
    if engine is None:
        if len(_ENGINE_CACHE) >= _ENGINE_CACHE_SLOTS:
            _ENGINE_CACHE.pop(next(iter(_ENGINE_CACHE)))
        engine = PanelEngine(grid, hurst, stride)
        _ENGINE_CACHE[key] = engine
    return engine


def sufficient_stats(path: VasicekPath, stride: int = _DEFAULT_STRIDE) -> SufficientStats:
    """All horizon statistics of one path in a single quadrature pass."""
    params = path.params
    engine = shared_engine(path.grid, params.hurst, stride)
    out = engine.statistics(path.values, params.gamma)
    return SufficientStats(
        S=float(out["S"][0]),
        I=float(out["I"][0]),
        J=float(out["J"][0]),
        K=float(out["K"][0]),
        w=out["w"],
        horizon=path.grid.horizon,
        hurst=params.hurst,
        gamma=params.gamma,
    )


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
    coarse = sufficient_stats(path, stride=stride)
    fine = sufficient_stats(path, stride=stride // 2)
    gaps = {}
    for name in ("S", "I", "J", "K"):
        c, f = getattr(coarse, name), getattr(fine, name)
        gaps[name] = abs(f - c) / max(abs(f), abs(c), 1e-12)
    if max(gaps.values()) > rtol:
        raise QuadratureConvergenceError(f"quadrature not converged: {gaps}")
    return gaps


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
    panel cells.  `times` and `s_values` are an S panel (for example
    `PanelEngine.inner_times` and Z / gamma from `raw_panels`), which must be
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
