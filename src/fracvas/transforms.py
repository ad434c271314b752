"""Singular-kernel transforms of observed paths.

The whole estimation theory runs through the weighted transform

    S_t = (1/gamma) int_0^t k(t,s) dX_s,
    k(t,s) = kappa^{-1} s^{1/2-H} (t-s)^{1/2-H},

its ds-companion F_t = int_0^t k(t,s) X_s ds, the derivative process
P(t) = (1/gamma) dF/dw taken against the variance clock w(t) = t^{2-2H}/lambda,
and the horizon statistics

    J_T = F_T / gamma,      I_T = int_0^T P dS,      K_T = int_0^T P^2 dw.

Numerics: integrals against the path are Riemann-Stieltjes product sums on
the path cells.  Interior cells use the kernel midpoint value; the two
endpoint cells of every output time, where k has the integrable
singularities s^{1/2-H} and (t-s)^{1/2-H}, use exact Gauss-Jacobi cell
integrals with those weights.  At H = 1/2 the scheme is exact on the path's
linear interpolant (kernel identically one).  dX integrals consume path
increments and ds integrals consume cell midpoint values, sharing one
kernel-weight matrix per (grid, H, stride) configuration.

P is computed by centered differences of F in the w clock on an inner grid
of every stride-th node (default n/16 points); panels start at the first
inner node and the value at T is one-sided.  The Ito sum for I must not let
the integrand see the increment it multiplies: a centered difference at the
cell's left node already contains the next F value and the induced
correlation biases E[int P dS] at any resolution.  I therefore integrates
the backward-difference (causal) derivative, while K keeps the more
accurate centered one; both sums use left endpoints with the first chunk
backfilled from the first inner node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

from .fbm import SampleGrid
from .model import ModelParams, VasicekPath
from .specfun import log_gamma

__all__ = [
    "KernelConstants",
    "ProcessPanel",
    "SufficientStats",
    "PanelEngine",
    "PanelAlignmentError",
    "QuadratureConvergenceError",
    "constants",
    "kernel_k",
    "compute_S",
    "compute_J",
    "compute_I_K",
    "sufficient_stats",
    "martingale_M",
    "reconstruct_X",
    "refinement_check",
]

_DEFAULT_STRIDE = 16
_END_RULE_NODES = 8
_MAX_DENSE_CELLS = 5_000_000


class PanelAlignmentError(ValueError):
    """Two panels fed to a joint computation live on different grids."""


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
class ProcessPanel:
    """Transform panels on the inner evaluation grid.

    times, S, F and w include t=0 (index 0); P lives on times[1:], with its
    final entry one-sided in the w clock.
    """

    grid: SampleGrid
    hurst: float
    gamma: float
    stride: int
    times: np.ndarray
    S: np.ndarray
    F: np.ndarray
    P: np.ndarray
    w: np.ndarray

    @property
    def p_times(self) -> np.ndarray:
        return self.times[1:]


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
    """Precomputed kernel-weight quadrature for one (grid, H, stride).

    Rows of the weight matrix are output times t_j = j * stride * dt; row j
    holds cell-average kernel values over path cells [s_i, s_i + dt].  The
    matrix is built densely when small enough for matmul batching; larger
    problems use the FFT convolution form of the same weights.  Batched
    products serve Monte Carlo loops: one engine per configuration.
    """

    def __init__(
        self,
        grid: SampleGrid,
        hurst: float,
        stride: int = _DEFAULT_STRIDE,
        end_nodes: int = _END_RULE_NODES,
        max_dense_cells: int = _MAX_DENSE_CELLS,
    ) -> None:
        _check_transform_hurst(hurst)
        if stride < 1 or grid.n % stride != 0:
            raise ValueError(f"stride must divide n={grid.n}, got {stride!r}")
        m = grid.n // stride
        if m < 4:
            raise ValueError("inner grid needs at least 4 points")
        self.grid = grid
        self.hurst = hurst
        self.stride = stride
        self.n_inner = m
        self.kc = constants(hurst, 1.0)
        self._a = 0.5 - hurst
        self._end_nodes = end_nodes
        self.inner_times = grid.times()[::stride]  # includes t=0
        self.w_inner = self.kc.w(self.inner_times)
        self._mids = (np.arange(grid.n) + 0.5) * grid.dt
        self._left_rule = _jacobi_rule_01(end_nodes, self._a, 0.0)
        self._right_rule = _jacobi_rule_01(end_nodes, 0.0, self._a)
        self._dense = m * grid.n <= max_dense_cells
        self._weights = self._build_rows(1, m + 1) if self._dense else None

    def _build_rows(self, j_lo: int, j_hi: int) -> np.ndarray:
        """Weight rows for inner indices j in [j_lo, j_hi)."""
        a = self._a
        dt = self.grid.dt
        kappa = self.kc.kappa
        t_rows = self.inner_times[j_lo:j_hi, None]
        mids = self._mids[None, :]
        gap = t_rows - mids
        live = gap > 0.0
        w = np.where(live, mids, 1.0) ** a * np.where(live, gap, 1.0) ** a
        w[~live] = 0.0

        # Endpoint cells: exact Gauss-Jacobi cell averages of the kernel.
        v_l, wt_l = self._left_rule  # weight u^a near s=0
        v_r, wt_r = self._right_rule  # weight (1-u)^a near s=t
        t_col = self.inner_times[j_lo:j_hi, None]
        w[:, 0] = dt**a * ((t_col - dt * v_l[None, :]) ** a @ wt_l)
        last_idx = (np.arange(j_lo, j_hi) * self.stride) - 1
        s_last = (t_col - dt) + dt * v_r[None, :]
        last_vals = dt**a * (s_last**a @ wt_r)
        w[np.arange(j_hi - j_lo), last_idx] = last_vals
        if j_lo * self.stride == 1:
            # single-cell row: both singular ends in one cell, exact Beta value
            b_exact = math.exp(2.0 * log_gamma(1.0 + a) - log_gamma(2.0 + 2.0 * a))
            w[0, 0] = dt ** (2.0 * a) * b_exact
        return w / kappa

    def _conv_panels(self, cells: np.ndarray) -> np.ndarray:
        """Row sums of the weight matrix against per-cell data, by FFT.

        The interior weight of cell i in row j factors as
        mids[i]^a * mids[j*stride - 1 - i]^a / kappa, so every row is one
        entry of the linear convolution of (mids^a * cells) with mids^a;
        only the two singular end cells of each row (and the single-cell
        first row at stride 1) deviate and are patched separately.  Exactly
        the same quadrature as the dense matrix, without building it.
        """
        from scipy import fft as sfft

        a = self._a
        dt = self.grid.dt
        n = self.grid.n
        m_pow = self._mids**a
        length = sfft.next_fast_len(2 * n - 1)
        spectrum = sfft.rfft(cells * m_pow[None, :], length, axis=1)
        spectrum *= sfft.rfft(m_pow, length)[None, :]
        conv = sfft.irfft(spectrum, length, axis=1)
        last_cell = np.arange(1, self.n_inner + 1) * self.stride - 1
        out = conv[:, last_cell]

        # patch the singular end cells with their exact Gauss-Jacobi values
        v_l, wt_l = self._left_rule
        v_r, wt_r = self._right_rule
        t_col = self.inner_times[1:, None]
        w0_exact = dt**a * ((t_col - dt * v_l[None, :]) ** a @ wt_l)
        wl_exact = dt**a * (((t_col - dt) + dt * v_r[None, :]) ** a @ wt_r)
        mid_first = m_pow[0] * m_pow[last_cell]
        out += (w0_exact - mid_first)[None, :] * cells[:, :1]
        out += (wl_exact - mid_first)[None, :] * cells[:, last_cell]
        if self.stride == 1:
            b_exact = math.exp(2.0 * log_gamma(1.0 + a) - log_gamma(2.0 + 2.0 * a))
            out[:, 0] = dt ** (2.0 * a) * b_exact * cells[:, 0]
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
        if self._dense:
            z[:, 1:] = dx @ self._weights.T
            f[:, 1:] = xmid @ self._weights.T
        else:
            z[:, 1:] = self._conv_panels(dx)
            f[:, 1:] = self._conv_panels(xmid)
        return z, f

    def derivative_panel(self, f: np.ndarray, gamma: float) -> np.ndarray:
        """P on inner times[1:]: centered dF/dw, one-sided at the horizon."""
        w = self.w_inner
        p = np.empty((f.shape[0], self.n_inner))
        p[:, :-1] = (f[:, 2:] - f[:, :-2]) / (w[2:] - w[:-2]) / gamma
        p[:, -1] = (f[:, -1] - f[:, -2]) / (w[-1] - w[-2]) / gamma
        return p

    def causal_derivative(self, f: np.ndarray, gamma: float) -> np.ndarray:
        """P on inner times[1:] by backward differences of F in the w clock.

        Each value depends only on F up to its own node, so it can multiply
        the following S increment without correlating with it.  Lower order
        than the centered stencil; used only where that measurability matters.
        """
        dw = np.diff(self.w_inner)
        return np.diff(f, axis=1) / dw[None, :] / gamma

    def ito_sums(
        self, s: np.ndarray, p: np.ndarray, p_causal: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Left-point sums I = int P dS and K = int P^2 dw on the inner grid.

        I integrates p_causal (backward differences) so the integrand never
        shares path increments with dS; K squares the centered p.  Both
        backfill the integrand on the first chunk [0, t_1] with its t_1 value.
        """
        p_left = np.empty_like(p)
        p_left[:, 0] = p[:, 0]
        p_left[:, 1:] = p[:, :-1]
        pc_left = np.empty_like(p_causal)
        pc_left[:, 0] = p_causal[:, 0]
        pc_left[:, 1:] = p_causal[:, :-1]
        ds = np.diff(s, axis=1)
        dw = np.diff(self.w_inner)
        i_vals = np.einsum("rj,rj->r", pc_left, ds)
        k_vals = (p_left**2) @ dw
        return i_vals, k_vals

    def statistics(self, values: np.ndarray, gamma: float) -> dict[str, np.ndarray]:
        """Batched horizon statistics {S, I, J, K} plus the scalar w.

        "qv" is each path's quadratic variation of the S panel on the inner
        grid; gamma sqrt(qv / w) estimates the noise scale.
        """
        if not gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {gamma!r}")
        z, f = self.raw_panels(values)
        s = z / gamma
        p = self.derivative_panel(f, gamma)
        p_causal = self.causal_derivative(f, gamma)
        i_vals, k_vals = self.ito_sums(s, p, p_causal)
        return {
            "S": s[:, -1],
            "I": i_vals,
            "J": f[:, -1] / gamma,
            "K": k_vals,
            "w": float(self.w_inner[-1]),
            "qv": np.sum(np.diff(s, axis=1) ** 2, axis=1),
        }

    def panel(self, values: np.ndarray, gamma: float) -> ProcessPanel:
        if not gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {gamma!r}")
        z, f = self.raw_panels(values)
        p = self.derivative_panel(f, gamma)
        return ProcessPanel(
            grid=self.grid,
            hurst=self.hurst,
            gamma=gamma,
            stride=self.stride,
            times=self.inner_times.copy(),
            S=z[0] / gamma,
            F=f[0],
            P=p[0],
            w=self.w_inner.copy(),
        )


def _path_fields(path) -> tuple[np.ndarray, SampleGrid, float, float]:
    if isinstance(path, VasicekPath):
        return path.values, path.grid, path.params.hurst, path.params.gamma
    raise TypeError("expected a VasicekPath; use PanelEngine directly for raw arrays")


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


def compute_S(path: VasicekPath, stride: int = _DEFAULT_STRIDE) -> ProcessPanel:
    """Panel of S_t on the inner grid (S_0 = 0)."""
    values, grid, hurst, gamma = _path_fields(path)
    return shared_engine(grid, hurst, stride).panel(values, gamma)


def compute_J(path: VasicekPath, stride: int = _DEFAULT_STRIDE) -> float:
    """J_T by direct singular-kernel quadrature at the horizon."""
    panel = compute_S(path, stride)
    return float(panel.F[-1] / panel.gamma)


def compute_I_K(
    path: VasicekPath, ph_panel: ProcessPanel, s_panel: ProcessPanel
) -> tuple[float, float]:
    """(I_T, K_T) from aligned P and S panels by left-point Ito sums."""
    if ph_panel.times.shape != s_panel.times.shape or not np.array_equal(
        ph_panel.times, s_panel.times
    ):
        raise PanelAlignmentError("P and S panels live on different inner grids")
    if ph_panel.grid != path.grid:
        raise PanelAlignmentError("panel grid does not match the path grid")
    engine = shared_engine(path.grid, ph_panel.hurst, ph_panel.stride)
    p_causal = engine.causal_derivative(ph_panel.F[None, :], ph_panel.gamma)
    i_vals, k_vals = engine.ito_sums(s_panel.S[None, :], ph_panel.P[None, :], p_causal)
    return float(i_vals[0]), float(k_vals[0])


def sufficient_stats(path: VasicekPath, stride: int = _DEFAULT_STRIDE) -> SufficientStats:
    """All horizon statistics of one path in a single quadrature pass."""
    values, grid, hurst, gamma = _path_fields(path)
    engine = shared_engine(grid, hurst, stride)
    out = engine.statistics(values, gamma)
    return SufficientStats(
        S=float(out["S"][0]),
        I=float(out["I"][0]),
        J=float(out["J"][0]),
        K=float(out["K"][0]),
        w=out["w"],
        horizon=grid.horizon,
        hurst=hurst,
        gamma=gamma,
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
    s_panel: ProcessPanel,
    params: ModelParams,
    out_indices: np.ndarray | None = None,
    inner_nodes: int = 16,
) -> tuple[np.ndarray, np.ndarray]:
    """Invert the transform: X_t = int_0^t K(t,s) dS_s for the model kernel

    K(t,s) = gamma H (2H-1) int_s^t r^{H-1/2} (r-s)^{H-3/2} dr,

    with the inner integral done by Gauss-Jacobi in the (r-s)^{H-3/2} weight
    and the outer dS integral as a midpoint Riemann-Stieltjes sum over the
    panel cells.  Needs a fine panel (stride 1..4).  Returns (times, values)
    at the requested panel indices (default: every panel node past the
    first eighth, where the dS history is long enough to resolve).
    """
    hurst = params.hurst
    gamma = params.gamma
    if not 0.5 < hurst < 1.0:
        raise ValueError("reconstruction needs H in (1/2, 1)")
    times = s_panel.times
    ds = np.diff(s_panel.S)
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
