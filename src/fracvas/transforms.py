"""Singular-kernel transforms of observed paths.

The whole estimation theory runs through the weighted transform

    S_t = (1/gamma) int_0^t k(t,s) dX_s,
    k(t,s) = kappa^{-1} s^{1/2-H} (t-s)^{1/2-H},

its ds-companion F_t = int_0^t k(t,s) X_s ds, the derivative process
P(t) = (1/gamma) dF/dw taken against the variance clock w(t) = t^{2-2H}/lambda,
and the horizon statistics

    J_T = F_T / gamma,      I_T = int_0^T P dS,      K_T = int_0^T P^2 dw.

Numerics: integrals against the path are Riemann-Stieltjes product sums on
the path cells, with one weight definition per (n, H, stride) that
PanelEngine applies in one of two ways.  k is homogeneous of degree 1 - 2H,
so the weights are built once at unit spacing, shared by every horizon on
n cells, and scaled by dt^{1-2H}.  Interior cells use the kernel
midpoint value; the two endpoint cells of every output time, where k has
the integrable singularities s^{1/2-H} and (t-s)^{1/2-H}, use exact
Gauss-Jacobi cell integrals with those weights.  At H = 1/2 the scheme is
exact on the path's linear interpolant (kernel identically one).  dX
integrals consume path increments and ds integrals cell midpoint values.
Row j of the weights is zero past its last cell, so the dense form keeps
only the staircase below the output times: 8 row blocks, each cut at its
last row's cell (18 MiB instead of a 32 MiB full matrix at n = 8192,
stride 16).  Large grids use an FFT convolution instead.

P is computed by centered differences of F in the w clock on an inner grid
of every stride-th node (default n/16 points); panels start at the first
inner node and the value at T is one-sided.  The Ito sum for I uses
backward differences instead (see PanelEngine.statistics).  The horizon
statistics travel as one SufficientStats record, from PanelEngine.statistics
to the drift estimators.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np
from scipy import fft as sfft
from scipy.special import roots_jacobi

from .fbm import SampleGrid
from .specfun import log_gamma

__all__ = [
    "KernelConstants",
    "SufficientStats",
    "PanelEngine",
    "constants",
    "shared_engine",
    "quadratic_variation",
]

_DEFAULT_STRIDE = 16
_END_RULE_NODES = 8
_MAX_DENSE_CELLS = 5_000_000
_DENSE_ROW_BLOCKS = 8
_QV_MAX_BLOCKS = 2048


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


def _jacobi_rule_01(n: int, left_exp: float, right_exp: float):
    """Nodes/weights for int_0^1 u^left (1-u)^right f(u) du."""
    x, w = roots_jacobi(n, right_exp, left_exp)
    return 0.5 * (x + 1.0), w * 2.0 ** (-(left_exp + right_exp + 1.0))


@dataclass(frozen=True)
class SufficientStats:
    """Horizon statistics feeding the drift estimators, refused if not finite.

    S, I, J, K and qv hold one entry per path, or are floats for one path;
    w = w(T) is shared.  qv is the `quadratic_variation` of the S panel, so
    gamma sqrt(qv / w) estimates the noise scale.
    """

    S: float | np.ndarray
    I: float | np.ndarray
    J: float | np.ndarray
    K: float | np.ndarray
    qv: float | np.ndarray
    w: float

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            bad = np.count_nonzero(~np.isfinite(value))
            if bad:
                raise ValueError(
                    f"statistic {f.name} is not finite on {bad} of {np.size(value)} paths"
                )
        if not np.all(self.K >= 0.0):
            raise ValueError(f"K must be nonnegative, got {np.min(self.K)}")
        if not self.w > 0.0:
            raise ValueError(f"w must be positive, got {self.w}")


@functools.lru_cache(maxsize=3)
def _unit_weights(n: int, hurst: float, stride: int, dense: bool) -> tuple[np.ndarray, ...]:
    """PanelEngine weights at unit spacing (dt = 1) without the 1/kappa, read-only.

    Dense: the staircase row blocks.  Else the FFT pieces (m_pow, last,
    first_fix, last_fix, rfft of m_pow).  Cached, because at n = 8192 the dense blocks
    (18 MiB at stride 16) cost far more to build than to apply, and every
    horizon on n cells shares them.
    """
    a = 0.5 - hurst
    m = n // stride
    m_pow = (np.arange(n) + 0.5) ** a
    last = np.arange(1, m + 1) * stride - 1
    # end cells: exact Gauss-Jacobi cell average minus the midpoint value
    v_l, wt_l = _jacobi_rule_01(_END_RULE_NODES, a, 0.0)
    v_r, wt_r = _jacobi_rule_01(_END_RULE_NODES, 0.0, a)
    t_col = (last + 1.0)[:, None]
    mid = m_pow[0] * m_pow[last]
    first_fix = (t_col - v_l[None, :]) ** a @ wt_l - mid
    last_fix = ((t_col - 1.0) + v_r[None, :]) ** a @ wt_r - mid
    if stride == 1:
        # single-cell row: both singular ends in one cell, exact Beta value
        first_fix[0] = math.exp(2.0 * log_gamma(1.0 + a) - log_gamma(2.0 + 2.0 * a)) - mid[0]
        last_fix[0] = 0.0

    if dense:
        # row j reads m_pow backwards from its last cell, zeros past it;
        # each row block keeps only the columns up to its last row's cell
        reversed_pad = np.concatenate([m_pow[::-1], np.zeros(n)])
        hankel = np.lib.stride_tricks.sliding_window_view(reversed_pad, n)
        edges = sorted({m * k // _DENSE_ROW_BLOCKS for k in range(_DENSE_ROW_BLOCKS + 1)})
        weights = []
        for r0, r1 in zip(edges[:-1], edges[1:]):
            cols = r1 * stride
            block = hankel[n - 1 - last[r0:r1], :cols]
            block *= m_pow[:cols]
            block[:, 0] += first_fix[r0:r1]
            block[np.arange(r1 - r0), last[r0:r1]] += last_fix[r0:r1]
            weights.append(block)
    else:
        spectrum = sfft.rfft(m_pow, sfft.next_fast_len(2 * n - 1))
        weights = [m_pow, last, first_fix, last_fix, spectrum]
    for array in weights:
        array.flags.writeable = False
    return tuple(weights)


class PanelEngine:
    """Kernel-weight quadrature for one (grid, H, stride).

    Row j of the weights is output time t_j = j * stride * dt and holds the
    kernel on the path cells below it: the midpoint value m_pow[i] *
    m_pow[j*stride - 1 - i] / kappa with m_pow = mids^(1/2-H), corrected
    to the exact Gauss-Jacobi cell average on the row's first and last cell.
    The engine holds the read-only weights at unit spacing, shared by every
    engine with the same (n, H, stride), and multiplies its output by
    dt^(1-2H) / kappa.  One weight definition, two ways to apply it: when
    it is small, dense row blocks that each store only the columns up to
    their last row's cell (the zeros above the staircase are neither stored
    nor multiplied); else an FFT convolution of the cells with m_pow
    (spectrum cached) plus the two corrections.  One engine serves a Monte
    Carlo loop.
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
        # k is homogeneous of degree 1 - 2H: unit-spacing weights times dt^(1-2H)
        self._scale = grid.dt ** (1.0 - 2.0 * hurst) / self.kc.kappa
        dense = m * n <= _MAX_DENSE_CELLS
        weights = _unit_weights(n, hurst, stride, dense)
        if dense:
            self._weights = weights
        else:
            self._weights = None
            self._m_pow, self._last, self._first_fix, self._last_fix, self._kernel_spectrum = (
                weights
            )
            self._fft_len = sfft.next_fast_len(2 * n - 1)

    def transform(self, cells: np.ndarray) -> np.ndarray:
        """Row sums of the weights against per-cell data, one row per path.

        `cells` is 2-D with n values per path (increments for Z, midpoint
        values for F); the result has one column per inner time after t = 0.
        """
        if cells.ndim != 2 or cells.shape[1] != self.grid.n:
            raise ValueError(f"expected cells of shape (paths, {self.grid.n}), got {cells.shape}")
        if self._weights is not None:
            out = np.empty((cells.shape[0], self.n_inner))
            r0 = 0
            for block in self._weights:
                r1 = r0 + block.shape[0]
                out[:, r0:r1] = cells[:, : block.shape[1]] @ block.T
                r0 = r1
        else:
            # the product goes straight into the zero-padded buffer rfft
            # reads, which is freed before irfft allocates; at n = 65536
            # each full-size temporary is 1 MiB of fresh pages per path
            padded = np.zeros((cells.shape[0], self._fft_len))
            np.multiply(cells, self._m_pow, out=padded[:, : self.grid.n])
            spectrum = sfft.rfft(padded, axis=1)
            del padded
            spectrum *= self._kernel_spectrum
            out = sfft.irfft(spectrum, self._fft_len, axis=1, overwrite_x=True)[:, self._last]
            out += self._first_fix * cells[:, :1]
            out += self._last_fix * cells[:, self._last]
        out *= self._scale
        return out

    def raw_panels(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Z, F) panels for a batch of paths, inner times including t=0.

        Z is the dX transform before the 1/gamma scaling (so S = Z/gamma);
        F is the ds transform of the path itself.
        """
        values = np.atleast_2d(np.asarray(values, dtype=float))
        r = values.shape[0]
        z = np.zeros((r, self.n_inner + 1))
        f = np.zeros((r, self.n_inner + 1))
        # one cell buffer: the increments, then the midpoint values times dt
        cells = np.diff(values, axis=1)
        z[:, 1:] = self.transform(cells)
        np.add(values[:, 1:], values[:, :-1], out=cells)
        cells *= 0.5
        cells *= self.grid.dt
        f[:, 1:] = self.transform(cells)
        return z, f

    def derivative_panel(self, f: np.ndarray, gamma: float) -> np.ndarray:
        """P on inner times[1:]: centered dF/dw, one-sided at the horizon."""
        w = self.w_inner
        p = np.empty((f.shape[0], self.n_inner))
        p[:, :-1] = (f[:, 2:] - f[:, :-2]) / (w[2:] - w[:-2]) / gamma
        p[:, -1] = (f[:, -1] - f[:, -2]) / (w[-1] - w[-2]) / gamma
        return p

    def statistics(self, values: np.ndarray, gamma: float) -> SufficientStats:
        """Batched horizon statistics S, I, J, K and qv, plus the scalar w.

        I = int P dS and K = int P^2 dw are left-point sums on the inner
        grid, each backfilling its integrand on [0, t_1] with the t_1 value.
        A centered difference at a cell's left node already contains the
        next F value, which biases E[int P dS] at any resolution; so I
        integrates the backward-difference (causal) P, which depends only on
        F up to its own node, while K squares the more accurate centered P.

        Raises ValueError naming the first of S, I, J, K, qv that is not
        finite on some path (a path large enough to overflow its panels).
        """
        if not gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {gamma!r}")
        # an overflow shows up as a non-finite statistic, refused by name
        with np.errstate(over="ignore", invalid="ignore"):
            z, f = self.raw_panels(values)
            s = z / gamma
            ds = np.diff(s, axis=1)
            dw = np.diff(self.w_inner)
            p = self.derivative_panel(f, gamma)
            p_causal = np.diff(f, axis=1) / dw / gamma
            p_left = np.concatenate([p[:, :1], p[:, :-1]], axis=1)
            pc_left = np.concatenate([p_causal[:, :1], p_causal[:, :-1]], axis=1)
            return SufficientStats(
                S=s[:, -1],
                I=np.einsum("rj,rj->r", pc_left, ds),
                J=f[:, -1] / gamma,
                K=(p_left**2) @ dw,
                qv=quadratic_variation(s),
                w=float(self.w_inner[-1]),
            )


def quadratic_variation(panel: np.ndarray) -> np.ndarray:
    """Row sums of squared increments of an inner-grid panel (t = 0 first) over
    at most _QV_MAX_BLOCKS equal blocks, cut by the smallest step that fits."""
    cells = panel.shape[1] - 1
    step = -(-cells // _QV_MAX_BLOCKS)
    if cells % step:
        raise ValueError(f"{cells} inner cells are not a multiple of the block size {step}")
    return np.sum(np.diff(panel[:, ::step], axis=1) ** 2, axis=1)


@functools.lru_cache(maxsize=3)
def shared_engine(grid: SampleGrid, hurst: float) -> PanelEngine:
    """Engine for (grid, H) at the default stride, reused across calls.

    Engines are immutable after construction; the cache holds a few of them
    (simulation plus estimation configurations).  The costly part, the
    weights, is cached per (n, H, stride) underneath, so engines for other
    horizons on the same n share it.
    """
    return PanelEngine(grid, hurst)
