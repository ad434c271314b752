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
PanelEngine applies.  k is homogeneous of degree 1 - 2H, so an engine is
built for (n, H, stride) alone: it holds the weights at unit spacing, and
each call scales them by the dt^{1-2H} of the grid it is given, so one
engine serves every horizon on n cells.  Interior cells use
the kernel midpoint value; the two endpoint cells of every output time,
where k has the integrable singularities s^{1/2-H} and (t-s)^{1/2-H}, use
the exact cell integral, an incomplete Beta function.  At H = 1/2 the scheme is
exact on the path's linear interpolant (kernel identically one).  dX
integrals consume path increments and ds integrals cell midpoint values.
The weights are applied as an FFT convolution by stride phase: the cells
of each phase r (index r mod stride) meet the output times through one
tap sequence, so stride convolutions of length 2m (m output times)
replace one of length 2n, and no weight matrix is stored (0.2 MiB of
tap spectra and end-cell fixes at n = 8192, stride 16).

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
import numbers
from dataclasses import dataclass, fields

import numpy as np
from scipy import fft as sfft
from scipy.special import beta, betainc, gammaln

from .fbm import SampleGrid

__all__ = [
    "KernelConstants",
    "SufficientStats",
    "PanelEngine",
    "constants",
    "shared_engine",
    "quadratic_variation",
]

_DEFAULT_STRIDE = 16
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
    g32h = math.exp(gammaln(1.5 - hurst))
    gh12 = math.exp(gammaln(hurst + 0.5))
    kappa = 2.0 * hurst * g32h * gh12
    lam = 2.0 * hurst * math.exp(gammaln(3.0 - 2.0 * hurst)) * gh12 / g32h
    lam_star = lam / (2.0 - 2.0 * hurst)
    rho = math.sqrt(math.pi) * g32h / (gamma * kappa)
    return KernelConstants(
        hurst=hurst, gamma=gamma, kappa=kappa, lam=lam, lam_star=lam_star, rho=rho
    )


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


class PanelEngine:
    """Kernel-weight quadrature for one (n, H, stride), at any horizon.

    Row j of the weights is output time t_j = j * stride * dt and holds the
    kernel on the path cells below it: the midpoint value m_pow[i] *
    m_pow[j*stride - 1 - i] / kappa with m_pow = mids^(1/2-H), corrected
    to the exact cell integral (an incomplete Beta function) on the row's
    first and last cell.
    k is homogeneous of degree 1 - 2H, so the engine holds read-only weights
    at unit spacing without the 1/kappa, and each call takes the grid of its
    paths and scales by that grid's dt^(1-2H) / kappa: one engine serves
    every horizon on n cells.  As cell i = q*stride + r has the weight
    m_pow[i] * m_pow[(j-q)*stride - 1 - r] in row j, the weights are
    applied as a convolution over q of each phase r of the m_pow-weighted
    cells with its own taps (spectra at length 2m precomputed), plus the
    two end-cell corrections.  The engine stores only those spectra and
    fixes (0.2 MiB at n = 8192, stride 16), never the weight rows.
    """

    def __init__(self, n: int, hurst: float, stride: int = _DEFAULT_STRIDE) -> None:
        _check_transform_hurst(hurst)
        for name, value in (("n", n), ("stride", stride)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if stride < 1 or n % stride != 0:
            raise ValueError(f"stride must divide n={n}, got {stride!r}")
        m = n // stride
        if m < 4:
            raise ValueError("inner grid needs at least 4 points")
        self.n = n
        self.hurst = hurst
        self.stride = stride
        self.n_inner = m
        self.kc = constants(hurst, 1.0)

        a = 0.5 - hurst
        m_pow = (np.arange(n) + 0.5) ** a
        last = np.arange(1, m + 1) * stride - 1
        # end cells: the exact integral of s^a (t-s)^a on [0, 1] minus the midpoint
        # value, the same on the last cell [t-1, t] by symmetry unless t = 1
        t = last + 1.0
        first_fix = t ** (2.0 * a + 1.0) * beta(a + 1.0, a + 1.0)
        first_fix *= betainc(a + 1.0, a + 1.0, 1.0 / t)
        first_fix -= m_pow[0] * m_pow[last]
        last_fix = np.where(last > 0, first_fix, 0.0)

        # cell q*stride + r meets output time t_j (j = 1..m, last cell j*stride - 1)
        # through tap p = j - q of phase r, m_pow[p*stride - 1 - r]: zero at p = 0
        self._fft_len = sfft.next_fast_len(2 * m)
        taps = np.zeros((stride, m + 1))
        taps[:, 1:] = m_pow.reshape(m, stride)[:, ::-1].T
        weights = [m_pow, last, first_fix, last_fix, sfft.rfft(taps, self._fft_len, axis=1)]
        self._m_pow, self._last, self._first_fix, self._last_fix, self._phase_spectra = weights
        for array in weights:
            array.flags.writeable = False

    def transform(self, cells: np.ndarray, grid: SampleGrid) -> np.ndarray:
        """Row sums of the weights against per-cell data, one row per path.

        `cells` is 2-D with n values per path on `grid` (increments for Z,
        midpoint values for F); the result has one column per inner time
        after t = 0.  A grid with another n than the engine's is refused.
        """
        if grid.n != self.n:
            raise ValueError(f"engine is built for n={self.n}, got a grid with n={grid.n}")
        if cells.ndim != 2 or cells.shape[1] != self.n:
            raise ValueError(f"expected cells of shape (paths, {self.n}), got {cells.shape}")
        # phase by phase, so no temporary outgrows the fft_len (about 2m)
        # values per path of one zero-padded buffer, whose first m columns
        # each phase's m_pow-weighted cells overwrite; a spectrum of all
        # phases at once faults in fresh pages at n = 65536
        padded = np.zeros((cells.shape[0], self._fft_len))
        head = padded[:, : self.n_inner]
        spectrum = 0.0
        for r, taps in enumerate(self._phase_spectra):
            np.multiply(cells[:, r :: self.stride], self._m_pow[r :: self.stride], out=head)
            phase = sfft.rfft(padded, axis=1)
            phase *= taps
            spectrum += phase
        out = sfft.irfft(spectrum, self._fft_len, axis=1, overwrite_x=True)
        out = out[:, 1 : self.n_inner + 1]
        out += self._first_fix * cells[:, :1]
        out += self._last_fix * cells[:, self._last]
        # k is homogeneous of degree 1 - 2H: unit-spacing weights times dt^(1-2H)
        out *= grid.dt ** (1.0 - 2.0 * self.hurst) / self.kc.kappa
        return out

    def raw_panels(self, values: np.ndarray, grid: SampleGrid) -> tuple[np.ndarray, np.ndarray]:
        """(Z, F) panels for a batch of paths on `grid`, inner times including t=0.

        Z is the dX transform before the 1/gamma scaling (so S = Z/gamma);
        F is the ds transform of the path itself.
        """
        values = np.atleast_2d(np.asarray(values, dtype=float))
        r = values.shape[0]
        z = np.zeros((r, self.n_inner + 1))
        f = np.zeros((r, self.n_inner + 1))
        # one cell buffer: the increments, then the midpoint values times dt
        cells = np.diff(values, axis=1)
        z[:, 1:] = self.transform(cells, grid)
        np.add(values[:, 1:], values[:, :-1], out=cells)
        cells *= 0.5
        cells *= grid.dt
        f[:, 1:] = self.transform(cells, grid)
        return z, f

    def derivative_panel(self, f: np.ndarray, grid: SampleGrid, gamma: float) -> np.ndarray:
        """P on inner times[1:] of `grid`: centered dF/dw, one-sided at the horizon."""
        w = self.kc.w(grid.times()[:: self.stride])
        p = np.empty((f.shape[0], self.n_inner))
        p[:, :-1] = (f[:, 2:] - f[:, :-2]) / (w[2:] - w[:-2]) / gamma
        p[:, -1] = (f[:, -1] - f[:, -2]) / (w[-1] - w[-2]) / gamma
        return p

    def statistics(self, values: np.ndarray, grid: SampleGrid, gamma: float) -> SufficientStats:
        """Batched horizon statistics S, I, J, K and qv of paths on `grid`,
        plus the scalar w = w(T).

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
            z, f = self.raw_panels(values, grid)
            s = z / gamma
            ds = np.diff(s, axis=1)
            w = self.kc.w(grid.times()[:: self.stride])
            dw = np.diff(w)
            p = self.derivative_panel(f, grid, gamma)
            p_causal = np.diff(f, axis=1) / dw / gamma
            p_left = np.concatenate([p[:, :1], p[:, :-1]], axis=1)
            pc_left = np.concatenate([p_causal[:, :1], p_causal[:, :-1]], axis=1)
            return SufficientStats(
                # a copy: a view would keep the whole S panel alive
                S=s[:, -1].copy(),
                I=np.einsum("rj,rj->r", pc_left, ds),
                J=f[:, -1] / gamma,
                K=(p_left**2) @ dw,
                qv=quadratic_variation(s),
                w=float(w[-1]),
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
def shared_engine(n: int, hurst: float) -> PanelEngine:
    """Engine for (n, H) at the default stride, reused across calls.

    Engines are immutable after construction and serve every horizon on n
    cells; the cache holds a few of them (simulation plus estimation
    configurations).
    """
    return PanelEngine(n, hurst)
