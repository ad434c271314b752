"""Fractional Vasicek dynamics: dX_t = (alpha - beta X_t) dt + gamma dB^H_t.

simulate_exact evaluates the explicit solution

    X_t = x0 e^{-beta t} + (alpha/beta)(1 - e^{-beta t})
          + gamma * int_0^t e^{-beta (t-s)} dB^H_s,

with the stochastic convolution rewritten by integration by parts as
B_t - beta e^{-beta t} int_0^t e^{beta s} B_s ds and the remaining smooth
integral done by cumulative trapezoid quadrature (scipy's
cumulative_trapezoid expression, written in numpy).  Only B depends on the
driver: e^{beta t}, beta e^{-beta t} and the mean level (the first two
terms) are computed once per (alpha, beta, x0, grid), read-only, and a
path reuses them (at most 4 entries, 192 KiB each at n = 8192).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .fbm import FbmPath, SampleGrid, _is_finite_real, generate_fbm

__all__ = ["ModelParams", "VasicekPath", "simulate_exact"]

_LOG_MAX_FLOAT = math.log(sys.float_info.max)  # exp overflows past this


@dataclass(frozen=True)
class ModelParams:
    """Drift level alpha, mean-reversion beta (beta < 0 is the non-ergodic
    branch the distribution theory targets), volatility gamma > 0, Hurst
    index in (1/2, 1), start value x0."""

    alpha: float
    beta: float
    gamma: float
    hurst: float
    x0: float

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not _is_finite_real(value):
                raise ValueError(f"{f.name} must be a finite real number, got {value!r}")
        if not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma!r}")
        if not 0.5 < self.hurst < 1.0:
            raise ValueError(f"hurst must lie in (1/2, 1), got {self.hurst!r}")
        if self.beta == 0.0:
            raise ValueError("beta must be nonzero")

    @property
    def mean_level(self) -> float:
        """alpha / beta, the level the ergodic branch reverts to."""
        return self.alpha / self.beta


@dataclass(frozen=True)
class VasicekPath:
    grid: SampleGrid
    params: ModelParams
    values: np.ndarray
    driver_seed: int | None = None

    def __post_init__(self) -> None:
        if self.values.shape != (self.grid.n + 1,):
            raise ValueError("values must have one entry per grid node")


def _resolve_driver(
    params: ModelParams, grid: SampleGrid, seed: int | None, driver: FbmPath | None
) -> tuple[np.ndarray, int | None]:
    if driver is not None:
        if driver.grid != grid:
            raise ValueError("driver grid does not match the simulation grid")
        if driver.hurst != params.hurst:
            raise ValueError(f"driver H = {driver.hurst} does not match model H = {params.hurst}")
        return driver.values, seed
    if seed is None:
        raise ValueError("either a seed or an explicit driver is required")
    return generate_fbm(params.hurst, grid, seed).values, seed


@functools.lru_cache(maxsize=4)
def _path_free_terms(
    alpha: float, beta: float, x0: float, grid: SampleGrid
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only e^{beta t}, beta e^{-beta t} and the mean level
    x0 e^{-beta t} + (alpha/beta)(1 - e^{-beta t}) on the grid's nodes.

    They do not depend on the driver, so the paths of one (alpha, beta, x0,
    grid) share them; gamma and H are left out of the key so that cells
    differing only in those share one entry (1.5 MiB at n = 65536).
    """
    times = grid.times()
    with np.errstate(over="ignore", invalid="ignore"):
        decay = np.exp(np.multiply(times, -beta))
        growth = np.exp(np.multiply(times, beta, out=times), out=times)
        beta_decay = np.multiply(decay, beta)
        level = np.subtract(1.0, decay)
        level *= alpha / beta
        decay *= x0
        level += decay
    for array in (growth, beta_decay, level):
        array.flags.writeable = False
    return growth, beta_decay, level


def simulate_exact(
    params: ModelParams,
    grid: SampleGrid,
    seed: int | None = None,
    driver: FbmPath | None = None,
) -> VasicekPath:
    """Exact-solution sample on the grid (quadrature only in the convolution)."""
    beta = params.beta
    if abs(beta * grid.horizon) > _LOG_MAX_FLOAT:
        raise ValueError(
            f"exact solution is not finite at beta*T = {beta * grid.horizon:.6g}: "
            "exp(|beta| t) leaves the double range once |beta*T| exceeds about 709"
        )
    noise, used_seed = _resolve_driver(params, grid, seed, driver)
    growth, beta_decay, level = _path_free_terms(params.alpha, beta, params.x0, grid)
    # the driver-dependent part of the formula on two n + 1 buffers: y holds
    # e^{beta t} B, then the noise term, then the values; g holds G
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.multiply(growth, noise)
        # G_i = int_0^{t_i} e^{beta s} B_s ds by cumulative trapezoid
        g = np.empty_like(y)
        g[0] = 0.0
        np.add(y[1:], y[:-1], out=g[1:])
        g[1:] *= grid.dt
        g[1:] /= 2.0
        np.cumsum(g[1:], out=g[1:])
        # noise - beta e^{-beta t} G, times gamma
        np.multiply(beta_decay, g, out=y)
        np.subtract(noise, y, out=y)
        y *= params.gamma
        values = np.add(level, y, out=y)
    if not np.isfinite(values).all():
        bad = np.count_nonzero(~np.isfinite(values))
        raise ValueError(
            f"{bad} path nodes not finite: x0 = {params.x0:.6g}, beta*T = {beta * grid.horizon:.6g}"
        )
    return VasicekPath(grid=grid, params=params, values=values, driver_seed=used_seed)
