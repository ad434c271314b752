"""Fractional Vasicek dynamics: dX_t = (alpha - beta X_t) dt + gamma dB^H_t.

simulate_exact evaluates the explicit solution

    X_t = x0 e^{-beta t} + (alpha/beta)(1 - e^{-beta t})
          + gamma * int_0^t e^{-beta (t-s)} dB^H_s,

with the stochastic convolution rewritten by integration by parts as
B_t - beta e^{-beta t} int_0^t e^{beta s} B_s ds and the remaining smooth
integral done by cumulative trapezoid quadrature.  simulate_euler is the
first-order scheme on the same driver, kept as a coupling oracle for tests.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .fbm import FbmPath, SampleGrid, generate_fbm

__all__ = ["ModelParams", "VasicekPath", "simulate_exact", "simulate_euler"]

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
        return driver.values, seed
    if seed is None:
        raise ValueError("either a seed or an explicit driver is required")
    return generate_fbm(params.hurst, grid, seed).values, seed


def _overflow_error(beta_t: float) -> ValueError:
    return ValueError(
        f"exact solution is not finite at beta*T = {beta_t:.6g}: "
        "exp(|beta| t) leaves the double range once |beta*T| exceeds about 709"
    )


def simulate_exact(
    params: ModelParams,
    grid: SampleGrid,
    seed: int | None = None,
    driver: FbmPath | None = None,
) -> VasicekPath:
    """Exact-solution sample on the grid (quadrature only in the convolution)."""
    beta = params.beta
    if abs(beta * grid.horizon) > _LOG_MAX_FLOAT:
        raise _overflow_error(beta * grid.horizon)
    noise, used_seed = _resolve_driver(params, grid, seed, driver)
    t = grid.times()
    decay = np.exp(-beta * t)

    # G_i = int_0^{t_i} e^{beta s} B_s ds by cumulative trapezoid.
    f = np.exp(beta * t) * noise
    increments = 0.5 * grid.dt * (f[1:] + f[:-1])
    g = np.empty_like(t)
    g[0] = 0.0
    np.cumsum(increments, out=g[1:])

    convolution = noise - beta * decay * g
    values = params.x0 * decay + params.mean_level * (1.0 - decay) + params.gamma * convolution
    if not np.all(np.isfinite(values)):
        raise _overflow_error(beta * grid.horizon)
    return VasicekPath(grid=grid, params=params, values=values, driver_seed=used_seed)


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
