"""Fractional Vasicek dynamics: dX_t = (alpha - beta X_t) dt + gamma dB^H_t.

simulate_exact evaluates the explicit solution

    X_t = x0 e^{-beta t} + (alpha/beta)(1 - e^{-beta t})
          + gamma * int_0^t e^{-beta (t-s)} dB^H_s,

with the stochastic convolution rewritten by integration by parts as
B_t - beta e^{-beta t} int_0^t e^{beta s} B_s ds and the remaining smooth
integral done by cumulative trapezoid quadrature (scipy's
cumulative_trapezoid expression, written in numpy).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, fields

import numpy as np

from .fbm import FbmPath, SampleGrid, generate_fbm

__all__ = ["ModelParams", "VasicekPath", "simulate_exact"]

_LOG_MAX_FLOAT = math.log(sys.float_info.max)  # exp overflows past this


def _is_finite_real(value: object) -> bool:
    """A finite real number; bools, strings and None are not numbers here."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


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
    # Three buffers of n + 1 values, written in place; each step is the
    # operation of the expression in its comment, in the same order, so the
    # path is bitwise that of the out-of-place form.
    t = grid.times()
    decay = np.multiply(t, -beta)
    np.exp(decay, out=decay)  # e^{-beta t}

    # G_i = int_0^{t_i} e^{beta s} B_s ds, cumulative trapezoid:
    # y = e^{beta t} B; G = [0, cumsum(dt * (y[1:] + y[:-1]) / 2)]
    y = np.exp(np.multiply(t, beta, out=t), out=t)
    y *= noise
    g = np.empty_like(y)
    g[0] = 0.0
    np.add(y[1:], y[:-1], out=g[1:])
    g[1:] *= grid.dt
    g[1:] /= 2.0
    np.cumsum(g[1:], out=g[1:])

    # convolution = noise - beta * decay * G
    np.multiply(beta, decay, out=y)
    y *= g
    convolution = np.subtract(noise, y, out=g)

    # values = x0 * decay + mean_level * (1 - decay) + gamma * convolution
    np.subtract(1.0, decay, out=y)
    y *= params.mean_level
    values = np.multiply(params.x0, decay, out=decay)
    values += y
    convolution *= params.gamma
    values += convolution
    if not np.all(np.isfinite(values)):
        raise _overflow_error(beta * grid.horizon)
    return VasicekPath(grid=grid, params=params, values=values, driver_seed=used_seed)
