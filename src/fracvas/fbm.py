"""Fractional Brownian motion on a uniform grid.

The production generator uses circulant embedding of the stationary increment
process (Davies-Harte): the 2n-point circulant built from the fractional
Gaussian noise autocovariance is diagonalized by the FFT, nonnegative
eigenvalues are required (tiny negative values from rounding are clipped),
and their square roots are cached per (n, H).  One complex Gaussian draw
per frequency of the half spectrum and one inverse real FFT synthesize an
exact sample in O(n log n).

Paths are pinned to value 0 at t = 0 and are exact in distribution at the
grid times; unit-spacing noise is rescaled by dt^H (self-similarity).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["SampleGrid", "FbmPath", "FbmEmbeddingError", "generate_fbm"]

_EIGENVALUE_CLIP_RTOL = 1e-10


class FbmEmbeddingError(RuntimeError):
    """Circulant embedding produced materially negative eigenvalues."""


@dataclass(frozen=True)
class SampleGrid:
    """Uniform time grid: n cells on [0, horizon], n+1 nodes."""

    horizon: float
    n: int

    def __post_init__(self) -> None:
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon!r}")
        if self.n < 2:
            raise ValueError(f"need at least 2 cells, got n={self.n!r}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n + 1)


@dataclass(frozen=True)
class FbmPath:
    grid: SampleGrid
    hurst: float
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (self.grid.n + 1,):
            raise ValueError("values must have one entry per grid node")
        if self.values[0] != 0.0:
            raise ValueError("fBm paths start at 0")


def _check_hurst(hurst: float) -> None:
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"Hurst index must lie in (0, 1), got {hurst!r}")


def _fgn_unit_autocov(n: int, hurst: float) -> np.ndarray:
    # Autocovariance of unit-spacing fractional Gaussian noise at lags 0..n.
    k = np.arange(n + 1, dtype=float)
    h2 = 2.0 * hurst
    return 0.5 * ((k + 1.0) ** h2 + np.abs(k - 1.0) ** h2) - k**h2


@functools.lru_cache(maxsize=16)
def _amplitudes(n: int, hurst: float) -> np.ndarray:
    """Read-only irfft amplitudes of the 2n-point circulant embedding, bins 0..n:
    sqrt(n eig_k) inside, sqrt(2n eig_k) at the unpaired bins k = 0 and n."""
    c = _fgn_unit_autocov(n, hurst)
    eig = np.fft.rfft(np.concatenate([c, c[-2:0:-1]])).real  # circulant first row, length 2n
    floor = -_EIGENVALUE_CLIP_RTOL * eig.max()
    if eig.min() < floor:
        raise FbmEmbeddingError(
            f"negative circulant eigenvalue {eig.min():.3e} at n={n}, H={hurst}"
        )
    amp = np.sqrt(n * np.clip(eig, 0.0, None))
    amp[[0, n]] *= np.sqrt(2.0)
    amp.flags.writeable = False
    return amp


def generate_fbm(hurst: float, grid: SampleGrid, seed: int) -> FbmPath:
    """Sample one fBm path by circulant embedding; exact at the grid times."""
    _check_hurst(hurst)
    n = grid.n
    amp = _amplitudes(n, hurst)
    z = np.random.default_rng(seed).standard_normal(2 * n)
    # filled in place: at n = 65536 each extra temporary is another 1 MiB
    half = np.empty(n + 1, dtype=complex)
    half.real = z[: n + 1]
    half.imag[1:n] = -z[n + 1 :]
    half.imag[[0, n]] = 0.0
    del z  # freed before irfft allocates its output and scratch
    half *= amp
    noise_unit = np.fft.irfft(half, 2 * n)[:n]
    # values = [0, cumsum(noise_unit) * dt^H], the cumulative sum in place
    values = np.empty(n + 1)
    values[0] = 0.0
    np.cumsum(noise_unit, out=values[1:])
    values[1:] *= grid.dt**hurst
    return FbmPath(grid=grid, hurst=hurst, values=values)
