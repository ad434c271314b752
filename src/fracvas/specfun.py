"""Log-gamma and modified Bessel functions of the first kind, real order nu > -1.

Checked wrappers around scipy.special (gammaln, iv, ive).  The MGF code
combines log I_nu with large positive or negative exponents analytically,
so log_bessel_i is formed from the exponentially scaled ive and never
overflows for arguments of practical size.
"""

from __future__ import annotations

import math

from scipy.special import gammaln, iv, ive

__all__ = ["log_gamma", "log_bessel_i", "bessel_i", "bessel_i_scaled", "bessel_ratio_even"]


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if not x > 0.0:
        raise ValueError(f"log_gamma needs x > 0, got {x!r}")
    return float(gammaln(x))


def _check(nu: float, x: float, name: str) -> None:
    if not nu > -1.0:
        raise ValueError(f"Bessel order must be > -1, got {nu!r}")
    if not x >= 0.0:
        raise ValueError(f"{name} needs x >= 0, got {x!r}")


def log_bessel_i(nu: float, x: float) -> float:
    """log I_nu(x) for x > 0, nu > -1."""
    _check(nu, x, "log_bessel_i")
    if x == 0.0:
        raise ValueError(f"log_bessel_i needs x > 0, got {x!r}")
    return math.log(ive(nu, x)) + x


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
        return math.exp(-nu * math.log(2.0) - log_gamma(1.0 + nu))
    return math.exp(log_bessel_i(nu, ax) - nu * math.log(ax))
