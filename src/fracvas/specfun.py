"""Log-gamma and the log of the modified Bessel function I_nu, real order nu > -1.

Checked wrappers around scipy.special (gammaln, ive).  The MGF code
combines log I_nu with large positive or negative exponents analytically,
so log_bessel_i is formed from the exponentially scaled ive and never
overflows for arguments of practical size.
"""

from __future__ import annotations

import math

from scipy.special import gammaln, ive

__all__ = ["log_gamma", "log_bessel_i"]


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
