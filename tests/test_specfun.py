"""Bessel and log-gamma checks against a frozen arbitrary-precision oracle.

Expected values were computed once with mpmath at 40 decimal digits
(mp.besseli / mp.loggamma) and frozen below.  They pin the test oracles'
Bessel functions, the log I_nu that fracvas.mgf forms from
scipy.special.ive, and scipy.special.gammaln, through which every
Gamma-function constant of the kernel calculus is computed.
"""

import math

import pytest
from scipy.special import gammaln

import _oracles
from fracvas.mgf import _bessel_logs

# (nu, x, I_nu(x)) -- mpmath, 40 dps.  For |nu| pairs at large x the printed
# values coincide because I_{-nu} - I_nu decays like e^{-x}.
BESSEL_ORACLE = [
    (-0.7, 0.05, 4.4304417152310281),
    (-0.7, 0.5, 1.0703905887741055),
    (-0.7, 2.0, 1.9441106120020015),
    (-0.7, 10.0, 2743.8048447699973),
    (-0.7, 25.0, 5717077800.6855415),
    (-0.7, 30.0, 775205402418.45179),
    (-0.7, 37.5, 1254667757258252.4),
    (-0.7, 50.0, 2.9180734747444511e20),
    (-0.3, 0.05, 2.3319135869896381),
    (-0.3, 0.5, 1.2738712714514324),
    (-0.3, 2.0, 2.2374012335988941),
    (-0.3, 10.0, 2802.3624981712578),
    (-0.3, 25.0, 5763958753.4186930),
    (-0.3, 30.0, 780480421399.83353),
    (-0.3, 37.5, 1261469354308522.1),
    (-0.3, 50.0, 2.9298887214511478e20),
    (0.3, 0.05, 0.36861287395320883),
    (0.3, 0.5, 0.77095173457921947),
    (0.3, 2.0, 2.1776379895537380),
    (0.3, 10.0, 2802.3624889744585),
    (0.3, 25.0, 5763958753.4186930),
    (0.3, 30.0, 780480421399.83353),
    (0.3, 37.5, 1261469354308522.1),
    (0.3, 50.0, 2.9298887214511478e20),
    (0.7, 0.05, 0.083238916140324692),
    (0.7, 0.5, 0.43253990582478377),
    (0.7, 2.0, 1.8792092137336183),
    (0.7, 10.0, 2743.8048353959784),
    (0.7, 25.0, 5717077800.6855415),
    (0.7, 30.0, 775205402418.45179),
    (0.7, 37.5, 1254667757258252.4),
    (0.7, 50.0, 2.9180734747444511e20),
]

# (x, log Gamma(x)) -- mpmath, 40 dps.
LOG_GAMMA_ORACLE = [
    (0.5, 0.57236494292470009),
    (1.2, -0.085374090003315837),
    (3.7, 1.4280723266653881),
    (10.0, 12.801827480081470),
    (55.5, 166.32150615984037),
    (200.0, 857.93366982585744),
]


@pytest.mark.parametrize("nu,x,expected", BESSEL_ORACLE)
def test_bessel_i_matches_frozen_oracle(nu, x, expected):
    # Series region carries ~1e-14; the asymptotic tail is held to the
    # 1e-10 production tolerance (truncation ~1e-12 near the crossover).
    rel = 1e-12 if x <= 30.0 else 1e-10
    assert _oracles.bessel_i(nu, x) == pytest.approx(expected, rel=rel)


@pytest.mark.parametrize("nu,x,expected", BESSEL_ORACLE)
def test_production_log_bessel_matches_frozen_oracle(nu, x, expected):
    # at H = 0.7 the orders -H, H-1, 1-H, H that fracvas.mgf evaluates are
    # the table's -0.7, -0.3, 0.3, 0.7, up to the rounding of 1 - H
    (value,) = [v for order, v in _bessel_logs(0.7, x).items() if abs(order - nu) < 1e-15]
    assert value == pytest.approx(math.log(expected), rel=0.0, abs=1e-12)


def test_bessel_i_at_zero():
    assert _oracles.bessel_i(0.0, 0.0) == 1.0
    assert _oracles.bessel_i(0.7, 0.0) == 0.0
    assert _oracles.bessel_i(-0.3, 0.0) == math.inf


@pytest.mark.parametrize("x,expected", LOG_GAMMA_ORACLE)
def test_log_gamma_matches_frozen_oracle(x, expected):
    assert gammaln(x) == pytest.approx(expected, rel=1e-13, abs=1e-13)


def test_log_gamma_exact_anchor_points():
    assert gammaln(1.0) == pytest.approx(0.0, abs=5e-15)
    assert gammaln(2.0) == pytest.approx(0.0, abs=5e-15)
    assert gammaln(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)


@pytest.mark.parametrize("nu", [-0.7, -0.3, 0.3, 0.7])
@pytest.mark.parametrize("x", [0.1, 0.9, 4.4, 12.0, 29.5, 30.5, 50.0])
def test_three_term_recurrence(nu, x):
    # I_nu - I_{nu+2} = (2 (nu+1) / x) I_{nu+1}, centered so every order
    # stays inside the supported range nu > -1.
    lhs = _oracles.bessel_i(nu, x) - _oracles.bessel_i(nu + 2.0, x)
    rhs = 2.0 * (nu + 1.0) / x * _oracles.bessel_i(nu + 1.0, x)
    assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("nu", [-0.7, 0.3])
@pytest.mark.parametrize("x", [0.25, 7.0, 29.0, 31.0, 120.0])
def test_scaled_times_exp_recovers_unscaled(nu, x):
    if x > 700.0:  # raw value overflows; only the scaled form is usable there
        return
    assert _oracles.bessel_i_scaled(nu, x) * math.exp(x) == pytest.approx(
        _oracles.bessel_i(nu, x), rel=1e-12
    )


def test_scaled_form_survives_large_arguments():
    # Raw I_nu(800) overflows a double; the scaled value stays moderate.
    val = _oracles.bessel_i_scaled(0.3, 800.0)
    assert 0.0 < val < 1.0
    assert val == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * 800.0), rel=1e-2)


@pytest.mark.parametrize("nu", [-0.7, -0.3, 0.3, 0.7])
@pytest.mark.parametrize("x", [1e-9, 0.013, 1.7, 26.0, 44.0])
def test_ratio_even_is_exactly_even(nu, x):
    assert _oracles.bessel_ratio_even(nu, -x) == _oracles.bessel_ratio_even(nu, x)


@pytest.mark.parametrize(
    "nu,expected",
    [
        # 2^-nu / Gamma(1+nu), frozen from mpmath.
        (-0.7, 0.54302768861371757),
        (-0.3, 0.94845295295219211),
        (0.3, 0.90504614768952918),
        (0.7, 0.67746639496585158),
    ],
)
def test_ratio_even_limit_at_zero(nu, expected):
    assert _oracles.bessel_ratio_even(nu, 0.0) == pytest.approx(expected, rel=1e-13)


def test_ratio_even_continuous_at_zero():
    for nu in (-0.7, 0.3):
        lim = _oracles.bessel_ratio_even(nu, 0.0)
        assert _oracles.bessel_ratio_even(nu, 1e-8) == pytest.approx(lim, rel=1e-8)


@pytest.mark.parametrize("nu", [-0.7, -0.3, 0.3, 0.7])
def test_asymptotic_residual_decays_like_x_minus_2(nu):
    # exp(-x) I_nu(x) sqrt(2 pi x) = 1 - (4 nu^2 - 1)/(8x) + O(x^-2):
    # the residual after removing the first correction must shrink ~x^-2.
    mu = 4.0 * nu * nu
    xs = [50.0, 100.0, 200.0, 400.0]
    resid = []
    for x in xs:
        lead = _oracles.bessel_i_scaled(nu, x) * math.sqrt(2.0 * math.pi * x)
        resid.append(abs(lead - (1.0 - (mu - 1.0) / (8.0 * x))))
    for r, x in zip(resid, xs):
        assert r <= 10.0 / x**2
    # and the decay rate itself is quadratic within a factor
    assert resid[0] / resid[-1] == pytest.approx((xs[-1] / xs[0]) ** 2, rel=0.35)


def test_domain_errors():
    with pytest.raises(ValueError):
        _oracles.bessel_i(-1.0, 1.0)
    with pytest.raises(ValueError):
        _oracles.bessel_i(-1.3, 1.0)
    with pytest.raises(ValueError):
        _oracles.bessel_i(0.3, -0.5)
    with pytest.raises(ValueError):
        _oracles.bessel_i_scaled(0.3, -2.0)


def test_live_mpmath_spot_check():
    # One live cross-check so drift in the frozen table would be caught.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for nu, x in [(-0.52, 3.3), (0.41, 33.3)]:
        assert _oracles.bessel_i(nu, x) == pytest.approx(float(mp.besseli(nu, x)), rel=1e-10)
