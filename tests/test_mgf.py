"""Closed-form generating functions against independent oracles.

Three oracle families: exact Ornstein-Uhlenbeck formulas at H just above
1/2, a Gaussian quadratic-form quadrature of the law in the variance
clock, and frozen Monte Carlo anchors (see _anchors.py).
"""

import math

import numpy as np
import pytest

from fracvas.mgf import (
    MgfDomainError,
    _coefficients,
    _derived_drift,
    mgf1_D,
    mgf1_log,
    mgf2_log,
)
from fracvas.model import ModelParams
from fracvas.transforms import constants

import _anchors
from _oracles import mgf1_domain_boundary, mgf_product_bivariate, mgf_quadratic_pair

DESK = ModelParams(alpha=1.0, beta=-0.5, gamma=1.0, hurst=0.7, x0=0.3)
T_DESK = 2.0


def m1_log(xi1, xi2, params=DESK, horizon=T_DESK):
    return mgf1_log(xi1, xi2, params, horizon)


# ---------------------------------------------------------------------------
# independent law oracle
#
# In the variance clock the core martingale has independent Gaussian
# increments and the derivative process is a moving average of them, so any
# joint exponential tilt of (S, I, J, K) reduces, through the drift
# likelihood ratio, to E exp{theta.x + x'Qx} for x ~ N(0, dw I): a
# determinant plus one linear solve.  Quadrature error is O(1/K); a
# two-point Richardson step removes the leading term.
# ---------------------------------------------------------------------------


def _clock_log_mgf(a, b, c, d, hurst, horizon, steps):
    lam = constants(hurst, 1.0).lam
    c_star = lam / (2.0 * (2.0 - 2.0 * hurst))
    w_t = horizon ** (2.0 - 2.0 * hurst) / lam
    dw = w_t / steps
    t_edge = (lam * dw * np.arange(steps + 1)) ** (1.0 / (2.0 - 2.0 * hurst))
    w_mid = dw * (np.arange(steps) + 0.5)
    t_mid = (lam * w_mid) ** (1.0 / (2.0 - 2.0 * hurst))
    mid_pow = t_mid ** (2.0 * hurst - 1.0)
    edge_pow = t_edge ** (2.0 * hurst - 1.0)

    theta = np.full(steps, a)
    theta += c * c_star * ((2.0 - 2.0 * hurst) * (horizon - t_mid) / lam + mid_pow * (w_t - w_mid))

    # int P^2 dw as suffix sums of the moving-average kernel
    s2 = np.cumsum((dw * mid_pow**2)[::-1])[::-1]
    s1 = np.cumsum((dw * mid_pow)[::-1])[::-1]
    s0 = dw * np.arange(steps, 0, -1, dtype=float)
    later = np.maximum.outer(np.arange(steps), np.arange(steps))
    quad = c_star**2 * (
        s2[later] + s1[later] * np.add.outer(mid_pow, mid_pow) + s0[later] * np.outer(mid_pow, mid_pow)
    )
    ito = np.tril(c_star * np.add.outer(edge_pow[:-1], mid_pow), k=-1)
    q_sym = d * quad + b * 0.5 * (ito + ito.T)

    a_mat = np.eye(steps) - 2.0 * dw * q_sym
    sign, logdet = np.linalg.slogdet(a_mat)
    if sign <= 0:
        raise ValueError("tilt outside the domain at this step count")
    sol = np.linalg.solve(a_mat, theta)
    return -0.5 * logdet + 0.5 * dw * float(theta @ sol)


def _oracle_log_mgf4(t1, t2, t3, t4, params, horizon, steps):
    """log E exp{t . (S, I, J, K)} by likelihood-ratio reduction."""
    alpha, beta, gamma, x0 = params.alpha, params.beta, params.gamma, params.x0
    nu = (alpha - beta * x0) / gamma
    w_t = constants(params.hurst, gamma).w(horizon)
    a = t1 + (t2 - beta) * x0 / gamma + alpha / gamma
    b = t2 - beta
    c = t3 + 2.0 * t4 * x0 / gamma + beta * nu
    d = t4 - beta**2 / 2.0
    const = w_t * (t3 * x0 / gamma + t4 * x0**2 / gamma**2 - nu**2 / 2.0)
    return const + _clock_log_mgf(a, b, c, d, params.hurst, horizon, steps)


def _oracle_extrapolated(t1, t2, t3, t4, params=DESK, horizon=T_DESK, k1=800, k2=1600):
    v1 = _oracle_log_mgf4(t1, t2, t3, t4, params, horizon, k1)
    v2 = _oracle_log_mgf4(t1, t2, t3, t4, params, horizon, k2)
    return (k2 * v2 - k1 * v1) / (k2 - k1)


# ---------------------------------------------------------------------------
# trivial values and structural zeros
# ---------------------------------------------------------------------------


def test_trivial_values():
    assert m1_log(0.0, 0.0) == pytest.approx(0.0, abs=1e-14)
    assert mgf2_log((0.0, 0.0, 0.0, 0.0), DESK, T_DESK) == pytest.approx(0.0, abs=1e-14)
    assert mgf1_D(0.0, DESK, T_DESK) == pytest.approx(1.0, abs=1e-14)
    assert mgf_product_bivariate(0.0, 0.4, -0.2, 1.1, 0.7, 0.3) == pytest.approx(1.0)
    assert mgf_quadratic_pair(0.0, 0.0, 0.5, 1.2) == pytest.approx(1.0)


def test_start_level_at_the_mean_kills_offset_terms():
    # x0 = alpha/beta zeroes every coefficient that carries the offset, and
    # with it the blocks A1, A3 and A4
    params = ModelParams(alpha=1.0, beta=-0.5, gamma=1.0, hurst=0.7, x0=-2.0)
    assert params.x0 == pytest.approx(params.mean_level)
    c1, c2, c3, c4, c5, c6 = _coefficients(params)
    assert (c1, c2, c4, c5, c6) == (0.0, 0.0, 0.0, 0.0, 0.0)
    assert c3 > 0.0
    # the remaining block A2 is purely quadratic in the folded linear
    # argument, so choosing xi1 = -xi2 x0 / gamma removes it as well
    xi2 = -0.05
    expected = -0.5 * math.log(mgf1_D(xi2, params, T_DESK)) - xi2 * T_DESK / 2.0
    folded_zero = -xi2 * params.x0 / params.gamma
    assert m1_log(folded_zero, xi2, params) == pytest.approx(expected, abs=1e-14)


def test_rejects_mean_reverting_drift_and_bad_horizon():
    up = ModelParams(alpha=1.0, beta=0.4, gamma=1.0, hurst=0.7, x0=0.3)
    with pytest.raises(MgfDomainError):
        mgf1_log(0.0, 0.0, up, T_DESK)
    with pytest.raises(MgfDomainError):
        mgf1_D(0.0, up, T_DESK)
    with pytest.raises(MgfDomainError):
        mgf2_log((0.0, 0.0, 0.0, 0.0), up, T_DESK)
    with pytest.raises(MgfDomainError):
        mgf1_domain_boundary(up, T_DESK)
    with pytest.raises(ValueError):
        mgf1_log(0.0, 0.0, DESK, 0.0)
    with pytest.raises(ValueError):
        mgf2_log((0.0, 0.0, 0.0, 0.0), DESK, 0.0)


# ---------------------------------------------------------------------------
# law oracles
# ---------------------------------------------------------------------------


def test_short_memory_limit_matches_ornstein_uhlenbeck():
    """At H barely above 1/2 the law collapses to classical OU formulas.

    There S = (X_T - x0)/gamma and I is a function of X_T alone, so the
    joint MGF reduces to E exp(a X_T + b X_T^2) with X_T exactly normal.
    This shares no code with the closed form and pins the start-level
    handling independently.
    """
    params = ModelParams(alpha=1.0, beta=-0.5, gamma=1.0, hurst=0.500001, x0=0.3)

    def ou_log_m1(xi1, xi2, horizon):
        mean_level = params.alpha / params.beta
        drift_mean = mean_level + (params.x0 - mean_level) * math.exp(-params.beta * horizon)
        var = params.gamma**2 * (math.exp(-2.0 * params.beta * horizon) - 1.0) / (-2.0 * params.beta)
        a = xi1 / params.gamma
        b = xi2 / (2.0 * params.gamma**2)
        gate = 1.0 - 2.0 * b * var
        quad = a * drift_mean + b * drift_mean**2 + (a + 2.0 * b * drift_mean) ** 2 * var / (2.0 * gate)
        head = -xi2 * (params.x0**2 / params.gamma**2 + horizon) / 2.0 - xi1 * params.x0 / params.gamma
        return head - 0.5 * math.log(gate) + quad

    for xi1, xi2 in ((0.0, -0.1), (0.1, -0.05), (0.3, 0.05), (-0.2, -0.2)):
        closed = m1_log(xi1, xi2, params)
        assert closed == pytest.approx(ou_log_m1(xi1, xi2, T_DESK), abs=2e-5)


def test_closed_form_matches_quadrature_oracle():
    for xi1, xi2 in ((0.1, -0.05), (-0.2, -0.2), (0.0, 0.05)):
        oracle = _oracle_extrapolated(xi1, xi2, 0.0, 0.0)
        assert m1_log(xi1, xi2) == pytest.approx(oracle, abs=1e-3)
    oracle = _oracle_extrapolated(0.05, 0.0, 0.05, -0.1)
    closed = mgf2_log((0.05, 0.0, 0.05, -0.1), DESK, T_DESK)
    assert closed == pytest.approx(oracle, abs=1e-3)


def test_matches_frozen_simulation_anchors():
    for (xi1, xi2), (mc, se) in _anchors.M1_POINTS.items():
        closed = m1_log(xi1, xi2)
        assert abs(closed - mc) <= 3.0 * se, (xi1, xi2, closed, mc, se)
    theta, (mc, se) = _anchors.M2_POINT
    closed = mgf2_log(theta, DESK, _anchors.HORIZON)
    assert abs(closed - mc) <= 3.0 * se


def test_moment_extraction_matches_simulation_mean():
    h = 1e-4
    slope = (m1_log(h, 0.0) - m1_log(-h, 0.0)) / (2.0 * h)
    mean, se = _anchors.MEAN_STATS["S"]
    assert abs(slope - mean) <= 3.0 * se


def test_frozen_regression_values():
    # corrected closed-form values at the anchor points, 1e-8 pins
    expected = {
        (0.10, -0.05): -0.1542216153,
        (0.20, 0.00): 0.7065689637,
        (-0.15, 0.05): 0.1364695365,
        (-0.20, -0.20): -1.0742243308,
        (0.00, 0.05): 0.7788343372,
        (0.15, -0.15): -0.5491268772,
    }
    for (xi1, xi2), value in expected.items():
        assert m1_log(xi1, xi2) == pytest.approx(value, abs=1e-8)
    assert mgf2_log((0.05, 0.0, 0.05, -0.1), DESK, T_DESK) == pytest.approx(
        -0.7065767267, abs=1e-8
    )


# ---------------------------------------------------------------------------
# reduction and reparameterization
# ---------------------------------------------------------------------------


def test_reduction_identity_exact():
    for th1 in (-0.2, 0.0, 0.15):
        for th2 in (-0.15, -0.05, 0.05):
            full = mgf2_log((th1, th2, 0.0, 0.0), DESK, T_DESK)
            assert full == pytest.approx(m1_log(th1, th2), abs=1e-12)


def test_quadratic_tilt_gate():
    with pytest.raises(MgfDomainError):
        _derived_drift(0.0, DESK.beta**2 / 2.0, DESK)
    alpha1, beta1 = _derived_drift(0.0, -0.1, DESK)
    assert beta1 < DESK.beta  # extra quadratic penalty steepens the drift
    assert math.isfinite(alpha1)


# ---------------------------------------------------------------------------
# long-horizon behavior
# ---------------------------------------------------------------------------


def _scaled_limit_target(params, th1, th2, th3):
    kc = constants(params.hurst, params.gamma)
    beta, hurst = params.beta, params.hurst
    offset = params.x0 - params.mean_level
    c6 = 2.0 * offset**2 * kc.lam_star * kc.rho**2
    load = (th2**2 + 2.0 * th3) / (4.0 * beta**2 * math.sin(math.pi * hurst))
    gate = 1.0 - load
    tail = c6 * (-beta) ** (2.0 * hurst - 2.0) * (th2**2 + 2.0 * th3) / (8.0 * math.pi * gate)
    return th1**2 / (2.0 * kc.lam) - 0.5 * math.log(gate) + tail


def _scaled_limit_probe(params, th1, th2, th3, horizon):
    """Joint tilt of the normalized martingale triple at one horizon.

    The tilt u M + v int P dM + z K translates to (S, I, J, K) coordinates
    through M = S + beta J - (alpha/gamma) w and
    int P dM = I - (alpha/gamma) J + beta K.
    """
    kc = constants(params.hurst, params.gamma)
    beta = params.beta
    u = th1 * horizon ** (params.hurst - 1.0)
    v = th2 * math.exp(beta * horizon)
    z = th3 * math.exp(2.0 * beta * horizon)
    tilt = (u, v, beta * u - v * params.alpha / params.gamma, beta * v + z)
    return mgf2_log(tilt, params, horizon) - u * (params.alpha / params.gamma) * kc.w(horizon)


def test_normalized_martingale_tilt_is_exact_at_any_horizon():
    # the first slot alone tilts a centered Gaussian with known variance,
    # so the identity is exact at every horizon, not just in the limit
    target = 0.6**2 / (2.0 * constants(DESK.hurst, DESK.gamma).lam)
    for horizon in (2.0, 5.0, 20.0):
        probe = _scaled_limit_probe(DESK, 0.6, 0.0, 0.0, horizon)
        assert probe == pytest.approx(target, abs=1e-10)


def test_scaled_tilt_converges_to_product_law():
    horizons = (5.0, 10.0, 15.0, 20.0)

    # the limit depends on (th2, th3) only through th2^2 + 2 th3
    assert _scaled_limit_target(DESK, 0.0, 0.5, 0.0) == pytest.approx(
        _scaled_limit_target(DESK, 0.0, 0.3, 0.08)
    )

    # second-slot tilt alone: fast convergence, 13x contraction over the grid
    target = _scaled_limit_target(DESK, 0.0, 0.5, 0.0)
    gaps = [abs(_scaled_limit_probe(DESK, 0.0, 0.5, 0.0, t) - target) for t in horizons]
    assert gaps[-1] <= 0.12 * gaps[0]
    assert gaps[-1] < 0.025

    mixed_target = _scaled_limit_target(DESK, 0.0, 0.3, 0.08)
    mixed_gap = abs(_scaled_limit_probe(DESK, 0.0, 0.3, 0.08, 20.0) - mixed_target)
    assert mixed_gap < 0.025

    # tilts mixing the first slot converge like T^(H-1) with offset-sized
    # constants; at the desk offset the gap shrinks monotonically
    target = _scaled_limit_target(DESK, 0.6, 0.3, 0.1)
    gaps = [_scaled_limit_probe(DESK, 0.6, 0.3, 0.1, t) - target for t in horizons]
    assert all(g > 0.0 for g in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.66 * gaps[0]

    # a small offset shrinks those constants and the same point lands close
    small_offset = ModelParams(alpha=-0.12, beta=-0.5, gamma=1.0, hurst=0.7, x0=0.3)
    target = _scaled_limit_target(small_offset, 0.6, 0.3, 0.1)
    gaps = [_scaled_limit_probe(small_offset, 0.6, 0.3, 0.1, t) - target for t in horizons]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.11


def test_gate_quantity_scaled_argument_limit():
    # exponentially shrinking arguments leave a finite gate value
    u = -0.05
    beta, hurst = DESK.beta, DESK.hurst
    target = 1.0 + u / (2.0 * beta * math.sin(math.pi * hurst))
    gaps = [
        abs(mgf1_D(u * math.exp(2.0 * beta * t), DESK, t) - target) for t in (5.0, 10.0, 15.0, 20.0)
    ]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-3


def test_finite_out_to_horizon_thirty():
    # raw building blocks overflow near T ~ 25; the scaled assembly must not
    expected = {5.0: -2.17588763, 10.0: -4.92987871, 20.0: -9.71218704, 30.0: -14.46428219}
    for horizon, value in expected.items():
        assert m1_log(0.1, -0.05, DESK, horizon) == pytest.approx(value, abs=1e-6)


# ---------------------------------------------------------------------------
# domain boundary
# ---------------------------------------------------------------------------


def test_domain_boundary_bisection():
    boundary = mgf1_domain_boundary(DESK, T_DESK)
    assert boundary == pytest.approx(0.14210230, abs=1e-6)
    assert mgf1_D(0.999 * boundary, DESK, T_DESK) > 0.0
    assert mgf1_D(1.001 * boundary, DESK, T_DESK) < 0.0
    assert math.isfinite(m1_log(0.0, 0.999 * boundary))
    with pytest.raises(MgfDomainError):
        m1_log(0.0, 1.001 * boundary)


@pytest.mark.parametrize("horizon", [18.0, 24.0, 30.0])
def test_domain_boundary_relative_accuracy_at_long_horizons(horizon):
    # the boundary shrinks like e^{beta T} and falls far below 1, where an
    # absolute stopping width would swamp it
    boundary = mgf1_domain_boundary(DESK, horizon)
    assert mgf1_D(0.999 * boundary, DESK, horizon) > 0.0 > mgf1_D(1.001 * boundary, DESK, horizon)


def test_domain_boundary_matches_oracle_divergence():
    # the quadrature oracle's Gaussian form loses positive definiteness on
    # the same side of the boundary where the closed form's gate goes negative
    boundary = mgf1_domain_boundary(DESK, T_DESK)
    _oracle_log_mgf4(0.0, 0.95 * boundary, 0.0, 0.0, DESK, T_DESK, 600)
    with pytest.raises(ValueError):
        _oracle_log_mgf4(0.0, 1.05 * boundary, 0.0, 0.0, DESK, T_DESK, 600)


def test_domain_boundary_unbounded_case():
    # with beta far from zero and a short horizon the scan finds no root
    calm = ModelParams(alpha=0.0, beta=-3.0, gamma=1.0, hurst=0.7, x0=0.0)
    assert mgf1_domain_boundary(calm, 0.1, xi2_cap=4.0) == math.inf


# ---------------------------------------------------------------------------
# product MGFs
# ---------------------------------------------------------------------------


def _hermite_product_mgf(t, mean1, mean2, s1, s2, corr, nodes=48):
    x, wts = np.polynomial.hermite_e.hermegauss(nodes)
    xs = mean1 + s1 * x[:, None]
    ys = mean2 + s2 * (corr * x[:, None] + math.sqrt(1.0 - corr**2) * x[None, :])
    weight = wts[:, None] * wts[None, :] / (2.0 * math.pi)
    return float((weight * np.exp(t * xs * ys)).sum())


def test_product_mgf_matches_quadrature():
    cases = [
        (0.15, 0.4, -0.3, 1.2, 0.8, 0.5),
        (-0.2, 0.0, 0.7, 0.9, 1.1, -0.4),
        (0.1, -0.5, -0.5, 0.6, 0.6, 0.0),
    ]
    for t, mean1, mean2, s1, s2, corr in cases:
        closed = mgf_product_bivariate(t, mean1, mean2, s1, s2, corr)
        quad = _hermite_product_mgf(t, mean1, mean2, s1, s2, corr)
        assert abs(closed - quad) / abs(quad) <= 1e-8


def test_product_mgf_centered_uncorrelated():
    t, s1, s2 = 0.3, 0.9, 1.1
    expected = (1.0 - s1**2 * s2**2 * t**2) ** -0.5
    assert mgf_product_bivariate(t, 0.0, 0.0, s1, s2, 0.0) == pytest.approx(expected, rel=1e-14)


def test_product_mgf_rejects_bad_arguments():
    with pytest.raises(ValueError):
        mgf_product_bivariate(0.1, 0.0, 0.0, 1.0, 1.0, 1.5)
    with pytest.raises(ValueError):
        mgf_product_bivariate(0.1, 0.0, 0.0, -1.0, 1.0, 0.0)
    with pytest.raises(MgfDomainError):
        mgf_product_bivariate(2.0, 0.0, 0.0, 1.0, 1.0, 0.0)


def test_quadratic_pair_chi_square_slice():
    theta2, sigma = 0.2, 1.1
    expected = (1.0 - 2.0 * theta2 * sigma**2) ** -0.5
    assert mgf_quadratic_pair(0.0, theta2, 0.0, sigma) == pytest.approx(expected, rel=1e-14)


def test_quadratic_pair_composes_from_product_mgf():
    """The pair formula is the product formula applied to X and th1 Y + th2 X."""
    cases = [(0.3, -0.2, 0.5, 0.9), (0.1, 0.05, -0.4, 1.3), (0.5, 0.1, 0.0, 0.7)]
    for th1, th2, mean, sigma in cases:
        spread = math.sqrt(th1**2 + th2**2 * sigma**2)
        corr = th2 * sigma / spread
        composed = mgf_product_bivariate(1.0, mean, th2 * mean, sigma, spread, corr)
        direct = mgf_quadratic_pair(th1, th2, mean, sigma)
        assert abs(direct - composed) / abs(direct) <= 1e-12


def test_quadratic_pair_rejects_bad_arguments():
    with pytest.raises(ValueError):
        mgf_quadratic_pair(0.1, 0.1, 0.0, -1.0)
    with pytest.raises(MgfDomainError):
        mgf_quadratic_pair(1.5, 0.5, 0.0, 1.0)
