"""Quadrature engine vs. closed-form path transforms and engine invariants."""

import math

import numpy as np
import pytest
from scipy.special import beta as beta_fn
from scipy.special import gamma as gamma_fn

from fracvas import transforms
from fracvas.fbm import SampleGrid
from fracvas.model import ModelParams, VasicekPath, simulate_exact
from fracvas.transforms import (
    PanelEngine,
    QuadratureConvergenceError,
    constants,
    kernel_k,
    martingale_M,
    reconstruct_X,
    refinement_check,
    sufficient_stats,
)

DESK = ModelParams(alpha=1.0, beta=-0.5, gamma=1.0, hurst=0.7, x0=0.3)


def test_constants_brownian_reduction():
    kc = constants(0.5, 1.0)
    assert kc.kappa == pytest.approx(1.0, abs=1e-13)
    assert kc.lam == pytest.approx(1.0, abs=1e-13)
    assert kc.w(2.5) == pytest.approx(2.5, abs=1e-13)
    assert kernel_k(2.0, 1.0, 0.5) == pytest.approx(1.0, abs=1e-13)


def test_constants_match_gamma_expressions():
    for hurst in (0.6, 0.7, 0.8):
        kc = constants(hurst, 2.0)
        kappa = 2.0 * hurst * gamma_fn(1.5 - hurst) * gamma_fn(hurst + 0.5)
        lam = 2.0 * hurst * gamma_fn(3.0 - 2.0 * hurst) * gamma_fn(hurst + 0.5) / gamma_fn(1.5 - hurst)
        assert kc.kappa == pytest.approx(kappa, rel=1e-14)
        assert kc.lam == pytest.approx(lam, rel=1e-14)
        assert kc.lam_star == pytest.approx(lam / (2.0 - 2.0 * hurst), rel=1e-14)
        assert kc.rho == pytest.approx(math.sqrt(math.pi) * gamma_fn(1.5 - hurst) / (2.0 * kappa), rel=1e-14)
        assert kc.w(3.0) == pytest.approx(3.0 ** (2.0 - 2.0 * hurst) / lam, rel=1e-14)


def test_kernel_domain():
    with pytest.raises(ValueError):
        kernel_k(1.0, 1.0, 0.7)
    with pytest.raises(ValueError):
        kernel_k(1.0, 0.0, 0.7)
    with pytest.raises(ValueError):
        kernel_k(1.0, 0.5, 0.3)
    assert kernel_k(2.0, 0.5, 0.7) > 0.0


def test_engine_validation():
    grid = SampleGrid(horizon=1.0, n=4096)
    with pytest.raises(ValueError):
        PanelEngine(grid, 0.7, stride=7)  # must divide n
    with pytest.raises(ValueError):
        PanelEngine(SampleGrid(horizon=1.0, n=32), 0.7, stride=16)  # inner grid too small
    with pytest.raises(ValueError):
        PanelEngine(grid, 0.3, stride=16)
    with pytest.raises(ValueError):
        PanelEngine(grid, 1.0, stride=16)
    # H = 1/2 is allowed for the transforms even though the model excludes it
    PanelEngine(grid, 0.5, stride=16)


def test_linear_path_closed_forms(monkeypatch):
    # X_t = t: then S_t = w(t), F_t = B(2+a, 1+a)/kappa * t^(2+2a),
    # P_t = lam/kappa * B(2+a, 1+a) * (2+2a)/(1+2a) * t, with a = 1/2 - H.
    # Checked on both engine forms; a one-cell dense budget forces the FFT.
    hurst = 0.7
    a = 0.5 - hurst
    grid = SampleGrid(horizon=5.0, n=2**13)
    kc = constants(hurst, 1.0)
    t_lin = grid.times()
    for dense_cells, dense in ((transforms._MAX_DENSE_CELLS, True), (1, False)):
        monkeypatch.setattr(transforms, "_MAX_DENSE_CELLS", dense_cells)
        eng = PanelEngine(grid, hurst, stride=16)
        assert (eng._weights is not None) == dense
        Z, F = eng.raw_panels(t_lin[None, :])
        inner = eng.inner_times[1:]

        err_s = np.abs(Z[0][1:] - kc.w(inner)) / kc.w(inner)
        assert err_s.max() < 2e-3
        assert np.median(err_s) < 1e-4
        assert err_s[-1] < 1e-5  # horizon row uses the most cells

        f_exact = beta_fn(2.0 + a, 1.0 + a) / kc.kappa * inner ** (2.0 + 2.0 * a)
        err_f = np.abs(F[0][1:] - f_exact) / f_exact
        assert err_f.max() < 2e-3
        assert err_f[-1] < 1e-5

        P = eng.derivative_panel(F, 1.0)[0]
        slope = kc.lam / kc.kappa * beta_fn(2.0 + a, 1.0 + a) * (2.0 + 2.0 * a) / (1.0 + 2.0 * a)
        err_p = np.abs(P - slope * inner) / (slope * inner)
        # first point has a genuinely wide stencil relative to t; it sharpens fast
        assert err_p[0] < 0.3
        assert err_p[8:].max() < 2e-3
        assert np.median(err_p[1:-1]) < 1e-4


def test_constant_path_closed_forms():
    # X = c: S = 0, I = 0, J = c w(T)/gamma, K = c^2 w(T)/gamma^2
    grid = SampleGrid(horizon=5.0, n=2**13)
    eng = PanelEngine(grid, 0.7, stride=16)
    w_T = constants(0.7, 1.0).w(5.0)
    c = 1.7
    out = eng.statistics(np.full((1, grid.n + 1), c), 2.0)
    assert out["S"][0] == 0.0
    assert out["I"][0] == 0.0
    assert out["J"][0] == pytest.approx(c * w_T / 2.0, rel=1e-4)
    assert out["K"][0] == pytest.approx(c * c * w_T / 4.0, rel=1e-4)
    assert out["w"] == pytest.approx(w_T, rel=1e-12)


def test_brownian_case_is_exact_on_interpolants():
    # At H = 1/2 the kernel is 1 and w(t) = t, so on the piecewise-linear
    # interpolant S must equal the increment sum and F the trapezoid integral.
    grid = SampleGrid(horizon=3.0, n=1024)
    eng = PanelEngine(grid, 0.5, stride=16)
    rng = np.random.default_rng(42)
    vals = np.concatenate([[0.0], np.cumsum(rng.standard_normal(1024) * 0.05)])
    Z, F = eng.raw_panels(vals[None, :])
    np.testing.assert_allclose(Z[0][1:], vals[::16][1:] - vals[0], atol=1e-12)
    trap = np.concatenate([[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * grid.dt)])
    np.testing.assert_allclose(F[0], trap[::16], atol=1e-12)


def test_martingale_identity_on_mean_path():
    # The noiseless path solves dx = (alpha - beta x) dt, so S + beta J
    # must equal (alpha/gamma) w(T) up to quadrature error.
    grid = SampleGrid(horizon=5.0, n=2**13)
    t = grid.times()
    mean_path = DESK.x0 * np.exp(-DESK.beta * t) + DESK.mean_level * (1.0 - np.exp(-DESK.beta * t))
    eng = PanelEngine(grid, DESK.hurst, stride=16)
    out = eng.statistics(mean_path[None, :], DESK.gamma)
    m = out["S"][0] + DESK.beta * out["J"][0] - DESK.alpha / DESK.gamma * out["w"]
    assert abs(m) < 1e-3


def test_martingale_statistic_is_standard_normal_smoke():
    # Normalized by sqrt(w_T) the drift-corrected S is N(0, 1); checked in
    # force by the acceptance suite, band-checked here on 300 replications.
    grid = SampleGrid(horizon=5.0, n=2**13)
    eng = PanelEngine(grid, DESK.hurst, stride=16)
    w_T = constants(DESK.hurst, DESK.gamma).w(5.0)
    z = np.empty(300)
    for r in range(300):
        path = simulate_exact(DESK, grid, seed=778_000_000 + r)
        stats = sufficient_stats(path, stride=16)
        z[r] = martingale_M(stats, DESK) / math.sqrt(w_T)
    assert abs(z.mean()) < 0.25
    assert 0.85 < z.std(ddof=1) < 1.15


def test_sufficient_stats_match_engine_dict():
    grid = SampleGrid(horizon=5.0, n=2**12)
    path = simulate_exact(DESK, grid, seed=31)
    stats = sufficient_stats(path, stride=16)
    eng = PanelEngine(grid, DESK.hurst, stride=16)
    out = eng.statistics(path.values[None, :], DESK.gamma)
    assert stats.S == out["S"][0]
    assert stats.I == out["I"][0]
    assert stats.J == out["J"][0]
    assert stats.K == out["K"][0]
    assert stats.w == out["w"]
    m = martingale_M(stats, DESK)
    assert m == pytest.approx(stats.S + DESK.beta * stats.J - DESK.alpha / DESK.gamma * stats.w, rel=1e-15)


def test_cauchy_schwarz_between_stats():
    # J = int P dw and K = int P^2 dw, so J^2 <= w K on every path.
    grid = SampleGrid(horizon=5.0, n=2**13)
    for r in range(20):
        path = simulate_exact(DESK, grid, seed=90_000 + r)
        stats = sufficient_stats(path, stride=16)
        assert stats.J ** 2 <= stats.w * stats.K
        assert stats.K > 0.0


def test_fft_panels_match_dense_matrix(monkeypatch):
    # Same quadrature weights, two evaluation orders: dense matmul vs the
    # convolution form used for large problems.  Agreement to rounding.
    for n, stride in ((4096, 16), (4096, 1), (2048, 2)):
        grid = SampleGrid(horizon=5.0, n=n)
        monkeypatch.setattr(transforms, "_MAX_DENSE_CELLS", 10**9)
        dense = PanelEngine(grid, 0.7, stride=stride)
        monkeypatch.setattr(transforms, "_MAX_DENSE_CELLS", 1)
        fft = PanelEngine(grid, 0.7, stride=stride)
        assert dense._weights is not None and fft._weights is None
        rng = np.random.default_rng(3)
        vals = np.cumsum(rng.standard_normal((3, n + 1)), axis=1) * 0.02
        vals[:, 0] = 0.0
        Zd, Fd = dense.raw_panels(vals)
        Zf, Ff = fft.raw_panels(vals)
        scale = np.abs(Zd).max()
        assert np.abs(Zd - Zf).max() < 1e-12 * scale
        assert np.abs(Fd - Ff).max() < 1e-12 * scale


def test_refinement_check_passes_on_model_path():
    grid = SampleGrid(horizon=5.0, n=2**13)
    path = simulate_exact(DESK, grid, seed=4242)
    drifts = refinement_check(path, stride=16)
    assert set(drifts) == {"S", "I", "J", "K"}
    assert max(drifts.values()) < 0.01


def test_refinement_check_rejects_rough_junk():
    # White noise has no continuous-path limit, so halving the stride moves
    # the Riemann-Stieltjes sums by O(1) and the check must refuse it.
    grid = SampleGrid(horizon=5.0, n=2**13)
    rng = np.random.default_rng(7)
    junk_vals = np.concatenate([[DESK.x0], rng.standard_normal(grid.n) * 3.0])
    junk = VasicekPath(grid=grid, params=DESK, values=junk_vals, driver_seed=None)
    with pytest.raises(QuadratureConvergenceError):
        refinement_check(junk, stride=16)


def test_reconstruction_roundtrip():
    # X -> S -> X at four interior times; error measured against path scale
    # because the unstable drift (beta < 0) grows the state to ~40.
    grid = SampleGrid(horizon=5.0, n=2**14)
    path = simulate_exact(DESK, grid, seed=555)
    eng = PanelEngine(grid, DESK.hurst, stride=4)
    Z, _ = eng.raw_panels(path.values)
    m = eng.n_inner
    idx = np.array([m // 4, m // 2, 3 * m // 4, m])
    out_t, out_x = reconstruct_X(eng.inner_times, Z[0] / DESK.gamma, DESK, out_indices=idx)
    actual = path.values[::4][idx]
    np.testing.assert_allclose(out_t, [1.25, 2.5, 3.75, 5.0])
    scale = np.abs(path.values).max()
    assert np.abs(out_x - actual).max() / scale < 0.02
