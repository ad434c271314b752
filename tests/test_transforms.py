"""Quadrature engine vs. closed-form path transforms and engine invariants."""

import math

import numpy as np
import pytest
from scipy import fft as sfft
from scipy.special import beta as beta_fn
from scipy.special import gamma as gamma_fn

from _oracles import (
    QuadratureConvergenceError,
    kernel_k,
    martingale_M,
    reconstruct_X,
    refinement_check,
)
from fracvas import transforms
from fracvas.fbm import SampleGrid
from fracvas.model import ModelParams, VasicekPath, simulate_exact
from fracvas.transforms import PanelEngine, constants, quadratic_variation, shared_engine

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


def test_stride_one_first_row_is_exact_beta_value(monkeypatch):
    # With stride 1 the first output time covers one cell holding both
    # singular ends; on X_t = t that row is S_dt = w(dt) in closed form,
    # independent of the Beta-function value the engine folds into it.
    grid = SampleGrid(horizon=1.0, n=64)
    for hurst in (0.55, 0.7, 0.95):
        w_dt = constants(hurst, 1.0).w(grid.dt)
        for dense_cells in (transforms._MAX_DENSE_CELLS, 1):
            monkeypatch.setattr(transforms, "_MAX_DENSE_CELLS", dense_cells)
            Z, _ = PanelEngine(grid, hurst, stride=1).raw_panels(grid.times())
            assert abs(Z[0, 1] - w_dt) < 1e-12


def test_transform_refuses_cells_that_are_not_one_row_per_path(monkeypatch):
    # Both forms take a (paths, n) block: a bare 1-D row used to come back
    # as one panel from the dense form and raise IndexError in the FFT form.
    grid = SampleGrid(horizon=1.0, n=256)
    cells = np.ones(grid.n)
    for dense_cells in (transforms._MAX_DENSE_CELLS, 1):
        monkeypatch.setattr(transforms, "_MAX_DENSE_CELLS", dense_cells)
        eng = PanelEngine(grid, 0.7, stride=16)
        for bad in (cells, cells[None, None, :], cells[None, 1:]):
            with pytest.raises(ValueError, match="shape"):
                eng.transform(bad)
        assert eng.transform(cells[None, :]).shape == (1, eng.n_inner)


def test_quadratic_variation_partition():
    # Every inner cell up to 2048 of them, then the smallest step that
    # leaves at most 2048 equal blocks; on a linear panel each block adds
    # step^2, so the sum is cells * step.
    for cells, step in ((256, 1), (2048, 1), (3000, 2), (4096, 2), (6000, 3)):
        panel = np.arange(cells + 1, dtype=float)[None, :]
        assert quadratic_variation(np.vstack([panel, 2.0 * panel])).tolist() == [
            cells * step,
            4.0 * cells * step,
        ]
    with pytest.raises(ValueError, match="block size"):
        quadratic_variation(np.zeros((1, 2050)))


def test_constant_path_closed_forms():
    # X = c: S = 0, I = 0, J = c w(T)/gamma, K = c^2 w(T)/gamma^2
    grid = SampleGrid(horizon=5.0, n=2**13)
    eng = PanelEngine(grid, 0.7, stride=16)
    w_T = constants(0.7, 1.0).w(5.0)
    c = 1.7
    out = eng.statistics(np.full((1, grid.n + 1), c), 2.0)
    assert out.S[0] == 0.0
    assert out.I[0] == 0.0
    assert out.J[0] == pytest.approx(c * w_T / 2.0, rel=1e-4)
    assert out.K[0] == pytest.approx(c * c * w_T / 4.0, rel=1e-4)
    assert out.w == pytest.approx(w_T, rel=1e-12)


def test_statistics_refuse_non_finite_outputs():
    # the first of S, I, J, K, qv that is not finite is named where it is
    # made; overflow warnings are silenced so only the ValueError is tested
    grid = SampleGrid(horizon=2.0, n=512)
    eng = PanelEngine(grid, DESK.hurst, stride=16)
    values = simulate_exact(DESK, grid, seed=5).values[None, :]
    with pytest.raises(ValueError, match="statistic S is not finite on 1 of 2 paths"):
        eng.statistics(np.vstack([values, np.full_like(values, np.nan)]), DESK.gamma)
    # a path of 1e200 still has finite S and J, but I and K overflow
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="statistic I is not finite on 1 of 1 paths"):
            eng.statistics(1e200 * values, DESK.gamma)
    out = eng.statistics(values, DESK.gamma)
    assert all(np.all(np.isfinite(getattr(out, key))) for key in ("S", "I", "J", "K", "w", "qv"))


def test_statistics_name_an_overflow_without_warning():
    # no errstate here: under error::RuntimeWarning an overflow inside the
    # statistics must still surface as the ValueError naming the statistic
    grid = SampleGrid(horizon=2.0, n=512)
    eng = PanelEngine(grid, DESK.hurst, stride=16)
    values = simulate_exact(DESK, grid, seed=5).values[None, :]
    with pytest.raises(ValueError, match="statistic I is not finite on 1 of 1 paths"):
        eng.statistics(1e200 * values, DESK.gamma)


def test_shared_engine_reuses_a_few_engines():
    # equal (grid, H) keys share one engine; at most 3 stay cached, and the
    # least recently used one is rebuilt after four other keys
    first = shared_engine(SampleGrid(horizon=1.0, n=64), 0.7)
    assert shared_engine(SampleGrid(horizon=1.0, n=64), 0.7) is first
    assert first.stride == 16
    for hurst in (0.6, 0.65, 0.75, 0.8):
        shared_engine(SampleGrid(horizon=1.0, n=64), hurst)
        assert shared_engine.cache_info().currsize <= 3
    assert shared_engine(SampleGrid(horizon=1.0, n=64), 0.7) is not first


def test_dense_weights_skip_the_zeros_past_each_output_time():
    # row j has no weight past cell (j+1)*stride - 1, so the dense form stores
    # about 0.56 m n entries (8 row blocks), not the full m x n matrix
    grid = SampleGrid(horizon=5.0, n=8192)
    eng = PanelEngine(grid, 0.7, stride=16)
    stored = sum(block.size for block in eng._weights)
    assert stored <= 0.6 * eng.n_inner * grid.n


def test_horizons_on_one_grid_size_share_the_unit_weights(monkeypatch):
    # k is homogeneous of degree 1 - 2H, so engines at T = 6 and T = 12 on
    # n = 8192 cells hold the same read-only weights and their transforms
    # of the same cells differ by the factor (12/6)^(1-2H)
    hurst = 0.7
    rng = np.random.default_rng(11)
    cells = rng.standard_normal((2, 8192))
    for dense_cells, dense in ((transforms._MAX_DENSE_CELLS, True), (1, False)):
        monkeypatch.setattr(transforms, "_MAX_DENSE_CELLS", dense_cells)
        short = PanelEngine(SampleGrid(horizon=6.0, n=8192), hurst)
        long = PanelEngine(SampleGrid(horizon=12.0, n=8192), hurst)
        if dense:
            assert len(long._weights) == 8
            assert all(a is b for a, b in zip(short._weights, long._weights))
            stored = long._weights
        else:
            assert long._weights is None and long._m_pow is short._m_pow
            stored = (long._m_pow, long._last, long._first_fix, long._last_fix)
            stored += (long._kernel_spectrum,)
        for array in stored:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        ratio = long.transform(cells) / short.transform(cells)
        np.testing.assert_allclose(ratio, 2.0 ** (1.0 - 2.0 * hurst), rtol=1e-14, atol=0.0)


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
    m = out.S[0] + DESK.beta * out.J[0] - DESK.alpha / DESK.gamma * out.w
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
        stats = eng.statistics(path.values, DESK.gamma)
        z[r] = martingale_M(stats, DESK)[0] / math.sqrt(w_T)
    assert abs(z.mean()) < 0.25
    assert 0.85 < z.std(ddof=1) < 1.15


def test_sufficient_stats_match_engine_dict():
    grid = SampleGrid(horizon=5.0, n=2**12)
    path = simulate_exact(DESK, grid, seed=31)
    eng = PanelEngine(grid, DESK.hurst, stride=16)
    stats = eng.statistics(path.values[None, :], DESK.gamma)
    m = martingale_M(stats, DESK)
    assert m == pytest.approx(stats.S + DESK.beta * stats.J - DESK.alpha / DESK.gamma * stats.w, rel=1e-15)


def test_cauchy_schwarz_between_stats():
    # J = int P dw and K = int P^2 dw, so J^2 <= w K on every path.
    grid = SampleGrid(horizon=5.0, n=2**13)
    for r in range(20):
        path = simulate_exact(DESK, grid, seed=90_000 + r)
        stats = shared_engine(grid, DESK.hurst).statistics(path.values, DESK.gamma)
        assert stats.J ** 2 <= stats.w * stats.K
        assert stats.K > 0.0


def test_fft_panels_match_dense_matrix(monkeypatch):
    # Same quadrature weights, two evaluation orders: dense matmul vs the
    # convolution form used for large problems.  Agreement to rounding.
    # (64, 16) has fewer inner rows than dense row blocks and (1000, 8) has
    # 125, not a multiple of them, so every block boundary is compared.
    for n, stride in ((4096, 16), (4096, 1), (2048, 2), (64, 16), (1000, 8)):
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


def _fft_transform_out_of_place(engine, cells):
    # the FFT form before it shared one padded buffer: rfft zero-pads a
    # product temporary itself, and irfft keeps its input
    spectrum = sfft.rfft(cells * engine._m_pow, engine._fft_len, axis=1)
    spectrum *= engine._kernel_spectrum
    out = sfft.irfft(spectrum, engine._fft_len, axis=1)[:, engine._last]
    out += engine._first_fix * cells[:, :1]
    out += engine._last_fix * cells[:, engine._last]
    out *= engine._scale
    return out


@pytest.mark.parametrize("n, stride", [(64, 16), (4096, 1), (65536, 16)])
def test_fft_transform_is_the_out_of_place_form_bitwise(monkeypatch, n, stride):
    monkeypatch.setattr(transforms, "_MAX_DENSE_CELLS", 1)
    engine = PanelEngine(SampleGrid(horizon=2.0, n=n), 0.7, stride=stride)
    assert engine._weights is None
    rng = np.random.default_rng(n)
    for rows in (1, 3):
        cells = rng.standard_normal((rows, n))
        kept = cells.copy()
        assert np.array_equal(engine.transform(cells), _fft_transform_out_of_place(engine, cells))
        assert np.array_equal(cells, kept)


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
