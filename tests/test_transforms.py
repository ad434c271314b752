"""Quadrature engine vs. closed-form path transforms and engine invariants."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from scipy.special import beta as beta_fn
from scipy.special import gamma as gamma_fn

from _oracles import (
    QuadratureConvergenceError,
    kernel_k,
    martingale_M,
    phase_transform,
    reconstruct_X,
    refinement_check,
)
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
        PanelEngine(grid.n, 0.7, stride=7)  # must divide n
    with pytest.raises(ValueError):
        PanelEngine(32, 0.7, stride=16)  # inner grid too small
    with pytest.raises(ValueError):
        PanelEngine(grid.n, 0.3, stride=16)
    with pytest.raises(ValueError):
        PanelEngine(grid.n, 1.0, stride=16)
    # a float or bool stride or n is refused by name, as SampleGrid refuses its n
    with pytest.raises(ValueError, match="stride must be an integer, got 16.0"):
        PanelEngine(grid.n, 0.7, stride=16.0)
    with pytest.raises(ValueError, match="stride must be an integer, got True"):
        PanelEngine(grid.n, 0.7, stride=True)
    with pytest.raises(ValueError, match="n must be an integer, got 4096.0"):
        PanelEngine(4096.0, 0.7, stride=16)
    # H = 1/2 is allowed for the transforms even though the model excludes it
    engine = PanelEngine(grid.n, 0.5, stride=16)
    # a grid with another n is refused by every call that takes one, at any size
    other = SampleGrid(horizon=1.0, n=2048)
    values = np.zeros((1, other.n + 1))
    for eng in (engine, PanelEngine(2**17, 0.7, stride=16)):
        message = f"engine is built for n={eng.n}, got a grid with n=2048"
        with pytest.raises(ValueError, match=message):
            eng.transform(np.zeros((1, eng.n)), other)
        with pytest.raises(ValueError, match=message):
            eng.raw_panels(values, other)
        with pytest.raises(ValueError, match=message):
            eng.statistics(values, other, 1.0)


def test_linear_path_closed_forms():
    # X_t = t: then S_t = w(t), F_t = B(2+a, 1+a)/kappa * t^(2+2a),
    # P_t = lam/kappa * B(2+a, 1+a) * (2+2a)/(1+2a) * t, with a = 1/2 - H.
    hurst = 0.7
    a = 0.5 - hurst
    grid = SampleGrid(horizon=5.0, n=2**13)
    kc = constants(hurst, 1.0)
    t_lin = grid.times()
    eng = PanelEngine(grid.n, hurst, stride=16)
    Z, F = eng.raw_panels(t_lin[None, :], grid)
    inner = t_lin[::16][1:]

    err_s = np.abs(Z[0][1:] - kc.w(inner)) / kc.w(inner)
    assert err_s.max() < 2e-3
    assert np.median(err_s) < 1e-4
    assert err_s[-1] < 1e-5  # horizon row uses the most cells

    f_exact = beta_fn(2.0 + a, 1.0 + a) / kc.kappa * inner ** (2.0 + 2.0 * a)
    err_f = np.abs(F[0][1:] - f_exact) / f_exact
    assert err_f.max() < 2e-3
    assert err_f[-1] < 1e-5

    P = eng.derivative_panel(F, grid, 1.0)[0]
    slope = kc.lam / kc.kappa * beta_fn(2.0 + a, 1.0 + a) * (2.0 + 2.0 * a) / (1.0 + 2.0 * a)
    err_p = np.abs(P - slope * inner) / (slope * inner)
    # first point has a genuinely wide stencil relative to t; it sharpens fast
    assert err_p[0] < 0.3
    assert err_p[8:].max() < 2e-3
    assert np.median(err_p[1:-1]) < 1e-4


def test_stride_one_first_row_is_exact_beta_value():
    # With stride 1 the first output time covers one cell holding both
    # singular ends; on X_t = t that row is S_dt = w(dt) in closed form,
    # independent of the Beta-function value the engine folds into it.
    grid = SampleGrid(horizon=1.0, n=64)
    for hurst in (0.55, 0.7, 0.95):
        w_dt = constants(hurst, 1.0).w(grid.dt)
        Z, _ = PanelEngine(grid.n, hurst, stride=1).raw_panels(grid.times(), grid)
        assert abs(Z[0, 1] - w_dt) < 1e-12


@pytest.mark.parametrize("stride", [1, 2, 4, 16])
@pytest.mark.parametrize("hurst", [0.51, 0.7, 0.95, 0.99])
def test_end_cell_fixes_match_mpmath_cell_integrals(hurst, stride):
    # Row j ends at t = (j + 1) * stride cells (unit spacing).  Its first cell
    # [0, 1] and last cell [t-1, t] carry the integral of s^a (t-s)^a over the
    # cell minus the midpoint value; the engine stores these fixes.
    a = 0.5 - hurst
    fft = PanelEngine(64, hurst, stride=stride)
    m_pow = fft._m_pow
    for j in range(4):
        t = (j + 1) * stride
        mid = m_pow[0] * m_pow[t - 1]
        with mpmath.workdps(40):
            first, last = (
                float(mpmath.quad(lambda s: s**a * (t - s) ** a, cell)) for cell in ([0, 1], [t - 1, t])
            )
        pairs = [(fft._first_fix[j], first)]
        if t == 1:
            # one cell holds both singular ends: the first fix is its whole fix
            assert fft._last_fix[j] == 0.0
        else:
            pairs += [(fft._last_fix[j], last)]
        for fix, integral in pairs:
            assert abs(fix - (integral - mid)) < 1e-14 * integral


def test_transform_refuses_cells_that_are_not_one_row_per_path():
    # The transform takes a (paths, n) block: a bare 1-D row, a 3-D block
    # or a row one cell short is refused by shape, not misread.
    grid = SampleGrid(horizon=1.0, n=256)
    cells = np.ones(grid.n)
    eng = PanelEngine(grid.n, 0.7, stride=16)
    for bad in (cells, cells[None, None, :], cells[None, 1:]):
        with pytest.raises(ValueError, match="shape"):
            eng.transform(bad, grid)
    assert eng.transform(cells[None, :], grid).shape == (1, eng.n_inner)


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
    eng = PanelEngine(grid.n, 0.7, stride=16)
    w_T = constants(0.7, 1.0).w(5.0)
    c = 1.7
    out = eng.statistics(np.full((1, grid.n + 1), c), grid, 2.0)
    assert out.S[0] == 0.0
    assert out.I[0] == 0.0
    assert out.J[0] == pytest.approx(c * w_T / 2.0, rel=1e-4)
    assert out.K[0] == pytest.approx(c * c * w_T / 4.0, rel=1e-4)
    assert out.w == pytest.approx(w_T, rel=1e-12)


def test_statistics_refuse_non_finite_outputs():
    # the first of S, I, J, K, qv that is not finite is named where it is
    # made; overflow warnings are silenced so only the ValueError is tested
    grid = SampleGrid(horizon=2.0, n=512)
    eng = PanelEngine(grid.n, DESK.hurst, stride=16)
    values = simulate_exact(DESK, grid, seed=5).values[None, :]
    with pytest.raises(ValueError, match="statistic S is not finite on 1 of 2 paths"):
        eng.statistics(np.vstack([values, np.full_like(values, np.nan)]), grid, DESK.gamma)
    # a path of 1e200 still has finite S and J, but I and K overflow
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="statistic I is not finite on 1 of 1 paths"):
            eng.statistics(1e200 * values, grid, DESK.gamma)
    out = eng.statistics(values, grid, DESK.gamma)
    assert all(np.all(np.isfinite(getattr(out, key))) for key in ("S", "I", "J", "K", "w", "qv"))


def test_statistics_name_an_overflow_without_warning():
    # no errstate here: under error::RuntimeWarning an overflow inside the
    # statistics must still surface as the ValueError naming the statistic
    grid = SampleGrid(horizon=2.0, n=512)
    eng = PanelEngine(grid.n, DESK.hurst, stride=16)
    values = simulate_exact(DESK, grid, seed=5).values[None, :]
    with pytest.raises(ValueError, match="statistic I is not finite on 1 of 1 paths"):
        eng.statistics(1e200 * values, grid, DESK.gamma)


def test_shared_engine_reuses_a_few_engines():
    # equal (n, H) keys share one engine; at most 3 stay cached, and the
    # least recently used one is rebuilt after four other keys
    first = shared_engine(64, 0.7)
    assert shared_engine(64, 0.7) is first
    assert first.stride == 16
    for hurst in (0.6, 0.65, 0.75, 0.8):
        shared_engine(64, hurst)
        assert shared_engine.cache_info().currsize <= 3
    assert shared_engine(64, 0.7) is not first


def _stored_arrays(engine):
    return [value for value in vars(engine).values() if isinstance(value, np.ndarray)]


def test_engine_stores_no_weight_matrix():
    # the engine keeps tap spectra and end-cell fixes, 0.2 MiB at n = 8192
    # and stride 16; a staircase of weight rows would take 18 MiB
    eng = PanelEngine(8192, 0.7, stride=16)
    assert len(_stored_arrays(eng)) == 5
    assert sum(array.nbytes for array in _stored_arrays(eng)) < 0.25 * 2**20


def test_horizons_on_one_grid_size_share_the_unit_weights():
    # k is homogeneous of degree 1 - 2H, so one engine on n = 8192 cells
    # serves T = 6 and T = 12 from the same read-only weights, keeps no
    # state of the last horizon, and its transforms of the same cells
    # differ by the factor (12/6)^(1-2H)
    hurst = 0.7
    rng = np.random.default_rng(11)
    cells = rng.standard_normal((2, 8192))
    short, long = SampleGrid(horizon=6.0, n=8192), SampleGrid(horizon=12.0, n=8192)
    engine = PanelEngine(8192, hurst)
    for array in _stored_arrays(engine):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    before = engine.transform(cells, short)
    ratio = engine.transform(cells, long) / before
    assert np.array_equal(engine.transform(cells, short), before)
    np.testing.assert_allclose(ratio, 2.0 ** (1.0 - 2.0 * hurst), rtol=1e-14, atol=0.0)


def test_brownian_case_is_exact_on_interpolants():
    # At H = 1/2 the kernel is 1 and w(t) = t, so on the piecewise-linear
    # interpolant S must equal the increment sum and F the trapezoid integral.
    grid = SampleGrid(horizon=3.0, n=1024)
    eng = PanelEngine(grid.n, 0.5, stride=16)
    rng = np.random.default_rng(42)
    vals = np.concatenate([[0.0], np.cumsum(rng.standard_normal(1024) * 0.05)])
    Z, F = eng.raw_panels(vals[None, :], grid)
    np.testing.assert_allclose(Z[0][1:], vals[::16][1:] - vals[0], atol=1e-12)
    trap = np.concatenate([[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * grid.dt)])
    np.testing.assert_allclose(F[0], trap[::16], atol=1e-12)


def test_martingale_identity_on_mean_path():
    # The noiseless path solves dx = (alpha - beta x) dt, so S + beta J
    # must equal (alpha/gamma) w(T) up to quadrature error.
    grid = SampleGrid(horizon=5.0, n=2**13)
    t = grid.times()
    mean_path = DESK.x0 * np.exp(-DESK.beta * t) + DESK.mean_level * (1.0 - np.exp(-DESK.beta * t))
    eng = PanelEngine(grid.n, DESK.hurst, stride=16)
    out = eng.statistics(mean_path[None, :], grid, DESK.gamma)
    m = out.S[0] + DESK.beta * out.J[0] - DESK.alpha / DESK.gamma * out.w
    assert abs(m) < 1e-3


def test_martingale_statistic_is_standard_normal_smoke():
    # Normalized by sqrt(w_T) the drift-corrected S is N(0, 1); checked in
    # force by the acceptance suite, band-checked here on 300 replications.
    grid = SampleGrid(horizon=5.0, n=2**13)
    eng = PanelEngine(grid.n, DESK.hurst, stride=16)
    w_T = constants(DESK.hurst, DESK.gamma).w(5.0)
    z = np.empty(300)
    for r in range(300):
        path = simulate_exact(DESK, grid, seed=778_000_000 + r)
        stats = eng.statistics(path.values, grid, DESK.gamma)
        z[r] = martingale_M(stats, DESK)[0] / math.sqrt(w_T)
    assert abs(z.mean()) < 0.25
    assert 0.85 < z.std(ddof=1) < 1.15


def test_sufficient_stats_match_engine_dict():
    grid = SampleGrid(horizon=5.0, n=2**12)
    path = simulate_exact(DESK, grid, seed=31)
    eng = PanelEngine(grid.n, DESK.hurst, stride=16)
    stats = eng.statistics(path.values[None, :], grid, DESK.gamma)
    m = martingale_M(stats, DESK)
    assert m == pytest.approx(stats.S + DESK.beta * stats.J - DESK.alpha / DESK.gamma * stats.w, rel=1e-15)


def test_cauchy_schwarz_between_stats():
    # J = int P dw and K = int P^2 dw, so J^2 <= w K on every path.
    grid = SampleGrid(horizon=5.0, n=2**13)
    for r in range(20):
        path = simulate_exact(DESK, grid, seed=90_000 + r)
        stats = shared_engine(grid.n, DESK.hurst).statistics(path.values, grid, DESK.gamma)
        assert stats.J ** 2 <= stats.w * stats.K
        assert stats.K > 0.0


def _explicit_weight_row(engine, j):
    # row j (output time (j + 1) * stride cells) written out cell by cell:
    # m_pow[i] * m_pow[last - i] up to its last cell, plus the end-cell fixes
    last = (j + 1) * engine.stride - 1
    m_pow = (np.arange(last + 1) + 0.5) ** (0.5 - engine.hurst)
    row = m_pow * m_pow[::-1]
    row[0] += engine._first_fix[j]
    row[last] += engine._last_fix[j]
    return row


def test_fft_panels_match_dense_matrix():
    # Same quadrature weights, two evaluation orders: the full m x n weight
    # matrix, written out by _explicit_weight_row and applied row by row
    # (no 128 MiB matrix at (4096, 1)), vs the engine's phase convolutions.
    # Agreement to rounding on every row, including grids whose
    # m = n / stride is tiny (64, 16) or not a power of two (1000, 8).
    for n, stride in ((4096, 16), (4096, 1), (2048, 2), (64, 16), (1000, 8)):
        grid = SampleGrid(horizon=5.0, n=n)
        fft = PanelEngine(n, 0.7, stride=stride)
        rng = np.random.default_rng(3)
        vals = np.cumsum(rng.standard_normal((3, n + 1)), axis=1) * 0.02
        vals[:, 0] = 0.0
        increments = np.diff(vals, axis=1)
        midpoints = 0.5 * (vals[:, 1:] + vals[:, :-1]) * grid.dt
        Zd = np.empty((3, fft.n_inner))
        Fd = np.empty((3, fft.n_inner))
        for j in range(fft.n_inner):
            row = _explicit_weight_row(fft, j)
            Zd[:, j] = increments[:, : row.size] @ row
            Fd[:, j] = midpoints[:, : row.size] @ row
        scale = grid.dt ** (1.0 - 2.0 * fft.hurst) / fft.kc.kappa
        Zd *= scale
        Fd *= scale
        Zf, Ff = fft.raw_panels(vals, grid)
        scale = np.abs(Zd).max()
        assert np.abs(Zd - Zf[:, 1:]).max() < 1e-12 * scale
        assert np.abs(Fd - Ff[:, 1:]).max() < 1e-12 * scale


@pytest.mark.parametrize("n, stride", [(64, 16), (4096, 1), (65536, 16)])
def test_fft_transform_matches_explicit_weight_rows(n, stride):
    # The engine sums phase convolutions; a direct dot of the cells with
    # the explicit weight row is an oracle that shares none of that
    # arithmetic.  The transform leaves its cells as it found them.
    grid = SampleGrid(horizon=2.0, n=n)
    engine = PanelEngine(n, 0.7, stride=stride)
    m = engine.n_inner
    scale = grid.dt ** (1.0 - 2.0 * engine.hurst) / engine.kc.kappa
    rng = np.random.default_rng(n)
    for rows in (1, 3):
        cells = rng.standard_normal((rows, n))
        kept = cells.copy()
        out = engine.transform(cells, grid)
        assert np.array_equal(cells, kept)
        for j in (0, 1, m // 2, m - 1):
            row = _explicit_weight_row(engine, j)
            expected = cells[:, : row.size] @ row * scale
            assert np.abs(out[:, j] - expected).max() < 1e-13 * np.abs(out[:, j]).max()


@pytest.mark.parametrize("n, stride, rows", [(8192, 16, 8), (65536, 16, 1), (64, 1, 3)])
def test_transform_is_the_per_phase_arithmetic_bitwise(n, stride, rows):
    # one reused zero-padded buffer per call must give the plain per-phase
    # products, padded FFTs and sums bit for bit
    grid = SampleGrid(horizon=3.0, n=n)
    engine = PanelEngine(n, 0.7, stride=stride)
    cells = np.random.default_rng(n + rows).standard_normal((rows, n))
    assert np.array_equal(engine.transform(cells, grid), phase_transform(engine, cells, grid))


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
    eng = PanelEngine(grid.n, DESK.hurst, stride=4)
    Z, _ = eng.raw_panels(path.values, grid)
    m = eng.n_inner
    idx = np.array([m // 4, m // 2, 3 * m // 4, m])
    out_t, out_x = reconstruct_X(grid.times()[::4], Z[0] / DESK.gamma, DESK, out_indices=idx)
    actual = path.values[::4][idx]
    np.testing.assert_allclose(out_t, [1.25, 2.5, 3.75, 5.0])
    scale = np.abs(path.values).max()
    assert np.abs(out_x - actual).max() / scale < 0.02


def test_block_statistics_own_their_arrays():
    # a view into a panel would keep the whole (paths, n/16 + 1) panel alive
    # as long as the block's columns are held, which is until the last
    # horizon of a run is done
    grid = SampleGrid(horizon=2.0, n=512)
    values = np.stack([simulate_exact(DESK, grid, seed=700 + r).values for r in range(4)])
    stats = shared_engine(grid.n, DESK.hurst).statistics(values, grid, DESK.gamma)
    arrays = {f.name: getattr(stats, f.name) for f in dataclasses.fields(stats)}
    arrays = {name: a for name, a in arrays.items() if isinstance(a, np.ndarray)}
    assert sorted(arrays) == ["I", "J", "K", "S", "qv"]
    for name, a in arrays.items():
        assert a.base is None, name
