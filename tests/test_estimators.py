"""Drift MLE algebra, likelihood shape, and noise/roughness recovery."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from _oracles import loglik
from fracvas.estimators import (
    DegenerateStatsError,
    _second_difference,
    estimate_gamma,
    estimate_hurst,
    mle_alpha,
    mle_beta,
    mle_joint,
    mle_mu_kappa,
)
from fracvas.fbm import SampleGrid, generate_fbm
from fracvas.model import ModelParams, simulate_exact
from fracvas.transforms import SufficientStats, constants, shared_engine

DESK = ModelParams(alpha=1.0, beta=-0.5, gamma=1.0, hurst=0.7, x0=0.3)


def _stats(S, I, J, K, w):
    return SufficientStats(S=S, I=I, J=J, K=K, qv=1.0, w=w)


def test_joint_plugin_values():
    alpha_hat, beta_hat = mle_joint(_stats(S=1.0, I=0.0, J=0.0, K=1.0, w=1.0), gamma=1.0)
    assert alpha_hat == pytest.approx(1.0)
    assert beta_hat == pytest.approx(0.0)
    alpha_hat, beta_hat = mle_joint(_stats(S=0.0, I=1.0, J=0.0, K=1.0, w=1.0), gamma=1.0)
    assert alpha_hat == pytest.approx(0.0)
    assert beta_hat == pytest.approx(-1.0)


def test_joint_degenerate_denominator():
    # constant path: P is constant, so w K = J^2 exactly
    with pytest.raises(DegenerateStatsError):
        mle_joint(_stats(S=0.0, I=0.0, J=2.0, K=2.0, w=2.0), gamma=1.0)


def test_known_parameter_variants():
    assert mle_alpha(_stats(S=2.0, I=0.0, J=1.0, K=1.0, w=1.0), 1.0, beta_known=-1.0) == pytest.approx(1.0)
    # beta = 0 degrades to gamma S / w
    assert mle_alpha(_stats(S=3.0, I=0.0, J=9.9, K=1.0, w=2.0), 2.0, beta_known=0.0) == pytest.approx(3.0)
    assert mle_beta(_stats(S=0.0, I=-1.0, J=0.0, K=2.0, w=1.0), 1.0, alpha_known=0.0) == pytest.approx(0.5)
    with pytest.raises(DegenerateStatsError):
        mle_beta(_stats(S=0.0, I=1.0, J=0.0, K=0.0, w=1.0), 1.0, alpha_known=0.0)


def test_mu_kappa_identity_and_errors():
    grid = SampleGrid(horizon=5.0, n=2**12)
    for r in range(5):
        path = simulate_exact(DESK, grid, seed=400_000 + r)
        stats = shared_engine(grid.n, DESK.hurst).statistics(path.values, grid, DESK.gamma)
        alpha_hat, beta_hat = mle_joint(stats, DESK.gamma)
        mu_hat, kappa_hat = mle_mu_kappa(stats, DESK.gamma)
        assert mu_hat == pytest.approx(alpha_hat / beta_hat, rel=1e-12)
        assert kappa_hat == pytest.approx(beta_hat, rel=1e-12)
    with pytest.raises(DegenerateStatsError):
        mle_mu_kappa(_stats(S=1.0, I=0.0, J=0.0, K=1.0, w=1.0), gamma=1.0)


def test_sufficient_stats_refuse_non_finite_fields():
    fields = {"S": 1.0, "I": 0.0, "J": 0.0, "K": 1.0, "w": 1.0}
    for name in fields:
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"statistic {name} is not finite"):
                _stats(**dict(fields, **{name: bad}))


def test_non_finite_estimates_raise():
    # finite statistics whose products overflow: S K = 1e400
    huge = _stats(S=1e200, I=0.0, J=0.0, K=1e200, w=1.0)
    with pytest.raises(DegenerateStatsError, match="alpha_hat is not finite"):
        mle_joint(huge, gamma=1.0)
    with pytest.raises(DegenerateStatsError, match="mu_hat is not finite"):
        mle_mu_kappa(_stats(S=1e200, I=-1.0, J=1.0, K=1e200, w=1.0), gamma=1.0)
    with pytest.raises(DegenerateStatsError, match="alpha_tilde is not finite"):
        mle_alpha(_stats(S=1e308, I=0.0, J=1e308, K=1.0, w=1.0), 1.0, 1.0)
    with pytest.raises(DegenerateStatsError, match="beta_tilde is not finite"):
        mle_beta(_stats(S=0.0, I=0.0, J=1e308, K=1e-10, w=1.0), 1.0, alpha_known=1.0)
    # J^2 overflows the joint denominator to -inf instead of raising OverflowError
    with pytest.raises(DegenerateStatsError, match="slope information"):
        mle_joint(_stats(S=1.0, I=0.0, J=1e200, K=1.0, w=1.0), gamma=1.0)


def test_array_fields_match_per_row_scalars_bitwise():
    grid = SampleGrid(horizon=5.0, n=2**12)
    engine = shared_engine(grid.n, DESK.hurst)
    paths = [simulate_exact(DESK, grid, seed=500_000 + r).values for r in range(40)]
    out = engine.statistics(np.asarray(paths), grid, DESK.gamma)
    results = {
        "joint": mle_joint(out, DESK.gamma),
        "mu_kappa": mle_mu_kappa(out, DESK.gamma),
        "alpha": mle_alpha(out, DESK.gamma, beta_known=DESK.beta),
        "beta": mle_beta(out, DESK.gamma, alpha_known=DESK.alpha),
    }
    for i in range(40):
        row = SufficientStats(
            S=float(out.S[i]), I=float(out.I[i]), J=float(out.J[i]),
            K=float(out.K[i]), qv=float(out.qv[i]), w=out.w,
        )
        alpha_hat, beta_hat = mle_joint(row, DESK.gamma)
        mu_hat, kappa_hat = mle_mu_kappa(row, DESK.gamma)
        assert alpha_hat == results["joint"][0][i]
        assert beta_hat == results["joint"][1][i]
        assert mu_hat == results["mu_kappa"][0][i]
        assert kappa_hat == results["mu_kappa"][1][i]
        assert mle_alpha(row, DESK.gamma, beta_known=DESK.beta) == results["alpha"][i]
        assert mle_beta(row, DESK.gamma, alpha_known=DESK.alpha) == results["beta"][i]


def test_array_fields_fail_as_a_block():
    good = np.array([1.0, 2.0])
    with pytest.raises(DegenerateStatsError):
        mle_beta(_stats(S=good, I=good, J=good, K=np.array([1.0, 0.0]), w=1.0), 1.0, 0.0)
    with pytest.raises(DegenerateStatsError):
        mle_mu_kappa(
            _stats(S=good, I=np.array([0.0, 1.0]), J=np.array([0.0, 1.0]), K=good, w=1.0), 1.0
        )
    with pytest.raises(ValueError, match="statistic K is not finite"):
        _stats(S=good, I=good, J=good, K=np.array([1.0, np.inf]), w=1.0)


def test_loglik_zero_at_reference_parameters():
    grid = SampleGrid(horizon=5.0, n=2**12)
    path = simulate_exact(DESK, grid, seed=400_100)
    stats = shared_engine(grid.n, DESK.hurst).statistics(path.values, grid, DESK.gamma)
    assert loglik(0.0, 0.0, stats, DESK.gamma) == 0.0


def test_mle_maximizes_loglik():
    grid = SampleGrid(horizon=5.0, n=2**12)
    rng = np.random.default_rng(11)
    for r in range(3):
        path = simulate_exact(DESK, grid, seed=400_200 + r)
        stats = shared_engine(grid.n, DESK.hurst).statistics(path.values, grid, DESK.gamma)
        alpha_hat, beta_hat = mle_joint(stats, DESK.gamma)
        top = loglik(alpha_hat, beta_hat, stats, DESK.gamma)
        for _ in range(100):
            angle = rng.uniform(0.0, 2.0 * math.pi)
            radius = rng.uniform(0.0, 0.5)
            perturbed = loglik(
                alpha_hat + radius * math.cos(angle),
                beta_hat + radius * math.sin(angle),
                stats,
                DESK.gamma,
            )
            assert perturbed <= top


def test_loglik_gradient_vanishes_at_mle():
    grid = SampleGrid(horizon=5.0, n=2**12)
    path = simulate_exact(DESK, grid, seed=400_300)
    stats = shared_engine(grid.n, DESK.hurst).statistics(path.values, grid, DESK.gamma)
    alpha_hat, beta_hat = mle_joint(stats, DESK.gamma)
    h = 1e-5
    d_alpha = (
        loglik(alpha_hat + h, beta_hat, stats, DESK.gamma)
        - loglik(alpha_hat - h, beta_hat, stats, DESK.gamma)
    ) / (2.0 * h)
    d_beta = (
        loglik(alpha_hat, beta_hat + h, stats, DESK.gamma)
        - loglik(alpha_hat, beta_hat - h, stats, DESK.gamma)
    ) / (2.0 * h)
    scale = abs(loglik(alpha_hat, beta_hat, stats, DESK.gamma)) + 1.0
    assert abs(d_alpha) < 1e-6 * scale
    assert abs(d_beta) < 1e-6 * scale


def test_joint_consistency_at_long_horizon():
    # alpha errors shrink like T^(H-1) (slow), beta errors like e^(beta T)
    # (fast): at T=10 the alpha error median sits near its theoretical level
    # 0.6745 sqrt(lambda)/T^(1-H) ~ 0.34, the beta one near 3e-3.
    grid = SampleGrid(horizon=10.0, n=2**14)
    alpha_hats = np.empty(500)
    beta_hats = np.empty(500)
    for r in range(500):
        path = simulate_exact(DESK, grid, seed=210_000 + r)
        stats = shared_engine(grid.n, DESK.hurst).statistics(path.values, grid, DESK.gamma)
        alpha_hat, beta_hat = mle_joint(stats, DESK.gamma)
        alpha_hats[r], beta_hats[r] = alpha_hat[0], beta_hat[0]
    assert np.median(np.abs(alpha_hats - DESK.alpha)) < 0.5
    assert np.median(np.abs(beta_hats - DESK.beta)) < 0.01


def test_alpha_known_beta_is_exactly_normal_smoke():
    # T^(1-H)(alpha_tilde - alpha) is N(0, lambda gamma^2) at any horizon;
    # the acceptance suite runs the KS version, this is a 300-rep band check.
    lam = constants(DESK.hurst, DESK.gamma).lam
    grid = SampleGrid(horizon=5.0, n=2**13)
    z = np.empty(300)
    for r in range(300):
        path = simulate_exact(DESK, grid, seed=310_000 + r)
        stats = shared_engine(grid.n, DESK.hurst).statistics(path.values, grid, DESK.gamma)
        a_t = mle_alpha(stats, DESK.gamma, beta_known=DESK.beta)[0]
        z[r] = 5.0 ** (1.0 - DESK.hurst) * (a_t - DESK.alpha) / math.sqrt(lam)
    assert abs(z.mean()) < 0.25
    assert 0.85 < z.std(ddof=1) < 1.15


def test_gamma_recovery_brownian_closed_case():
    # H = 1/2: the transform is the identity, so the quadratic variation
    # of X = x0 + gamma B over any partition estimates gamma^2 T directly.
    grid = SampleGrid(horizon=5.0, n=2**16)
    driver = generate_fbm(0.5, grid, seed=600_010)
    path = SimpleNamespace(grid=grid, values=0.3 + 1.5 * driver.values)
    got = estimate_gamma(path, 0.5)
    assert abs(got - 1.5) / 1.5 < 0.05
    # quadratic homogeneity: scaling the path scales the estimate exactly
    doubled = SimpleNamespace(grid=grid, values=2.5 * path.values)
    assert estimate_gamma(doubled, 0.5) == pytest.approx(2.5 * got, rel=1e-12)


def test_gamma_recovery_on_model_path():
    grid = SampleGrid(horizon=5.0, n=2**16)
    params = ModelParams(alpha=1.0, beta=-0.5, gamma=2.0, hurst=0.7, x0=0.3)
    path = simulate_exact(params, grid, seed=600_001)
    got = estimate_gamma(path, params.hurst)
    assert abs(got - 2.0) / 2.0 < 0.05


def test_gamma_recovery_reads_z_alone():
    # estimate_gamma transforms only the increments (Z) on the shared engine;
    # it must equal the quadratic variation read from that engine's full
    # statistics pass, bit for bit, at n = 2^12 and at n = 2^16.
    for n in (2**12, 2**16):
        grid = SampleGrid(horizon=2.0, n=n)
        path = simulate_exact(DESK, grid, seed=600_030)
        engine = shared_engine(grid.n, DESK.hurst)
        out = engine.statistics(path.values, grid, 1.0)
        assert estimate_gamma(path, DESK.hurst) == math.sqrt(out.qv[0] / out.w)
        with pytest.raises(ValueError, match="cells"):
            engine.transform(np.diff(path.values)[None, 1:], grid)


def test_gamma_recovery_input_validation():
    small = SampleGrid(horizon=1.0, n=2**10)
    driver = generate_fbm(0.7, small, seed=600_020)
    with pytest.raises(ValueError):
        estimate_gamma(driver, 0.7)
    flat_grid = SampleGrid(horizon=1.0, n=2**12)
    flat = SimpleNamespace(grid=flat_grid, values=np.ones(flat_grid.n + 1))
    with pytest.raises(DegenerateStatsError):
        estimate_gamma(flat, 0.7)
    with pytest.raises(TypeError):
        estimate_gamma(np.zeros(10), 0.7)


def test_hurst_recovery_fbm_and_brownian():
    grid = SampleGrid(horizon=5.0, n=2**16)
    rough = generate_fbm(0.7, grid, seed=600_002)
    assert abs(estimate_hurst(rough) - 0.7) < 0.05
    smooth = generate_fbm(0.5, grid, seed=600_003)
    assert abs(estimate_hurst(smooth) - 0.5) < 0.05


def test_hurst_recovery_ignores_smooth_drift():
    grid = SampleGrid(horizon=5.0, n=2**16)
    driver = generate_fbm(0.7, grid, seed=600_002)
    t = grid.times()
    curve = DESK.x0 * np.exp(-DESK.beta * t) + DESK.mean_level * (1.0 - np.exp(-DESK.beta * t))
    shifted = SimpleNamespace(grid=grid, values=driver.values + curve)
    assert abs(estimate_hurst(shifted) - estimate_hurst(driver)) < 0.01


def test_hurst_recovery_is_the_three_temporary_expression_bitwise():
    # estimate_hurst forms each second difference in one buffer; the plain
    # expression, one temporary per operation, must give the same H bit for bit
    for n, seed in ((2**13, 600_040), (2**16, 600_041)):
        path = simulate_exact(DESK, SampleGrid(horizon=5.0, n=n), seed=seed)
        v = path.values
        d_fine = v[2:] - 2.0 * v[1:-1] + v[:-2]
        c = v[::2]
        d_coarse = c[2:] - 2.0 * c[1:-1] + c[:-2]
        assert np.array_equal(_second_difference(v), d_fine)
        assert np.array_equal(_second_difference(c), d_coarse)
        expected = 0.5 - 0.5 * math.log2(float(d_fine @ d_fine) / float(d_coarse @ d_coarse))
        assert estimate_hurst(path) == expected


def test_hurst_recovery_input_validation():
    small = SampleGrid(horizon=1.0, n=2**10)
    with pytest.raises(ValueError):
        estimate_hurst(generate_fbm(0.7, small, seed=600_030))
    flat_grid = SampleGrid(horizon=1.0, n=2**12)
    flat = SimpleNamespace(grid=flat_grid, values=np.full(flat_grid.n + 1, 2.0))
    with pytest.raises(DegenerateStatsError):
        estimate_hurst(flat)
