"""Exact-solution sampler vs. deterministic limits and the Euler oracle."""

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from _oracles import exact_solution_formula, simulate_euler
from fracvas import model
from fracvas.fbm import FbmPath, SampleGrid, generate_fbm
from fracvas.harness import ExperimentConfig, run_experiment
from fracvas.model import ModelParams, simulate_exact

DESK = ModelParams(alpha=1.0, beta=-0.5, gamma=1.0, hurst=0.7, x0=0.3)


def _zero_driver(grid, hurst):
    return FbmPath(grid=grid, hurst=hurst, values=np.zeros(grid.n + 1))


def test_param_validation():
    with pytest.raises(ValueError):
        ModelParams(alpha=1.0, beta=-0.5, gamma=0.0, hurst=0.7, x0=0.0)
    with pytest.raises(ValueError):
        ModelParams(alpha=1.0, beta=-0.5, gamma=1.0, hurst=0.5, x0=0.0)
    with pytest.raises(ValueError):
        ModelParams(alpha=1.0, beta=-0.5, gamma=1.0, hurst=1.0, x0=0.0)
    with pytest.raises(ValueError):
        ModelParams(alpha=1.0, beta=0.0, gamma=1.0, hurst=0.7, x0=0.0)
    assert DESK.mean_level == pytest.approx(-2.0)


def test_zero_driver_gives_ode_solution_exactly():
    grid = SampleGrid(horizon=5.0, n=512)
    path = simulate_exact(DESK, grid, driver=_zero_driver(grid, DESK.hurst))
    t = grid.times()
    ode = DESK.x0 * np.exp(-DESK.beta * t) + DESK.mean_level * (1.0 - np.exp(-DESK.beta * t))
    np.testing.assert_allclose(path.values, ode, rtol=1e-14, atol=1e-14)
    assert path.values[0] == DESK.x0


def _exact_out_of_place(params, grid, noise):
    # simulate_exact as it was written before its buffers were reused, with
    # scipy's cumulative_trapezoid for the smooth integral
    beta = params.beta
    t = grid.times()
    decay = np.exp(-beta * t)
    g = cumulative_trapezoid(np.exp(beta * t) * noise, dx=grid.dt, initial=0.0)
    convolution = noise - beta * decay * g
    return params.x0 * decay + params.mean_level * (1.0 - decay) + params.gamma * convolution


@pytest.mark.parametrize("horizon, n", [(2.0, 64), (5.0, 8192), (12.0, 8192), (2.0, 65536)])
@pytest.mark.parametrize(
    "params", [DESK, ModelParams(alpha=-0.4, beta=1.3, gamma=2.5, hurst=0.55, x0=-1.0)]
)
def test_exact_is_the_cumulative_trapezoid_form_bitwise(params, horizon, n):
    grid = SampleGrid(horizon=horizon, n=n)
    driver = generate_fbm(params.hurst, grid, seed=n)
    noise = driver.values.copy()
    path = simulate_exact(params, grid, driver=driver)
    assert np.array_equal(path.values, _exact_out_of_place(params, grid, noise))
    assert np.array_equal(driver.values, noise)


@pytest.mark.parametrize("horizon, n", [(12.0, 8192), (2.0, 65536)])
@pytest.mark.parametrize("beta", [-0.5, 0.8])
@pytest.mark.parametrize("at_mean_level", [False, True])
def test_exact_in_place_matches_the_plain_formula_bitwise(horizon, n, beta, at_mean_level):
    # simulate_exact runs the formula's operations in its own order on two
    # buffers and the cached path-free terms; the plain one-temporary-per-
    # operation expression must come out bit for bit, started at alpha / beta
    # or away from it
    x0 = 1.0 / beta if at_mean_level else 0.3
    params = ModelParams(alpha=1.0, beta=beta, gamma=1.5, hurst=0.7, x0=x0)
    grid = SampleGrid(horizon=horizon, n=n)
    for seed in range(3):
        driver = generate_fbm(params.hurst, grid, seed=seed)
        expected = exact_solution_formula(params, grid, driver.values)
        assert np.array_equal(simulate_exact(params, grid, driver=driver).values, expected)


def test_path_free_terms_are_keyed_by_alpha_x0_and_grid():
    # calls alternate between keys sharing beta and the grid but differing in
    # alpha, then in x0, on two horizons; a cache keyed without alpha or x0
    # would hand a call the previous key's mean level
    keys = [(1.0, 0.3), (-0.4, 0.3), (1.0, 0.3), (1.0, -2.0), (-0.4, -2.0), (1.0, 0.3)]
    for horizon in (6.0, 9.0):
        grid = SampleGrid(horizon=horizon, n=1024)
        driver = generate_fbm(0.7, grid, seed=3)
        for alpha, x0 in keys:
            params = ModelParams(alpha=alpha, beta=-0.5, gamma=1.5, hurst=0.7, x0=x0)
            expected = exact_solution_formula(params, grid, driver.values)
            assert np.array_equal(simulate_exact(params, grid, driver=driver).values, expected)


def test_path_free_terms_are_read_only_and_paths_own_their_values():
    grid = SampleGrid(horizon=5.0, n=256)
    driver = generate_fbm(DESK.hurst, grid, seed=1)
    first = simulate_exact(DESK, grid, driver=driver).values
    expected = first.copy()
    first[:] = 7.0  # the values are the path's own buffer, not a cached array
    assert np.array_equal(simulate_exact(DESK, grid, driver=driver).values, expected)
    for array in model._path_free_terms(DESK.alpha, DESK.beta, DESK.x0, grid):
        assert array.shape == (grid.n + 1,)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_limit_check_computes_the_path_free_terms_once_per_horizon(tmp_path):
    # 64 replications at n = 4096 run as four chunks of 16, each walking
    # T = 2 then T = 3: 128 paths, two entries
    config = ExperimentConfig.from_dict(
        {
            "experiment": "limit-check",
            "params": {"alpha": 1.0, "beta": -0.5, "gamma": 1.0, "hurst": 0.7, "x0": 0.3},
            "T_list": [2.0, 3.0],
            "n_grid": 4096,
            "replications": 64,
            "master_seed": 7,
            "output_dir": str(tmp_path),
        }
    )
    model._path_free_terms.cache_clear()
    run_experiment(config)
    info = model._path_free_terms.cache_info()
    assert (info.misses, info.hits) == (2, 126)


def test_exact_is_deterministic_in_seed():
    grid = SampleGrid(horizon=2.0, n=256)
    a = simulate_exact(DESK, grid, seed=99)
    b = simulate_exact(DESK, grid, seed=99)
    assert np.array_equal(a.values, b.values)
    assert a.driver_seed == 99


def test_needs_seed_or_driver():
    grid = SampleGrid(horizon=2.0, n=64)
    with pytest.raises(ValueError):
        simulate_exact(DESK, grid)
    with pytest.raises(ValueError):
        simulate_euler(DESK, grid)


def test_driver_grid_mismatch_rejected():
    grid = SampleGrid(horizon=2.0, n=64)
    other = SampleGrid(horizon=2.0, n=128)
    drv = generate_fbm(DESK.hurst, other, seed=1)
    with pytest.raises(ValueError):
        simulate_exact(DESK, grid, driver=drv)


def test_driver_hurst_mismatch_rejected():
    # a driver drawn at H = 0.6 must not simulate a model with H = 0.7
    grid = SampleGrid(horizon=2.0, n=64)
    drv = generate_fbm(0.6, grid, seed=1)
    with pytest.raises(ValueError, match=r"driver H = 0\.6 does not match model H = 0\.7"):
        simulate_exact(DESK, grid, driver=drv)


def test_exact_refuses_overflowing_horizon():
    # exp(beta t) overflows once beta*T passes ~709, on either branch
    grid = SampleGrid(horizon=400.0, n=1024)
    for beta in (2.0, -2.0):
        params = ModelParams(alpha=1.0, beta=beta, gamma=1.0, hurst=0.7, x0=0.3)
        with pytest.raises(ValueError, match=r"beta\*T = -?800"):
            simulate_exact(params, grid, seed=3)


def test_exact_names_x0_when_it_overflows_the_path():
    # |beta T| = 10 is far inside the double range; x0 e^{-beta t} is not
    params = ModelParams(alpha=1.0, beta=-0.5, gamma=1.0, hurst=0.7, x0=1e306)
    with pytest.raises(ValueError, match=r"x0 = 1e\+306, beta\*T = -10"):
        simulate_exact(params, SampleGrid(horizon=20.0, n=1024), seed=3)


def test_exact_counts_the_non_finite_nodes_of_a_poisoned_path():
    # a NaN in the driver at node n - 2 reaches the trapezoid integral from
    # there on, so the last three nodes are not finite
    grid = SampleGrid(horizon=2.0, n=1024)
    driver = _zero_driver(grid, DESK.hurst)
    driver.values[-3] = np.nan
    with pytest.raises(ValueError, match=r"^3 path nodes not finite: x0 = 0\.3, beta\*T = -1$"):
        simulate_exact(DESK, grid, driver=driver)


def test_exact_refuses_overflow_before_drawing_the_driver(monkeypatch):
    def no_driver(*args, **kwargs):
        raise AssertionError("the fBm driver must not be drawn")

    monkeypatch.setattr(model, "generate_fbm", no_driver)
    params = ModelParams(alpha=1.0, beta=-2.0, gamma=1.0, hurst=0.7, x0=0.3)
    with pytest.raises(ValueError, match=r"beta\*T = -800"):
        simulate_exact(params, SampleGrid(horizon=400.0, n=1024), seed=3)


def test_euler_matches_exact_on_zero_driver():
    grid = SampleGrid(horizon=1.0, n=4096)
    drv = _zero_driver(grid, DESK.hurst)
    ex = simulate_exact(DESK, grid, driver=drv)
    eu = simulate_euler(DESK, grid, driver=drv)
    assert np.max(np.abs(ex.values - eu.values)) < 5e-4


def test_euler_coupling_error_decays_first_order():
    # Shared driver at the finest resolution, restricted to coarser grids;
    # the exact-vs-Euler gap must scale ~dt (slope -1 on a log-log fit).
    horizon = 2.0
    n_fine = 2**13
    fine_grid = SampleGrid(horizon=horizon, n=n_fine)
    fine_driver = generate_fbm(DESK.hurst, fine_grid, seed=2024)
    errors = []
    ns = [2**10, 2**11, 2**12, 2**13]
    for n in ns:
        stride = n_fine // n
        grid = SampleGrid(horizon=horizon, n=n)
        drv = FbmPath(grid=grid, hurst=DESK.hurst, values=fine_driver.values[::stride])
        ex = simulate_exact(DESK, grid, driver=drv)
        eu = simulate_euler(DESK, grid, driver=drv)
        errors.append(np.max(np.abs(ex.values - eu.values)))
    slope = np.polyfit(np.log(ns), np.log(errors), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.25)


def test_exact_solution_statistical_mean():
    # E X_t = x0 e^{-beta t} + (alpha/beta)(1 - e^{-beta t}); Monte Carlo check
    # at the endpoint with a 4 sigma band.
    grid = SampleGrid(horizon=1.0, n=256)
    n_rep = 4000
    endpoint = np.empty(n_rep)
    for r in range(n_rep):
        endpoint[r] = simulate_exact(DESK, grid, seed=3_000_000 + r).values[-1]
    t = grid.horizon
    mean_exact = DESK.x0 * np.exp(-DESK.beta * t) + DESK.mean_level * (1.0 - np.exp(-DESK.beta * t))
    band = 4.0 * endpoint.std() / np.sqrt(n_rep)
    assert abs(endpoint.mean() - mean_exact) < band


def test_exact_solution_variance_against_double_quadrature():
    # Var X_t = gamma^2 Var(int_0^t e^{-beta(t-s)} dB^H_s); the oracle value
    # comes from the double Riemann integral of the covariance kernel with
    # H(2H-1)|u-v|^{2H-2} density, computed on a fine deterministic mesh.
    params = DESK
    t_end = 1.0
    hurst = params.hurst
    m = 2000
    u = (np.arange(m) + 0.5) * (t_end / m)
    ker = np.exp(-params.beta * (t_end - u))
    gap = np.abs(u[:, None] - u[None, :])
    np.fill_diagonal(gap, 1.0)  # dummy, diagonal zeroed below
    dens = hurst * (2 * hurst - 1) * gap ** (2 * hurst - 2)
    np.fill_diagonal(dens, 0.0)
    du = t_end / m
    var_oracle = ker @ dens @ ker * du * du
    # diagonal cells are singular but integrable: each contributes the exact
    # increment variance k_i^2 (du)^{2H}
    var_oracle += np.sum(ker**2) * du ** (2 * hurst)

    grid = SampleGrid(horizon=t_end, n=512)
    n_rep = 4000
    endpoint = np.empty(n_rep)
    for r in range(n_rep):
        endpoint[r] = simulate_exact(params, grid, seed=7_000_000 + r).values[-1]
    sample_var = endpoint.var()
    # sample variance rel error ~ sqrt(2/N) ~ 2.2%; allow 4 sigma plus
    # quadrature slack on the oracle itself
    assert sample_var == pytest.approx(params.gamma**2 * var_oracle, rel=0.12)
