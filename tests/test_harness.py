"""Experiment runner: config validation, determinism, artifacts, KS wrapper."""

import dataclasses
import filecmp
import json
import math
import os

import numpy as np
import pytest
from scipy.stats import kstest, norm, spearmanr

from _oracles import vector_limit
from fracvas import harness
from fracvas.estimators import DegenerateStatsError, estimate_gamma
from fracvas.fbm import SampleGrid
from fracvas.harness import (
    ExperimentConfig,
    ks_test,
    law_cdf,
    replication_seed,
    run_experiment,
)
from fracvas.limits import law_alpha_limit, law_beta_limit, law_I_limit, ratio_cdf, zeta_law
from fracvas.model import ModelParams, simulate_exact
from fracvas.transforms import shared_engine

DESK_PARAMS = {"alpha": 1.0, "beta": -0.5, "gamma": 1.0, "hurst": 0.7, "x0": 0.3}


def _config(tmp_path, **overrides) -> ExperimentConfig:
    payload = {
        "experiment": "exact-check",
        "params": dict(DESK_PARAMS),
        "T_list": [2.0],
        "n_grid": 512,
        "replications": 100,
        "master_seed": 7,
        "workers": 1,
        "output_dir": str(tmp_path / "out"),
    }
    payload.update(overrides)
    return ExperimentConfig.from_dict(payload)


def test_config_validation(tmp_path):
    with pytest.raises(ValueError, match="unknown experiment"):
        _config(tmp_path, experiment="frobnicate")
    with pytest.raises(ValueError, match="nonempty"):
        _config(tmp_path, T_list=[])
    with pytest.raises(ValueError, match="positive"):
        _config(tmp_path, T_list=[2.0, -1.0])
    with pytest.raises(ValueError, match="power of two"):
        _config(tmp_path, n_grid=1000)
    with pytest.raises(ValueError, match="replications"):
        _config(tmp_path, replications=0)
    with pytest.raises(ValueError, match="64 bits"):
        _config(tmp_path, master_seed=2**64)
    with pytest.raises(ValueError, match="workers"):
        _config(tmp_path, workers=0)
    with pytest.raises(ValueError, match="beta < 0"):
        _config(
            tmp_path,
            experiment="limit-check",
            params=dict(DESK_PARAMS, beta=0.5),
            n_grid=4096,
        )
    with pytest.raises(ValueError, match="unknown config fields"):
        ExperimentConfig.from_dict(
            {
                "experiment": "simulate",
                "params": dict(DESK_PARAMS),
                "T_list": [1.0],
                "n_grid": 64,
                "replications": 1,
                "master_seed": 1,
                "grid_points": 64,
            }
        )
    with pytest.raises(ValueError, match="missing config fields"):
        ExperimentConfig.from_dict({"experiment": "simulate"})
    with pytest.raises(ValueError, match="params"):
        ExperimentConfig.from_dict(
            {
                "experiment": "simulate",
                "params": [1.0, -0.5],
                "T_list": [1.0],
                "n_grid": 64,
                "replications": 1,
                "master_seed": 1,
            }
        )


def test_config_refuses_misread_horizons(tmp_path):
    # a JSON string would be read character by character as T = 1, 2
    with pytest.raises(ValueError, match="not the string"):
        _config(tmp_path, T_list="12")
    # horizons equal at 6 significant digits would share one stats_T*.csv
    with pytest.raises(ValueError, match="file tags"):
        _config(tmp_path, T_list=[1.0000001, 1.0000002])
    with pytest.raises(ValueError, match="file tags"):
        _config(tmp_path, T_list=[3, 3])


@pytest.mark.parametrize(
    "field, overrides",
    [
        ("replications", {"replications": 2.5}),
        ("replications", {"replications": True}),
        ("workers", {"workers": 1.5}),
        ("master_seed", {"master_seed": 1.5}),
        ("n_grid", {"n_grid": "64"}),
        ("n_grid", {"n_grid": 64.0}),
        ("T_list", {"T_list": [math.inf]}),
        ("T_list", {"T_list": 5}),
        ("p_threshold", {"p_threshold": "0.01"}),
        ("alpha", {"params": dict(DESK_PARAMS, alpha="1")}),
        ("alpha", {"params": dict(DESK_PARAMS, alpha=math.nan)}),
        ("x0", {"params": dict(DESK_PARAMS, x0=math.inf)}),
        ("x0", {"params": dict(DESK_PARAMS, x0=None)}),
        ("params", {"params": {"alpha": 1.0}}),
        ("params", {"params": dict(DESK_PARAMS, delta=1)}),
        ("output_dir", {"output_dir": None}),
        ("output_dir", {"output_dir": 5}),
        ("output_dir", {"output_dir": ""}),
    ],
)
def test_config_refuses_mistyped_fields(tmp_path, field, overrides):
    with pytest.raises(ValueError, match=field):
        _config(tmp_path, **overrides)
    assert not (tmp_path / "out").exists()


def test_config_built_directly_refuses_params_that_are_not_model_params(tmp_path):
    # from_dict checks the params object; the constructor must check the type
    cfg = _config(tmp_path)
    with pytest.raises(ValueError, match="params"):
        ExperimentConfig(**cfg.to_dict())
    with pytest.raises(ValueError, match="params"):
        dataclasses.replace(cfg, params=None)


def test_config_json_roundtrip(tmp_path):
    cfg = _config(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    loaded = ExperimentConfig.from_json(str(path))
    assert loaded == cfg
    assert loaded.params == ModelParams(**DESK_PARAMS)


def test_replication_seed_properties():
    assert replication_seed(42, 0) == replication_seed(42, 0)
    seeds = {replication_seed(42, rep) for rep in range(1000)}
    assert len(seeds) == 1000
    assert replication_seed(42, 5) != replication_seed(43, 5)
    assert all(0 <= s < 2**64 for s in seeds)


def test_ks_test_null_calibration():
    # fixed seeds make this deterministic; under the null a p-value below
    # 0.001 should occur in about one meta-trial per thousand
    failures = 0
    for trial in range(100):
        rng = np.random.default_rng(10_000 + trial)
        _, p = ks_test(rng.standard_normal(10_000), norm.cdf)
        failures += p <= 0.001
    assert failures == 0


def test_ks_test_power_and_degenerate_cases():
    rng = np.random.default_rng(8)
    stat, p = ks_test(rng.standard_normal(1000) + 0.5, norm.cdf)
    assert p < 1e-6
    stat, _ = ks_test(np.zeros(50), norm.cdf)
    assert stat >= 0.5
    with pytest.raises(ValueError, match="at least 20"):
        ks_test(np.arange(10.0), norm.cdf)
    with pytest.raises(ValueError, match="one-dimensional"):
        ks_test(np.zeros((5, 5)), norm.cdf)


@pytest.mark.parametrize("size", [20, 21, 150, 1000, 4096])
def test_ks_test_is_scipy_kstest_asymp_bitwise(size):
    # the three law families the experiments test, each once near its law
    # and once shifted off it, so both D+ and D- get to be the maximum
    params = ModelParams(**DESK_PARAMS)
    normal, ratio, chi = law_alpha_limit(params), law_beta_limit(params), law_I_limit(params)
    rng = np.random.default_rng(size)
    zeta = ratio.zeta.mean + ratio.zeta.std * rng.standard_normal(size)
    cases = [
        (normal.std * rng.standard_normal(size), normal.cdf),
        (rng.standard_normal(size) / zeta, law_cdf(ratio)),
        (chi.scale * zeta**2, chi.cdf),
    ]
    for sample, cdf in cases:
        for shift in (0.0, 0.3, -0.3):
            expected = kstest(sample + shift, cdf, mode="asymp")
            got = ks_test(sample + shift, cdf)
            assert got == (float(expected.statistic), float(expected.pvalue))


def test_spearman_rho_is_scipy_spearmanr_with_and_without_ties():
    rng = np.random.default_rng(12)
    a = rng.standard_normal(1000)
    b = 0.3 * a + rng.standard_normal(1000)
    tied_a, tied_b = np.round(a, 1), np.round(b)
    for x, y in ((a, b), (tied_a, tied_b), (tied_a, b), (a, -tied_b)):
        assert harness._spearman_rho(x, y) == spearmanr(x, y).statistic


def test_law_cdf_dispatch():
    law = law_beta_limit(ModelParams(**DESK_PARAMS))
    cdf = law_cdf(law)
    grid = np.array([-2.0, 0.0, 3.0])
    expected = np.array([ratio_cdf(z, law) for z in grid])
    assert np.allclose(cdf(grid), expected, atol=1e-10)
    with pytest.raises(TypeError):
        law_cdf(vector_limit(ModelParams(**DESK_PARAMS)))


def test_worker_invariance_bitwise(tmp_path):
    # 150 replications split into three blocks of 64, 64, 22; any worker
    # count must reassemble them into identical bytes
    base = {"T_list": [1.5], "replications": 150, "master_seed": 99}
    cfg1 = _config(tmp_path, output_dir=str(tmp_path / "w1"), **base)
    cfg4 = _config(tmp_path, output_dir=str(tmp_path / "w4"), workers=4, **base)
    run_experiment(cfg1)
    run_experiment(cfg4)
    for name in ("stats_T1.5.csv", "checks.csv"):
        assert filecmp.cmp(tmp_path / "w1" / name, tmp_path / "w4" / name, shallow=False)


def test_limit_check_worker_invariance_bitwise(tmp_path):
    base = {
        "experiment": "limit-check",
        "T_list": [2.0],
        "n_grid": 4096,
        "replications": 150,
        "master_seed": 99,
    }
    reports = [
        run_experiment(_config(tmp_path, output_dir=str(tmp_path / f"w{k}"), workers=k, **base))
        for k in (1, 2)
    ]
    for name in ("stats_T2.csv", "estimates.csv", "checks.csv"):
        assert filecmp.cmp(tmp_path / "w1" / name, tmp_path / "w2" / name, shallow=False)
    assert reports[0].details == reports[1].details


def test_simulate_worker_invariance_bitwise(tmp_path):
    base = {"experiment": "simulate", "n_grid": 64, "replications": 150}
    reports = [
        run_experiment(_config(tmp_path, output_dir=str(tmp_path / f"w{k}"), workers=k, **base))
        for k in (1, 2)
    ]
    names = sorted(os.listdir(tmp_path / "w1"))
    assert names == sorted(os.listdir(tmp_path / "w2"))
    assert sum(n.startswith("path_") for n in names) == 150
    for name in names:
        if name != "report.json":
            assert filecmp.cmp(tmp_path / "w1" / name, tmp_path / "w2" / name, shallow=False)
    seeds = reports[0].details["path_seeds"]
    assert seeds == reports[1].details["path_seeds"]
    assert seeds["2"] == {f"path_T2_rep{r:05d}.csv": replication_seed(7, r) for r in range(150)}


def test_rerun_determinism(tmp_path):
    cfg_a = _config(tmp_path, output_dir=str(tmp_path / "a"), replications=60)
    cfg_b = _config(tmp_path, output_dir=str(tmp_path / "b"), replications=60)
    run_experiment(cfg_a)
    run_experiment(cfg_b)
    for name in ("stats_T2.csv", "checks.csv"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)


def test_single_replication_insufficient(tmp_path):
    cfg = _config(tmp_path, replications=1)
    report = run_experiment(cfg)
    assert report.passed
    assert report.rows == []
    assert any("insufficient-n" in note for note in report.notes)
    stats_lines = (tmp_path / "out" / "stats_T2.csv").read_text().strip().splitlines()
    assert len(stats_lines) == 2  # header plus the single replication
    assert os.path.exists(tmp_path / "out" / "report.json")


def test_simulate_writes_paths(tmp_path):
    cfg = _config(tmp_path, experiment="simulate", T_list=[1.0], n_grid=64, replications=2)
    report = run_experiment(cfg)
    assert report.passed
    grid = SampleGrid(horizon=1.0, n=64)
    for rep in range(2):
        lines = (
            (tmp_path / "out" / f"path_T1_rep{rep:05d}.csv").read_text().strip().splitlines()
        )
        assert lines[0] == "t,value"
        assert len(lines) == 66  # header + 65 grid nodes
        parsed = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
        # 17 significant digits round-trip every double exactly
        expected = simulate_exact(ModelParams(**DESK_PARAMS), grid, seed=replication_seed(7, rep))
        assert np.array_equal(parsed[:, 0], grid.times())
        assert np.array_equal(parsed[:, 1], expected.values)
        assert parsed[0, 1] == DESK_PARAMS["x0"]
    seeds = report.details["path_seeds"]["1"]
    assert seeds["path_T1_rep00000.csv"] == replication_seed(7, 0)


@pytest.mark.parametrize("horizon, n", [(0.1, 4), (1 / 3, 64), (5.0, 8192), (1e5, 16)])
def test_path_rows_match_the_columnar_writer(tmp_path, horizon, n):
    # the cached per-grid row template writes the same bytes as the
    # generic columnar CSV of (t, value)
    grid = SampleGrid(horizon=horizon, n=n)
    values = np.random.default_rng(n).standard_normal(n + 1)
    values[:5] = [0.0, -0.0, -1e-300, 1e-300, 1e300]
    generic, templated = tmp_path / "generic.csv", tmp_path / "templated.csv"
    harness._write_csv(str(generic), {"t": grid.times(), "value": values})
    harness._write_csv(str(templated), {"t": None, "value": values}, harness._path_rows(grid))
    assert templated.read_bytes() == generic.read_bytes()
    lines = templated.read_text().splitlines()
    assert lines[0] == "t,value" and len(lines) == n + 2
    parsed = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
    assert np.array_equal(parsed[:, 0], grid.times())
    assert np.array_equal(parsed[:, 1], values)
    assert np.array_equal(np.signbit(parsed[:, 1]), np.signbit(values))


def test_simulate_paths_carry_their_own_grid(tmp_path):
    # two horizons at one n: each file has its own grid's time column, so the
    # row template is keyed by the whole grid, not by n
    cfg = _config(tmp_path, experiment="simulate", T_list=[1.0, 2.0], n_grid=64, replications=2)
    run_experiment(cfg)
    for T in (1.0, 2.0):
        grid = SampleGrid(horizon=T, n=64)
        for rep in range(2):
            values = simulate_exact(cfg.params, grid, seed=replication_seed(7, rep)).values
            expected = tmp_path / "expected.csv"
            harness._write_csv(str(expected), {"t": grid.times(), "value": values})
            written = tmp_path / "out" / f"path_T{T:g}_rep{rep:05d}.csv"
            assert written.read_bytes() == expected.read_bytes()


def test_estimate_csv_schema(tmp_path):
    cfg = _config(tmp_path, experiment="estimate", n_grid=4096, replications=25)
    report = run_experiment(cfg)
    assert report.passed
    est_lines = (tmp_path / "out" / "estimates.csv").read_text().strip().splitlines()
    assert est_lines[0] == (
        "replication,T,alpha_hat,beta_hat,alpha_tilde,beta_tilde,"
        "mu_hat,kappa_hat,gamma_hat,H_hat"
    )
    assert len(est_lines) == 26
    stats_lines = (tmp_path / "out" / "stats_T2.csv").read_text().strip().splitlines()
    assert stats_lines[0] == "replication,seed,S_T,I_T,J_T,K_T,w_T"
    first = stats_lines[1].split(",")
    assert int(first[0]) == 0
    assert int(first[1]) == replication_seed(7, 0)
    medians = report.details["median_abs_error"]["2"]
    assert set(medians) == {
        "alpha_hat",
        "beta_hat",
        "alpha_tilde",
        "beta_tilde",
        "mu_hat",
        "kappa_hat",
        "gamma_hat",
        "H_hat",
    }


def test_exact_check_passes_at_modest_scale(tmp_path):
    cfg = _config(tmp_path, replications=200)
    report = run_experiment(cfg)
    assert report.passed
    (row,) = report.rows
    assert row.statistic == "exact_normal"
    assert row.ks_p > 0.001
    assert row.gates
    assert row.law == {"type": "NormalLaw", "mean": 0.0, "variance": 1.0}


def test_failure_rate_aborts(tmp_path):
    # a start value of 1e200 overflows I and K, so every replication fails
    params = dict(DESK_PARAMS, x0=1e200)
    cfg = _config(tmp_path, params=params, T_list=[5.0], n_grid=512, replications=30)
    with pytest.raises(RuntimeError, match="> 1%"):
        run_experiment(cfg)


def test_overflowing_horizons_are_refused(tmp_path):
    # for beta < 0 the statistics carry exp(2 |beta| T), so |beta| T may reach
    # about 354.9; paths alone (simulate, or beta > 0) reach about 709.8
    with pytest.raises(ValueError, match="horizon T = 800 overflows exact-check"):
        _config(tmp_path, T_list=[2.0, 800.0])
    with pytest.raises(ValueError, match="horizon T = 1500 overflows simulate"):
        _config(tmp_path, experiment="simulate", T_list=[1500.0])
    with pytest.raises(ValueError, match="horizon T = 1500 overflows exact-check"):
        _config(tmp_path, params=dict(DESK_PARAMS, beta=0.5), T_list=[1500.0])
    _config(tmp_path, experiment="simulate", T_list=[800.0])
    _config(tmp_path, T_list=[708.0])
    ergodic = _config(tmp_path, params=dict(DESK_PARAMS, beta=0.5), T_list=[720.0], n_grid=1024)
    columns, failures = harness._batch_task(("stats", ergodic, ergodic.params, 720.0, 0, 8))
    assert failures == [] and np.all(np.isfinite(columns["K"]))


def test_non_finite_statistics_fail_the_block_at_stats(tmp_path):
    # a start value of 1e200 is admitted, but the panels of I and K overflow;
    # every replication of the block fails at stage "stats"
    params = dict(DESK_PARAMS, x0=1e200)
    cfg = _config(tmp_path, params=params, T_list=[5.0], n_grid=1024, replications=64)
    with np.errstate(over="ignore"):
        columns, failures = harness._batch_task(("stats", cfg, cfg.params, 5.0, 0, 8))
    assert all(col.size == 0 for col in columns.values())
    message = "ValueError: statistic I is not finite on 8 of 8 paths"
    assert failures == [(rep, "stats", message) for rep in range(8)]
    with np.errstate(over="ignore"), pytest.raises(RuntimeError, match="statistic I is not finite"):
        run_experiment(cfg)


def test_block_failed_at_stats_within_budget(tmp_path, monkeypatch):
    # one-replication blocks: the first block fails at "stats" (1 of 100 is
    # within the 1% budget), and the surviving blocks still give full columns
    real = harness.simulate_exact

    def poisoned(params, grid, seed):
        path = real(params, grid, seed=seed)
        if seed == replication_seed(7, 0):
            path.values[-1] = math.nan
        return path

    monkeypatch.setattr(harness, "_BATCH", 1)
    monkeypatch.setattr(harness, "simulate_exact", poisoned)
    report = run_experiment(_config(tmp_path, replications=100))
    assert report.failures == 1
    (failed,) = report.details["failed"]
    assert (failed["replication"], failed["stage"]) == (0, "stats")
    assert failed["message"] == "ValueError: statistic S is not finite on 1 of 1 paths"
    lines = (tmp_path / "out" / "stats_T2.csv").read_text().strip().splitlines()
    assert len(lines) == 100 and lines[1].startswith("1,")
    assert report.rows[0].n_reps == 99


def test_stats_block_keeps_the_surviving_paths_in_order(tmp_path, monkeypatch):
    # a replication that fails to simulate in the middle of a block leaves
    # no row behind: the block's statistics are those of the surviving
    # paths stacked in replication order, bit for bit
    real = harness.simulate_exact
    cfg = _config(tmp_path, replications=8)

    def failing(params, grid, seed):
        if seed == replication_seed(7, 3):
            raise RuntimeError("injected")
        return real(params, grid, seed=seed)

    monkeypatch.setattr(harness, "simulate_exact", failing)
    columns, failures = harness._batch_task(("stats", cfg, cfg.params, 2.0, 0, 8))
    assert columns["replication"].tolist() == [0, 1, 2, 4, 5, 6, 7]
    assert failures == [(3, "simulate", "RuntimeError: injected")]
    grid = SampleGrid(horizon=2.0, n=512)
    seeds = [replication_seed(7, rep) for rep in columns["replication"]]
    values = np.stack([real(cfg.params, grid, seed=seed).values for seed in seeds])
    stats = shared_engine(grid, cfg.params.hurst).statistics(values, cfg.params.gamma)
    for name in ("S", "I", "J", "K"):
        assert columns[name].tobytes() == getattr(stats, name).tobytes()


def test_mgf_check_refuses_ergodic_beta(tmp_path):
    # the closed-form MGFs exist only for beta < 0; refuse before simulating
    with pytest.raises(ValueError, match="mgf-check requires beta < 0"):
        _config(tmp_path, experiment="mgf-check", params=dict(DESK_PARAMS, beta=0.5))


def test_recovering_experiments_refuse_coarse_grids(tmp_path):
    for experiment in ("estimate", "limit-check", "hurst-gamma-check"):
        with pytest.raises(ValueError, match="n_grid >= 4096"):
            _config(tmp_path, experiment=experiment, n_grid=2048)


def test_failed_hurst_voids_only_its_column(tmp_path):
    # near H = 1 the second-difference ratio leaves (0, 1) on a few paths;
    # H is taken as known, so those rows keep their drift statistics
    cfg = _config(
        tmp_path,
        experiment="limit-check",
        params=dict(DESK_PARAMS, hurst=0.97),
        T_list=[2.0, 3.0],
        n_grid=4096,
        replications=80,
        master_seed=99,
    )
    report = run_experiment(cfg)
    assert report.failures == 0
    failed = report.details["failed"]
    assert failed and {f["stage"] for f in failed} == {"hurst"}
    assert {f["T"] for f in failed} <= {2.0, 3.0}
    assert all("outside (0, 1)" in f["message"] for f in failed)
    assert all(r.n_reps == 80 for r in report.rows)
    lines = (tmp_path / "out" / "estimates.csv").read_text().strip().splitlines()[1:]
    assert len(lines) == 160
    rows = [line.split(",") for line in lines]
    nan_rows = {(float(r[1]), int(r[0])) for r in rows if r[-1] == "nan"}
    assert nan_rows == {(f["T"], f["replication"]) for f in failed}
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert payload["details"]["failed"] == failed


def test_failure_records_carry_the_setting(tmp_path, monkeypatch):
    # one failed recovery voids its replication (1 of 100 is within the 1%
    # budget) and is recorded with the sweep setting it belongs to
    real = harness.estimate_hurst
    calls = []

    def flaky(path):
        calls.append(1)
        if len(calls) == 1:
            raise DegenerateStatsError("injected")
        return real(path)

    monkeypatch.setattr(harness, "estimate_hurst", flaky)
    cfg = _config(
        tmp_path, experiment="hurst-gamma-check", T_list=[1.0], n_grid=4096, replications=100
    )
    report = run_experiment(cfg)
    assert report.failures == 1
    assert report.details["failed"] == [
        {
            "setting": "H=0.6",
            "T": 1.0,
            "replication": 0,
            "stage": "hurst",
            "message": "DegenerateStatsError: injected",
        }
    ]
    lines = (tmp_path / "out" / "recovery.csv").read_text().strip().splitlines()
    assert [line.split(",")[-1] for line in lines[1:]] == ["99", "100", "100", "100", "100"]


def test_failed_list_always_present(tmp_path):
    report = run_experiment(_config(tmp_path, replications=30))
    assert report.details["failed"] == []
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert payload["details"]["failed"] == []


@pytest.mark.parametrize("n_grid", [4096, 8192, 65536])
@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_block_gamma_matches_per_path_recovery(tmp_path, n_grid, gamma):
    params = dict(DESK_PARAMS, gamma=gamma)
    cfg = _config(
        tmp_path, experiment="estimate", params=params, n_grid=n_grid, replications=6
    )
    run_experiment(cfg)
    lines = (tmp_path / "out" / "estimates.csv").read_text().strip().splitlines()[1:]
    grid = SampleGrid(horizon=2.0, n=n_grid)
    for line in lines:
        fields = line.split(",")
        rep, block = int(fields[0]), float(fields[-2])
        path = simulate_exact(ModelParams(**params), grid, seed=replication_seed(7, rep))
        single = estimate_gamma(path, DESK_PARAMS["hurst"])
        assert abs(block - single) <= 1e-14 * single


def test_limit_check_rows_and_gating(tmp_path):
    cfg = _config(
        tmp_path,
        experiment="limit-check",
        T_list=[2.0, 3.0],
        n_grid=4096,
        replications=80,
        master_seed=99,
    )
    report = run_experiment(cfg)
    by_key = {(r.T, r.statistic): r for r in report.rows}
    names = {
        "beta_ratio",
        "alpha_normal",
        "beta_single_ratio",
        "alpha_single_exact",
        "mu_normal",
        "I_chi_square",
        "S_normal",
        "J_normal_stated",
        "J_normal_identity",
    }
    assert {k[1] for k in by_key} == names

    # the stated J constants are reported but never gate; asymptotic laws
    # gate only at the largest horizon; the exact pivot gates everywhere
    assert not by_key[(3.0, "J_normal_stated")].gates
    assert by_key[(3.0, "J_normal_identity")].gates
    assert by_key[(2.0, "alpha_single_exact")].gates
    assert not by_key[(2.0, "beta_ratio")].gates
    assert by_key[(3.0, "beta_ratio")].gates

    z = zeta_law(ModelParams(**DESK_PARAMS))
    zeta = {"type": "ZetaLaw", "mean": z.mean, "variance": z.variance}
    for T in (2.0, 3.0):
        assert by_key[(T, "beta_ratio")].law == {"type": "RatioLaw", "zeta": zeta}
        assert by_key[(T, "I_chi_square")].law == {
            "type": "ScaledChiSquareLaw",
            "scale": 0.5,
            "zeta": zeta,
        }

    assert set(report.details["gates"]) == {"ks", "independence", "drift_ratio"}
    assert set(report.details["spearman_alpha_beta"]) == {"2", "3"}
    checks_lines = (tmp_path / "out" / "checks.csv").read_text().strip().splitlines()
    assert checks_lines[0] == "T,statistic,ks_stat,ks_p,n_reps"
    assert len(checks_lines) == 1 + 2 * len(names)
    assert os.path.exists(tmp_path / "out" / "estimates.csv")
    report_payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report_payload["config"]["master_seed"] == 99


def test_mgf_check_small_sample(tmp_path):
    cfg = _config(
        tmp_path,
        experiment="mgf-check",
        T_list=[2.0],
        n_grid=2048,
        replications=1500,
        master_seed=4242,
    )
    report = run_experiment(cfg)
    assert report.passed
    assert report.details["reduction_worst_rel"] <= 1e-12
    assert report.details["m1_worst_z"] <= 3.0
    mgf_lines = (tmp_path / "out" / "mgf.csv").read_text().strip().splitlines()
    assert mgf_lines[0] == "xi1,xi2,log_m1_closed,log_m1_mc,se"
    assert len(mgf_lines) == 7


def test_mgf_check_reports_points_outside_the_domain(tmp_path):
    # at T = 12 the domain boundary in xi2 is about 5e-6, so the two probes
    # with xi2 = 0.05 have no closed form and the run fails
    cfg = _config(
        tmp_path,
        experiment="mgf-check",
        T_list=[12.0],
        n_grid=1024,
        replications=40,
        master_seed=5,
    )
    report = run_experiment(cfg)
    points = {(p["xi1"], p["xi2"]): p for p in report.details["m1_points"]}
    outside = {(-0.15, 0.05), (0.0, 0.05)}
    for key, point in points.items():
        if key in outside:
            assert point["error"].startswith("MgfDomainError")
        else:
            assert {"closed", "mc", "se", "z"} <= set(point)
    assert len(points) == 6
    assert report.details["m1_worst_z"] == math.inf
    assert not report.passed
    mgf_lines = (tmp_path / "out" / "mgf.csv").read_text().strip().splitlines()
    assert len(mgf_lines) == 1 + 4
