"""Experiment runner: config validation, determinism, artifacts, KS wrapper."""

import filecmp
import json
import math
import os

import numpy as np
import pytest
from scipy.stats import norm

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
from fracvas.limits import law_beta_limit, ratio_cdf, vector_limit
from fracvas.model import ModelParams, simulate_exact

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
    for rep in range(2):
        lines = (
            (tmp_path / "out" / f"path_T1_rep{rep:05d}.csv").read_text().strip().splitlines()
        )
        assert lines[0] == "t,value"
        assert len(lines) == 66  # header + 65 grid nodes
        t0, v0 = lines[1].split(",")
        assert float(t0) == 0.0
        assert float(v0) == DESK_PARAMS["x0"]
    seeds = report.details["path_seeds"]["1"]
    assert seeds["path_T1_rep00000.csv"] == replication_seed(7, 0)


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
    # beta T = -750 overflows the exact solution, so every simulation fails
    cfg = _config(tmp_path, T_list=[1500.0], n_grid=512, replications=30)
    with pytest.raises(RuntimeError, match="> 1%"):
        run_experiment(cfg)


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


@pytest.mark.parametrize("n_grid", [4096, 8192])
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
