"""Command line front end: exit codes and the messages that go with them."""

import json

import numpy as np
import pytest

from fracvas.cli import main
from fracvas.harness import EXPERIMENTS

DESK_PARAMS = {"alpha": 1.0, "beta": -0.5, "gamma": 1.0, "hurst": 0.7, "x0": 0.3}


def _config_file(tmp_path, **overrides) -> str:
    payload = {
        "experiment": "simulate",
        "params": dict(DESK_PARAMS),
        "T_list": [1.0],
        "n_grid": 16,
        "replications": 2,
        "master_seed": 7,
        "output_dir": str(tmp_path / "out"),
    }
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_tiny_simulate_passes(tmp_path, capsys):
    assert main(["simulate", "--config", _config_file(tmp_path)]) == 0
    assert "PASS: simulate (0 failed replications" in capsys.readouterr().out
    assert (tmp_path / "out" / "path_T1_rep00001.csv").exists()


def test_help_lists_every_experiment_with_its_summary(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one help line per experiment
    with pytest.raises(SystemExit):
        main(["--help"])
    lines = capsys.readouterr().out.splitlines()
    for name, run in EXPERIMENTS.items():
        assert any(line.split() == [name, *run.__doc__.split()] for line in lines), name
    assert len(EXPERIMENTS) == 6


def test_bad_config_exits_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "simulate"}))
    assert main(["simulate", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("fracvas: bad config: missing config fields")


def test_mismatched_subcommand_exits_2(tmp_path, capsys):
    assert main(["exact-check", "--config", _config_file(tmp_path)]) == 2
    assert "config is for 'simulate', not 'exact-check'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bad_override_exits_2(tmp_path, capsys):
    assert main(["simulate", "--config", _config_file(tmp_path), "--workers", "0"]) == 2
    assert capsys.readouterr().err.startswith("fracvas: bad override: workers must be positive")


def test_unwritable_output_exits_2(tmp_path, capsys):
    blocker = tmp_path / "regular-file"
    blocker.write_text("")
    argv = ["simulate", "--config", _config_file(tmp_path), "--out", str(blocker / "sub")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("fracvas: cannot write output: ")


def test_non_finite_statistic_aborts_with_1(tmp_path, capsys):
    # a start value of 1e200 passes validation, but I and K overflow on every
    # path; the overflow warnings are silenced so only the refusal is tested
    config = _config_file(
        tmp_path,
        experiment="exact-check",
        params=dict(DESK_PARAMS, x0=1e200),
        T_list=[5.0],
        n_grid=1024,
        replications=64,
    )
    with np.errstate(over="ignore"):
        assert main(["exact-check", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fracvas: aborted: 64/64 replications failed at T=5.0")
    assert "ValueError: statistic I is not finite on 64 of 64 paths" in err


@pytest.mark.parametrize("experiment", ["exact-check", "mgf-check"])
@pytest.mark.parametrize("n_grid", [8, 32])
def test_grid_too_coarse_for_panels_exits_2(tmp_path, capsys, experiment, n_grid):
    config = _config_file(tmp_path, experiment=experiment, n_grid=n_grid, replications=64)
    assert main([experiment, "--config", config]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"fracvas: bad config: {experiment} integrates panels")
    assert "n_grid >= 64" in err
    assert not (tmp_path / "out").exists()


def test_overflowing_horizon_exits_2(tmp_path, capsys):
    # |beta T| = 400 overflows I and K, so the config is refused before any run
    config = _config_file(
        tmp_path, experiment="exact-check", T_list=[800.0], n_grid=1024, replications=64
    )
    assert main(["exact-check", "--config", config]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fracvas: bad config: horizon T = 800 overflows exact-check")
    assert not (tmp_path / "out").exists()
