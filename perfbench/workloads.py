"""The four benchmark workloads: acceptance-size experiment configs.

Each workload is one `fracvas.harness.run_experiment` call on the desk
parameters.  `paths` is the number of simulated paths one run produces
(replications x horizons x parameter settings); it is the base of
`paths_per_s` and of the attempted/failed counts.
"""

DEFAULT_SEED = 20260818

DESK_PARAMS = {"alpha": 1.0, "beta": -0.5, "gamma": 1.0, "hurst": 0.7, "x0": 0.3}

# hurst-gamma-check sweeps H over 3 values and gamma over 2, one T each
_RECOVERY_SETTINGS = 5

WORKLOADS = {
    "limit-desk": {
        "config": {
            "experiment": "limit-check",
            "T_list": [6.0, 9.0, 12.0],
            "n_grid": 8192,
            "replications": 1000,
        },
        "paths": 3 * 1000,
    },
    "exact-desk": {
        "config": {
            "experiment": "exact-check",
            "T_list": [5.0],
            "n_grid": 8192,
            "replications": 2000,
        },
        "paths": 2000,
    },
    "recover-65k": {
        "config": {
            "experiment": "hurst-gamma-check",
            "T_list": [2.0],
            "n_grid": 65536,
            "replications": 50,
        },
        "paths": _RECOVERY_SETTINGS * 50,
    },
    "simulate-csv": {
        "config": {
            "experiment": "simulate",
            "T_list": [5.0],
            "n_grid": 8192,
            "replications": 256,
        },
        "paths": 256,
    },
}


def config_payload(workload: str, seed: int, output_dir: str) -> dict:
    """`ExperimentConfig.from_dict` payload for one workload run."""
    return dict(
        WORKLOADS[workload]["config"],
        params=dict(DESK_PARAMS),
        master_seed=seed,
        workers=1,
        output_dir=output_dir,
    )
