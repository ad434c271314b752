"""Experiment runner: JSON configs, deterministic parallel Monte Carlo, CSV and JSON reports.

Replications are independent tasks, each seeded by mixing (master_seed,
replication index) through a SeedSequence, so any worker can run any
replication and the aggregate output is byte-identical for every worker
count.  Work is dealt in fixed blocks of 64 replications; a worker owns
whole blocks and results are reassembled in block order.

Pass/fail semantics: distributional checks against asymptotic laws gate
at the largest requested horizon (smaller horizons are reported for
trend-watching); checks against laws that are exact at finite horizons
gate everywhere.  The stated long-horizon law of the kernel-averaged
level (statistic "J_normal_stated") is reported but never gates, since
it is inconsistent with the law the S identity forces; the identity
variant ("J_normal_identity") gates instead.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp
from scipy.stats import kstest, spearmanr

from .estimators import (
    estimate_gamma,
    estimate_hurst,
    mle_alpha,
    mle_beta,
    mle_joint,
    mle_mu_kappa,
)
from .fbm import SampleGrid
from .limits import (
    NormalLaw,
    RatioLaw,
    ScaledChiSquareLaw,
    VectorLimit,
    ZetaLaw,
    law_alpha_limit,
    law_beta_limit,
    law_I_limit,
    law_J_limit,
    law_J_limit_identity,
    law_mu_kappa_limit,
    law_S_limit,
    ratio_cdf,
    special_case_ratio,
)
from .mgf import Mgf1Input, Mgf2Input, mgf1_log, mgf2_log
from .model import ModelParams, simulate_exact
from .transforms import SufficientStats, constants, shared_engine

EXPERIMENTS = (
    "simulate",
    "estimate",
    "exact-check",
    "limit-check",
    "mgf-check",
    "hurst-gamma-check",
)

_BATCH = 64
_KS_MIN_N = 20
_BOOTSTRAP_RESAMPLES = 200

# default probe points for mgf-check: strictly inside the domain at short
# horizons, spread over both signs of each argument
_MGF1_POINTS = (
    (0.10, -0.05),
    (0.20, 0.00),
    (-0.15, 0.05),
    (-0.20, -0.20),
    (0.00, 0.05),
    (0.15, -0.15),
)
_MGF2_POINT = (0.05, 0.0, 0.05, -0.1)

_HURST_TARGETS = (0.6, 0.7, 0.8)
_GAMMA_TARGETS = (0.5, 2.0)
_RECOVERY_GATE = 0.05
_INDEPENDENCE_GATE = 0.1
_DRIFT_RATIO_GATE = 0.05


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: what to simulate, how much, and where it goes."""

    experiment: str
    params: ModelParams
    T_list: tuple[float, ...]
    n_grid: int
    replications: int
    master_seed: int
    workers: int = 1
    output_dir: str = "out"
    p_threshold: float = 0.001

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; choose from {', '.join(EXPERIMENTS)}"
            )
        t_list = tuple(float(t) for t in self.T_list)
        object.__setattr__(self, "T_list", t_list)
        if not t_list:
            raise ValueError("T_list must be nonempty")
        if any(not t > 0.0 for t in t_list):
            raise ValueError(f"all horizons must be positive, got {t_list!r}")
        n = self.n_grid
        if n < 4 or (n & (n - 1)) != 0:
            raise ValueError(f"n_grid must be a power of two >= 4, got {n!r}")
        if self.replications < 1:
            raise ValueError(f"replications must be positive, got {self.replications!r}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must fit in 64 bits, got {self.master_seed!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers!r}")
        if not 0.0 < self.p_threshold < 1.0:
            raise ValueError(f"p_threshold must lie in (0, 1), got {self.p_threshold!r}")
        if self.experiment == "limit-check" and not self.params.beta < 0.0:
            raise ValueError("limit-check requires beta < 0")

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        allowed = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - allowed
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        missing = {"experiment", "params", "T_list", "n_grid", "replications", "master_seed"} - set(
            payload
        )
        if missing:
            raise ValueError(f"missing config fields: {sorted(missing)}")
        data = dict(payload)
        raw_params = data.pop("params")
        if not isinstance(raw_params, dict):
            raise ValueError("params must be an object with alpha, beta, gamma, hurst, x0")
        params = ModelParams(**raw_params)
        return cls(params=params, **data)

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ValueError("config file must hold a JSON object")
        return cls.from_dict(payload)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "params": dataclasses.asdict(self.params),
            "T_list": list(self.T_list),
            "n_grid": self.n_grid,
            "replications": self.replications,
            "master_seed": self.master_seed,
            "workers": self.workers,
            "output_dir": self.output_dir,
            "p_threshold": self.p_threshold,
        }


@dataclass(frozen=True)
class CheckRow:
    """One KS comparison: a normalized statistic against a target law."""

    T: float
    statistic: str
    ks_stat: float
    ks_p: float
    n_reps: int
    law: dict
    gates: bool

    def __post_init__(self) -> None:
        if not 0.0 <= self.ks_p <= 1.0:
            raise ValueError(f"p-value outside [0, 1]: {self.ks_p!r}")


@dataclass
class TestReport:
    experiment: str
    passed: bool
    rows: list[CheckRow]
    failures: int
    replications: int
    notes: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "passed": self.passed,
            "rows": [dataclasses.asdict(r) for r in self.rows],
            "failures": self.failures,
            "replications": self.replications,
            "notes": self.notes,
            "details": self.details,
        }


def _jsonable(obj):
    """Recursively convert numpy scalars so json.dump accepts the payload."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def replication_seed(master_seed: int, replication: int) -> int:
    """Mix (master seed, replication index) into one 64-bit driver seed.

    Order-independent: any worker can compute any replication's seed
    without touching shared generator state.
    """
    seq = np.random.SeedSequence([int(master_seed), int(replication)])
    return int(seq.generate_state(1, np.uint64)[0])


def ks_test(samples, cdf) -> tuple[float, float]:
    """One-sample KS statistic with the asymptotic Kolmogorov p-value."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    if arr.size < _KS_MIN_N:
        raise ValueError(f"KS test needs at least {_KS_MIN_N} samples, got {arr.size}")
    result = kstest(arr, cdf, mode="asymp")
    return float(result.statistic), float(result.pvalue)


def law_cdf(law) -> "callable":
    """Vectorized CDF callable for any limit law with a distribution function."""
    if isinstance(law, RatioLaw):
        return lambda x: ratio_cdf(x, law)
    if isinstance(law, (NormalLaw, ZetaLaw, ScaledChiSquareLaw)):
        return law.cdf
    raise TypeError(f"no distribution function for {type(law).__name__}")


def _law_fields(law) -> dict:
    if isinstance(law, (NormalLaw, ZetaLaw)):
        return {"type": type(law).__name__, "mean": law.mean, "variance": law.variance}
    if isinstance(law, RatioLaw):
        return {"type": "RatioLaw", "zeta": _law_fields(law.zeta)}
    if isinstance(law, ScaledChiSquareLaw):
        return {"type": "ScaledChiSquareLaw", "scale": law.scale, "zeta": _law_fields(law.zeta)}
    if isinstance(law, VectorLimit):
        return {"type": "VectorLimit", "xi": _law_fields(law.xi), "zeta": _law_fields(law.zeta)}
    raise TypeError(f"no description for {type(law).__name__}")


def _fmt_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_csv(path: str, header: list[str], rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(cell) for cell in row) + "\n")


def _tag(T: float) -> str:
    return format(float(T), "g")


def _batch_task(task: tuple) -> list[dict]:
    """Run one block of replications; returns one dict per replication.

    Must stay a top-level function: worker pools pickle it by name.
    Failed replications carry an "error" entry instead of results.
    """
    mode, params, T, n_grid, master_seed, lo, hi = task
    grid = SampleGrid(horizon=float(T), n=int(n_grid))
    rows: list[dict] = []

    if mode in ("paths", "recover"):
        for rep in range(lo, hi):
            seed = replication_seed(master_seed, rep)
            row: dict = {"replication": rep, "seed": seed}
            try:
                path = simulate_exact(params, grid, seed=seed)
                if mode == "paths":
                    row["values"] = path.values
                else:
                    row["H_hat"] = estimate_hurst(path)
                    row["gamma_hat"] = estimate_gamma(path, params.hurst)
            except Exception as exc:  # noqa: BLE001 - failures are counted, not fatal
                row["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(row)
        return rows

    engine = shared_engine(grid, params.hurst)
    ok_rows: list[dict] = []
    values = []
    for rep in range(lo, hi):
        seed = replication_seed(master_seed, rep)
        row = {"replication": rep, "seed": seed}
        try:
            path = simulate_exact(params, grid, seed=seed)
        except Exception as exc:  # noqa: BLE001
            row["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(row)
            continue
        if mode == "stats+est":
            try:
                row["gamma_hat"] = estimate_gamma(path, params.hurst)
                row["H_hat"] = estimate_hurst(path)
            except Exception as exc:  # noqa: BLE001
                row["error"] = f"{type(exc).__name__}: {exc}"
                rows.append(row)
                continue
        values.append(path.values)
        ok_rows.append(row)
        rows.append(row)

    if ok_rows:
        stats = engine.statistics(np.asarray(values), params.gamma)
        for i, row in enumerate(ok_rows):
            row.update(
                S=float(stats["S"][i]),
                I=float(stats["I"][i]),
                J=float(stats["J"][i]),
                K=float(stats["K"][i]),
                w=float(stats["w"]),
            )
            if mode == "stats+est":
                suff = SufficientStats(
                    S=row["S"],
                    I=row["I"],
                    J=row["J"],
                    K=row["K"],
                    w=row["w"],
                    horizon=grid.horizon,
                    hurst=params.hurst,
                    gamma=params.gamma,
                )
                try:
                    joint = mle_joint(suff, params.gamma)
                    pair = mle_mu_kappa(suff, params.gamma)
                    row["alpha_hat"] = joint.alpha_hat
                    row["beta_hat"] = joint.beta_hat
                    row["alpha_tilde"] = mle_alpha(suff, params.gamma, beta_known=params.beta)
                    row["beta_tilde"] = mle_beta(suff, params.gamma, alpha_known=params.alpha)
                    row["mu_hat"] = pair.alpha_hat
                    row["kappa_hat"] = pair.beta_hat
                except Exception as exc:  # noqa: BLE001
                    for key in ("S", "I", "J", "K", "w"):
                        row.pop(key, None)
                    row["error"] = f"{type(exc).__name__}: {exc}"
    return rows


def _collect(
    config: ExperimentConfig, mode: str, T: float, params: ModelParams | None = None
) -> list[dict]:
    """All replications for one horizon, in replication order."""
    params = params if params is not None else config.params
    n = config.replications
    tasks = [
        (mode, params, T, config.n_grid, config.master_seed, lo, min(lo + _BATCH, n))
        for lo in range(0, n, _BATCH)
    ]
    if config.workers == 1 or len(tasks) == 1:
        chunks = [_batch_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            chunks = list(pool.map(_batch_task, tasks))
    rows = [row for chunk in chunks for row in chunk]
    failed = sum(1 for row in rows if "error" in row)
    if failed > 0.01 * n:
        examples = [row["error"] for row in rows if "error" in row][:3]
        raise RuntimeError(
            f"{failed}/{n} replications failed at T={T} (> 1%); first errors: {examples}"
        )
    return rows


def _ok(rows: list[dict]) -> list[dict]:
    return [row for row in rows if "error" not in row]


def _write_stats_csv(config: ExperimentConfig, T: float, rows: list[dict]) -> str:
    path = os.path.join(config.output_dir, f"stats_T{_tag(T)}.csv")
    _write_csv(
        path,
        ["replication", "seed", "S_T", "I_T", "J_T", "K_T", "w_T"],
        [
            [r["replication"], r["seed"], r["S"], r["I"], r["J"], r["K"], r["w"]]
            for r in _ok(rows)
        ],
    )
    return path


_ESTIMATE_HEADER = [
    "replication",
    "T",
    "alpha_hat",
    "beta_hat",
    "alpha_tilde",
    "beta_tilde",
    "mu_hat",
    "kappa_hat",
    "gamma_hat",
    "H_hat",
]


def _estimate_csv_rows(T: float, rows: list[dict]) -> list[list]:
    return [
        [
            r["replication"],
            T,
            r["alpha_hat"],
            r["beta_hat"],
            r["alpha_tilde"],
            r["beta_tilde"],
            r["mu_hat"],
            r["kappa_hat"],
            r["gamma_hat"],
            r["H_hat"],
        ]
        for r in _ok(rows)
    ]


def run_experiment(config: ExperimentConfig) -> TestReport:
    """Execute one configured experiment; artifacts land in config.output_dir."""
    os.makedirs(config.output_dir, exist_ok=True)
    runners = {
        "simulate": _run_simulate,
        "estimate": _run_estimate,
        "exact-check": _run_exact_check,
        "limit-check": _run_limit_check,
        "mgf-check": _run_mgf_check,
        "hurst-gamma-check": _run_recovery_check,
    }
    report = runners[config.experiment](config)
    payload = _jsonable(report.to_dict())
    payload["config"] = config.to_dict()
    with open(os.path.join(config.output_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def _insufficient(config: ExperimentConfig, report: TestReport) -> bool:
    if config.replications < _KS_MIN_N:
        report.notes.append("insufficient-n: too few replications for distributional tests")
        return True
    return False


def _run_simulate(config: ExperimentConfig) -> TestReport:
    report = TestReport(
        experiment=config.experiment,
        passed=True,
        rows=[],
        failures=0,
        replications=config.replications,
    )
    seeds: dict[str, dict[str, int]] = {}
    for T in config.T_list:
        rows = _collect(config, "paths", T)
        report.failures += sum(1 for r in rows if "error" in r)
        grid_times = SampleGrid(horizon=T, n=config.n_grid).times()
        per_t: dict[str, int] = {}
        for row in _ok(rows):
            name = f"path_T{_tag(T)}_rep{row['replication']:05d}.csv"
            _write_csv(
                os.path.join(config.output_dir, name),
                ["t", "value"],
                list(zip(grid_times, row["values"])),
            )
            per_t[name] = row["seed"]
        seeds[_tag(T)] = per_t
    report.details["path_seeds"] = seeds
    report.notes.append("no statistical checks configured for simulate")
    return report


def _run_estimate(config: ExperimentConfig) -> TestReport:
    report = TestReport(
        experiment=config.experiment,
        passed=True,
        rows=[],
        failures=0,
        replications=config.replications,
    )
    p = config.params
    estimate_rows: list[list] = []
    medians: dict[str, dict[str, float]] = {}
    for T in config.T_list:
        rows = _collect(config, "stats+est", T)
        report.failures += sum(1 for r in rows if "error" in r)
        _write_stats_csv(config, T, rows)
        estimate_rows.extend(_estimate_csv_rows(T, rows))
        ok = _ok(rows)
        medians[_tag(T)] = {
            "alpha_hat": float(np.median([abs(r["alpha_hat"] - p.alpha) for r in ok])),
            "beta_hat": float(np.median([abs(r["beta_hat"] - p.beta) for r in ok])),
            "alpha_tilde": float(np.median([abs(r["alpha_tilde"] - p.alpha) for r in ok])),
            "beta_tilde": float(np.median([abs(r["beta_tilde"] - p.beta) for r in ok])),
            "mu_hat": float(np.median([abs(r["mu_hat"] - p.mean_level) for r in ok])),
            "kappa_hat": float(np.median([abs(r["kappa_hat"] - p.beta) for r in ok])),
            "gamma_hat": float(np.median([abs(r["gamma_hat"] - p.gamma) for r in ok])),
            "H_hat": float(np.median([abs(r["H_hat"] - p.hurst) for r in ok])),
        }
    _write_csv(
        os.path.join(config.output_dir, "estimates.csv"), _ESTIMATE_HEADER, estimate_rows
    )
    report.details["median_abs_error"] = medians
    _insufficient(config, report)
    return report


def _run_exact_check(config: ExperimentConfig) -> TestReport:
    report = TestReport(
        experiment=config.experiment,
        passed=True,
        rows=[],
        failures=0,
        replications=config.replications,
    )
    p = config.params
    kc = constants(p.hurst, p.gamma)
    law = NormalLaw(mean=0.0, variance=1.0)
    insufficient = _insufficient(config, report)
    csv_rows: list[list] = []
    for T in config.T_list:
        rows = _collect(config, "stats", T)
        report.failures += sum(1 for r in rows if "error" in r)
        _write_stats_csv(config, T, rows)
        ok = _ok(rows)
        if insufficient:
            continue
        scale = math.sqrt(kc.lam) * T ** (p.hurst - 1.0)
        sample = np.array(
            [scale * (r["S"] + p.beta * r["J"] - p.alpha / p.gamma * r["w"]) for r in ok]
        )
        stat, pval = ks_test(sample, law_cdf(law))
        # this normalization is pivotal at every horizon, so every row gates
        row = CheckRow(
            T=T,
            statistic="exact_normal",
            ks_stat=stat,
            ks_p=pval,
            n_reps=len(ok),
            law=_law_fields(law),
            gates=True,
        )
        report.rows.append(row)
        csv_rows.append([T, row.statistic, stat, pval, len(ok)])
    _write_csv(
        os.path.join(config.output_dir, "checks.csv"),
        ["T", "statistic", "ks_stat", "ks_p", "n_reps"],
        csv_rows,
    )
    report.passed = all(r.ks_p > config.p_threshold for r in report.rows if r.gates)
    return report


def _limit_statistics(p: ModelParams, T: float, ok: list[dict]) -> list[tuple[str, np.ndarray, object]]:
    """Normalized error samples paired with their target laws at horizon T."""
    kc = constants(p.hurst, p.gamma)
    growth = math.exp(-p.beta * T)
    polynomial = T ** (1.0 - p.hurst)
    panel_scale = T ** (p.hurst - 0.5) * math.exp(p.beta * T)
    w_T = ok[0]["w"]

    alpha_hat = np.array([r["alpha_hat"] for r in ok])
    beta_hat = np.array([r["beta_hat"] for r in ok])
    alpha_tilde = np.array([r["alpha_tilde"] for r in ok])
    beta_tilde = np.array([r["beta_tilde"] for r in ok])
    mu_hat = np.array([r["mu_hat"] for r in ok])
    s_vals = np.array([r["S"] for r in ok])
    i_vals = np.array([r["I"] for r in ok])
    j_vals = np.array([r["J"] for r in ok])

    mu_law, _ = law_mu_kappa_limit(p)
    entries = [
        ("beta_ratio", growth * (beta_hat - p.beta), law_beta_limit(p)),
        ("alpha_normal", polynomial * (alpha_hat - p.alpha), law_alpha_limit(p)),
        ("beta_single_ratio", growth * (beta_tilde - p.beta), law_beta_limit(p)),
        (
            "alpha_single_exact",
            math.sqrt(w_T) / p.gamma * (alpha_tilde - p.alpha),
            NormalLaw(mean=0.0, variance=1.0),
        ),
        ("mu_normal", polynomial * (mu_hat - p.mean_level), mu_law),
        ("I_chi_square", np.exp(2.0 * p.beta * T) * i_vals, law_I_limit(p)),
        ("S_normal", panel_scale * s_vals, law_S_limit(p)),
        ("J_normal_stated", panel_scale * j_vals, law_J_limit(p)),
        ("J_normal_identity", panel_scale * j_vals, law_J_limit_identity(p)),
    ]
    if abs(p.x0 - p.mean_level) < 1e-12:
        entries.append(
            (
                "beta_special_ratio",
                growth / (2.0 * p.beta) * (beta_hat - p.beta),
                special_case_ratio(p.hurst),
            )
        )
    return entries


def _run_limit_check(config: ExperimentConfig) -> TestReport:
    report = TestReport(
        experiment=config.experiment,
        passed=True,
        rows=[],
        failures=0,
        replications=config.replications,
    )
    p = config.params
    t_max = max(config.T_list)
    insufficient = _insufficient(config, report)
    estimate_rows: list[list] = []
    csv_rows: list[list] = []
    independence: dict[str, float] = {}
    drift_gap: dict[str, float] = {}
    for T in config.T_list:
        rows = _collect(config, "stats+est", T)
        report.failures += sum(1 for r in rows if "error" in r)
        _write_stats_csv(config, T, rows)
        estimate_rows.extend(_estimate_csv_rows(T, rows))
        ok = _ok(rows)
        if insufficient:
            continue
        for name, sample, law in _limit_statistics(p, T, ok):
            stat, pval = ks_test(sample, law_cdf(law))
            # asymptotic laws gate only at the largest horizon; the exact
            # pivot gates everywhere; the stated J constants never gate
            gates = name == "alpha_single_exact" or (
                T == t_max and name != "J_normal_stated"
            )
            row = CheckRow(
                T=T,
                statistic=name,
                ks_stat=stat,
                ks_p=pval,
                n_reps=len(sample),
                law=_law_fields(law),
                gates=gates,
            )
            report.rows.append(row)
            csv_rows.append([T, name, stat, pval, len(sample)])

        growth = math.exp(-p.beta * T)
        polynomial = T ** (1.0 - p.hurst)
        beta_err = growth * (np.array([r["beta_hat"] for r in ok]) - p.beta)
        alpha_err = polynomial * (np.array([r["alpha_hat"] for r in ok]) - p.alpha)
        res = spearmanr(alpha_err, beta_err)
        independence[_tag(T)] = float(getattr(res, "statistic", getattr(res, "correlation", res[0])))
        ratio = np.array(
            [(r["S"] + p.beta * r["J"]) / r["w"] for r in ok]
        )
        drift_gap[_tag(T)] = float(np.median(ratio)) - p.alpha / p.gamma

    _write_csv(
        os.path.join(config.output_dir, "checks.csv"),
        ["T", "statistic", "ks_stat", "ks_p", "n_reps"],
        csv_rows,
    )
    _write_csv(
        os.path.join(config.output_dir, "estimates.csv"), _ESTIMATE_HEADER, estimate_rows
    )
    report.details["spearman_alpha_beta"] = independence
    report.details["drift_ratio_median_gap"] = drift_gap
    ks_pass = all(r.ks_p > config.p_threshold for r in report.rows if r.gates)
    tag_max = _tag(t_max)
    indep_pass = tag_max not in independence or abs(independence[tag_max]) < _INDEPENDENCE_GATE
    drift_pass = tag_max not in drift_gap or abs(drift_gap[tag_max]) < _DRIFT_RATIO_GATE
    report.details["gates"] = {
        "ks": ks_pass,
        "independence": indep_pass,
        "drift_ratio": drift_pass,
    }
    report.passed = ks_pass and indep_pass and drift_pass
    return report


def _bootstrap_se(exponents: np.ndarray, rng: np.random.Generator) -> float:
    """Bootstrap standard error of log mean(exp(x)) by multinomial reweighting."""
    n = exponents.size
    estimates = np.empty(_BOOTSTRAP_RESAMPLES)
    for b in range(_BOOTSTRAP_RESAMPLES):
        weights = rng.multinomial(n, np.full(n, 1.0 / n)) / n
        estimates[b] = logsumexp(exponents, b=weights)
    return float(np.std(estimates, ddof=1))


def _run_mgf_check(config: ExperimentConfig) -> TestReport:
    report = TestReport(
        experiment=config.experiment,
        passed=True,
        rows=[],
        failures=0,
        replications=config.replications,
    )
    p = config.params
    T = config.T_list[0]
    if len(config.T_list) > 1:
        report.notes.append("mgf-check uses only the first horizon in T_list")
    rows = _collect(config, "stats", T)
    report.failures += sum(1 for r in rows if "error" in r)
    _write_stats_csv(config, T, rows)
    ok = _ok(rows)
    if _insufficient(config, report):
        _write_csv(
            os.path.join(config.output_dir, "mgf.csv"),
            ["xi1", "xi2", "log_m1_closed", "log_m1_mc", "se"],
            [],
        )
        return report

    s_vals = np.array([r["S"] for r in ok])
    i_vals = np.array([r["I"] for r in ok])
    j_vals = np.array([r["J"] for r in ok])
    k_vals = np.array([r["K"] for r in ok])
    n = len(ok)
    rng = np.random.default_rng(np.random.SeedSequence([config.master_seed, 2**32]))

    csv_rows: list[list] = []
    point_results = []
    worst_z = 0.0
    reduction_worst = 0.0
    for xi1, xi2 in _MGF1_POINTS:
        try:
            closed = mgf1_log(Mgf1Input(xi1=xi1, xi2=xi2, params=p, horizon=T))
            reduced = mgf2_log(
                Mgf2Input(theta1=xi1, theta2=xi2, theta3=0.0, theta4=0.0), p, T
            )
        except Exception as exc:  # noqa: BLE001 - out-of-domain at this horizon
            worst_z = math.inf
            point_results.append(
                {"xi1": xi1, "xi2": xi2, "error": f"{type(exc).__name__}: {exc}"}
            )
            continue
        reduction_worst = max(reduction_worst, abs(reduced - closed) / abs(closed))
        exponents = xi1 * s_vals + xi2 * i_vals
        mc = float(logsumexp(exponents) - math.log(n))
        se = _bootstrap_se(exponents, rng)
        z = (closed - mc) / se if se > 0.0 else math.inf
        worst_z = max(worst_z, abs(z))
        csv_rows.append([xi1, xi2, closed, mc, se])
        point_results.append(
            {"xi1": xi1, "xi2": xi2, "closed": closed, "mc": mc, "se": se, "z": z}
        )
    _write_csv(
        os.path.join(config.output_dir, "mgf.csv"),
        ["xi1", "xi2", "log_m1_closed", "log_m1_mc", "se"],
        csv_rows,
    )

    t1, t2, t3, t4 = _MGF2_POINT
    try:
        closed4 = mgf2_log(Mgf2Input(theta1=t1, theta2=t2, theta3=t3, theta4=t4), p, T)
        exponents4 = t1 * s_vals + t2 * i_vals + t3 * j_vals + t4 * k_vals
        mc4 = float(logsumexp(exponents4) - math.log(n))
        se4 = _bootstrap_se(exponents4, rng)
        z4 = (closed4 - mc4) / se4 if se4 > 0.0 else math.inf
    except Exception as exc:  # noqa: BLE001
        closed4 = mc4 = se4 = math.nan
        z4 = math.inf
        report.notes.append(f"four-argument point failed: {type(exc).__name__}: {exc}")

    report.details["m1_points"] = point_results
    report.details["m1_worst_z"] = worst_z
    report.details["reduction_worst_rel"] = reduction_worst
    report.details["m2_point"] = {
        "theta": list(_MGF2_POINT),
        "closed": closed4,
        "mc": mc4,
        "se": se4,
        "z": z4,
    }
    report.details["gates"] = {
        "m1_within_3se": worst_z <= 3.0,
        "m2_within_3se": abs(z4) <= 3.0,
        "reduction_identity": reduction_worst <= 1e-12,
    }
    report.passed = all(report.details["gates"].values())
    return report


def _run_recovery_check(config: ExperimentConfig) -> TestReport:
    report = TestReport(
        experiment=config.experiment,
        passed=True,
        rows=[],
        failures=0,
        replications=config.replications,
    )
    p = config.params
    T = config.T_list[0]
    if len(config.T_list) > 1:
        report.notes.append("hurst-gamma-check uses only the first horizon in T_list")
    settings: list[tuple[str, float, ModelParams]] = []
    for hurst in _HURST_TARGETS:
        settings.append(("H", hurst, dataclasses.replace(p, hurst=hurst)))
    for gamma in _GAMMA_TARGETS:
        settings.append(("gamma", gamma, dataclasses.replace(p, gamma=gamma)))

    csv_rows: list[list] = []
    outcomes: dict[str, float] = {}
    for kind, target, params in settings:
        rows = _collect(config, "recover", T, params=params)
        report.failures += sum(1 for r in rows if "error" in r)
        ok = _ok(rows)
        if kind == "H":
            errors = [abs(r["H_hat"] - target) for r in ok]
        else:
            errors = [abs(r["gamma_hat"] - target) / target for r in ok]
        median_error = float(np.median(errors))
        outcomes[f"{kind}={target:g}"] = median_error
        csv_rows.append([kind, target, median_error, len(ok)])
    _write_csv(
        os.path.join(config.output_dir, "recovery.csv"),
        ["parameter", "target", "median_error", "n_reps"],
        csv_rows,
    )
    report.details["median_errors"] = outcomes
    report.details["gate"] = _RECOVERY_GATE
    report.passed = all(err < _RECOVERY_GATE for err in outcomes.values())
    return report
