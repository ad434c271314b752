"""Experiment runner: JSON configs, deterministic parallel Monte Carlo, CSV and JSON reports.

Replications are independent tasks, each seeded by mixing (master_seed,
replication index) through a SeedSequence, so any worker can run any
replication and the aggregate output is byte-identical for every worker
count.  Work is dealt in fixed blocks of 64 replications; a worker owns
whole blocks and results are reassembled in block order.

A block simulates its paths one by one, then runs one batched quadrature
pass over them (PanelEngine.statistics) and the drift MLEs once over the
resulting arrays.  It returns columns, one 1-D array per quantity over
its surviving replications, plus (replication, stage, message) failure
records.  A failed simulation voids its replication.  A failed roughness
estimate only sets that H_hat to NaN, since H is taken as known.  If an
MLE raises, every replication of the block fails at stage "mle": a
degenerate row has probability zero and overflow hits a whole horizon.
Simulate mode writes each block's path files from inside the block.

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
import itertools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp
from scipy.stats import kstest, spearmanr

from .estimators import (
    _MIN_RECOVERY_N,
    estimate_gamma,
    estimate_hurst,
    mle_alpha,
    mle_beta,
    mle_joint,
    mle_mu_kappa,
)
from .fbm import SampleGrid, save_path_csv
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

# experiments that estimate H and gamma from every path
_RECOVERING = ("estimate", "limit-check", "hurst-gamma-check")
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
        if self.experiment in ("limit-check", "mgf-check") and not self.params.beta < 0.0:
            raise ValueError(f"{self.experiment} requires beta < 0")
        if self.experiment in _RECOVERING and n < _MIN_RECOVERY_N:
            raise ValueError(
                f"{self.experiment} recovers H and gamma from every path, which needs "
                f"n_grid >= {_MIN_RECOVERY_N}, got {n}"
            )

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


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(cell) for cell in row) + "\n")


def _tag(T: float) -> str:
    return format(float(T), "g")


def _path_csv_name(T: float, rep: int) -> str:
    return f"path_T{_tag(T)}_rep{rep:05d}.csv"


def _failure(rep: int, stage: str, exc: Exception) -> tuple[int, str, str]:
    return rep, stage, f"{type(exc).__name__}: {exc}"


def _batch_task(task: tuple) -> tuple[dict[str, np.ndarray], list[tuple[int, str, str]]]:
    """Run one block of replications; returns (columns, failures).

    Must stay a top-level function: worker pools pickle it by name.
    """
    mode, config, params, T, lo, hi = task
    grid = SampleGrid(horizon=float(T), n=config.n_grid)
    # fetched before the block's paths exist, so a first (dense) engine
    # build does not hold them in memory
    engine = shared_engine(grid, params.hurst) if mode.startswith("stats") else None
    reps, seeds, h_hats, g_hats, values = [], [], [], [], []
    failures: list[tuple[int, str, str]] = []
    for rep in range(lo, hi):
        seed = replication_seed(config.master_seed, rep)
        stage = "simulate"
        try:
            path = simulate_exact(params, grid, seed=seed)
            if mode == "recover":
                stage = "hurst"
                h_hat = estimate_hurst(path)
                stage = "gamma"
                g_hats.append(estimate_gamma(path, params.hurst))
                h_hats.append(h_hat)
        except Exception as exc:  # noqa: BLE001 - failures are recorded, not fatal
            failures.append(_failure(rep, stage, exc))
            continue
        reps.append(rep)
        seeds.append(seed)
        if mode == "paths":
            out = os.path.join(config.output_dir, _path_csv_name(T, rep))
            save_path_csv(grid.times(), path.values, out)
        elif mode.startswith("stats"):
            values.append(path.values)
        if mode == "stats+est":
            try:
                h_hats.append(estimate_hurst(path))
            except Exception as exc:  # noqa: BLE001 - H_hat is reported only
                h_hats.append(math.nan)
                failures.append(_failure(rep, "hurst", exc))

    columns = {"replication": np.array(reps, dtype=np.int64)}
    columns["seed"] = np.array(seeds, dtype=np.uint64)
    if mode in ("recover", "stats+est"):
        columns["H_hat"] = np.array(h_hats, dtype=float)
    if mode == "recover":
        columns["gamma_hat"] = np.array(g_hats, dtype=float)
    if engine is None:
        return columns, failures

    stats = engine.statistics(np.reshape(values, (len(reps), grid.n + 1)), params.gamma)
    columns.update(
        S=stats["S"], I=stats["I"], J=stats["J"], K=stats["K"], w=np.full(len(reps), stats["w"])
    )
    if mode == "stats+est":
        g = params.gamma
        columns["gamma_hat"] = g * np.sqrt(stats["qv"] / stats["w"])
        try:
            fields = {key: stats[key] for key in ("S", "I", "J", "K", "w")}
            suff = SufficientStats(**fields, horizon=grid.horizon, hurst=params.hurst, gamma=g)
            joint = mle_joint(suff, g)
            pair = mle_mu_kappa(suff, g)
            columns.update(
                alpha_hat=joint.alpha_hat,
                beta_hat=joint.beta_hat,
                alpha_tilde=mle_alpha(suff, g, beta_known=params.beta),
                beta_tilde=mle_beta(suff, g, alpha_known=params.alpha),
                mu_hat=pair.alpha_hat,
                kappa_hat=pair.beta_hat,
            )
        except Exception as exc:  # noqa: BLE001 - the block's estimates fail together
            failures.extend(_failure(rep, "mle", exc) for rep in reps)
            columns = {key: col[:0] for key, col in columns.items()}
    return columns, failures


def _collect(
    config: ExperimentConfig,
    report: TestReport,
    mode: str,
    T: float,
    params: ModelParams | None = None,
    **tags,
) -> dict[str, np.ndarray]:
    """Columns over the surviving replications of one horizon, in replication order.

    Every failure goes to report.details["failed"], tagged with `tags`;
    report.failures counts the voided replications, and more than 1% of
    them abort the run.
    """
    params = params if params is not None else config.params
    n = config.replications
    tasks = [(mode, config, params, T, lo, min(lo + _BATCH, n)) for lo in range(0, n, _BATCH)]
    if config.workers == 1 or len(tasks) == 1:
        blocks = [_batch_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            blocks = list(pool.map(_batch_task, tasks))
    columns = {key: np.concatenate([cols[key] for cols, _ in blocks]) for key in blocks[0][0]}
    failures = [failure for _, block_failures in blocks for failure in block_failures]
    voided = n - columns["replication"].size
    if voided > 0.01 * n:
        examples = [message for _, _, message in failures[:3]]
        raise RuntimeError(
            f"{voided}/{n} replications failed at T={T} (> 1%); first errors: {examples}"
        )
    report.failures += voided
    report.details["failed"].extend(
        dict(tags, T=T, replication=rep, stage=stage, message=message)
        for rep, stage, message in failures
    )
    return columns


def _write_stats_csv(config: ExperimentConfig, T: float, cols: dict[str, np.ndarray]) -> None:
    keys = ("replication", "seed", "S", "I", "J", "K", "w")
    _write_csv(
        os.path.join(config.output_dir, f"stats_T{_tag(T)}.csv"),
        ["replication", "seed", "S_T", "I_T", "J_T", "K_T", "w_T"],
        zip(*(cols[key].tolist() for key in keys)),
    )


_ESTIMATES = "alpha_hat beta_hat alpha_tilde beta_tilde mu_hat kappa_hat gamma_hat H_hat".split()


def _estimate_rows(T: float, cols: dict[str, np.ndarray]):
    """estimates.csv rows of one horizon: replication, T, then _ESTIMATES."""
    return zip(
        cols["replication"].tolist(), itertools.repeat(T), *(cols[k].tolist() for k in _ESTIMATES)
    )


def _write_estimates_csv(config: ExperimentConfig, rows: list) -> None:
    path = os.path.join(config.output_dir, "estimates.csv")
    _write_csv(path, ["replication", "T", *_ESTIMATES], rows)


def _ks_check(report: TestReport, T: float, name: str, sample, law, gates: bool) -> None:
    stat, pval = ks_test(sample, law_cdf(law))
    report.rows.append(CheckRow(T, name, stat, pval, len(sample), _law_fields(law), gates))


def _write_checks_csv(config: ExperimentConfig, report: TestReport) -> None:
    _write_csv(
        os.path.join(config.output_dir, "checks.csv"),
        ["T", "statistic", "ks_stat", "ks_p", "n_reps"],
        [[r.T, r.statistic, r.ks_stat, r.ks_p, r.n_reps] for r in report.rows],
    )


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
    report = TestReport(
        experiment=config.experiment,
        passed=True,
        rows=[],
        failures=0,
        replications=config.replications,
        details={"failed": []},
    )
    runners[config.experiment](config, report)
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


def _run_simulate(config: ExperimentConfig, report: TestReport) -> None:
    seeds: dict[str, dict[str, int]] = {}
    for T in config.T_list:
        cols = _collect(config, report, "paths", T)
        seeds[_tag(T)] = {
            _path_csv_name(T, rep): seed
            for rep, seed in zip(cols["replication"].tolist(), cols["seed"].tolist())
        }
    report.details["path_seeds"] = seeds
    report.notes.append("no statistical checks configured for simulate")


def _run_estimate(config: ExperimentConfig, report: TestReport) -> None:
    p = config.params
    truth = (p.alpha, p.beta, p.alpha, p.beta, p.mean_level, p.beta, p.gamma, p.hurst)
    estimate_rows: list = []
    medians: dict[str, dict[str, float]] = {}
    for T in config.T_list:
        cols = _collect(config, report, "stats+est", T)
        _write_stats_csv(config, T, cols)
        estimate_rows.extend(_estimate_rows(T, cols))
        medians[_tag(T)] = {
            key: float(np.nanmedian(np.abs(cols[key] - value)))
            for key, value in zip(_ESTIMATES, truth)
        }
    _write_estimates_csv(config, estimate_rows)
    report.details["median_abs_error"] = medians
    _insufficient(config, report)


def _run_exact_check(config: ExperimentConfig, report: TestReport) -> None:
    p = config.params
    kc = constants(p.hurst, p.gamma)
    law = NormalLaw(mean=0.0, variance=1.0)
    insufficient = _insufficient(config, report)
    for T in config.T_list:
        cols = _collect(config, report, "stats", T)
        _write_stats_csv(config, T, cols)
        if insufficient:
            continue
        scale = math.sqrt(kc.lam) * T ** (p.hurst - 1.0)
        sample = scale * (cols["S"] + p.beta * cols["J"] - p.alpha / p.gamma * cols["w"])
        # this normalization is pivotal at every horizon, so every row gates
        _ks_check(report, T, "exact_normal", sample, law, gates=True)
    _write_checks_csv(config, report)
    report.passed = all(r.ks_p > config.p_threshold for r in report.rows if r.gates)


def _limit_statistics(
    p: ModelParams, T: float, cols: dict[str, np.ndarray]
) -> list[tuple[str, np.ndarray, object]]:
    """Normalized error samples paired with their target laws at horizon T."""
    growth = math.exp(-p.beta * T)
    polynomial = T ** (1.0 - p.hurst)
    panel_scale = T ** (p.hurst - 0.5) * math.exp(p.beta * T)
    mu_law, _ = law_mu_kappa_limit(p)
    entries = [
        ("beta_ratio", growth * (cols["beta_hat"] - p.beta), law_beta_limit(p)),
        ("alpha_normal", polynomial * (cols["alpha_hat"] - p.alpha), law_alpha_limit(p)),
        ("beta_single_ratio", growth * (cols["beta_tilde"] - p.beta), law_beta_limit(p)),
        (
            "alpha_single_exact",
            math.sqrt(cols["w"][0]) / p.gamma * (cols["alpha_tilde"] - p.alpha),
            NormalLaw(mean=0.0, variance=1.0),
        ),
        ("mu_normal", polynomial * (cols["mu_hat"] - p.mean_level), mu_law),
        ("I_chi_square", np.exp(2.0 * p.beta * T) * cols["I"], law_I_limit(p)),
        ("S_normal", panel_scale * cols["S"], law_S_limit(p)),
        ("J_normal_stated", panel_scale * cols["J"], law_J_limit(p)),
        ("J_normal_identity", panel_scale * cols["J"], law_J_limit_identity(p)),
    ]
    if abs(p.x0 - p.mean_level) < 1e-12:
        entries.append(
            (
                "beta_special_ratio",
                growth / (2.0 * p.beta) * (cols["beta_hat"] - p.beta),
                special_case_ratio(p.hurst),
            )
        )
    return entries


def _run_limit_check(config: ExperimentConfig, report: TestReport) -> None:
    p = config.params
    t_max = max(config.T_list)
    insufficient = _insufficient(config, report)
    estimate_rows: list = []
    independence: dict[str, float] = {}
    drift_gap: dict[str, float] = {}
    for T in config.T_list:
        cols = _collect(config, report, "stats+est", T)
        _write_stats_csv(config, T, cols)
        estimate_rows.extend(_estimate_rows(T, cols))
        if insufficient:
            continue
        for name, sample, law in _limit_statistics(p, T, cols):
            # asymptotic laws gate only at the largest horizon; the exact
            # pivot gates everywhere; the stated J constants never gate
            gates = name == "alpha_single_exact" or (
                T == t_max and name != "J_normal_stated"
            )
            _ks_check(report, T, name, sample, law, gates)

        beta_err = math.exp(-p.beta * T) * (cols["beta_hat"] - p.beta)
        alpha_err = T ** (1.0 - p.hurst) * (cols["alpha_hat"] - p.alpha)
        independence[_tag(T)] = float(spearmanr(alpha_err, beta_err).statistic)
        ratio = (cols["S"] + p.beta * cols["J"]) / cols["w"]
        drift_gap[_tag(T)] = float(np.median(ratio)) - p.alpha / p.gamma

    _write_checks_csv(config, report)
    _write_estimates_csv(config, estimate_rows)
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


def _bootstrap_se(exponents: np.ndarray, rng: np.random.Generator) -> float:
    """Bootstrap standard error of log mean(exp(x)) by multinomial reweighting."""
    n = exponents.size
    estimates = np.empty(_BOOTSTRAP_RESAMPLES)
    for b in range(_BOOTSTRAP_RESAMPLES):
        weights = rng.multinomial(n, np.full(n, 1.0 / n)) / n
        estimates[b] = logsumexp(exponents, b=weights)
    return float(np.std(estimates, ddof=1))


def _run_mgf_check(config: ExperimentConfig, report: TestReport) -> None:
    p = config.params
    T = config.T_list[0]
    if len(config.T_list) > 1:
        report.notes.append("mgf-check uses only the first horizon in T_list")
    cols = _collect(config, report, "stats", T)
    _write_stats_csv(config, T, cols)
    if _insufficient(config, report):
        _write_csv(
            os.path.join(config.output_dir, "mgf.csv"),
            ["xi1", "xi2", "log_m1_closed", "log_m1_mc", "se"],
            [],
        )
        return

    s_vals, i_vals, j_vals, k_vals = cols["S"], cols["I"], cols["J"], cols["K"]
    n = s_vals.size
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


def _run_recovery_check(config: ExperimentConfig, report: TestReport) -> None:
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
        setting = f"{kind}={target:g}"
        cols = _collect(config, report, "recover", T, params=params, setting=setting)
        if kind == "H":
            errors = np.abs(cols["H_hat"] - target)
        else:
            errors = np.abs(cols["gamma_hat"] - target) / target
        median_error = float(np.median(errors))
        outcomes[setting] = median_error
        csv_rows.append([kind, target, median_error, errors.size])
    _write_csv(
        os.path.join(config.output_dir, "recovery.csv"),
        ["parameter", "target", "median_error", "n_reps"],
        csv_rows,
    )
    report.details["median_errors"] = outcomes
    report.details["gate"] = _RECOVERY_GATE
    report.passed = all(err < _RECOVERY_GATE for err in outcomes.values())
