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
estimate only sets that H_hat to NaN, since H is taken as known.  If the
batched statistics raise (a non-finite S, I, J, K or qv) or an MLE does,
every replication of the block fails at stage "stats" or "mle": a
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
import functools
import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from scipy.special import kolmogorov, logsumexp

from .estimators import (
    _MIN_RECOVERY_N,
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
from .mgf import mgf1_log, mgf2_log
from .model import _LOG_MAX_FLOAT, ModelParams, _is_finite_real, simulate_exact
from .transforms import constants, shared_engine

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
        if not isinstance(self.params, ModelParams):
            raise ValueError(f"params must be a ModelParams, got {self.params!r}")
        if isinstance(self.T_list, str):
            raise ValueError(f"T_list must be a list of horizons, not the string {self.T_list!r}")
        if not np.iterable(self.T_list):
            raise ValueError(f"T_list must be a list of horizons, got {self.T_list!r}")
        t_list = tuple(self.T_list)
        if not t_list:
            raise ValueError("T_list must be nonempty")
        if not all(_is_finite_real(t) and t > 0.0 for t in t_list):
            raise ValueError(f"T_list horizons must be finite and positive, got {t_list!r}")
        t_list = tuple(float(t) for t in t_list)
        object.__setattr__(self, "T_list", t_list)
        tags = [_tag(t) for t in t_list]
        if len(set(tags)) < len(tags):
            raise ValueError(
                f"horizons must differ in their 6-significant-digit file tags, got {tags!r}"
            )
        for name in ("n_grid", "replications", "master_seed", "workers"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        n = self.n_grid
        if n < 4 or (n & (n - 1)) != 0:
            raise ValueError(f"n_grid must be a power of two >= 4, got {n!r}")
        if self.replications < 1:
            raise ValueError(f"replications must be positive, got {self.replications!r}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must fit in 64 bits, got {self.master_seed!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers!r}")
        if not (isinstance(self.output_dir, str) and self.output_dir):
            raise ValueError(f"output_dir must be a nonempty path string, got {self.output_dir!r}")
        if not (_is_finite_real(self.p_threshold) and 0.0 < self.p_threshold < 1.0):
            raise ValueError(f"p_threshold must lie in (0, 1), got {self.p_threshold!r}")
        if self.experiment in ("limit-check", "mgf-check") and not self.params.beta < 0.0:
            raise ValueError(f"{self.experiment} requires beta < 0")
        # paths carry exp(|beta| t); for beta < 0 the statistics I and K
        # carry exp(2 |beta| T), while for beta > 0 they stay bounded
        t_max = max(t_list)
        halve = self.experiment != "simulate" and self.params.beta < 0.0
        bound = _LOG_MAX_FLOAT / 2.0 if halve else _LOG_MAX_FLOAT
        if abs(self.params.beta) * t_max > bound:
            raise ValueError(
                f"horizon T = {t_max:g} overflows {self.experiment}: |beta| T > {bound:.4g}"
            )
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
        keys = [f.name for f in dataclasses.fields(ModelParams)]
        if not (isinstance(raw_params, dict) and set(raw_params) == set(keys)):
            raise ValueError(f"params must be an object with the keys {keys}, got {raw_params!r}")
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
        return dataclasses.asdict(self)


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


def _json_scalar(obj):
    """json.dump hook: a numpy scalar as its Python value (np.float64 is a float already)."""
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


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
    # scipy.stats.kstest(arr, cdf, mode="asymp"), step for step: D is the
    # larger of D+ and D- over the sorted sample, and p is Kolmogorov's
    # limiting survival function at D sqrt(n)
    x = np.sort(arr)
    cdf_values = cdf(x)
    n = x.size
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdf_values)
    d_minus = np.max(cdf_values - np.arange(0.0, n) / n)
    stat = d_plus if d_plus > d_minus else d_minus
    return float(stat), float(np.clip(kolmogorov(stat * math.sqrt(n)), 0.0, 1.0))


def _spearman_rho(a, b) -> float:
    """Spearman's rank correlation: Pearson's r of the two average-rank
    vectors, where tied values share the mean of their ordinal ranks."""

    def ranks(x):
        _, group, counts = np.unique(x, return_inverse=True, return_counts=True)
        return (np.cumsum(counts) - (counts - 1) / 2.0)[group]

    return float(np.corrcoef(ranks(a), ranks(b))[1, 0])


def law_cdf(law) -> "callable":
    """Vectorized CDF callable for any limit law with a distribution function."""
    if isinstance(law, RatioLaw):
        return lambda x: ratio_cdf(x, law)
    if isinstance(law, (NormalLaw, ScaledChiSquareLaw)):
        return law.cdf
    raise TypeError(f"no distribution function for {type(law).__name__}")


def _law_fields(law) -> dict:
    """The law's type name plus its fields, nested laws described the same way."""
    out = {"type": type(law).__name__}
    for f in dataclasses.fields(law):
        value = getattr(law, f.name)
        out[f.name] = _law_fields(value) if dataclasses.is_dataclass(value) else value
    return out


def _write_csv(path: str, columns: dict, body: str | None = None) -> None:
    """Write named columns as one CSV: floats with 17 significant digits, which
    round-trip every double, and every other cell through str.

    `body` is the rows' format string when the caller has one prebuilt (a
    path file's `_path_rows`); a column given as None is already formatted
    into it.  Without it, the rows are built from the column dtypes.
    """
    arrays = [np.asarray(col) for col in columns.values() if col is not None]
    if body is None:
        row = ",".join("%.17g" if a.dtype.kind == "f" else "%s" for a in arrays) + "\n"
        body = row * len(arrays[0])
    cells = tuple(chain.from_iterable(zip(*(a.tolist() for a in arrays))))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        fh.write(body % cells)


@functools.lru_cache(maxsize=2)
def _path_rows(grid: SampleGrid) -> str:
    """Row format string of a path file on `grid`: every time value already
    formatted, one value slot per row.  Every path of a horizon shares it."""
    return "".join("%.17g,%%.17g\n" % t for t in grid.times().tolist())


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
    # surviving paths fill the block's rows in order, so no per-path list is copied
    values = np.empty((hi - lo, grid.n + 1)) if engine is not None else None
    reps, seeds, h_hats, g_hats = [], [], [], []
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
            _write_csv(out, {"t": None, "value": path.values}, _path_rows(grid))
        elif engine is not None:
            values[len(reps) - 1] = path.values
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

    stage = "stats"
    try:
        stats = engine.statistics(values[: len(reps)], params.gamma)
        columns.update(S=stats.S, I=stats.I, J=stats.J, K=stats.K, w=np.full(len(reps), stats.w))
        if mode == "stats+est":
            g = params.gamma
            columns["gamma_hat"] = g * np.sqrt(stats.qv / stats.w)
            stage = "mle"
            columns["alpha_hat"], columns["beta_hat"] = mle_joint(stats, g)
            columns["alpha_tilde"] = mle_alpha(stats, g, beta_known=params.beta)
            columns["beta_tilde"] = mle_beta(stats, g, alpha_known=params.alpha)
            columns["mu_hat"], columns["kappa_hat"] = mle_mu_kappa(stats, g)
    except Exception as exc:  # noqa: BLE001 - a block's statistics and estimates fail together
        failures.extend(_failure(rep, stage, exc) for rep in reps)
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
    # a block that failed at "stats" or "mle" lacks the later columns
    kept = [cols for cols, _ in blocks if cols["replication"].size]
    failures = [failure for _, block_failures in blocks for failure in block_failures]
    voided = n - sum(cols["replication"].size for cols in kept)
    if voided > 0.01 * n:
        examples = [message for _, _, message in failures[:3]]
        raise RuntimeError(
            f"{voided}/{n} replications failed at T={T} (> 1%); first errors: {examples}"
        )
    columns = {key: np.concatenate([cols[key] for cols in kept]) for key in kept[0]}
    report.failures += voided
    report.details["failed"].extend(
        dict(tags, T=T, replication=rep, stage=stage, message=message)
        for rep, stage, message in failures
    )
    return columns


def _write_stats_csv(config: ExperimentConfig, T: float, cols: dict[str, np.ndarray]) -> None:
    columns = {"replication": cols["replication"], "seed": cols["seed"]}
    columns.update((f"{key}_T", cols[key]) for key in ("S", "I", "J", "K", "w"))
    _write_csv(os.path.join(config.output_dir, f"stats_T{_tag(T)}.csv"), columns)


_ESTIMATES = "alpha_hat beta_hat alpha_tilde beta_tilde mu_hat kappa_hat gamma_hat H_hat".split()


def _estimate_columns(T: float, cols: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """estimates.csv columns of one horizon: replication, T, then _ESTIMATES."""
    rep = cols["replication"]
    return {"replication": rep, "T": np.full(rep.size, T), **{k: cols[k] for k in _ESTIMATES}}


def _write_estimates_csv(config: ExperimentConfig, per_horizon: list[dict]) -> None:
    columns = {key: np.concatenate([c[key] for c in per_horizon]) for key in per_horizon[0]}
    _write_csv(os.path.join(config.output_dir, "estimates.csv"), columns)


def _ks_check(report: TestReport, T: float, name: str, sample, law, gates: bool) -> None:
    stat, pval = ks_test(sample, law_cdf(law))
    report.rows.append(CheckRow(T, name, stat, pval, len(sample), _law_fields(law), gates))


def _write_checks_csv(config: ExperimentConfig, report: TestReport) -> None:
    keys = ("T", "statistic", "ks_stat", "ks_p", "n_reps")
    columns = {key: [getattr(r, key) for r in report.rows] for key in keys}
    _write_csv(os.path.join(config.output_dir, "checks.csv"), columns)


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
    payload = dataclasses.asdict(report)
    payload["config"] = config.to_dict()
    with open(os.path.join(config.output_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_scalar)
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
    estimates: list[dict] = []
    medians: dict[str, dict[str, float]] = {}
    for T in config.T_list:
        cols = _collect(config, report, "stats+est", T)
        _write_stats_csv(config, T, cols)
        estimates.append(_estimate_columns(T, cols))
        medians[_tag(T)] = {
            key: float(np.nanmedian(np.abs(cols[key] - value)))
            for key, value in zip(_ESTIMATES, truth)
        }
    _write_estimates_csv(config, estimates)
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
    estimates: list[dict] = []
    independence: dict[str, float] = {}
    drift_gap: dict[str, float] = {}
    for T in config.T_list:
        cols = _collect(config, report, "stats+est", T)
        _write_stats_csv(config, T, cols)
        estimates.append(_estimate_columns(T, cols))
        if insufficient:
            continue
        samples = {}
        for name, sample, law in _limit_statistics(p, T, cols):
            # asymptotic laws gate only at the largest horizon; the exact
            # pivot gates everywhere; the stated J constants never gate
            gates = name == "alpha_single_exact" or (
                T == t_max and name != "J_normal_stated"
            )
            _ks_check(report, T, name, sample, law, gates)
            samples[name] = sample

        independence[_tag(T)] = _spearman_rho(samples["alpha_normal"], samples["beta_ratio"])
        # held into the next horizon's simulation, the samples raise peak RSS
        del samples
        ratio = (cols["S"] + p.beta * cols["J"]) / cols["w"]
        drift_gap[_tag(T)] = float(np.median(ratio)) - p.alpha / p.gamma

    _write_checks_csv(config, report)
    _write_estimates_csv(config, estimates)
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


def _mc_point(closed: float, exponents: np.ndarray, rng: np.random.Generator) -> dict:
    """A closed-form log MGF against the Monte Carlo log mean(exp(x)).

    se is the bootstrap standard error of the Monte Carlo value, by
    multinomial reweighting; z is the closed form's distance in units of se.
    """
    n = exponents.size
    mc = float(logsumexp(exponents) - math.log(n))
    estimates = np.empty(_BOOTSTRAP_RESAMPLES)
    for b in range(_BOOTSTRAP_RESAMPLES):
        weights = rng.multinomial(n, np.full(n, 1.0 / n)) / n
        estimates[b] = logsumexp(exponents, b=weights)
    se = float(np.std(estimates, ddof=1))
    z = (closed - mc) / se if se > 0.0 else math.inf
    return {"closed": closed, "mc": mc, "se": se, "z": z}


def _write_mgf_csv(config: ExperimentConfig, points: list[dict]) -> None:
    """mgf.csv: one row per probe point that has a closed form (failed points are skipped)."""
    header = {"xi1": "xi1", "xi2": "xi2", "log_m1_closed": "closed", "log_m1_mc": "mc", "se": "se"}
    ok = [point for point in points if "closed" in point]
    columns = {name: [point[key] for point in ok] for name, key in header.items()}
    _write_csv(os.path.join(config.output_dir, "mgf.csv"), columns)


def _run_mgf_check(config: ExperimentConfig, report: TestReport) -> None:
    p = config.params
    T = config.T_list[0]
    if len(config.T_list) > 1:
        report.notes.append("mgf-check uses only the first horizon in T_list")
    cols = _collect(config, report, "stats", T)
    _write_stats_csv(config, T, cols)
    if _insufficient(config, report):
        _write_mgf_csv(config, [])
        return

    s_vals, i_vals, j_vals, k_vals = cols["S"], cols["I"], cols["J"], cols["K"]
    rng = np.random.default_rng(np.random.SeedSequence([config.master_seed, 2**32]))

    point_results = []
    worst_z = 0.0
    reduction_worst = 0.0
    for xi1, xi2 in _MGF1_POINTS:
        try:
            closed = mgf1_log(xi1, xi2, p, T)
            reduced = mgf2_log((xi1, xi2, 0.0, 0.0), p, T)
        except Exception as exc:  # noqa: BLE001 - out-of-domain at this horizon
            worst_z = math.inf
            point_results.append(
                {"xi1": xi1, "xi2": xi2, "error": f"{type(exc).__name__}: {exc}"}
            )
            continue
        reduction_worst = max(reduction_worst, abs(reduced - closed) / abs(closed))
        point = _mc_point(closed, xi1 * s_vals + xi2 * i_vals, rng)
        worst_z = max(worst_z, abs(point["z"]))
        point_results.append({"xi1": xi1, "xi2": xi2, **point})
    _write_mgf_csv(config, point_results)

    t1, t2, t3, t4 = _MGF2_POINT
    try:
        closed4 = mgf2_log(_MGF2_POINT, p, T)
        point4 = _mc_point(closed4, t1 * s_vals + t2 * i_vals + t3 * j_vals + t4 * k_vals, rng)
    except Exception as exc:  # noqa: BLE001
        point4 = {"closed": math.nan, "mc": math.nan, "se": math.nan, "z": math.inf}
        report.notes.append(f"four-argument point failed: {type(exc).__name__}: {exc}")

    report.details["m1_points"] = point_results
    report.details["m1_worst_z"] = worst_z
    report.details["reduction_worst_rel"] = reduction_worst
    report.details["m2_point"] = {"theta": list(_MGF2_POINT), **point4}
    report.details["gates"] = {
        "m1_within_3se": worst_z <= 3.0,
        "m2_within_3se": abs(point4["z"]) <= 3.0,
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

    outcomes: dict[str, float] = {}
    n_reps: list[int] = []
    for kind, target, params in settings:
        setting = f"{kind}={target:g}"
        cols = _collect(config, report, "recover", T, params=params, setting=setting)
        if kind == "H":
            errors = np.abs(cols["H_hat"] - target)
        else:
            errors = np.abs(cols["gamma_hat"] - target) / target
        outcomes[setting] = float(np.median(errors))
        n_reps.append(errors.size)
    kinds, targets, _ = zip(*settings)
    columns = {"parameter": kinds, "target": targets, "median_error": list(outcomes.values())}
    _write_csv(os.path.join(config.output_dir, "recovery.csv"), dict(columns, n_reps=n_reps))
    report.details["median_errors"] = outcomes
    report.details["gate"] = _RECOVERY_GATE
    report.passed = all(err < _RECOVERY_GATE for err in outcomes.values())
