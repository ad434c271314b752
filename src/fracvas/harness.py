"""Experiment runner: JSON configs, deterministic parallel Monte Carlo, CSV and JSON reports.

Replications are independent tasks, each seeded by mixing (master_seed,
replication index) through a SeedSequence, so any worker can run any
replication and the aggregate output is byte-identical for every worker
count.  Work is dealt in fixed blocks of 64 replications; a worker owns
whole blocks and results are reassembled in block order.

A block task covers every cell its experiment collects, a (mode, params,
T) triple: a horizon of T_list, or a setting of hurst-gamma-check.  A
replication's seed is the same in every cell, so its fBm driver is drawn
once per distinct H at unit spacing and scaled by dt^H into each cell of
that H, bitwise the path drawn at that horizon.  The stats modes simulate
a chunk's paths one by one (see _batch_task), then run one batched
quadrature pass over them (PanelEngine.statistics) and the drift MLEs
once over the resulting arrays, bitwise alike for any chunk size; the
hurst and gamma modes estimate only H or only gamma from each path, and
paths mode writes it out.  A task returns columns, one 1-D array per
quantity over its surviving replications, plus (replication, stage,
message) failure records.  A failed simulation or hurst/gamma-mode
estimate voids its replication; a failed H_hat in stats+est is NaN, as
H is taken as known.  A non-finite S, I, J, K or qv, or a failed MLE,
fails every replication of the chunk at stage "stats" or "mle": a
degenerate row has probability zero and overflow hits a whole horizon.

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
import importlib.metadata
import json
import math
import numbers
import os
import platform
import subprocess
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

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
from . import model
from .fbm import FbmPath, SampleGrid, _is_finite_real
from .limits import (
    NormalLaw,
    RatioLaw,
    ScaledChiSquareLaw,
    law_alpha_limit,
    law_beta_limit,
    law_I_limit,
    law_J_limit,
    law_J_limit_identity,
    law_mu_limit,
    law_S_limit,
    ratio_cdf,
    special_case_ratio,
)
from .mgf import mgf1_log, mgf2_log
from .model import _LOG_MAX_FLOAT, ModelParams, simulate_exact
from .transforms import _DEFAULT_STRIDE, PanelEngine, constants, shared_engine

# experiments that estimate H and gamma from every path
_RECOVERING = ("estimate", "limit-check", "hurst-gamma-check")
_BATCH = 64
# path values (512 KiB) per chunk of a block: cache-sized, see _batch_task
_CHUNK_VALUES = 1 << 16
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
        # the panel quadrature needs 4 inner points, one per _DEFAULT_STRIDE cells
        if self.experiment != "simulate" and n < 4 * _DEFAULT_STRIDE:
            raise ValueError(
                f"{self.experiment} integrates panels of {_DEFAULT_STRIDE} cells, which needs "
                f"n_grid >= {4 * _DEFAULT_STRIDE}, got {n}"
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
    bad = np.count_nonzero(~np.isfinite(arr))
    if bad:
        raise ValueError(f"KS test needs finite samples, got {bad} non-finite of {arr.size}")
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


# rows of a CSV are laid out about this many bytes at a time
_CSV_CHUNK_BYTES = 1 << 17

# a float cell: the sign in column 0, the "0." and zeros of |v| < 1
# right-aligned in 1-5, then 17 digits and the point; the longest exponent
# form, -d.dddddddddddddddde-ddd, fits as well
_FLOAT_WIDTH = 24


def _write_csv(path: str, columns: dict) -> None:
    """Write named columns as one CSV: float cells byte-identical to Python's
    %-formatting with 17 significant digits, which round-trips every double,
    and every other cell through str.

    A column given as a 2-D uint8 array is already formatted, one row per
    cell with NUL bytes as padding (a path file's cached time column).
    Rows are laid out as fixed-width cells plus separators in a uint8
    table, _CSV_CHUNK_BYTES of it at a time; dropping its NUL padding
    leaves the file's bytes.
    """
    blocks = [_cells(col) for col in columns.values()]
    ends = np.cumsum([block.shape[1] + 1 for block in blocks])
    n_rows, width = len(blocks[0]), int(ends[-1])
    step = max(1, _CSV_CHUNK_BYTES // width)
    with open(path, "wb") as fh:
        fh.write((",".join(columns) + "\n").encode())
        for lo in range(0, n_rows, step):
            table = np.empty((min(step, n_rows - lo), width), np.uint8)
            for block, end in zip(blocks, ends):
                table[:, end - 1 - block.shape[1] : end - 1] = block[lo : lo + step]
                table[:, end - 1] = ord(",")
            table[:, -1] = ord("\n")
            fh.write(memoryview(table[table != 0]))


def _cells(column) -> np.ndarray:
    """(rows, width) uint8 cells of one CSV column, NUL-padded."""
    a = np.asarray(column)
    if a.ndim == 2 and a.dtype == np.uint8:
        return a
    if a.dtype.kind == "f":
        return _float_cells(a)
    text = np.array([str(v).encode() for v in a.tolist()], dtype=bytes)
    return text.view(np.uint8).reshape(a.size, text.itemsize)


def _float_cells(x: np.ndarray) -> np.ndarray:
    """(len(x), 24) uint8 cells holding the text Python's %-formatting gives
    each v at 17 significant digits, with NUL padding anywhere in a cell.

    For 1e-4 <= |v| < 1e17, where %g prints no exponent, the 17 significant
    digits D = round(|v| * 10**(16 - X)), X = floor(log10|v|), are computed
    exactly (_scaled_round), so they are the digits of Python's correctly
    rounded formatter.  The point goes in per group of rows with one X.
    The other values (0, -0, inf, nan and the exponent form) go through
    Python one at a time.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e17)
    a[~fast] = 1.0  # a stand-in: the cells of these rows are overwritten last
    pow10 = _decimal_tables()[0]
    X = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.int64)
    D = _scaled_round(a, pow10[16 - X])
    # log10 rounds across a power of ten: move X by one where D has 16 or 18 digits
    off = (D >= 10**17).astype(np.int64) - (D < 10**16)
    fix = np.flatnonzero(off)
    if fix.size:
        X[fix] += off[fix]
        D[fix] = _scaled_round(a[fix], pow10[16 - X[fix]])
    digits, point = _digits(D, X)

    cells = np.zeros((x.size, _FLOAT_WIDTH), np.uint8)
    # whole rows move as single void items: one take and one put per group
    digit_rows = digits.view(f"V{digits.shape[1]}").ravel()
    cell_rows = cells.view(f"V{_FLOAT_WIDTH}").ravel()
    for e in np.flatnonzero(np.bincount(X + 4, minlength=21)) - 4:
        rows = np.flatnonzero(X == e)
        d = digit_rows.take(rows).view(np.uint8).reshape(rows.size, 17)
        block = np.zeros((rows.size, _FLOAT_WIDTH), np.uint8)
        if e < 0:
            block[:, 5 + e : 6] = np.frombuffer(b"0." + b"0" * (-e - 1), np.uint8)
            block[:, 6:23] = d
        else:
            block[:, 6 : 7 + e] = d[:, : e + 1]
            block[:, 7 + e] = point[rows]
            block[:, 8 + e :] = d[:, e + 1 :]
        cell_rows[rows] = block.view(f"V{_FLOAT_WIDTH}").ravel()
        del d, block  # before the next group allocates its own
    cells[:, 0] = np.where(x < 0.0, ord("-"), 0)
    rare = np.flatnonzero(~fast)
    text = np.array([("%.17g" % v).encode() for v in x[rare].tolist()], f"S{_FLOAT_WIDTH}")
    cells[rare] = text.view(np.uint8).reshape(rare.size, _FLOAT_WIDTH)
    return cells


def _scaled_round(a: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """round(a * scale) as int64, half to even, computed exactly.

    `scale` is a power of ten up to 1e22, so exact in float64, and
    a * scale < 2**63.  Dekker's two-product gives the rounded product p and
    its exact error e.  Where p >= 2**53, which holds for every product the
    formatter keeps, p is an even integer, so p + rint(e) is the half-even
    rounding of p + e.
    """
    p = a * scale
    a_hi, a_lo = _split(a)
    s_hi, s_lo = _split(scale)
    e = ((a_hi * s_hi - p) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split: v = hi + lo with each half on 26 bits."""
    c = 134217729.0 * v  # 2**27 + 1
    hi = c - (c - v)
    return hi, v - hi


def _digits(D: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 ASCII digits of each D in [1e16, 1e17), with the trailing zeros
    of the fraction as NUL, and the point byte: '.', or NUL when no fraction
    digit is left.  A value with exponent X has its last 16 - X digits in
    the fraction, or all 17 when X < 0."""
    _, quads, quad_zeros, keep = _decimal_tables()
    # D is a lead digit then four groups of four digits
    groups = np.empty((5, D.size), np.int32)
    for j in (4, 3, 2, 1):
        high = D // 10**4
        groups[j] = D - high * 10**4
        D = high
    groups[0] = D
    trailing = quad_zeros.take(groups[1])
    for j in (2, 3, 4):
        trailing = np.where(groups[j] == 0, trailing + 4, quad_zeros.take(groups[j]))
    frac = np.where(X >= 0, 16 - X, 17)
    strip = np.minimum(trailing, frac)
    digits = np.empty((D.size, 17), np.uint8)
    digits[:, 0] = groups[0] + ord("0")
    for j in range(4):
        # stripped digits of group j turn NUL through its keep mask
        quad = quads.take(groups[j + 1]) & keep.take(np.clip(strip + 4 * j - 12, 0, 4))
        digits[:, 1 + 4 * j : 5 + 4 * j] = quad.view(np.uint8).reshape(-1, 4)
    return digits, np.where(strip < frac, ord("."), 0).astype(np.uint8)


@functools.cache
def _decimal_tables() -> tuple[np.ndarray, ...]:
    """Powers of ten 1e0..1e22, each exact in float64; the ASCII of
    0000..9999 as one uint32 each, and the trailing zeros of each; and the
    uint32 masks that keep the first 4, 3, 2, 1 or 0 of four bytes."""
    pow10 = np.array([float(10**k) for k in range(23)])
    quad = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    zeros = np.argmax(quad[:, ::-1] != 0, axis=1).astype(np.int8)
    zeros[0] = 4
    quads = (quad + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    keep = (np.arange(4) < 4 - np.arange(5)[:, None]).astype(np.uint8) * np.uint8(255)
    return pow10, quads, zeros, keep.view(np.uint32).ravel()


def _tag(T: float) -> str:
    return format(float(T), "g")


def _path_csv_name(T: float, rep: int) -> str:
    return f"path_T{_tag(T)}_rep{rep:05d}.csv"


def _failure(rep: int, stage: str, exc: Exception) -> tuple[int, str, str]:
    return rep, stage, f"{type(exc).__name__}: {exc}"


def _batch_task(task: tuple) -> list[list[tuple[dict[str, np.ndarray], list]]]:
    """Run replications lo..hi-1 in every cell; returns, per cell in cell
    order, the (columns, failures) pairs of its chunks in replication order.

    Every mode walks the block in chunks of max(1, _CHUNK_VALUES // n)
    replications: 8 at n = 8192, one at 65536.  H by H, which keeps the
    engine estimate_gamma fetches cached, each chunk's drivers are drawn
    once on the unit grid and scaled by dt^H into each cell of that H while
    still in cache: bitwise the paths generate_fbm draws at those horizons
    (see fracvas.fbm).  The stats cells of one H batch their statistics on
    one engine, and a paths cell formats its time column once per block.

    Must stay a top-level function: worker pools pickle it by name.
    """
    config, cells, lo, hi = task
    grids = [SampleGrid(horizon=T, n=config.n_grid) for _, _, T in cells]
    hursts = list(dict.fromkeys(p.hurst for _, p, _ in cells))
    # one engine per H of a stats cell for the whole block, fetched before
    # its paths exist: a first build's scratch never stacks on the paths
    stats_hursts = {p.hurst for mode, p, _ in cells if mode.startswith("stats")}
    engines = {h: shared_engine(config.n_grid, h) for h in hursts if h in stats_hursts}
    times = [_float_cells(g.times()) if m == "paths" else None for (m, *_), g in zip(cells, grids)]
    unit = SampleGrid(float(config.n_grid), config.n_grid)
    seeds = [replication_seed(config.master_seed, rep) for rep in range(lo, hi)]
    step = max(1, _CHUNK_VALUES // config.n_grid)
    out: list[list] = [[] for _ in cells]
    for hurst in hursts:
        group = [k for k, (_, p, _) in enumerate(cells) if p.hurst == hurst]
        for c in range(0, len(seeds), step):
            chunk = seeds[c : c + step]
            units, errors = np.empty((len(chunk), unit.n + 1)), {}
            for i, seed in enumerate(chunk):
                try:
                    # looked up on the module, where the benchmark's tracer wraps it
                    units[i] = model.generate_fbm(hurst, unit, seed).values
                except Exception as exc:  # noqa: BLE001 - fails the replication in each cell of H
                    errors[i] = exc
            for k in group:
                mode, params, _ = cells[k]
                engine = engines[hurst] if mode.startswith("stats") else None
                args = (params, grids[k], engine, times[k], lo + c, chunk, units, errors)
                out[k].append(_cell_chunk(mode, config, *args))
    return out


def _cell_chunk(
    mode: str,
    config: ExperimentConfig,
    params: ModelParams,
    grid: SampleGrid,
    engine: PanelEngine | None,
    time_cells: np.ndarray | None,
    lo: int,
    seeds: list[int],
    units: np.ndarray,
    errors: dict[int, Exception],
) -> tuple[dict[str, np.ndarray], list[tuple[int, str, str]]]:
    """One cell of a chunk: (columns, failures) over replications lo, lo + 1, ...

    Row i of `units` is replication lo + i's unit driver, unless its draw
    raised errors[i].  In paths mode every path file on `grid` writes the
    formatted time column `time_cells`.  With an engine, a non-finite
    statistic or a failed MLE fails every replication of the chunk.
    """
    scale = grid.dt**params.hurst
    # surviving paths fill the chunk's rows in order, so no per-path list is copied
    values = None if engine is None else np.empty_like(units)
    reps, kept_seeds, hats = [], [], []
    failures: list[tuple[int, str, str]] = []
    for i, (rep, seed) in enumerate(zip(range(lo, lo + len(seeds)), seeds)):
        if i in errors:
            failures.append(_failure(rep, "simulate", errors[i]))
            continue
        stage = "simulate"
        try:
            driver = FbmPath(grid, params.hurst, units[i] * scale)
            path = simulate_exact(params, grid, seed=seed, driver=driver)
            stage = mode
            if mode == "hurst":
                hats.append(estimate_hurst(path))
            elif mode == "gamma":
                hats.append(estimate_gamma(path, params.hurst))
        except Exception as exc:  # noqa: BLE001 - failures are recorded, not fatal
            failures.append(_failure(rep, stage, exc))
            continue
        reps.append(rep)
        kept_seeds.append(seed)
        if mode == "paths":
            out = os.path.join(config.output_dir, _path_csv_name(grid.horizon, rep))
            _write_csv(out, {"t": time_cells, "value": path.values})
        elif engine is not None:
            values[len(reps) - 1] = path.values
        if mode == "stats+est":
            try:
                hats.append(estimate_hurst(path))
            except Exception as exc:  # noqa: BLE001 - H_hat is reported only
                hats.append(math.nan)
                failures.append(_failure(rep, "hurst", exc))

    columns = {"replication": np.array(reps, dtype=np.int64)}
    columns["seed"] = np.array(kept_seeds, dtype=np.uint64)
    if mode in ("hurst", "gamma", "stats+est"):
        columns["gamma_hat" if mode == "gamma" else "H_hat"] = np.array(hats, dtype=float)
    if engine is None:
        return columns, failures

    stage = "stats"
    try:
        stats = engine.statistics(values[: len(reps)], grid, params.gamma)
        columns.update(S=stats.S, I=stats.I, J=stats.J, K=stats.K, w=np.full(len(reps), stats.w))
        if mode == "stats+est":
            g = params.gamma
            columns["gamma_hat"] = g * np.sqrt(stats.qv / stats.w)
            stage = "mle"
            columns["alpha_hat"], columns["beta_hat"] = mle_joint(stats, g)
            columns["alpha_tilde"] = mle_alpha(stats, g, beta_known=params.beta)
            columns["beta_tilde"] = mle_beta(stats, g, alpha_known=params.alpha)
            columns["mu_hat"], columns["kappa_hat"] = mle_mu_kappa(stats, g)
    except Exception as exc:  # noqa: BLE001 - a chunk's statistics and estimates fail together
        failures.extend(_failure(rep, stage, exc) for rep in reps)
        columns = {key: col[:0] for key, col in columns.items()}
    return columns, failures


def _collect(
    config: ExperimentConfig,
    report: TestReport,
    mode: str | None,
    T_list: tuple[float, ...],
    settings: dict[str, tuple[str, ModelParams]] | None = None,
) -> list[dict[str, np.ndarray]]:
    """Columns over the surviving replications of each cell, in replication
    order; every block task covers all cells, setting by setting (each
    named (mode, params), or `mode` on config.params), then by horizon.

    Failures go to report.details["failed"] cell by cell, tagged with T and
    setting; report.failures counts the voided replications, and more than
    1% of a cell's replications voided aborts the run.
    """
    named = settings.items() if settings else [(None, (mode, config.params))]
    cells = [({"setting": name} if name else {}, m, p, T) for name, (m, p) in named for T in T_list]
    n = config.replications
    triples = [(m, p, T) for _, m, p, T in cells]
    tasks = [(config, triples, lo, min(lo + _BATCH, n)) for lo in range(0, n, _BATCH)]
    workers = min(config.workers, len(tasks))
    if workers == 1:
        blocks = [_batch_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_batch_task, tasks))
    per_cell = []
    for (tags, _, _, T), *per_block in zip(cells, *blocks):
        chunks = [chunk for block_chunks in per_block for chunk in block_chunks]
        # a chunk that failed at "stats" or "mle" lacks the later columns
        kept = [cols for cols, _ in chunks if cols["replication"].size]
        failures = [failure for _, chunk_failures in chunks for failure in chunk_failures]
        voided = n - sum(cols["replication"].size for cols in kept)
        if voided > 0.01 * n:
            where = ", ".join([f"T={T}"] + [f"{key} {value}" for key, value in tags.items()])
            examples = [message for _, _, message in failures[:3]]
            raise RuntimeError(
                f"{voided}/{n} replications failed at {where} (> 1%); first errors: {examples}"
            )
        per_cell.append({key: np.concatenate([cols[key] for cols in kept]) for key in kept[0]})
        report.failures += voided
        report.details["failed"].extend(
            dict(tags, T=T, replication=rep, stage=stage, message=message)
            for rep, stage, message in failures
        )
    return per_cell


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


def _git_commit() -> str | None:
    """HEAD of the git work tree whose src/fracvas is this package, else None
    (no git, not a work tree, or a copy of the tree inside another one)."""
    package = os.path.dirname(os.path.abspath(__file__))
    try:
        proc = subprocess.run(
            ["git", "-C", package, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10.0,
        )
        if proc.returncode != 0:
            return None
        toplevel, commit = proc.stdout.splitlines()
        if os.path.samefile(os.path.join(toplevel, "src", "fracvas"), package):
            return commit
    except (OSError, subprocess.SubprocessError):
        pass
    return None


def _provenance() -> dict[str, str | None]:
    """Python's version, the installed fracvas, numpy and scipy versions,
    None for one that is not installed (fracvas run from a source tree), and
    the git commit of the source tree, None outside a git checkout."""
    versions = {"python": platform.python_version()}
    for name in ("fracvas", "numpy", "scipy"):
        try:
            versions[name] = importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            versions[name] = None
    versions["commit"] = _git_commit()
    return versions


def run_experiment(config: ExperimentConfig) -> TestReport:
    """Execute one configured experiment; artifacts land in config.output_dir."""
    os.makedirs(config.output_dir, exist_ok=True)
    report = TestReport(
        experiment=config.experiment,
        passed=True,
        rows=[],
        failures=0,
        replications=config.replications,
        details={"failed": [], "provenance": _provenance()},
    )
    EXPERIMENTS[config.experiment](config, report)
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
    """sample model paths and write them as CSV"""
    seeds: dict[str, dict[str, int]] = {}
    for T, cols in zip(config.T_list, _collect(config, report, "paths", config.T_list)):
        seeds[_tag(T)] = {
            _path_csv_name(T, rep): seed
            for rep, seed in zip(cols["replication"].tolist(), cols["seed"].tolist())
        }
    report.details["path_seeds"] = seeds
    report.notes.append("no statistical checks configured for simulate")


def _run_estimate(config: ExperimentConfig, report: TestReport) -> None:
    """simulate, estimate all parameters, export per-replication estimates"""
    p = config.params
    truth = (p.alpha, p.beta, p.alpha, p.beta, p.mean_level, p.beta, p.gamma, p.hurst)
    estimates: list[dict] = []
    medians: dict[str, dict[str, float]] = {}
    for T, cols in zip(config.T_list, _collect(config, report, "stats+est", config.T_list)):
        _write_stats_csv(config, T, cols)
        estimates.append(_estimate_columns(T, cols))
        errors = {key: np.abs(cols[key] - value) for key, value in zip(_ESTIMATES, truth)}
        # a column with no finite entry (every H_hat failed) has a NaN median
        medians[_tag(T)] = {
            key: math.nan if np.isnan(err).all() else float(np.nanmedian(err))
            for key, err in errors.items()
        }
    _write_estimates_csv(config, estimates)
    report.details["median_abs_error"] = medians
    _insufficient(config, report)


def _run_exact_check(config: ExperimentConfig, report: TestReport) -> None:
    """KS-test the finite-horizon pivot against the standard normal"""
    p = config.params
    kc = constants(p.hurst, p.gamma)
    law = NormalLaw(mean=0.0, variance=1.0)
    insufficient = _insufficient(config, report)
    for T, cols in zip(config.T_list, _collect(config, report, "stats", config.T_list)):
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
    entries = [
        ("beta_ratio", growth * (cols["beta_hat"] - p.beta), law_beta_limit(p)),
        ("alpha_normal", polynomial * (cols["alpha_hat"] - p.alpha), law_alpha_limit(p)),
        ("beta_single_ratio", growth * (cols["beta_tilde"] - p.beta), law_beta_limit(p)),
        (
            "alpha_single_exact",
            math.sqrt(cols["w"][0]) / p.gamma * (cols["alpha_tilde"] - p.alpha),
            NormalLaw(mean=0.0, variance=1.0),
        ),
        ("mu_normal", polynomial * (cols["mu_hat"] - p.mean_level), law_mu_limit(p)),
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
    """KS-test normalized estimator errors against their long-horizon laws"""
    p = config.params
    t_max = max(config.T_list)
    insufficient = _insufficient(config, report)
    estimates: list[dict] = []
    independence: dict[str, float] = {}
    drift_gap: dict[str, float] = {}
    for T, cols in zip(config.T_list, _collect(config, report, "stats+est", config.T_list)):
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
    """compare closed-form generating functions with Monte Carlo"""
    p = config.params
    T = config.T_list[0]
    if len(config.T_list) > 1:
        report.notes.append("mgf-check uses only the first horizon in T_list")
    (cols,) = _collect(config, report, "stats", (T,))
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
    """recover roughness (H settings) or noise scale (gamma settings) from simulated paths"""
    p = config.params
    T = config.T_list[0]
    if len(config.T_list) > 1:
        report.notes.append("hurst-gamma-check uses only the first horizon in T_list")
    settings = [("H", h, ("hurst", dataclasses.replace(p, hurst=h))) for h in _HURST_TARGETS]
    settings += [("gamma", g, ("gamma", dataclasses.replace(p, gamma=g))) for g in _GAMMA_TARGETS]
    named = {f"{kind}={target:g}": cell for kind, target, cell in settings}
    recovered = _collect(config, report, None, (T,), named)
    outcomes: dict[str, float] = {}
    for (kind, target, _), setting, cols in zip(settings, named, recovered):
        errors = np.abs(cols[f"{kind}_hat"] - target) / (target if kind == "gamma" else 1.0)
        outcomes[setting] = float(np.median(errors))
    kinds, targets, _ = zip(*settings)
    columns = {"parameter": kinds, "target": targets, "median_error": list(outcomes.values())}
    columns["n_reps"] = [cols["replication"].size for cols in recovered]
    _write_csv(os.path.join(config.output_dir, "recovery.csv"), columns)
    report.details["median_errors"] = outcomes
    report.details["gate"] = _RECOVERY_GATE
    report.passed = all(err < _RECOVERY_GATE for err in outcomes.values())


EXPERIMENTS = {
    "simulate": _run_simulate,
    "estimate": _run_estimate,
    "exact-check": _run_exact_check,
    "limit-check": _run_limit_check,
    "mgf-check": _run_mgf_check,
    "hurst-gamma-check": _run_recovery_check,
}
