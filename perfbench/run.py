"""fracvas benchmark: one workload, measured end to end or per layer.

    python3 perfbench/run.py --workload limit-desk [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Every run of the workload is a fresh child
process (`child.py`) with BLAS/OpenMP pinned to BLAS_THREADS threads, that
imports `fracvas` from `src/` and calls `fracvas.harness.run_experiment`
once with workers=1.

An invocation first measures set-up: SETUP_WARMUP children that are thrown
away (they also compile `src/` to bytecode in a fresh checkout), then
SETUP_SAMPLES children that only import `fracvas` and build the config;
`setup_s` is their median.  Then workload runs repeat while another run of
median length fits in `--seconds`, counted from the start of the invocation,
and at least MIN_RUNS are made, so a workload whose runs are long (limit-desk)
overruns `--seconds`.  The other end-to-end metrics are medians over these
untraced runs.

With --trace 1 one more run is made with every layer boundary wrapped
(`spans.py`), and the per-layer metrics come from that run alone; its spans
are written to .perfbench_out/trace-<workload>.json.

Every run's output is checked (`check.py`); the last stdout line is the
JSON result: correct, attempted and failed paths, and the metrics.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import DEFAULT_SEED, WORKLOADS

BLAS_THREADS = 1
MIN_RUNS = 2
SETUP_WARMUP = 1
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150.0
WORK_DIR = ".perfbench_out"

HERE = os.path.dirname(os.path.abspath(__file__))

def _child_env(root: str) -> dict:
    env = dict(os.environ)
    threads = str(BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _child(root: str, args: argparse.Namespace, *flags: str) -> dict:
    """One fresh-process run; returns its JSON line plus `setup_s`."""
    out = os.path.join(root, WORK_DIR, "run")
    shutil.rmtree(out, ignore_errors=True)
    cmd = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--out", out,
        *flags,
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=_child_env(root), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"benchmark child exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    result["elapsed_s"] = time.monotonic() - spawned
    return result


def _src_lines(root: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(root, "src", "fracvas", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def _commit(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _run_failed(run: dict, paths: int) -> int:
    """Failed paths of one run: all of them if it crashed or failed the check."""
    if "error" in run or run["problems"]:
        return paths
    return run["failures"]


def per_layer(traced: dict, untraced_wall_s: float, paths: int) -> dict[str, tuple[float, str]]:
    spans = traced["spans"]

    def get(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    engine_calls = get("transforms.shared_engine", "calls")
    return {
        "fbm.generate_fbm.calls": (get("fbm.generate_fbm", "calls"), "count"),
        "fbm.generate_fbm.s": (get("fbm.generate_fbm", "s"), "s"),
        "model.simulate_exact.self_s": (get("model.simulate_exact", "self_s"), "s"),
        "transforms.engine_build.count": (get("transforms.engine_build", "calls"), "count"),
        "transforms.engine_build.s": (get("transforms.engine_build", "s"), "s"),
        "transforms.shared_engine.hit_ratio": (
            traced["shared_engine_hits"] / engine_calls if engine_calls else 0.0,
            "1",
        ),
        "transforms.raw_panels.calls": (get("transforms.raw_panels", "calls"), "count"),
        "transforms.raw_panels.rows": (get("transforms.raw_panels", "rows"), "count"),
        "transforms.raw_panels.s": (get("transforms.raw_panels", "s"), "s"),
        "transforms.quad_rows_per_path": (get("transforms.raw_panels", "rows") / paths, "rows/path"),
        "transforms.statistics.self_s": (get("transforms.statistics", "self_s"), "s"),
        "estimators.estimate_gamma.calls": (get("estimators.estimate_gamma", "calls"), "count"),
        "estimators.estimate_gamma.self_s": (get("estimators.estimate_gamma", "self_s"), "s"),
        "estimators.estimate_hurst.s": (get("estimators.estimate_hurst", "s"), "s"),
        "estimators.mle.calls": (get("estimators.mle", "calls"), "count"),
        "estimators.mle.s": (get("estimators.mle", "s"), "s"),
        "limits.ratio_cdf.calls": (get("limits.ratio_cdf", "calls"), "count"),
        "limits.ratio_cdf.s": (get("limits.ratio_cdf", "s"), "s"),
        "limits.law_cdf.s": (get("limits.law_cdf", "s"), "s"),
        "harness.ks_test.calls": (get("harness.ks_test", "calls"), "count"),
        "harness.ks_test.self_s": (get("harness.ks_test", "self_s"), "s"),
        "harness.self_s": (get("harness.run_experiment", "self_s"), "s"),
        "harness.out_bytes": (traced.get("out_bytes", 0), "B"),
        "harness.out_files": (traced.get("out_files", 0), "count"),
        "trace.overhead_s": (traced["wall_s"] - untraced_wall_s, "s"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fracvas", "harness.py")):
        print(f"no fracvas source tree under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2
    paths = WORKLOADS[args.workload]["paths"]
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)

    # Set-up comes first and from import-only children alone, so no sample
    # follows a full run (or the output files it wrote and removed).
    start = time.monotonic()
    setup = [
        _child(root, args, "--setup-only")["setup_s"]
        for _ in range(SETUP_WARMUP + SETUP_SAMPLES)
    ][SETUP_WARMUP:]

    # Start another run only if a run of median length still fits, so an
    # invocation ends within --seconds unless MIN_RUNS runs take longer.
    runs: list[dict] = []
    while len(runs) < MIN_RUNS or (
        time.monotonic() - start + statistics.median(r["elapsed_s"] for r in runs)
        <= args.seconds
    ):
        runs.append(_child(root, args))
    traced = _child(root, args, "--trace") if args.trace else None

    checked = runs + ([traced] if traced else [])
    failed = sum(_run_failed(r, paths) for r in checked)
    problems = [p for r in checked for p in ([r["error"]] if "error" in r else r["problems"])]
    wall = statistics.median(r["wall_s"] for r in runs)
    if traced:
        metrics = per_layer(traced, wall, paths)
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "paths_per_s": (statistics.median(paths / r["wall_s"] for r in runs), "1/s"),
            "cpu_s": (statistics.median(r["cpu_s"] for r in runs), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MiB"),
        }

    meta = dict(
        runs[0]["meta"],
        workload=args.workload,
        seed=args.seed,
        runs=len(runs),
        setup_samples=len(setup),
        blas_threads=BLAS_THREADS,
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        commit=_commit(root),
        src_lines=_src_lines(root),
    )
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print("output check: " + ("ok" if not problems else "FAILED"))
    for line in problems[:20]:
        print("  " + line.strip())
    print(json.dumps({
        "correct": not problems,
        "attempted": paths * len(checked),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
