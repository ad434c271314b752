"""One run of one workload in a fresh process; prints one JSON line.

Run by `run.py`, which sets the thread environment and PYTHONPATH:

    python3 perfbench/child.py --workload exact-desk --seed 20260818 --out DIR [--trace] [--setup-only]

The line holds `ready`, the `time.monotonic()` reading once `fracvas` is
imported and the config is built (the parent subtracts its spawn time to
get `setup_s`), and, unless --setup-only, the run's wall and CPU time, peak
RSS, output-check problems and, with --trace, the per-layer span totals.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def _output_size(output_dir: str) -> tuple[int, int]:
    names = os.listdir(output_dir)
    return sum(os.path.getsize(os.path.join(output_dir, n)) for n in names), len(names)


def _metadata() -> dict:
    import platform

    import numpy
    import scipy

    def blas(module) -> str:
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return info.get("openblas configuration") or f"{info['name']} {info['version']}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from workloads import DEFAULT_SEED, config_payload

    from fracvas.harness import ExperimentConfig, run_experiment

    config = ExperimentConfig.from_dict(config_payload(args.workload, args.seed, args.out))
    result: dict = {"ready": time.monotonic()}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    import check

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        run = tracer.span("harness.run_experiment", run_experiment)
    else:
        run = run_experiment

    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        run(config)
    except Exception:  # noqa: BLE001 - a crashed run is reported, not fatal
        result["error"] = traceback.format_exc(limit=3)
    t1 = time.perf_counter()
    cpu1 = time.process_time()
    if tracer is not None:
        tracer.uninstall()

    result["wall_s"] = t1 - t0
    result["cpu_s"] = cpu1 - cpu0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["meta"] = _metadata()
    if "error" not in result:
        with open(os.path.join(args.out, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        summary = check.summarize(report, args.out)
        exact_seed = args.seed == DEFAULT_SEED
        result["summary"] = summary
        result["failures"] = summary["failures"]
        result["problems"] = check.problems(
            summary, check.load_reference(args.workload), exact_seed
        )
        result["out_bytes"], result["out_files"] = _output_size(args.out)
    if tracer is not None:
        if tracer.missing and "error" not in result:
            # a span that was never wrapped would read as zero time
            missing = ", ".join(tracer.missing)
            result["problems"].append(f"trace: not found in the program: {missing}")
        result["spans"] = tracer.totals()
        result["shared_engine_hits"] = tracer.shared_engine_hits()
        tracer.dump(os.path.join(os.path.dirname(args.out), f"trace-{args.workload}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
