"""Benchmark upkeep: record the reference summaries, and check the checker.

    python3 perfbench/maintain.py record [WORKLOAD ...]
    python3 perfbench/maintain.py selfcheck

`record` runs each workload once at the default seed and stores its output
summary as `reference/<workload>.json`.  Do it only at a commit whose
outputs are known good; the output check of every later run compares
against these files.

`selfcheck` verifies that the output check accepts each stored reference
and rejects perturbed copies of it.  It then makes one traced limit-desk run
(about 20 s) and compares its exact counts with those read when the
benchmark was defined (BASELINE_COUNTS).  A program change that removes
work, such as a second quadrature pass per path, moves these counts on
purpose; the check then reports the change rather than an error in the
benchmark.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys

import check
import run
from workloads import DEFAULT_SEED, WORKLOADS

BASELINE_COUNTS = {
    "transforms.raw_panels.rows": 6000,
    "limits.ratio_cdf.calls": 6000,
    "transforms.engine_build.count": 3,
    "transforms.quad_rows_per_path": 2.0,
}


def _first_float(obj) -> tuple[dict | list, object] | None:
    """(container, key) of the first float in `obj`, depth first."""
    for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
        if isinstance(value, float):
            return obj, key
        if isinstance(value, (dict, list)):
            found = _first_float(value)
            if found:
                return found
    return None


def record(root: str, workloads: list[str]) -> int:
    os.makedirs(check.REFERENCE_DIR, exist_ok=True)
    for name in workloads:
        result = run._child(root, argparse.Namespace(workload=name, seed=DEFAULT_SEED))
        if "error" in result or result["failures"]:
            print(f"{name}: run failed, reference not written", file=sys.stderr)
            return 1
        dest = os.path.join(check.REFERENCE_DIR, f"{name}.json")
        with open(dest, "w", encoding="utf-8") as fh:
            json.dump(dict(result["summary"], seed=DEFAULT_SEED), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: wrote {dest}")
    return 0


def _perturbations(reference: dict):
    """(label, summary, exact_seed) cases the output check must reject."""
    moved = copy.deepcopy(reference)
    box, key = _first_float(moved["values"])
    box[key] = box[key] * (1 + 1e-3) + 1e-3
    yield "value moved", moved, True
    flipped = copy.deepcopy(reference)
    flipped["values"]["passed"] = not reference["values"]["passed"]
    yield "verdict flipped", flipped, True
    failing = copy.deepcopy(reference)
    failing["failures"] = 1
    yield "failed replication", failing, True
    non_finite = copy.deepcopy(reference)
    box, key = _first_float(non_finite["values"])
    box[key] = float("nan")
    yield "non-finite value", non_finite, False
    reshaped = copy.deepcopy(reference)
    reshaped["shape"]["replications"] += 1
    yield "shape changed", reshaped, False


def selfcheck(root: str) -> int:
    bad = 0
    for name in sorted(WORKLOADS):
        reference = check.load_reference(name)
        if reference is None or reference.get("seed") != DEFAULT_SEED:
            print(f"{name}: no reference at seed {DEFAULT_SEED}")
            bad += 1
            continue
        if check.problems(reference, reference, True):
            print(f"{name}: reference rejected by its own check")
            bad += 1
        for label, summary, exact_seed in _perturbations(reference):
            if not check.problems(summary, reference, exact_seed):
                print(f"{name}: {label} not rejected")
                bad += 1
    args = argparse.Namespace(workload="limit-desk", seed=DEFAULT_SEED)
    traced = run._child(root, args, "--trace")
    for problem in [traced["error"]] if "error" in traced else traced["problems"]:
        print(f"limit-desk traced run: {problem.strip()}")
        bad += 1
    if "error" not in traced:
        layers = run.per_layer(traced, traced["wall_s"], WORKLOADS["limit-desk"]["paths"])
        for metric, want in BASELINE_COUNTS.items():
            got = layers[metric][0]
            print(f"limit-desk {metric} = {got} (baseline {want})")
            bad += got != want
    print("selfcheck: " + ("ok" if not bad else f"{bad} problems"))
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    sub.add_parser("selfcheck")
    args = parser.parse_args()
    root = os.getcwd()
    os.makedirs(os.path.join(root, run.WORK_DIR), exist_ok=True)
    if args.command == "record":
        unknown = set(args.workloads) - set(WORKLOADS)
        if unknown:
            parser.error(f"unknown workloads {sorted(unknown)}; choose from {sorted(WORKLOADS)}")
        return record(root, args.workloads or sorted(WORKLOADS))
    return selfcheck(root)


if __name__ == "__main__":
    sys.exit(main())
