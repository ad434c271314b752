"""Output check: reduce a run's report and artifacts to a summary and compare it.

A summary has two parts.  `shape` holds what any seed must reproduce
exactly: experiment, replication count, which rows exist and gate, that
every replication which did not fail wrote its path file, and the line count
of those files.  `values` holds the seed-dependent results: sample sizes,
gate verdicts, KS statistics and p-values, median and recovery errors,
replication seeds and sampled path values.

At the reference seed both parts are compared with the summary recorded in
`reference/<workload>.json`: booleans, integers and strings exactly, floats
within REL_TOL/ABS_TOL.  At any other seed only `shape` is compared and
every float in `values` must be finite.  `failures` must be 0 at the
reference seed; at other seeds it is counted, not judged.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

REL_TOL = 1e-6
ABS_TOL = 1e-9

# simulate-csv: replications whose path files are parsed and summed
_SAMPLED_REPS = (0, 127, 255)

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def _rows(report: dict) -> tuple[list, list]:
    shape, values = [], []
    p_gate = report["config"]["p_threshold"]
    for row in report["rows"]:
        shape.append([row["T"], row["statistic"], row["gates"]])
        values.append([row["n_reps"], row["ks_stat"], row["ks_p"], row["ks_p"] > p_gate])
    return shape, values


def _path_files(output_dir: str) -> dict:
    """Line count and a few parsed paths of the simulate CSV output."""
    names = sorted(n for n in os.listdir(output_dir) if n.startswith("path_"))
    lines = set()
    for name in names:
        with open(os.path.join(output_dir, name), "rb") as fh:
            lines.add(fh.read().count(b"\n"))
    sampled = {}
    for rep in _SAMPLED_REPS:
        match = [n for n in names if n.endswith(f"_rep{rep:05d}.csv")]
        if not match:
            continue
        with open(os.path.join(output_dir, match[0]), encoding="utf-8") as fh:
            next(fh)
            vals = [float(line.split(",")[1]) for line in fh]
        sampled[str(rep)] = [sum(vals), sum(v * v for v in vals), vals[-1]]
    return {"files": len(names), "lines": sorted(lines), "sampled": sampled}


def summarize(report: dict, output_dir: str) -> dict:
    """Shape/values summary of one run's report.json plus its artifacts."""
    row_shape, row_values = _rows(report)
    details = report["details"]
    shape = {
        "experiment": report["experiment"],
        "replications": report["replications"],
        "rows": row_shape,
    }
    values = {"passed": report["passed"], "rows": row_values}
    for key in ("gates", "spearman_alpha_beta", "drift_ratio_median_gap", "median_errors"):
        if key in details:
            values[key] = details[key]
    if report["experiment"] == "simulate":
        files = _path_files(output_dir)
        shape["unwritten_paths"] = report["replications"] - report["failures"] - files["files"]
        shape["lines"] = files["lines"]
        values["sampled_paths"] = files["sampled"]
        seeds = json.dumps(details["path_seeds"], sort_keys=True).encode()
        values["path_seeds_sha256"] = hashlib.sha256(seeds).hexdigest()
    return {"failures": report["failures"], "shape": shape, "values": values}


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= max(ABS_TOL, REL_TOL * abs(want))


def diff(got, want, where: str = "") -> list[str]:
    """Every place where `got` differs from `want`, as readable lines."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: {got!r} does not have the keys {sorted(want)}"]
        return [line for key in want for line in diff(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} != {want!r}"]
        pairs = enumerate(zip(got, want))
        return [line for i, (g, w) in pairs for line in diff(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        return [] if _close(float(got), want) else [f"{where}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{where}: {got!r} != {want!r}"]
    return []


def _non_finite(obj, where: str = "") -> list[str]:
    if isinstance(obj, dict):
        return [line for k, v in obj.items() for line in _non_finite(v, f"{where}.{k}")]
    if isinstance(obj, list):
        return [line for i, v in enumerate(obj) for line in _non_finite(v, f"{where}[{i}]")]
    if isinstance(obj, float) and not math.isfinite(obj):
        return [f"{where}: {obj!r} is not finite"]
    return []


def load_reference(workload: str) -> dict | None:
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def problems(summary: dict, reference: dict | None, exact_seed: bool) -> list[str]:
    """Why `summary` fails the output check; empty when it passes."""
    if reference is None:
        return ["no reference summary recorded"]
    found = diff(summary["shape"], reference["shape"], "shape")
    if exact_seed:
        found += diff(summary["values"], reference["values"], "values")
        if summary["failures"] != 0:
            found.append(f"failures: {summary['failures']} replications failed")
    else:
        found += _non_finite(summary["values"], "values")
    return found
