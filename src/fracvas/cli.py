"""Command line front end: one subcommand per experiment.

The config file carries the full experiment description; flags override
the seed, worker count, and output directory so the same config can be
replayed under different execution settings without editing it.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .harness import EXPERIMENTS, ExperimentConfig, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracvas",
        description="Monte Carlo experiments for the long-memory mean-reverting diffusion.",
    )
    subparsers = parser.add_subparsers(dest="experiment", required=True)
    for name, run in EXPERIMENTS.items():
        sub = subparsers.add_parser(name, help=run.__doc__)
        sub.add_argument("--config", required=True, help="JSON experiment config")
        sub.add_argument("--seed", type=int, default=None, help="override master_seed")
        sub.add_argument("--workers", type=int, default=None, help="override worker count")
        sub.add_argument("--out", default=None, help="override output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = ExperimentConfig.from_json(args.config)
    except (OSError, ValueError, TypeError) as exc:
        print(f"fracvas: bad config: {exc}", file=sys.stderr)
        return 2
    if config.experiment != args.experiment:
        print(
            f"fracvas: config is for {config.experiment!r}, not {args.experiment!r}",
            file=sys.stderr,
        )
        return 2
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.out is not None:
        overrides["output_dir"] = args.out
    if overrides:
        try:
            config = dataclasses.replace(config, **overrides)
        except ValueError as exc:
            print(f"fracvas: bad override: {exc}", file=sys.stderr)
            return 2

    try:
        report = run_experiment(config)
    except RuntimeError as exc:
        print(f"fracvas: aborted: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"fracvas: cannot write output: {exc}", file=sys.stderr)
        return 2

    for row in report.rows:
        verdict = "pass" if row.ks_p > config.p_threshold else "FAIL"
        if not row.gates:
            verdict += " (informational)"
        print(
            f"T={row.T:g} {row.statistic}: ks={row.ks_stat:.4f} "
            f"p={row.ks_p:.3g} n={row.n_reps} [{verdict}]"
        )
    for note in report.notes:
        print(f"note: {note}")
    outcome = "PASS" if report.passed else "FAIL"
    print(
        f"{outcome}: {config.experiment} "
        f"({report.failures} failed replications; report in {config.output_dir}/report.json)"
    )
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
