"""Command-line interface.

  faircluster run    --config cfg.yaml [--jobs N] [--seed S] [--override k=v ...]
  faircluster oracle --config cfg.yaml          (tiny instances only)
  faircluster lb     --config cfg.yaml --L 5

Exit codes: 0 full success, 1 configuration error, 2 partial cell failures.
FAIRCLUSTER_LOG controls verbosity (DEBUG/INFO/WARNING/ERROR).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .config import ConfigError, apply_overrides, load_config
from .experiment import run_experiment, run_lb, run_oracle

log = logging.getLogger("faircluster")


def _setup_logging() -> None:
    level = os.environ.get("FAIRCLUSTER_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="YAML experiment manifest")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                     help="override any config field (value parsed as YAML)")


def _load(args) -> "ExperimentConfig":  # noqa: F821 - doc only
    config = load_config(args.config)
    overrides = list(args.override)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if getattr(args, "jobs", None) is not None:
        overrides.append(f"jobs={args.jobs}")
    if getattr(args, "L", None) is not None:
        overrides.append(f"L={args.L}")
    if overrides:
        config = apply_overrides(config, overrides)
    return config


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(prog="faircluster",
                                     description="fair clustering benchmark harness")
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="run the (k, delta) experiment grid")
    _add_common(p_run)
    p_run.add_argument("--jobs", type=int, default=None, help="parallel cells")

    p_oracle = subs.add_parser("oracle", help="brute-force optima (tiny instances)")
    _add_common(p_oracle)

    p_lb = subs.add_parser("lb", help="lower-bounded clustering")
    _add_common(p_lb)
    p_lb.add_argument("--L", type=int, default=None, help="minimum cluster size")

    args = parser.parse_args(argv)
    try:
        config = _load(args)
        if args.command == "run":
            summary = run_experiment(config)
            print(f"report: {summary.report_path}")
            print(f"cells:  {summary.cells_path}")
            failed = [s for s in summary.statuses if s != "ok"]
            if failed:
                log.warning("%d of %d cells failed", len(failed), len(summary.statuses))
                return 2
            return 0
        if args.command == "oracle":
            path = run_oracle(config)
            print(f"oracle report: {path}")
            return 0
        if args.command == "lb":
            path = run_lb(config)
            print(f"lb report: {path}")
            return 0
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        log.error("%s", exc)
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
