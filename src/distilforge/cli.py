"""Command line entry points.

Three subcommands: `run` trains one experiment from a JSON config, `ablate`
sweeps the four training variants, and `verify` runs the built-in check
suite. Exit codes: 0 success, 1 configuration or output problems,
2 training divergence, 3 a failed verify check.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import re
import sys
from typing import Optional, Sequence

import numpy as np

from .autodiff import AutodiffError
from .experiments import ConfigError, load_experiment_config, run_ablation, run_experiment
from .trainer import TrainingDivergence
from .verification import run_checks

SEED_ENV_VAR = "DISTILFORGE_SEED"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGENCE = 2
EXIT_VERIFY = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distilforge",
        description="Train pairs of peer classifiers that teach each other.",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="enable debug logging"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("run", "train one experiment from a JSON config"),
        ("ablate", "train every variant and compare them"),
    ):
        command = sub.add_parser(name, help=help_text)
        command.add_argument("config", help="path to the experiment config")
        command.add_argument("--out", help="output directory (overrides the config)")
        command.add_argument(
            "--overwrite", action="store_true", help="replace existing run outputs"
        )

    sub.add_parser("verify", help="run the built-in property and oracle checks")
    return parser


def _seed_override() -> Optional[int]:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return None
    try:
        if not re.fullmatch(r"-?[0-9]+", raw):  # int() also takes '1_0', ' 7 ', '+7'
            raise ValueError(raw)
        seed = int(raw)
    except ValueError:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}")
    if seed < 0:
        raise ConfigError(f"{SEED_ENV_VAR} must be non-negative, got {seed}")
    return seed


def _load_config(path: str):
    config = load_experiment_config(path)
    seed = _seed_override()
    if seed is not None:
        train = dataclasses.replace(config.train, seed=seed)
        config = dataclasses.replace(config, train=train)
    return config


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    summary = run_experiment(config, out_dir=args.out, overwrite=args.overwrite)
    for net in ("net1", "net2"):
        print(
            f"{net}: mean test top-1 {summary['mean_test_top1'][net]:.4f} "
            f"(stddev {summary['stddev_test_top1'][net]:.4f} "
            f"over {summary['seed_repetitions']} repetitions)"
        )
    return EXIT_OK


def _cmd_ablate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    report = run_ablation(config, out_dir=args.out, overwrite=args.overwrite)
    print("variant  net1     net2")
    for variant in sorted(report["mean_test_top1"]):
        means = report["mean_test_top1"][variant]
        print(f"{variant:7s}  {means['net1']:.4f}  {means['net2']:.4f}")
    print(f"status: {report['status']}")
    return EXIT_OK


def _cmd_verify() -> int:
    results = run_checks()
    width = max(len(r.name) for r in results)
    for r in results:
        mark = "pass" if r.passed else "FAIL"
        line = f"{r.name:<{width}}  {mark}"
        if r.detail:
            line += f"  {r.detail}"
        print(line)
    failures = [r for r in results if not r.passed]
    if failures:
        print(
            f"error: verify: first failing property: {failures[0].name}",
            file=sys.stderr,
        )
        return EXIT_VERIFY
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        # Every op result that can be non-finite is checked (five ops cannot
        # make one from finite inputs) and a failure gets its own error line,
        # so numpy's floating-point warnings would only repeat it.
        with np.errstate(all="ignore"):
            if args.command == "run":
                return _cmd_run(args)
            if args.command == "ablate":
                return _cmd_ablate(args)
            return _cmd_verify()
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # A dataset or network size too large to allocate.
        print(f"error: config: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG
    except (TrainingDivergence, AutodiffError) as exc:
        print(f"error: divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except OSError as exc:
        # Config and dataset reads raise ConfigError; what is left is output.
        print(f"error: output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
