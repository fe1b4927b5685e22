"""Command-line entry point.

Subcommands:
  run       execute the trials of a config and write result files
  hardness  compute and print the hardness report of a config's instance
  oracle    one-shot maximizer query at a given parameter vector
  validate  check a config file and exit

Exit codes: 0 success, 1 config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import reward
from .errors import CociError, ConfigError
from .harness import (
    build_problem,
    emit_results,
    load_config,
    parse_config,
    problem_hardness,
    read_config,
    run_experiment,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coci", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run experiment trials")
    run_p.add_argument("config")
    run_p.add_argument("--trials", type=int, help="override trial count")
    run_p.add_argument("--seed", type=int, help="override master seed")
    run_p.add_argument("--mode", choices=["coci", "uniform", "both"], help="override mode")
    run_p.add_argument("--strategy", help="override condition strategy (e.g. grid-scan:21)")
    run_p.add_argument("--out", help="override output directory")
    run_p.add_argument("--format", choices=["csv", "json-lines"], help="override output format")
    run_p.add_argument("--workers", type=int, help="parallel trial workers")

    hard_p = sub.add_parser("hardness", help="emit the hardness report")
    hard_p.add_argument("config")
    hard_p.add_argument("--out", help="write JSON here instead of stdout")

    oracle_p = sub.add_parser("oracle", help="one-shot maximizer query")
    oracle_p.add_argument("config")
    oracle_p.add_argument("--theta", required=True, help="comma-separated parameters")

    val_p = sub.add_parser("validate", help="validate a config file")
    val_p.add_argument("config")
    return parser


def _cmd_run(args) -> int:
    # Overrides go into the raw mapping, so they are validated like the file.
    raw = read_config(args.config)
    flags = {
        "trials": args.trials,
        "master_seed": args.seed,
        "mode": args.mode,
        "strategy": args.strategy,
        "workers": args.workers,
    }
    raw.update((field, value) for field, value in flags.items() if value is not None)
    output = raw.setdefault("output", {})
    if isinstance(output, dict):
        if args.out is not None:
            output["path"] = args.out
        if args.format is not None:
            output["format"] = args.format
    config = parse_config(raw, name=Path(args.config).stem)

    result = run_experiment(config)
    if config.out_path:
        paths = emit_results(result.records, result.summary, config.out_path, config.out_format)
        for p in paths:
            print(p)
    else:
        print(json.dumps(result.summary, indent=2, sort_keys=True))
    return 0


def _cmd_hardness(args) -> int:
    config = load_config(args.config)
    report = problem_hardness(config, build_problem(config))
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
        print(args.out)
    else:
        print(text)
    return 0


def _cmd_oracle(args) -> int:
    config = load_config(args.config)
    instance = build_problem(config)
    theta = tuple(float(v) for v in args.theta.split(","))
    decision = instance.oracle.maximizer(theta)
    print(
        json.dumps(
            {
                "theta": list(theta),
                "decision": list(decision),
                "reward": reward(instance.oracle, theta, decision),
            }
        )
    )
    return 0


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    build_problem(config)
    print(f"{args.config}: ok ({config.application}, m={len(config.theta_star)})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "hardness": _cmd_hardness,
        "oracle": _cmd_oracle,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except CociError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
