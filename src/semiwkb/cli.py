"""Command line entry point: semiwkb <scenario> --config <path> [--out DIR]."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .errors import ConfigError, ParameterError, ResolutionError, SemiwkbError
from .harness import SCENARIOS, ExperimentConfig, run_scenario


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="semiwkb",
        description="Radial Euler-Poisson / WKB / Schrodinger-Poisson "
                    "experiment harness")
    sub = p.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        sp = sub.add_parser(name, help=f"run the {name} scenario")
        sp.add_argument("--config", help="JSON configuration file", default=None)
        sp.add_argument("--out", help="output directory", default=None)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        payload = {}
        if args.config is not None:
            with open(args.config) as f:
                payload = json.load(f)
        config = ExperimentConfig.from_json(payload, scenario=args.scenario)
        if args.out is not None:
            config = dataclasses.replace(config, out_dir=args.out)
        result = run_scenario(config)
    except (ConfigError, ParameterError, json.JSONDecodeError, OSError) as exc:
        print(f"semiwkb: validation error: {exc}", file=sys.stderr)
        return 2
    except ResolutionError as exc:
        print(f"semiwkb: resolution error: {exc}", file=sys.stderr)
        return 3
    except SemiwkbError as exc:
        print(f"semiwkb: error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.scenario}: {SCENARIOS[args.scenario].summary(result)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
