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
    summary = _summarize(args.scenario, result)
    print(summary)
    return 0


def _summarize(scenario: str, result) -> str:
    if scenario == "converge":
        return (f"converge: order_modulus={result.fitted_order_modulus:.3f} "
                f"order_full={result.fitted_order_full:.3f} "
                f"excluded={result.excluded_eps} "
                f"points={[row['points'] for row in result.rows]} "
                f"split_ratio={result.split_ratio:.2e}")
    if scenario == "classify":
        kinds = {}
        for row in result:
            kinds[row["kind"]] = kinds.get(row["kind"], 0) + 1
        return f"classify: {kinds}"
    if scenario == "decay-study":
        fits = {k: round(v["exponent"], 4) for k, v in result["fits"].items()}
        return f"decay-study: exponents={fits}"
    if scenario == "evolve-ep":
        return f"evolve-ep: verdict={result['verdict']['kind']}"
    if scenario == "wkb-eval":
        return f"wkb-eval: evaluated {len(result)} snapshots"
    if scenario == "schrodinger-run":
        last, header = result["observables"][-1], result["header"]
        return (f"schrodinger-run: t={last['t']:g} mass={last['mass']:.9f} "
                f"energy={last['energy']:.9f} dt={header['dt']:g} "
                f"split_ratio={header['split_ratio']:.2e} "
                f"points={header['grid']['points']}")


if __name__ == "__main__":
    sys.exit(main())
