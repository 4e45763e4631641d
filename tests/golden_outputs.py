"""Golden outputs of the committed configs: the numbers each one writes,
read back from its output files and held against ``tests/golden/``.

    python tests/golden_outputs.py              # rewrite tests/golden/*.json
    python tests/golden_outputs.py --check DIR  # compare DIR/<scenario>/

The first form runs every ``configs/<scenario>.json`` in-process and stores
what it wrote; the second reads outputs the CLI wrote with
``semiwkb <scenario> --config configs/<scenario>.json --out DIR/<scenario>``
and exits 1, listing every field that moved, when they differ.  Strings and
ints compare exactly, floats to a relative ``RTOL`` (``moves``).  Wall times
(``converge/timing.json``) and ``data_hash``, a digest of the raw float
bytes of the initial data, are left out.
"""

import csv
import dataclasses
import glob
import json
import os
import sys
import tempfile

from semiwkb.harness import ExperimentConfig, run_scenario

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, os.pardir, "configs")
GOLDEN = os.path.join(HERE, "golden")
COMMITTED = sorted(os.path.basename(p)[:-5]
                   for p in glob.glob(os.path.join(CONFIGS, "*.json")))
# A float moves when |a - b| > RTOL max(|a|, |b|, floor), with floor 1 for
# the FLOORED fields and 0 for the rest.  The FLOORED fields are fractions,
# error estimates, mass past the boundary and fitted slopes: they sit near 0,
# where a relative bound would hold round-off to the bit.  Measured by
# rerunning the six configs with every numpy exp, sin, cos, tanh, log and
# sqrt result moved by -1, 0 or +1 ulp at random (six seeds), a model of
# libm and SIMD differences between builds: the largest move so scaled is
# 2.0e-11 (decay-study grad_a0_l2), against 0.42 relative for boundary_mass,
# 2.3e-5 for spectral_tail and 8.8e-11 for split_error unfloored.
RTOL = 1e-10
FLOORED = {"boundary_mass", "corrector_time_error", "exponent",
           "spectral_tail", "split_error", "split_ratio", "stderr"}
TRAJECTORY_STRIDE = 25      # every 25th of the 201 samples: t = 0, 0.25, ...


def _json(path):
    with open(path) as f:
        return json.load(f)


def _csv(path) -> tuple:
    """(header entries, rows as dicts) of a hash-stamped output CSV; numeric
    cells as floats."""
    with open(path) as f:
        lines = f.read().splitlines()
    header = dict(line[2:].split(": ", 1) for line in lines
                  if line.startswith("# "))
    body = [line for line in lines if not line.startswith("# ")]

    def cell(x):
        try:
            return float(x)
        except ValueError:
            return x
    rows = [{k: cell(v) for k, v in row.items()}
            for row in csv.DictReader(body)]
    return header, rows


def _converge(out):
    numbers = _json(os.path.join(out, "convergence.json"))
    return numbers.pop("config_hash"), numbers


def _schrodinger_run(out):
    header = _json(os.path.join(out, "header.json"))
    header.pop("data_hash")
    with open(os.path.join(out, "observables.jsonl")) as f:
        observables = [json.loads(line) for line in f]
    return header.pop("config_hash"), {"header": header,
                                       "observables": observables}


def _classify(out):
    header, rows = _csv(os.path.join(out, "classify_sweep.csv"))
    return header["config_hash"], {"rows": rows}


def _decay_study(out):
    numbers = _json(os.path.join(out, "decay_study.json"))
    return numbers.pop("config_hash"), numbers


def _evolve_ep(out):
    verdict = _json(os.path.join(out, "verdict.json"))
    samples = {}
    for path in sorted(glob.glob(os.path.join(out, "trajectory_R*.csv"))):
        _, rows = _csv(path)
        samples[os.path.basename(path)] = rows[::TRAJECTORY_STRIDE]
    return verdict["config_hash"], {"verdict": verdict["verdict"],
                                    "trajectories": samples}


def _wkb_eval(out):
    with open(os.path.join(out, "norms.jsonl")) as f:
        norms = [json.loads(line) for line in f]
    maxima, digest = {}, None
    for path in sorted(glob.glob(os.path.join(out, "fields_t*.csv"))):
        header, rows = _csv(path)
        digest = header["config_hash"]
        maxima[os.path.basename(path)] = {
            k: max(abs(row[k]) for row in rows) for k in rows[0] if k != "r"}
    return digest, {"norms": norms, "field_maxima": maxima}


READERS = {"converge": _converge, "schrodinger-run": _schrodinger_run,
           "classify": _classify, "decay-study": _decay_study,
           "evolve-ep": _evolve_ep, "wkb-eval": _wkb_eval}


def outputs(scenario: str, out: str) -> dict:
    """The golden record of the outputs a scenario wrote into ``out``."""
    digest, numbers = READERS[scenario](out)
    return {"config": f"configs/{scenario}.json", "config_hash": digest,
            "numbers": numbers}


def run_configs(root: str) -> None:
    """Run every committed config in-process into ``root/<scenario>``."""
    for scenario in COMMITTED:
        config = ExperimentConfig.from_json(
            _json(os.path.join(CONFIGS, f"{scenario}.json")), scenario)
        run_scenario(dataclasses.replace(
            config, out_dir=os.path.join(root, scenario)))


def golden(scenario: str) -> dict:
    return _json(os.path.join(GOLDEN, f"{scenario}.json"))


def _leaves(x, path=""):
    if isinstance(x, dict):
        for k in sorted(x):
            yield from _leaves(x[k], f"{path}.{k}" if path else k)
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, x


def moves(expected: dict, got: dict) -> list:
    """Every field of ``got`` that differs from ``expected``, one line each:
    floats past RTOL of the larger of the two and the field's floor
    (``FLOORED``), anything else on any change."""
    want, have = dict(_leaves(expected)), dict(_leaves(got))
    lines = [f"{k}: missing (golden {want[k]!r})" for k in want
             if k not in have]
    lines += [f"{k}: not in the golden file ({have[k]!r})" for k in have
              if k not in want]
    for k in want.keys() & have.keys():
        a, b = want[k], have[k]
        if isinstance(a, float) and isinstance(b, float):
            floor = 1.0 if k.rsplit(".", 1)[-1] in FLOORED else 0.0
            scale = max(abs(a), abs(b), floor)
            if abs(a - b) > RTOL * scale:
                lines.append(f"{k}: {a!r} -> {b!r} "
                             f"(relative {abs(a - b) / scale:.2e})")
        elif type(a) is not type(b) or a != b:
            lines.append(f"{k}: {a!r} -> {b!r}")
    return sorted(lines)


def check(root: str) -> list:
    """Moved fields of every scenario's outputs under ``root``, each line
    prefixed by its scenario."""
    return [f"{s}: {line}" for s in COMMITTED
            for line in moves(golden(s), outputs(s, os.path.join(root, s)))]


def main(argv) -> int:
    if argv[:1] == ["--check"] and len(argv) == 2:
        lines = check(argv[1])
        print("\n".join(lines) if lines else
              f"golden outputs: {len(COMMITTED)} scenarios match")
        return 1 if lines else 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as root:
        run_configs(root)
        for s in COMMITTED:
            with open(os.path.join(GOLDEN, f"{s}.json"), "w") as f:
                json.dump(outputs(s, os.path.join(root, s)), f, indent=2,
                          sort_keys=True)
                f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
