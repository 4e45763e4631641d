"""Deterministic CSV/JSON emission with config-hash provenance."""

from __future__ import annotations

import hashlib
import json
import os
from typing import Iterable

import numpy as np

__all__ = ["config_hash", "canonical_json", "write_csv", "write_json",
           "write_jsonl"]


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=True)


def config_hash(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:16]


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def write_csv(path: str, columns: list[str], rows: Iterable[Iterable],
              header: dict | None = None) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        for key, value in (header or {}).items():
            f.write(f"# {key}: {value}\n")
        f.write(",".join(columns) + "\n")
        for row in map(tuple, rows):
            # float.__repr__ takes only floats and their subclasses (numpy's
            # float64), and writes each as _fmt would
            try:
                line = ",".join(map(float.__repr__, row))
            except TypeError:
                line = ",".join(map(_fmt, row))
            f.write(line + "\n")


def write_json(path: str, payload) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump(payload, f, sort_keys=True, indent=2)
        f.write("\n")


def write_jsonl(path: str, records: Iterable[dict]) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        for rec in records:
            f.write(canonical_json(rec) + "\n")
