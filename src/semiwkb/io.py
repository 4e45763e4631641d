"""Deterministic CSV/JSON emission with config-hash provenance."""

from __future__ import annotations

import hashlib
import json
import os
from typing import Iterable

import numpy as np

from .grids import RadialProfile

__all__ = ["config_hash", "canonical_json", "write_csv", "write_json",
           "write_jsonl", "write_profile_csv", "write_fields_csv",
           "write_trajectory_csv", "profile_descriptor"]


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
        for row in rows:
            f.write(",".join(_fmt(x) for x in row) + "\n")


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


def profile_descriptor(profile: RadialProfile, provenance: dict | None = None) -> dict:
    return {"grid": profile.grid.descriptor(),
            "complex": bool(profile.is_complex),
            "interpolation_order": 3,  # profiles interpolate by cubic splines
            "provenance": provenance or {}}


def write_profile_csv(path: str, profile: RadialProfile,
                      header: dict | None = None) -> None:
    vals = profile.values
    rows = zip(profile.grid.nodes,
               np.real(vals),
               np.imag(vals) if profile.is_complex else np.zeros_like(np.real(vals)))
    write_csv(path, ["r", "value_re", "value_im"], rows, header=header)


def write_fields_csv(path: str, fields, header: dict | None = None) -> None:
    """Snapshot columns: r, a0_re, a0_im, phi0, V_P, a1_re, a1_im, phi1."""
    r = fields.grid.nodes
    a0 = fields.a0.values.astype(complex)
    z = np.zeros_like(r)
    a1 = fields.a1.values.astype(complex) if fields.a1 is not None else z.astype(complex)
    p1 = fields.phi1.values if fields.phi1 is not None else z
    rows = zip(r, a0.real, a0.imag, fields.phi0.values, fields.V_P.values,
               a1.real, a1.imag, p1)
    write_csv(path, ["r", "a0_re", "a0_im", "phi0", "V_P", "a1_re", "a1_im", "phi1"],
              rows, header=header)


def write_trajectory_csv(path: str, traj, header: dict | None = None) -> None:
    rows = zip(traj.t, traj.X, traj.Xdot, traj.B)
    write_csv(path, ["t", "X", "Xdot", "B"], rows, header=header)
