"""The four benchmark workloads: inputs drawn from a seed, set-up, one
operation, and the check of its output.

Seed 0 reproduces the acceptance configurations of ``tests/test_acceptance.py``
exactly; any other seed draws the varied parameter from a band on which the
acceptance bounds were verified to hold (chirp in [0.75, 1.25] for the WKB
order, amplitude scale in [0.5, 2] for the decay exponents).

Every workload calls the package's public functions through their module
attributes (``harness.converge``, ...), so a traced run sees the calls through
the wrappers it installs.
"""

from __future__ import annotations

import math
import os
import re
from collections import Counter

import numpy as np

import semiwkb.euler_poisson as ep
import semiwkb.harness as harness
import semiwkb.io as sio
import semiwkb.profiles as profiles
from semiwkb.grids import RadialGrid, RadialProfile

ACCEPTANCE_CLASSIFY_SEED = 715225
CHIRP_BAND = (0.75, 1.25)
AMPLITUDE_BAND = (0.5, 2.0)


def _rng(seed: int):
    return None if seed == 0 else np.random.default_rng(abs(seed))


class Workload:
    """One benchmark scenario.

    ``inputs`` is plain data made from the seed alone; ``setup`` turns it into
    the objects an operation needs; ``op(state, i)`` runs operation ``i`` and
    returns what ``check`` judges.
    """

    name = ""

    def inputs(self, seed: int, smoke: bool = False) -> dict:
        raise NotImplementedError

    def setup(self, inputs: dict, out_dir: str):
        raise NotImplementedError

    def op(self, state, i: int):
        raise NotImplementedError

    def check(self, state, result) -> tuple[bool, dict]:
        """(passed, fingerprint) for one operation's output."""
        raise NotImplementedError


class Converge(Workload):
    """``harness.converge`` at the acceptance 7/8 configuration."""

    name = "converge"

    def inputs(self, seed, smoke=False):
        rng = _rng(seed)
        chirp = 1.0 if rng is None else float(rng.uniform(*CHIRP_BAND))
        if smoke:
            return {"chirp": chirp, "points": 1024, "solver_points": 1023,
                    "corrector_points": 257, "eps_ladder": [0.5, 0.25, 0.125],
                    "t_end": 0.1}
        return {"chirp": chirp, "points": 8192, "solver_points": 8192,
                "corrector_points": 2049,
                "eps_ladder": [1 / 8, 1 / 16, 1 / 32, 1 / 64], "t_end": 0.5}

    def setup(self, inputs, out_dir):
        data_cfg = harness.DataConfig(chirp=inputs["chirp"],
                                      points=inputs["points"])
        cfg = harness.ExperimentConfig(
            scenario="converge", data=data_cfg,
            eps_ladder=tuple(inputs["eps_ladder"]), t_end=inputs["t_end"],
            solver_points=inputs["solver_points"],
            corrector_points=inputs["corrector_points"], out_dir=out_dir)
        harness.build_data(data_cfg)
        RadialGrid(data_cfg.r_max, cfg.solver_points, include_origin=False)
        RadialGrid(data_cfg.r_max, cfg.corrector_points)
        return cfg

    def op(self, cfg, i):
        return harness.converge(cfg)

    def check(self, cfg, report):
        orders = (report.fitted_order_modulus, report.fitted_order_full)
        ok = all(0.8 <= o <= 1.2 for o in orders)
        return ok, {
            "order_modulus": report.fitted_order_modulus,
            "order_full": report.fitted_order_full,
            "excluded_eps": report.excluded_eps,
            "rows": [{k: row[k] for k in ("eps", "err_modulus", "err_full",
                                          "runtime_s")}
                     for row in report.rows]}


class Wave(Workload):
    """``harness.schrodinger_run`` at eps = 1/128 on 16383 nodes with about a
    hundred observation times; 2(M+1) = 32768 is a fast transform length."""

    name = "wave"

    def inputs(self, seed, smoke=False):
        rng = _rng(seed)
        chirp = 1.0 if rng is None else float(rng.uniform(*CHIRP_BAND))
        if smoke:
            eps, points, t_end, count = 0.125, 1023, 0.05, 10
        else:
            eps, points, t_end, count = 1 / 128, 16383, 0.5, 100
        spacing = t_end / count
        times = spacing * np.arange(1, count + 1)
        if rng is not None:
            # jitter interior observation times by up to 0.4 of their spacing
            times[:-1] += spacing * rng.uniform(-0.4, 0.4, count - 1)
        return {"chirp": chirp, "eps": eps, "solver_points": points,
                "t_end": t_end, "times": [float(t) for t in times]}

    def setup(self, inputs, out_dir):
        data_cfg = harness.DataConfig(chirp=inputs["chirp"])
        cfg = harness.ExperimentConfig(
            scenario="schrodinger-run", data=data_cfg,
            eps_ladder=(inputs["eps"],), t_end=inputs["t_end"],
            solver_points=inputs["solver_points"],
            times=tuple(inputs["times"]), out_dir=out_dir)
        harness.build_data(data_cfg)
        RadialGrid(data_cfg.r_max, cfg.solver_points, include_origin=False)
        return cfg

    def op(self, cfg, i):
        return harness.schrodinger_run(cfg)

    def check(self, cfg, out):
        mass = np.array([ob["mass"] for ob in out["observables"]])
        drift = float(np.max(np.abs(mass - mass[0])) / mass[0])
        energy = np.array([ob["energy"] for ob in out["observables"]])
        ok = drift <= 1e-10 and not out["truncation_warnings"]
        return ok, {"mass_drift": drift, "mass": float(mass[-1]),
                    "energy": float(energy[-1]),
                    "observations": len(mass),
                    "truncation_warnings": len(out["truncation_warnings"])}


class Decay(Workload):
    """``harness.decay_study`` at the acceptance 9 configuration."""

    name = "decay"

    def inputs(self, seed, smoke=False):
        rng = _rng(seed)
        alpha = 1.0 if rng is None else float(
            math.exp(rng.uniform(*np.log(AMPLITUDE_BAND))))
        if smoke:
            return {"amplitude_scale": alpha, "points": 1024,
                    "t_tail": [100.0, 10000.0, 9]}
        return {"amplitude_scale": alpha, "points": 8192,
                "t_tail": [100.0, 10000.0, 13]}

    def setup(self, inputs, out_dir):
        data_cfg = harness.DataConfig(family="smooth_ball",
                                      points=inputs["points"],
                                      amplitude_scale=inputs["amplitude_scale"])
        cfg = harness.ExperimentConfig(scenario="decay-study", data=data_cfg,
                                       t_tail=tuple(inputs["t_tail"]),
                                       out_dir=out_dir)
        harness.build_data(data_cfg)
        return cfg

    def op(self, cfg, i):
        return harness.decay_study(cfg)

    def check(self, cfg, rep):
        fits = {k: v["exponent"] for k, v in rep["fits"].items()}
        ok = (abs(fits["X_at_1"] - 2.0 / 3.0) <= 0.02
              and abs(fits["sup_v"] + 1.0 / 3.0) <= 0.02
              and abs(fits["l2_a0"]) <= 0.01
              and rep["grad_phi0_lp_strictly_decreasing"])
        return ok, {"exponents": fits}


# -- classify: the acceptance-3 instance batch ---------------------------------

def _instance_specs(rng) -> list:
    """The 100 (kind, n, parameter, expected verdict) instances of acceptance 3,
    drawn in the same order from ``rng``."""
    specs = []

    def add(kind, n, value, expected):
        specs.append({"kind": kind, "n": int(n), "value": float(value),
                      "expected": expected})

    for i in range(20):
        add("compatible", 3 if i % 2 == 0 else 4, rng.uniform(0.5, 2.0), ep.GLOBAL)
    for i in range(16):
        add("scaled_velocity", 3 if i % 2 == 0 else 4, rng.uniform(0.3, 0.85),
            ep.FINITE_TIME_BLOWUP)
    for i in range(16):
        add("scaled_velocity", 3 if i % 2 == 0 else 4, rng.uniform(1.25, 2.0),
            ep.FINITE_TIME_BLOWUP)
    for _ in range(8):
        add("scaled_velocity", 3, -rng.uniform(0.2, 1.0), ep.FINITE_TIME_BLOWUP)
    for i in range(12):
        add("low_dimension", 1 if i % 2 == 0 else 2, rng.uniform(0.5, 1.5),
            ep.FINITE_TIME_BLOWUP)
    for _ in range(6):
        n = rng.choice([1, 2, 3])
        add("vacuum_rising", n, rng.uniform(0.2, 1.0), ep.GLOBAL)
    for _ in range(6):
        n = rng.choice([1, 2, 3])
        add("vacuum_humped", n, rng.uniform(0.3, 1.0), ep.FINITE_TIME_BLOWUP)
    for _ in range(10):
        add("repulsive", 3, rng.uniform(0.5, 1.5), ep.NECESSARY_CONDITION_VIOLATED)
    for _ in range(6):
        add("repulsive_rising", 3, rng.uniform(0.2, 1.0), ep.UNDETERMINED)
    return specs


def _build_instance(spec: dict, grid: RadialGrid):
    kind, n, value = spec["kind"], spec["n"], spec["value"]
    r = grid.nodes
    if kind == "compatible":
        return profiles.smooth_ball_data(n=n, grid=grid, scale=value)
    if kind == "scaled_velocity":
        return profiles.smooth_ball_data(n=n, grid=grid, velocity_scale=value)
    if kind == "low_dimension":
        return profiles.ball_data(n=n, lam=-1.0, velocity="zero", grid=grid,
                                  density=value ** 2)
    if kind in ("vacuum_rising", "repulsive_rising"):
        rising = RadialProfile(grid, value * (1.0 - np.exp(-r ** 2)))
        lam = 1.0 if kind == "repulsive_rising" else (-1.0 if n <= 2 else 0.0)
        return profiles.free_data(rising, n, lam=lam)
    if kind == "vacuum_humped":
        humped = RadialProfile(grid, value * r * np.exp(-r ** 2 / 2.0))
        return profiles.free_data(humped, n, lam=-1.0 if n <= 2 else 0.0)
    if kind == "repulsive":
        base = profiles.smooth_ball_data(n=3, grid=grid, velocity_scale=value)
        rho = RadialProfile(grid, np.abs(base.amplitude.values) ** 2)
        return profiles.InitialData(
            n=3, lam=1.0, amplitude=base.amplitude, phase=base.phase,
            velocity=base.velocity, mass=base.mass,
            threshold=profiles.critical_threshold(rho, base.velocity, 1.0, 3),
            kappa=None, delta=None, compatible=False,
            m_infinity=base.m_infinity, tail_coeff=base.tail_coeff, exact=None)
    raise ValueError(f"unknown instance kind {kind!r}")


def brute_force_confirms(data, verdict, t_max: float = 1000.0) -> bool:
    """Event detection along characteristics agrees with the verdict; the
    same rule as acceptance 3 (lam > 0 is checked one way only)."""
    if verdict.kind == ep.UNDETERMINED:
        return True
    if verdict.kind == ep.GLOBAL:
        for R in (0.3, 0.7, 1.2, 2.0, 4.0):
            traj = ep.integrate_characteristics(data, R, t_max, tol=1e-8)
            if traj.event_time is not None or traj.X[-1] < 3.0 * R:
                return False
        return True
    m = re.search(r"at r = ([0-9.eE+-]+)", verdict.certificate)
    labels = ([float(m.group(1))] if m else []) + [0.5, 1.0, 1.5]
    for R in labels:
        if R <= 0:
            continue
        traj = ep.integrate_characteristics(data, R, t_max, tol=1e-8)
        if traj.event_time is not None:
            return True
    return False


class Classify(Workload):
    """The seeded 100-instance batch of acceptance 3.  One operation runs the
    batch: for each instance it builds the data, classifies it with the
    witness on, confirms the verdict by brute-force integration and writes the
    hash-stamped verdict."""

    name = "classify"

    def inputs(self, seed, smoke=False):
        rng = np.random.default_rng(ACCEPTANCE_CLASSIFY_SEED if seed == 0
                                    else [ACCEPTANCE_CLASSIFY_SEED, abs(seed)])
        return {"grid_points": 256 if smoke else 1024, "r_max": 20.0,
                "instances": _instance_specs(rng)}

    def setup(self, inputs, out_dir):
        grid = RadialGrid(inputs["r_max"], inputs["grid_points"])
        return {"grid": grid, "instances": inputs["instances"],
                "out_dir": out_dir}

    def op(self, state, i):
        results = []
        for k, spec in enumerate(state["instances"]):
            data = _build_instance(spec, state["grid"])
            verdict = ep.classify(data, witness=True)
            confirmed = brute_force_confirms(data, verdict)
            sio.write_json(os.path.join(state["out_dir"], f"verdict_{k:03d}.json"),
                           {"instance": spec, "verdict": verdict.as_dict(),
                            "confirmed": confirmed,
                            "data_hash": data.content_hash()})
            results.append((spec, verdict, confirmed))
        return results

    def check(self, state, results):
        wrong = [k for k, (spec, verdict, confirmed) in enumerate(results)
                 if verdict.kind != spec["expected"] or not confirmed]
        return not wrong, {
            "kinds": dict(Counter(v.kind for _, v, _ in results)),
            "witnessed_t_c": [v.t_c for _, v, _ in results if v.t_c is not None],
            "wrong": wrong}


WORKLOADS = {w.name: w for w in (Converge(), Wave(), Decay(), Classify())}
