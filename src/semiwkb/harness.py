"""Experiment orchestration: configuration, convergence studies, classifier
sweeps, decay fits, and report emission."""

from __future__ import annotations

import dataclasses
import enum
import math
import os
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import io as sio
from .errors import (ConfigError, ParameterError, ResolutionError,
                     StepRejectionError)
from .euler_poisson import (GLOBAL, classify, eulerian_fields,
                            integrate_characteristics, label_flow)
from .grids import RadialGrid, RadialProfile, sample_times, whole_steps
from .norms import (FIT_MIN_SAMPLES, FIT_MIN_SPAN, decay_fit, lp_norm,
                    norm_diagnostics, sphere_area)
from .profiles import (InitialData, ball_data, gaussian_free_data,
                       sample_data, smooth_ball_data)
from .schrodinger import dst, fast_points, required_points, run, spectral_tail
from .wkb import WkbFields, first_corrector, leading_amplitude, leading_order

__all__ = ["DataConfig", "ExperimentConfig", "ConvergenceReport", "FAMILIES",
           "build_data", "rung_points", "rung_step", "split_mesh_error",
           "split_march", "converge", "classify_sweep", "decay_study",
           "evolve_ep", "wkb_eval", "schrodinger_run", "run_scenario",
           "SCENARIOS", "SPLIT_TOL", "TAIL_TOL", "NORM_P", "UNREAD"]

# Bound on each converge rung's splitting-error estimate relative to the
# smaller of its two WKB errors.  A relative move of at most delta in every
# error moves each log error by at most about delta, and the least-squares
# slope, sum_i w_i log e_i with w_i = (x_i - mean x) / sum_j (x_j - mean x)^2
# and x = log eps, by at most delta * sum_i |w_i|: 1/log 2 = 1.44 on 3 rungs
# of a halving ladder and 0.8/log 2 = 1.15 on 4.  At 1e-2 each fitted order
# stays within 0.015 of the exact march's.  Measured at T = 0.5 on the
# ladder 1/8 .. 1/64 with fine steps of eps/2.5: 3.9e-3 to 4.3e-3 for chirp
# 1, and at most 5.5e-3 for chirps 0.75 and 1.25.  schrodinger-run has no
# WKB error to compare against and takes the same fraction of eps ||u0||,
# the scale of the paper's O(eps) bound: at its default step the estimate
# reads 1.99e-3 to 2.09e-3 of it for chirps 0.75 to 1.25 at eps = 1/32 and
# 1/128 (2429 and 9719 nodes), T = 0.5.
SPLIT_TOL = 1e-2
# Bound on the spectral tail of a march's final state (``spectral_tail``).
# The tail tracks the spatial error: at eps = 1/8, T = 0.5 it reads 1.9e-8,
# 2.9e-4, 3.8e-3 and 4.5e-2 at 16, 8, 6 and 4 points per wavelength, against
# errors of 3.4e-6, 2.9e-4, 4.9e-3 and 9.0e-2 on a 17,279-node reference.
# Rungs sized for TAIL_TOL/10 end at most at 1.2e-7 on the ladder 1/8 .. 1/64
# for chirps 0.75 to 1.25, and at most at 9.1e-7 on the smaller test ladders.
TAIL_TOL = 1e-5
# v0 ~ r^(1-n/2): decay-study's L^p of grad phi0 needs p > 2n/(n-2), n >= 3
NORM_P = 8.0


def _number(x, kind: str):
    """x as an int or a float (``kind``), or None when it is not one: bools
    and strings are not, nor floats where an int is due; numpy scalars are."""
    whole = isinstance(x, (int, np.integer)) and not isinstance(x, bool)
    if whole or (kind == "float" and isinstance(x, (float, np.floating))):
        return int(x) if kind == "int" else float(x)
    return None


def _canonicalize(config, where: str, fields) -> None:
    """The one type pass of both config classes, over ``fields``.

    Each field is checked against its annotation and stored in one form:
    ints as int, floats as float, and tuple fields, from a list or a tuple,
    as tuples of floats, with t_tail's whole count as an int.  Equal
    experiments so compare and hash alike.  NaN and +-inf (json.load reads
    both) fail."""
    for f in fields:
        name, value = f.name, getattr(config, f.name)
        kept, kind = value, f.type.removesuffix(" | None")
        if value is None and kind != f.type:
            continue
        if kind == "tuple":
            kept = (tuple(_number(x, "float") for x in value)
                    if isinstance(value, (list, tuple)) else (None,))
        elif kind in ("int", "float"):
            kept = _number(value, kind)
        elif not isinstance(value, str if kind == "str" else DataConfig):
            kept = None
        for x in kept if kind == "tuple" else (kept,):
            if x is None:
                raise ConfigError(f"{where} key {name!r} has the wrong "
                                  f"type: {value!r}")
            if isinstance(x, float) and not math.isfinite(x):
                raise ConfigError(f"{where} key {name!r} must be finite: "
                                  f"{value!r}")
        if name == "t_tail" and len(kept) == 3 and kept[2].is_integer():
            kept = (*kept[:2], int(kept[2]))
        object.__setattr__(config, name, kept)


def _name_token(x: float) -> str:
    """x as output file names carry it (``fields_t0.5.csv``): six
    significant digits."""
    return f"{x:g}"


def _name_clash(values, key: str) -> str | None:
    """Why two distinct ``values`` would write one file name, or None."""
    named = {}
    for x in values:
        if (other := named.setdefault(_name_token(x), x)) != x:
            return (f"{key} {other!r} and {x!r} would write to one file "
                    f"name ({_name_token(x)})")
    return None


def rung_step(eps: float, t_end: float) -> float:
    """Default Strang step T/(2n), with n = ceil(1.25 T/eps) (rounded instead
    when 1.25 T/eps is a ``grids.whole_steps`` count), so that a fine march
    of 2n steps and a coarse one of n steps of T/n both land on t_end with no
    remainder; where 1.25 T/eps is an integer the step is eps/2.5.

    With dt proportional to eps the splitting error of the semiclassical
    march is itself O(eps) (Bao, Jin and Markowich, J. Comput. Phys. 175,
    2002), the order of the WKB error it sits under."""
    n = whole_steps(1.25 * t_end, eps) or math.ceil(1.25 * t_end / eps)
    return t_end / (2 * n)


def split_mesh_error(t_end: float, dt: float) -> str | None:
    """Why ``split_march`` cannot take the step dt to t_end, or None.

    Off the mesh of 2 dt the coarse march ends on a remainder step and
    ||u(dt) - u(2 dt)||/3 reads low (0.87 of the true error at dt = 0.05,
    t_end = 0.25); at dt >= t_end it reads 0.  The check is O(1) arithmetic
    (``grids.whole_steps``): it builds no mesh."""
    if whole_steps(t_end, 2.0 * dt):
        return None
    return (f"dt = {dt:g} puts the coarse march of 2 dt off the mesh of "
            f"t_end = {t_end:g} (t_end/(2 dt) = {t_end / (2.0 * dt):.6g}), "
            f"which leaves the splitting-error estimate biased or blind: "
            f"take dt = t_end/(2k) for a positive integer k")


class _Key(enum.Enum):
    UNREAD = "unread"   # a key its scenario or data family does not read


UNREAD = _Key.UNREAD


def _key(default):
    """A key some scenarios or data families read.  Unset, it holds UNREAD
    until ``_settle`` gives it its owner's default, or else ``default``."""
    return field(default=UNREAD, metadata={"default": default})


class Owner(NamedTuple):
    """A scenario or a data family: what it runs, and the keys it reads."""
    run: Callable       # a scenario's runner, a family's data builder
    reads: tuple        # the keys it reads; it refuses every other key
    rules: tuple = ()   # its rules beyond each key's own (_KEY_RULES)
    defaults: dict = {}  # its own defaults, where they differ from a key's
    sweeps: tuple = ()  # data keys a scenario sets itself and does not read
    summary: Callable = None  # a scenario's one-line report of its result


_SCALES = ("n", "lam", "amplitude_scale", "velocity_scale")
FAMILIES = {
    "smooth_ball": Owner(
        lambda c, grid: smooth_ball_data(
            n=c.n, lam=c.lam, grid=grid, scale=c.amplitude_scale,
            chirp=c.chirp, velocity_scale=c.velocity_scale),
        (*_SCALES, "chirp", "r_max", "points")),
    "sample": Owner(
        lambda c, grid: sample_data(
            c.kappa, c.delta, n=c.n, lam=c.lam, grid=grid,
            scale=c.amplitude_scale, velocity_scale=c.velocity_scale),
        (*_SCALES, "kappa", "delta", "r_max", "points")),
    "ball": Owner(
        lambda c, grid: ball_data(
            n=c.n, lam=c.lam, grid=grid, velocity_scale=c.velocity_scale,
            velocity="compatible" if c.lam < 0 and c.n >= 3 else "zero",
            density=c.amplitude_scale ** 2),
        (*_SCALES, "r_max", "points")),
    "gaussian_free": Owner(
        lambda c, grid: gaussian_free_data(grid=grid, n=c.n,
                                           scale=c.amplitude_scale),
        ("n", "lam", "amplitude_scale", "r_max", "points"),
        (lambda c: c.lam != 0.0
         and "the gaussian_free family is uncoupled (lam = 0)",),
        {"lam": 0.0}),
}
# The rules of each experiment key, in every scenario that reads it.  A rule
# returns why a config breaks it, or a false value.
_KEY_RULES = {
    "eps_ladder": lambda c: not (
        c.eps_ladder and 0.0 < c.eps_ladder[-1] and c.eps_ladder[0] <= 1.0
        and all(b < a for a, b in zip(c.eps_ladder, c.eps_ladder[1:])))
    and "eps ladder must be strictly decreasing, in (0, 1], and not empty",
    "t_end": lambda c: c.t_end <= 0 and "t_end must be positive",
    "dt": lambda c: c.dt is not None and (
        c.dt <= 0 and "dt must be positive"
        or split_mesh_error(c.t_end, c.dt)),
    "solver_points": lambda c: c.solver_points < 16
    and "solver_points must be >= 16",
    "corrector_points": lambda c: c.corrector_points < 16
    and "corrector_points must be >= 16",
    # decay-study, which reads t_tail, fits every series over its times:
    # hold them to the fits' floor before any data is built
    "t_tail": lambda c: not (
        len(c.t_tail) == 3 and isinstance(c.t_tail[2], int) and 0 < c.t_tail[0]
        and c.t_tail[1] >= FIT_MIN_SPAN * c.t_tail[0]
        and c.t_tail[2] >= FIT_MIN_SAMPLES)
    and f"t_tail must be (t_min, t_max, count) with 0 < t_min, t_max/t_min "
        f">= {FIT_MIN_SPAN:g} and a whole count >= {FIT_MIN_SAMPLES}",
    "times": lambda c: min(c.times, default=0.0) < 0.0
    and f"time {min(c.times):g} is negative: times must be >= 0",
}


def _settle(config, where: str, kind: str, owners: dict) -> Owner:
    """The one pass of both config classes, however they were built: each
    key the owner ``owners[config.<kind>]`` reads takes the owner's default,
    else the key's, where unset; any other key set is refused; and the keys
    it reads take the type pass (``_canonicalize``), their rules and the
    owner's."""
    fields = dataclasses.fields(config)
    _canonicalize(config, where, [f for f in fields if f.default is not UNREAD])
    if (name := getattr(config, kind)) not in owners:
        raise ConfigError(f"unknown {kind} {name!r}; expected one of "
                          f"{tuple(owners)}")
    owner = owners[name]
    for f in fields:
        value = getattr(config, f.name)
        if f.name in owner.reads:
            if value is UNREAD:
                object.__setattr__(config, f.name, owner.defaults.get(
                    f.name, f.metadata["default"]))
        elif f.default is UNREAD and value is not UNREAD:
            raise ConfigError(f"{kind} {name!r} does not read {where} key "
                              f"{f.name!r}: {value!r}")
    _canonicalize(config, where, [f for f in fields if f.name in owner.reads])
    for rule in [*(_KEY_RULES[k] for k in owner.reads if k in _KEY_RULES),
                 *owner.rules]:
        if why := rule(config):
            raise ConfigError(why)
    return owner


@dataclass(frozen=True)
class DataConfig:
    """Initial data of a family (``FAMILIES``); each key the family reads
    takes the family's default, else the key's, where unset."""
    family: str = "smooth_ball"
    n: int = _key(3)
    lam: float = _key(-1.0)
    amplitude_scale: float = _key(1.0)
    velocity_scale: float = _key(1.0)
    chirp: float = _key(0.0)
    kappa: float = _key(3.0)
    delta: float = _key(0.25)
    r_max: float = _key(40.0)
    points: int = _key(8192)

    def __post_init__(self):
        _settle(self, "data", "family", FAMILIES)


@dataclass(frozen=True)
class ExperimentConfig:
    """One run of a scenario (``SCENARIOS``); each key the scenario reads
    takes the scenario's default, else the key's, where unset."""
    scenario: str
    data: DataConfig = field(default_factory=DataConfig)
    eps_ladder: tuple = _key((0.125, 0.0625, 0.03125, 0.015625))
    t_end: float = _key(0.5)
    dt: float | None = _key(None)
    solver_points: int = _key(8191)
    corrector_points: int = _key(2049)
    times: tuple = _key((0.5, 1.0, 5.0))
    labels: tuple = _key((0.5, 1.0, 2.0))
    velocity_scales: tuple = _key((0.9, 1.0, 1.1))
    amplitude_scales: tuple = _key((0.1, 1.0, 10.0))
    t_tail: tuple = _key((100.0, 10000.0, 13))
    out_dir: str | None = None

    def __post_init__(self):
        swept = _settle(self, "config", "scenario", SCENARIOS).sweeps
        # a swept key is refused set away from its family's default
        unset = dict.fromkeys(swept, UNREAD)
        if not set(swept) <= set(FAMILIES[self.data.family].reads) or (
                dataclasses.replace(self.data, **unset) != self.data):
            raise ConfigError(f"{self.scenario} sweeps data keys {swept}: "
                              f"leave them unset, in a family that reads them")

    @classmethod
    def from_json(cls, payload: dict, scenario: str | None = None
                  ) -> "ExperimentConfig":
        if not isinstance(payload, dict):
            raise ConfigError("configuration must be a JSON object")
        payload = dict(payload)
        named = payload.pop("scenario", None)
        scenario = named if scenario is None else scenario
        if named not in (None, scenario):
            raise ConfigError(f"config names scenario {named!r} but "
                              f"{scenario!r} was requested")
        if scenario is None:
            raise ConfigError("no scenario given")
        data_payload = payload.pop("data", {})
        if not isinstance(data_payload, dict):
            raise ConfigError(f"config key 'data' has the wrong type: "
                              f"{data_payload!r} (a JSON object is due)")
        for where, keys, known in (("data", data_payload, DataConfig),
                                   ("config", payload, cls)):
            names = {f.name for f in dataclasses.fields(known)}
            if extra := set(keys) - names:
                raise ConfigError(f"unknown keys in {where}: {sorted(extra)}")
        return cls(scenario=scenario, data=DataConfig(**data_payload),
                   **payload)

    def hash(self) -> str:
        """Digest of the scenario, the data family and the keys they read;
        no other key, nor out_dir, enters it."""
        owner, family = SCENARIOS[self.scenario], FAMILIES[self.data.family]
        return sio.config_hash({
            "scenario": self.scenario,
            **{k: getattr(self, k) for k in owner.reads},
            "data": {"family": self.data.family,
                     **{k: getattr(self.data, k) for k in family.reads
                        if k not in owner.sweeps}}})


def _write(config: ExperimentConfig, name: str, payload, columns=None,
           **header) -> None:
    """Write one output file of a scenario into ``config.out_dir``: CSV rows
    under a config-hash header when ``columns`` is given, else JSON Lines
    for ``*.jsonl`` names and JSON otherwise."""
    path = os.path.join(config.out_dir, name)
    if columns is not None:
        sio.write_csv(path, columns, payload,
                      header={"config_hash": config.hash(), **header})
    elif name.endswith(".jsonl"):
        sio.write_jsonl(path, payload)
    else:
        sio.write_json(path, payload)


@dataclass(frozen=True)
class ConvergenceReport:
    rows: list
    fitted_order_modulus: float
    fitted_order_full: float
    excluded_eps: list
    config_hash: str
    split_ratio: float      # worst split_error / min(err_modulus, err_full)
    spectral_tail: float    # worst final spectral tail over the rungs


def truncated_mass_fraction(data: InitialData) -> float:
    """Estimated mass beyond the grid edge, from the local tail exponent."""
    r = data.grid.nodes
    rho = data.rho0_at(r)
    if data.m_infinity == 0.0 or rho[-1] <= 1e-100 * data.m_infinity:
        return 0.0
    i = np.searchsorted(r, 0.8 * r[-1])
    seg_r, seg_rho = r[i:], rho[i:]
    good = seg_rho > 0
    if good.sum() < 4:
        return 0.0
    p = np.polyfit(np.log(seg_r[good]), np.log(seg_rho[good]), 1)[0]
    if p >= -(data.n + 1e-9):
        return 1.0        # non-integrable local slope: all bets off
    tail = rho[-1] * r[-1] ** data.n / (-p - data.n)
    return float(tail / (data.m_infinity + tail))


def build_data(cfg: DataConfig) -> InitialData:
    grid = RadialGrid(cfg.r_max, cfg.points)
    data = FAMILIES[cfg.family].run(cfg, grid)
    fraction = truncated_mass_fraction(data)
    if fraction > 1e-4:
        warnings.warn(
            f"grid truncates an estimated {fraction:.3g} of the total mass "
            f"(r_max = {cfg.r_max}); results describe the truncated data",
            RuntimeWarning)
    return data


def _weighted_l2(delta: np.ndarray, r: np.ndarray, dr: float, n: int) -> float:
    return float(np.sqrt(sphere_area(n) * np.sum(np.abs(delta) ** 2
                                                 * r ** (n - 1)) * dr))


def fit_order(eps: np.ndarray, errs: np.ndarray) -> tuple[float, list]:
    """Log-log LS slope with the pre-asymptotic guard on the largest eps.

    The largest-eps row is dropped (and recorded) when it sits more than
    three residual RMS off the line fitted through the remaining rows; an
    endpoint has too much leverage for its own full-fit residual to detect
    this.
    """
    le, lv = np.log(eps), np.log(errs)

    def fit(le_, lv_):
        A = np.vstack([le_, np.ones_like(le_)]).T
        coef, *_ = np.linalg.lstsq(A, lv_, rcond=None)
        return coef, lv_ - A @ coef

    coef, _ = fit(le, lv)
    if len(eps) > 3:
        i_big = int(np.argmax(eps))
        keep = np.arange(len(eps)) != i_big
        coef_sub, resid_sub = fit(le[keep], lv[keep])
        rms = max(float(np.sqrt(np.mean(resid_sub ** 2))), 1e-12)
        deviation = abs(lv[i_big] - (coef_sub[0] * le[i_big] + coef_sub[1]))
        if deviation > 3.0 * rms:
            return float(coef_sub[0]), [float(eps[i_big])]
    return float(coef[0]), []


def rung_points(data: InitialData, config: ExperimentConfig) -> list:
    """Wave node count of each rung of ``config.eps_ladder``.

    Rung k runs on the smallest count whose DST length 2(M_k+1) is fast and
    that is at least both ``required_points`` at eps_k, the count its phase
    needs, and the spectral count of u0 = A0 exp(i Phi0/eps_k): one past
    the last M whose top tenth of the first M DST modes of r u0 holds at
    least TAIL_TOL/10 of their root energy (``spectral_tail``), read off one
    spectrum on the cap grid.  The cap is ``fast_points(solver_points)``: a
    rung capped below its phase's count fails ``initial_wavefield``'s
    resolution check, and one capped below its spectral count alone runs on
    the cap and is left to ``split_march``'s tail gate.  The spectral count
    keeps data at rest, whose ``required_points`` is only the grid floor,
    off that floor."""
    cap = fast_points(config.solver_points)
    r = RadialGrid(config.data.r_max, cap, include_origin=False).nodes
    ra0, phi0 = r * data.amplitude_at(r), data.phi0_at(r)
    counts = []
    for eps in config.eps_ladder:
        tails = spectral_tail(dst(ra0 * np.exp(1j * phi0 / eps)))
        spectral = 2 + int(np.max(np.flatnonzero(tails >= TAIL_TOL / 10),
                                  initial=-1))
        phase = required_points(data, eps, config.data.r_max)
        counts.append(min(cap, fast_points(max(phase, spectral))))
    return counts


def split_march(data: InitialData, eps: float, t_end: float,
                dt: float | None, grid: RadialGrid, scale,
                observable_times=None) -> tuple:
    """Strang march to t_end at dt (``rung_step`` when None) with its
    splitting-error estimate, gated twice.

    A second, coarse march at 2 dt keeps only its final snapshot; Strang
    being second order in time, ||u(dt) - u(2 dt)||/3 in the weighted L2
    norm estimates the fine march's splitting error (Descombes and
    Thalhammer, BIT 50, 2010).  A dt off the mesh of 2 dt raises
    ParameterError before either march (``split_mesh_error``); the default
    step is on it by construction.

    ``scale(fine)`` gives the estimate's reference scale and its name.  An
    estimate above ``SPLIT_TOL`` of it raises StepRejectionError; past that,
    a fine march whose final ``spectral_tail`` exceeds ``TAIL_TOL`` raises
    ResolutionError.  Returns the fine march's ``RunResult``, with a
    snapshot at t_end and observables at ``observable_times``, and the
    estimate."""
    dt = rung_step(eps, t_end) if dt is None else dt
    if why := split_mesh_error(t_end, dt):
        raise ParameterError(why)
    fine = run(data, eps, t_end, dt=dt, grid=grid,
               observable_times=observable_times, snapshot_times=[t_end])
    coarse = run(data, eps, t_end, dt=2.0 * dt, grid=grid,
                 observable_times=[], snapshot_times=[t_end])
    delta = fine.snapshots[-1].values - coarse.snapshots[-1].values
    split = _weighted_l2(delta, grid.nodes, grid.dr, data.n) / 3.0
    ref, what = scale(fine)
    if split > SPLIT_TOL * ref:
        raise StepRejectionError(
            f"splitting-error estimate {split:.3e} at eps = {eps:g} exceeds "
            f"{SPLIT_TOL:g} of {what} ({ref:.3e}): take a smaller dt than "
            f"{dt:g}")
    tail = fine.header["spectral_tail"]
    if tail > TAIL_TOL:
        raise ResolutionError(
            f"spectral tail {tail:.3e} of u({t_end:g}) at eps = {eps:g} on "
            f"{grid.points} nodes exceeds {TAIL_TOL:g}: the grid does not "
            f"resolve the march.  A wave grid is the smaller of its cap, "
            f"solver_points rounded up to a fast count, and the count that "
            f"the phase and the spectrum of u0 give: raise solver_points if "
            f"{grid.points} is that cap")
    return fine, split


def converge(config: ExperimentConfig) -> ConvergenceReport:
    """epsilon-ladder WKB error study at t_end.

    For each epsilon: prepare the wavefield, march to t_end, and measure the
    modulus error || |u| - |a0| ||_L2 and the full error
    || u e^{-i phi0/eps} - a0 e^{i phi1} ||_L2 against the leading order plus
    first corrector; then fit log-log orders.

    Every rung runs on the fast grid ``rung_points`` gives it, the count its
    own phase and spectrum need, capped at ``solver_points`` rounded up to a
    fast count.  a0, phi0 and phi1 are evaluated once per distinct grid, and
    every row records its ``points``.

    Each rung marches through ``split_march``, at its step dt (``rung_step``,
    or ``config.dt`` when given) and at 2 dt; the fine march is the answer,
    and ||u(dt) - u(2 dt)||/3 estimates its splitting error
    (``split_error``).  A rung whose estimate exceeds ``SPLIT_TOL`` of the
    smaller of its two WKB errors raises StepRejectionError (exit 1), and
    one whose final ``spectral_tail`` exceeds ``TAIL_TOL`` raises
    ResolutionError (exit 3), before anything is written.
    """
    T = config.t_end
    data = build_data(config.data)
    counts = rung_points(data, config)
    corr = first_corrector(data, T,
                           grid=RadialGrid(config.data.r_max,
                                           config.corrector_points))
    _, p1T = corr.at_final()

    def reference(m: int) -> tuple:
        """The rung grid on m nodes with a0, phi0 and beta0 = a0 e^{i phi1}
        at t_end on it."""
        wgrid = RadialGrid(config.data.r_max, m, include_origin=False)
        fields = leading_order(data, T, wgrid)
        a0T = fields.a0.values
        return (wgrid, a0T, fields.phi0.values,
                a0T * np.exp(1j * p1T(wgrid.nodes)))

    refs = {m: reference(m) for m in set(counts)}

    def one(eps: float, m: int) -> dict:
        t0 = time.perf_counter()
        wgrid, a0T, phi0T, beta0 = refs[m]
        r, dr = wgrid.nodes, wgrid.dr
        row = {"eps": eps, "points": m}

        def wkb_error(fine) -> tuple:
            u = fine.snapshots[-1].values
            row["err_modulus"] = _weighted_l2(np.abs(u) - np.abs(a0T), r, dr,
                                              data.n)
            row["err_full"] = _weighted_l2(
                u * np.exp(-1j * phi0T / eps) - beta0, r, dr, data.n)
            return min(row["err_modulus"], row["err_full"]), "the WKB error"

        res, split = split_march(data, eps, T, config.dt, wgrid, wkb_error)
        return {**row, "dt": res.header["dt"], "split_error": split,
                "spectral_tail": res.header["spectral_tail"],
                "runtime_s": time.perf_counter() - t0}

    rows = [one(e, m) for e, m in zip(config.eps_ladder, counts)]

    eps_arr = np.array([row["eps"] for row in rows])
    om, exc_m = fit_order(eps_arr, np.array([row["err_modulus"] for row in rows]))
    of, exc_f = fit_order(eps_arr, np.array([row["err_full"] for row in rows]))
    # past the gate, a nonzero estimate has a nonzero WKB error to divide
    ratio = max(row["split_error"] / min(row["err_modulus"], row["err_full"])
                if row["split_error"] > 0 else 0.0 for row in rows)
    report = ConvergenceReport(rows=rows, fitted_order_modulus=om,
                               fitted_order_full=of,
                               excluded_eps=sorted(set(exc_m + exc_f)),
                               config_hash=config.hash(), split_ratio=ratio,
                               spectral_tail=max(row["spectral_tail"]
                                                 for row in rows))
    if config.out_dir:
        cols = ("eps", "err_modulus", "err_full")
        _write(config, "convergence.csv", [[r[k] for k in cols] for r in rows],
               columns=cols, scenario="converge")
        _write(config, "convergence.json", {
            "config_hash": report.config_hash,
            "rows": [{k: r[k] for k in cols + ("points", "dt", "split_error",
                                               "spectral_tail")}
                     for r in rows],
            "fitted_order_modulus": om, "fitted_order_full": of,
            "excluded_eps": report.excluded_eps,
            "corrector_time_error": float(corr.time_error[-1])})
        _write(config, "timing.json",
               {"runtimes_s": {repr(r["eps"]): r["runtime_s"] for r in rows}})
    return report


def classify_sweep(config: ExperimentConfig) -> list:
    """Verdict table over (amplitude scale, velocity scale) pairs.

    Rows with velocity scale 1 exercise the scaling family
    (alpha A0, |alpha| Phi0), which stays global for every alpha.
    """
    rows = []
    for alpha in config.amplitude_scales:
        for beta in config.velocity_scales:
            cfg = dataclasses.replace(config.data, amplitude_scale=alpha,
                                      velocity_scale=beta)
            data = build_data(cfg)
            verdict = classify(data, witness=False)
            rows.append({"amplitude_scale": alpha, "velocity_scale": beta,
                         "kind": verdict.kind, "certificate": verdict.certificate})
    if config.out_dir:
        _write(config, "classify_sweep.csv",
               [(r["amplitude_scale"], r["velocity_scale"], r["kind"],
                 '"%s"' % r["certificate"]) for r in rows],
               columns=["amplitude_scale", "velocity_scale", "kind",
                        "certificate"], scenario="classify")
    return rows


def velocity_norms(data: InitialData, times,
                   label_top: float) -> tuple[list, list]:
    """sup |v(t)| and ||v(t)||_{L^p}, p = NORM_P, at each of ``times``, on
    the labels of the data grid past the origin and the vacuum tail up to
    ``label_top``.

    The L^p norm changes variables to labels: it is ``lp_norm`` in R of
    Xdot J^(1/p), with J = X^(n-1) B / R^(n-1) the volume factor of the
    compatible flow; the times share one evaluation of the rates."""
    labels = np.concatenate([data.grid.nodes[1:],
                             np.geomspace(data.r_max, label_top, 2000)[1:]])
    flow = label_flow(data, labels)
    sup, lp = [], []
    for t in times:
        st = flow.at(t)
        sup.append(float(np.max(np.abs(st.Xdot))))
        lp.append(lp_norm(st.Xdot * st.J ** (1.0 / NORM_P), labels, data.n,
                          NORM_P))
    return sup, lp


def decay_study(config: ExperimentConfig) -> dict:
    """Large-time diagnostics of the global solution on a log time grid.

    Samples the conserved L2 norm of a0, sup|v|, the label position X(t, 1),
    the slow-decay norm ||grad phi0||_{L^p} at p = NORM_P, and
    ||grad a0||_{L2}; fits log-log decay exponents for each series.
    """
    data = build_data(config.data)
    times = np.geomspace(*config.t_tail)
    tail_c = max(data.tail_coeff, 1e-6)
    # the vacuum tail runs outward from r_max, however early the last time
    label_top = max(20.0 * (0.5 * data.n * tail_c * times[-1]) ** (2.0 / data.n),
                    100.0 * data.r_max)

    series = {name: [] for name in
              ("l2_a0", "sup_v", "X_at_1", "grad_phi0_lp", "grad_a0_l2")}
    edge_and_one = label_flow(data, [data.r_max, 1.0])
    for t in times:
        top, X_at_1 = (float(x) for x in edge_and_one.at(t).X)
        grid_t = RadialGrid(top, 8192)
        a0 = leading_amplitude(data, t, grid_t)
        series["l2_a0"].append(lp_norm(a0.values, grid_t.nodes, data.n, 2))
        series["X_at_1"].append(X_at_1)
        da0 = a0.derivative(1, left_parity="even")
        series["grad_a0_l2"].append(lp_norm(da0, grid_t.nodes, data.n, 2))

    series["sup_v"], series["grad_phi0_lp"] = velocity_norms(
        data, times, label_top)
    fits = {}
    for name, vals in series.items():
        fit = decay_fit(times, np.array(vals))
        fits[name] = {"exponent": fit.exponent, "stderr": fit.stderr}

    report = {"config_hash": config.hash(),
              "times": [float(t) for t in times],
              "series": {k: [float(x) for x in v] for k, v in series.items()},
              "fits": fits,
              "grad_phi0_lp_strictly_decreasing":
                  bool(np.all(np.diff(series["grad_phi0_lp"]) < 0))}
    if config.out_dir:
        _write(config, "decay_study.json", report)
    return report


def evolve_ep(config: ExperimentConfig) -> dict:
    """Integrate characteristics for the configured labels and export them.

    Every trajectory and field is computed before the first file is written,
    so a run that fails leaves no partial output behind."""
    data = build_data(config.data)
    verdict = classify(data, witness=True)
    t_eval = np.linspace(0.0, config.t_end, 201)
    trajectories = {R: integrate_characteristics(data, R, config.t_end,
                                                 t_eval=t_eval)
                    for R in config.labels}
    fields = ({t: eulerian_fields(data, t)[0] for t in config.times}
              if verdict.kind == GLOBAL else {})
    out = {"verdict": verdict.as_dict(), "config_hash": config.hash()}
    if config.out_dir:
        _write(config, "verdict.json", out)
        for R, traj in trajectories.items():
            _write(config, f"trajectory_R{_name_token(R)}.csv",
                   zip(traj.t, traj.X, traj.Xdot, traj.B),
                   columns=["t", "X", "Xdot", "B"], label=R)
        for t, rho in fields.items():
            _write(config, f"rho_t{_name_token(t)}.csv",
                   zip(rho.grid.nodes, rho.values, np.zeros_like(rho.values)),
                   columns=["r", "value_re", "value_im"], t=t)
            # density is real; splines interpolate at cubic order
            _write(config, f"rho_t{_name_token(t)}.json", {
                "grid": rho.grid.descriptor(), "complex": False,
                "interpolation_order": 3,
                "provenance": {"field": "density", "t": t,
                               "config_hash": config.hash(),
                               "data_hash": data.content_hash()}})
    out["trajectories"] = {str(R): len(traj.t) for R, traj in trajectories.items()}
    return out


def wkb_eval(config: ExperimentConfig) -> list:
    """Evaluate WKB fields (with the first corrector) at the configured times.

    The times, normalised as the corrector's are, pair one to one with its
    samples; each ``norms.jsonl`` record carries the corrector's time-error
    estimate there (``CorrectorSeries.time_error``) as
    ``corrector_time_error``.
    Every field and norm is computed before the first file is written, so a
    run that fails leaves no partial output behind."""
    T = max(config.times)
    times = sample_times(config.times, T)
    if why := _name_clash(times, "times"):
        raise ConfigError(why)
    data = build_data(config.data)
    grid = RadialGrid(config.data.r_max, config.data.points)
    corr = first_corrector(data, T,
                           grid=RadialGrid(config.data.r_max,
                                           config.corrector_points),
                           sample_times=times)
    outputs = []
    norm_records = []
    for t, a1c, p1c, err in zip(times, corr.a1, corr.phi1, corr.time_error,
                                strict=True):
        f = leading_order(data, t, grid)
        a1 = RadialProfile(grid, a1c(grid.nodes))
        p1 = RadialProfile(grid, np.real(p1c(grid.nodes)))
        outputs.append(WkbFields(t=f.t, a0=f.a0, phi0=f.phi0, V_P=f.V_P,
                                 a1=a1, phi1=p1))
        rep = norm_diagnostics(f.a0, data.n, t=t)
        norm_records.append({"t": t, "l2_a0": rep.l2, "y_norm_a0": rep.y_norm,
                             "corrector_time_error": float(err)})
    if config.out_dir:
        for t, f in zip(times, outputs):
            a0, a1 = f.a0.values, f.a1.values
            _write(config, f"fields_t{_name_token(t)}.csv",
                   zip(grid.nodes, np.real(a0), np.imag(a0), f.phi0.values,
                       f.V_P.values, np.real(a1), np.imag(a1),
                       f.phi1.values),
                   columns=["r", "a0_re", "a0_im", "phi0", "V_P", "a1_re",
                            "a1_im", "phi1"], t=t)
        _write(config, "norms.jsonl", norm_records)
    return outputs


def schrodinger_run(config: ExperimentConfig) -> dict:
    """Single wave-solver run with observables and a snapshot at t_end, on
    the grid ``rung_points`` gives its eps, as every ``converge`` rung: the
    smallest fast count that both its phase and the spectrum of u0 ask for,
    capped at ``solver_points`` rounded up to a fast count.

    The run marches through ``split_march`` at ``config.dt`` or, by default,
    ``rung_step``.  With no WKB error to compare against, its estimate is
    gated on the scale of the paper's O(eps) bound: above
    ``SPLIT_TOL * eps * ||u0||``, with ||u0|| the square root of the initial
    discrete mass, it raises StepRejectionError, and past ``TAIL_TOL`` of
    spectral tail ResolutionError, before anything is written.  The header
    records ``dt``, ``split_error``, ``split_ratio``, the estimate over
    eps ||u0||, and ``spectral_tail``."""
    T = config.t_end
    data = build_data(config.data)
    eps = config.eps_ladder[0]
    wgrid = RadialGrid(config.data.r_max, rung_points(data, config)[0],
                       include_origin=False)

    def norm_scale(fine) -> tuple:
        return eps * math.sqrt(fine.observables[0].mass), "eps ||u0||"

    res, split = split_march(data, eps, T, config.dt, wgrid, norm_scale,
                             observable_times=[0.0, T, *config.times])
    scale, _ = norm_scale(res)
    records = [dataclasses.asdict(ob) for ob in res.observables]
    header = {**res.header, "split_error": split,
              "split_ratio": split / scale, "config_hash": config.hash()}
    if config.out_dir:
        _write(config, "header.json", header)
        _write(config, "observables.jsonl", records)
        u = res.snapshots[-1]
        _write(config, f"snapshot_t{_name_token(u.t)}.csv",
               zip(u.r, u.values.real, u.values.imag),
               columns=["r", "re", "im"], t=u.t, eps=eps)
    return {"header": header, "observables": records,
            "truncation_warnings": res.truncation_warnings}


def _schrodinger_summary(r: dict) -> str:
    last, header = r["observables"][-1], r["header"]
    return (f"t={last['t']:g} mass={last['mass']:.9f} energy="
            f"{last['energy']:.9f} dt={header['dt']:g} split_ratio="
            f"{header['split_ratio']:.2e} spectral_tail="
            f"{header['spectral_tail']:.2e} points={header['grid']['points']}")


# Each scenario: its runner, the keys it reads, its own rules, its CLI summary
_STRANG = ("eps_ladder", "t_end", "dt", "solver_points")
SCENARIOS = {
    "classify": Owner(
        classify_sweep, ("amplitude_scales", "velocity_scales"),
        (lambda c: not (c.amplitude_scales and c.velocity_scales)
         and "classify needs at least one amplitude and one velocity scale",),
        sweeps=("amplitude_scale", "velocity_scale"),
        summary=lambda rows: str(dict(Counter(r["kind"] for r in rows)))),
    "evolve-ep": Owner(
        evolve_ep, ("labels", "times", "t_end"),
        (lambda c: _name_clash(c.labels, "labels")
         or _name_clash(c.times, "times"),),
        summary=lambda r: f"verdict={r['verdict']['kind']}"),
    "wkb-eval": Owner(
        wkb_eval, ("times", "corrector_points"),
        (lambda c: not c.times and "wkb-eval needs at least one time",),
        summary=lambda rows: f"evaluated {len(rows)} snapshots"),
    # one eps, observed at 0, at t_end and at its times, none past t_end
    "schrodinger-run": Owner(
        schrodinger_run, (*_STRANG, "times"),
        (lambda c: len(c.eps_ladder) > 1
         and "schrodinger-run marches one eps: give eps_ladder one entry",
         lambda c: max(c.times, default=0.0) > c.t_end
         and f"times {c.times} pass t_end = {c.t_end}"),
        {"eps_ladder": (0.125,), "times": ()}, summary=_schrodinger_summary),
    "converge": Owner(
        converge, (*_STRANG, "corrector_points"),
        (lambda c: len(c.eps_ladder) < 3
         and "converge needs at least 3 ladder values",),
        summary=lambda r: (
            f"order_modulus={r.fitted_order_modulus:.3f} "
            f"order_full={r.fitted_order_full:.3f} excluded={r.excluded_eps} "
            f"points={[row['points'] for row in r.rows]} "
            f"spectral_tail={r.spectral_tail:.2e} "
            f"split_ratio={r.split_ratio:.2e}")),
    "decay-study": Owner(
        decay_study, ("t_tail",),
        summary=lambda r: "exponents=" + str(
            {k: round(v["exponent"], 4) for k, v in r["fits"].items()})),
}


def run_scenario(config: ExperimentConfig):
    return SCENARIOS[config.scenario].run(config)
