"""Experiment orchestration: configuration, convergence studies, classifier
sweeps, decay fits, and report emission."""

from __future__ import annotations

import dataclasses
import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import io as sio
from .errors import ConfigError
from .euler_poisson import (GLOBAL, classify, explicit_characteristics,
                            eulerian_fields, integrate_characteristics)
from .grids import RadialGrid, RadialProfile
from .norms import decay_fit, lp_norm, norm_diagnostics, sphere_area
from .profiles import (InitialData, ball_data, gaussian_free_data,
                       sample_data, smooth_ball_data)
from .schrodinger import run
from .wkb import WkbFields, first_corrector, leading_order

__all__ = ["DataConfig", "ExperimentConfig", "ConvergenceReport",
           "build_data", "converge", "classify_sweep", "decay_study",
           "evolve_ep", "wkb_eval", "schrodinger_run", "run_scenario",
           "SCENARIOS"]

SCENARIOS = ("classify", "evolve-ep", "wkb-eval", "schrodinger-run",
             "converge", "decay-study")


# JSON value types accepted for each field annotation of the config classes
_JSON_TYPES = {"str": str, "str | None": (str, type(None)), "int": int,
               "float": (int, float), "float | None": (int, float, type(None)),
               "tuple": (list, tuple)}


def _is_a(value, kinds) -> bool:
    return isinstance(value, kinds) and not isinstance(value, bool)


def _validate_payload(cls, payload: dict, where: str):
    if not isinstance(payload, dict):
        raise ConfigError(f"{where} must be a JSON object")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(payload) - set(types)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    for key, value in payload.items():
        ok = _is_a(value, _JSON_TYPES[types[key]])
        if ok and types[key] == "tuple":
            ok = all(_is_a(x, (int, float)) for x in value)
        if not ok:
            raise ConfigError(f"{where} key {key!r} has the wrong type: "
                              f"{value!r}")


@dataclass(frozen=True)
class DataConfig:
    family: str = "smooth_ball"       # smooth_ball | sample | ball
    n: int = 3
    lam: float = -1.0
    amplitude_scale: float = 1.0
    velocity_scale: float = 1.0
    chirp: float = 0.0
    kappa: float = 3.0
    delta: float = 0.25
    radius: float = 1.0
    width: float = 0.15
    r_max: float = 40.0
    points: int = 8192

    def __post_init__(self):
        if self.family not in ("smooth_ball", "sample", "ball",
                               "gaussian_free"):
            raise ConfigError(f"unknown data family {self.family!r}")
        if self.family == "gaussian_free" and self.lam != 0.0:
            raise ConfigError("the gaussian_free family is uncoupled (lam = 0)")


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    data: DataConfig = field(default_factory=DataConfig)
    eps_ladder: tuple = (0.125, 0.0625, 0.03125, 0.015625)
    t_end: float = 0.5
    dt: float | None = None
    solver_points: int = 8192
    corrector_points: int = 2049
    ppw: int = 16
    times: tuple = (0.5, 1.0, 5.0)
    labels: tuple = (0.5, 1.0, 2.0)
    velocity_scales: tuple = (0.9, 1.0, 1.1)
    amplitude_scales: tuple = (0.1, 1.0, 10.0)
    t_tail: tuple = (100.0, 10000.0, 13)
    norm_p: float = 8.0
    out_dir: str | None = None
    threads: int = 1

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; "
                              f"expected one of {SCENARIOS}")
        lad = tuple(float(e) for e in self.eps_ladder)
        if not lad:
            raise ConfigError("eps ladder must not be empty")
        if any(not (0.0 < e <= 1.0) for e in lad):
            raise ConfigError("eps ladder entries must lie in (0, 1]")
        if any(b >= a for a, b in zip(lad, lad[1:])):
            raise ConfigError("eps ladder must be strictly decreasing")
        if self.scenario == "converge" and len(lad) < 3:
            raise ConfigError("converge needs at least 3 ladder values")
        if self.t_end <= 0:
            raise ConfigError("t_end must be positive")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.ppw < 1:
            raise ConfigError("ppw must be >= 1")
        if self.norm_p < 1:
            raise ConfigError("norm_p must be >= 1")
        tail = self.t_tail
        if len(tail) != 3 or not (0.0 < tail[0] < tail[1] and tail[2] >= 1):
            raise ConfigError("t_tail must be (t_min, t_max, count) with "
                              "0 < t_min < t_max and count >= 1")
        if self.scenario == "wkb-eval" and not self.times:
            raise ConfigError("wkb-eval needs at least one time")
        object.__setattr__(self, "eps_ladder", lad)

    @classmethod
    def from_json(cls, payload: dict, scenario: str | None = None
                  ) -> "ExperimentConfig":
        if not isinstance(payload, dict):
            raise ConfigError("configuration must be a JSON object")
        payload = dict(payload)
        file_scenario = payload.pop("scenario", None)
        if scenario is None:
            scenario = file_scenario
        elif file_scenario is not None and file_scenario != scenario:
            raise ConfigError(f"config names scenario {file_scenario!r} but "
                              f"{scenario!r} was requested")
        if scenario is None:
            raise ConfigError("no scenario given")
        data_payload = payload.pop("data", {})
        _validate_payload(DataConfig, data_payload, "data")
        _validate_payload(cls, {"scenario": scenario, **payload}, "config")
        for key in ("eps_ladder", "times", "labels", "velocity_scales",
                    "amplitude_scales", "t_tail"):
            if key in payload:
                payload[key] = tuple(payload[key])
        return cls(scenario=scenario, data=DataConfig(**data_payload), **payload)

    def hash(self) -> str:
        payload = dataclasses.asdict(self)
        # execution details must not change the experiment identity
        payload.pop("out_dir", None)
        payload.pop("threads", None)
        return sio.config_hash(payload)


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
    data = _build_data_inner(cfg, grid)
    fraction = truncated_mass_fraction(data)
    if fraction > 1e-4:
        warnings.warn(
            f"grid truncates an estimated {fraction:.3g} of the total mass "
            f"(r_max = {cfg.r_max}); results describe the truncated data",
            RuntimeWarning)
    return data


def _build_data_inner(cfg: DataConfig, grid: RadialGrid) -> InitialData:
    if cfg.family == "smooth_ball":
        return smooth_ball_data(n=cfg.n, lam=cfg.lam, grid=grid,
                                radius=cfg.radius, width=cfg.width,
                                scale=cfg.amplitude_scale, chirp=cfg.chirp,
                                velocity_scale=cfg.velocity_scale)
    if cfg.family == "sample":
        return sample_data(cfg.kappa, cfg.delta, n=cfg.n, lam=cfg.lam,
                           grid=grid, scale=cfg.amplitude_scale,
                           velocity_scale=cfg.velocity_scale)
    if cfg.family == "gaussian_free":
        return gaussian_free_data(grid=grid, scale=cfg.amplitude_scale,
                                  n=cfg.n)
    return ball_data(n=cfg.n, lam=cfg.lam, grid=grid,
                     velocity="compatible" if cfg.lam < 0 and cfg.n >= 3 else "zero",
                     velocity_scale=cfg.velocity_scale,
                     density=cfg.amplitude_scale ** 2)


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


def converge(config: ExperimentConfig) -> ConvergenceReport:
    """epsilon-ladder WKB error study at t_end.

    For each epsilon: prepare the wavefield, march to t_end, and measure the
    modulus error || |u| - |a0| ||_L2 and the full error
    || u e^{-i phi0/eps} - a0 e^{i phi1} ||_L2 against the leading order plus
    first corrector; then fit log-log orders.
    """
    data = build_data(config.data)
    T = config.t_end
    wgrid = RadialGrid(config.data.r_max, config.solver_points,
                       include_origin=False)
    fields = leading_order(data, T, wgrid)
    a0T = fields.a0.values
    phi0T = fields.phi0.values
    corr = first_corrector(data, T,
                           grid=RadialGrid(config.data.r_max,
                                           config.corrector_points))
    a1T, p1T = corr.at_final()
    phi1 = p1T(wgrid.nodes)
    beta0 = a0T * np.exp(1j * phi1)
    r, dr = wgrid.nodes, wgrid.dr

    def one(eps: float) -> dict:
        t0 = time.perf_counter()
        dt = config.dt if config.dt is not None else eps / 10.0
        res = run(data, eps, T, dt=dt, grid=wgrid, snapshot_times=[T],
                  ppw=config.ppw)
        u = res.snapshots[-1].values
        em = _weighted_l2(np.abs(u) - np.abs(a0T), r, dr, data.n)
        ef = _weighted_l2(u * np.exp(-1j * phi0T / eps) - beta0, r, dr, data.n)
        return {"eps": eps, "err_modulus": em, "err_full": ef,
                "runtime_s": time.perf_counter() - t0}

    ladder = list(config.eps_ladder)
    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            rows = list(pool.map(one, ladder))
    else:
        rows = [one(e) for e in ladder]

    eps_arr = np.array([row["eps"] for row in rows])
    om, exc_m = fit_order(eps_arr, np.array([row["err_modulus"] for row in rows]))
    of, exc_f = fit_order(eps_arr, np.array([row["err_full"] for row in rows]))
    report = ConvergenceReport(rows=rows, fitted_order_modulus=om,
                               fitted_order_full=of,
                               excluded_eps=sorted(set(exc_m + exc_f)),
                               config_hash=config.hash())
    if config.out_dir:
        cols = ("eps", "err_modulus", "err_full")
        _write(config, "convergence.csv", [[r[k] for k in cols] for r in rows],
               columns=cols, scenario="converge")
        _write(config, "convergence.json", {
            "config_hash": report.config_hash,
            "rows": [{k: r[k] for k in cols} for r in rows],
            "fitted_order_modulus": om, "fitted_order_full": of,
            "excluded_eps": report.excluded_eps})
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


def _log_times(spec: tuple) -> np.ndarray:
    t0, t1, count = spec
    return np.geomspace(float(t0), float(t1), int(count))


def velocity_lp_lagrangian(data: InitialData, t: float, p: float,
                           label_top: float) -> float:
    """||v(t)||_{L^p} by change of variables to labels, with the vacuum tail."""
    n = data.n
    labels = np.concatenate([data.grid.nodes,
                             np.geomspace(data.r_max, label_top, 2000)[1:]])
    labels = labels[labels > 0]
    v0, F, G = data.rates_at(labels)
    one_Ft = 1.0 + F * t
    integrand = (np.abs(v0) ** p * one_Ft ** (p * (2.0 / n - 1.0))
                 * labels ** (n - 1) * one_Ft ** (2.0 * (n - 1.0) / n)
                 * one_Ft ** (2.0 / n - 1.0) * (1.0 + G * t))
    val = np.trapezoid(integrand, labels)
    return float((sphere_area(n) * val) ** (1.0 / p))


def velocity_sup(data: InitialData, t: float, label_top: float) -> float:
    labels = np.concatenate([data.grid.nodes[1:],
                             np.geomspace(data.r_max, label_top, 4000)[1:]])
    st = explicit_characteristics(data, t, labels)
    return float(np.max(np.abs(st.Xdot)))


def decay_study(config: ExperimentConfig) -> dict:
    """Large-time diagnostics of the global solution on a log time grid.

    Samples the conserved L2 norm of a0, sup|v|, the label position X(t, 1),
    the slow-decay norm ||grad phi0||_{L^p}, and ||grad a0||_{L2}; fits
    log-log decay exponents for each series.
    """
    data = build_data(config.data)
    times = _log_times(config.t_tail)
    tail_c = max(data.tail_coeff, 1e-6)
    label_top = 20.0 * (0.5 * data.n * tail_c * times[-1]) ** (2.0 / data.n)

    series = {name: [] for name in
              ("l2_a0", "sup_v", "X_at_1", "grad_phi0_lp", "grad_a0_l2")}
    for t in times:
        top = float(explicit_characteristics(data, t, np.array([data.r_max])).X[0])
        grid_t = RadialGrid(top, 8192)
        f = leading_order(data, t, grid_t)
        series["l2_a0"].append(lp_norm(f.a0.values, grid_t.nodes, data.n, 2))
        series["sup_v"].append(velocity_sup(data, t, label_top))
        series["X_at_1"].append(
            float(explicit_characteristics(data, t, np.array([1.0])).X[0]))
        series["grad_phi0_lp"].append(
            velocity_lp_lagrangian(data, t, config.norm_p, label_top))
        da0 = f.a0.derivative(1, left_parity="even")
        series["grad_a0_l2"].append(lp_norm(da0, grid_t.nodes, data.n, 2))

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
    trajectories = {}
    for R in config.labels:
        trajectories[R] = integrate_characteristics(data, float(R),
                                                    config.t_end,
                                                    t_eval=t_eval)
    fields = ({t: eulerian_fields(data, float(t))[0] for t in config.times}
              if verdict.kind == GLOBAL else {})
    out = {"verdict": verdict.as_dict(), "config_hash": config.hash()}
    if config.out_dir:
        _write(config, "verdict.json", out)
        for R, traj in trajectories.items():
            _write(config, f"trajectory_R{R:g}.csv",
                   zip(traj.t, traj.X, traj.Xdot, traj.B),
                   columns=["t", "X", "Xdot", "B"], label=R)
        for t, rho in fields.items():
            _write(config, f"rho_t{t:g}.csv",
                   zip(rho.grid.nodes, rho.values, np.zeros_like(rho.values)),
                   columns=["r", "value_re", "value_im"], t=t)
            # density is real; splines interpolate at cubic order
            _write(config, f"rho_t{t:g}.json", {
                "grid": rho.grid.descriptor(), "complex": False,
                "interpolation_order": 3,
                "provenance": {"field": "density", "t": t,
                               "config_hash": config.hash(),
                               "data_hash": data.content_hash()}})
    out["trajectories"] = {str(R): len(traj.t) for R, traj in trajectories.items()}
    return out


def wkb_eval(config: ExperimentConfig) -> list:
    """Evaluate WKB fields (with the first corrector) at the configured times."""
    data = build_data(config.data)
    grid = RadialGrid(config.data.r_max, config.data.points)
    times = sorted(set(float(t) for t in config.times))
    corr = first_corrector(data, max(times),
                           grid=RadialGrid(config.data.r_max,
                                           config.corrector_points),
                           sample_times=times)
    outputs = []
    norm_records = []
    for i, t in enumerate(times):
        f = leading_order(data, float(t), grid)
        a1 = RadialProfile(grid, corr.a1[i](grid.nodes))
        p1 = RadialProfile(grid, np.real(corr.phi1[i](grid.nodes)))
        f = WkbFields(t=f.t, a0=f.a0, phi0=f.phi0, V_P=f.V_P, a1=a1, phi1=p1)
        outputs.append(f)
        rep = norm_diagnostics(f.a0, data.n, t=float(t))
        norm_records.append({"t": float(t), "l2_a0": rep.l2,
                             "y_norm_a0": rep.y_norm})
        if config.out_dir:
            a0 = f.a0.values
            _write(config, f"fields_t{t:g}.csv",
                   zip(grid.nodes, np.real(a0), np.imag(a0), f.phi0.values,
                       f.V_P.values, np.real(a1.values), np.imag(a1.values),
                       p1.values),
                   columns=["r", "a0_re", "a0_im", "phi0", "V_P", "a1_re",
                            "a1_im", "phi1"], t=t)
    if config.out_dir:
        _write(config, "norms.jsonl", norm_records)
    return outputs


def schrodinger_run(config: ExperimentConfig) -> dict:
    """Single wave-solver run with observables and optional snapshots."""
    data = build_data(config.data)
    eps = config.eps_ladder[0]
    wgrid = RadialGrid(config.data.r_max, config.solver_points,
                       include_origin=False)
    obs_times = sorted(set([0.0, config.t_end] + [float(t) for t in config.times
                                                  if t <= config.t_end]))
    res = run(data, eps, config.t_end, dt=config.dt, grid=wgrid,
              observable_times=obs_times, snapshot_times=[config.t_end],
              ppw=config.ppw)
    records = [{"t": ob.t, "mass": ob.mass, "energy": ob.energy,
                "boundary_mass": ob.boundary_mass} for ob in res.observables]
    header = dict(res.header)
    header["config_hash"] = config.hash()
    if config.out_dir:
        _write(config, "header.json", header)
        _write(config, "observables.jsonl", records)
        u = res.snapshots[-1]
        _write(config, f"snapshot_t{u.t:g}.csv",
               zip(u.r, u.values.real, u.values.imag),
               columns=["r", "re", "im"], t=u.t, eps=eps)
    return {"header": header, "observables": records,
            "truncation_warnings": res.truncation_warnings}


_RUNNERS = {
    "classify": classify_sweep,
    "evolve-ep": evolve_ep,
    "wkb-eval": wkb_eval,
    "schrodinger-run": schrodinger_run,
    "converge": converge,
    "decay-study": decay_study,
}


def run_scenario(config: ExperimentConfig):
    return _RUNNERS[config.scenario](config)
