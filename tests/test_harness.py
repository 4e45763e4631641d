import dataclasses
import json
import math
import os

import numpy as np
import pytest

from semiwkb import (ConfigError, ConvergenceError, DataConfig,
                     ExperimentConfig, RadialGrid, harness, run)
from semiwkb.cli import main as cli_main
from semiwkb.errors import ParameterError
from semiwkb.harness import (SPLIT_TOL, _weighted_l2, build_data,
                             classify_sweep, converge, decay_study, evolve_ep,
                             rung_points, schrodinger_run, split_march,
                             split_mesh_error, wkb_eval)
from semiwkb.schrodinger import (TAIL_TOL, fast_points, required_points,
                                 rung_step)
from semiwkb.wkb import TIME_ERROR_TOL, first_corrector, leading_order


def small_converge_config(**over):
    base = dict(scenario="converge",
                data=DataConfig(family="smooth_ball", chirp=1.0, points=2048),
                eps_ladder=(0.25, 0.125, 0.0625),
                t_end=0.25, solver_points=2048, corrector_points=1025)
    base.update(over)
    return ExperimentConfig(**base)


# -- configuration ------------------------------------------------------------

def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json({"scenario": "converge", "bogus": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json({"scenario": "converge",
                                    "data": {"wat": 2}})


def test_config_rejects_bad_ladders():
    with pytest.raises(ConfigError):
        ExperimentConfig(scenario="converge", eps_ladder=(0.5, 0.5, 0.25))
    with pytest.raises(ConfigError):
        ExperimentConfig(scenario="converge", eps_ladder=(0.5, 0.25))
    with pytest.raises(ConfigError):
        ExperimentConfig(scenario="converge", eps_ladder=(2.0, 1.0, 0.5))


@pytest.mark.parametrize("cls, kwargs", [
    (ExperimentConfig, dict(scenario="decay-study", dt=math.nan,
                            norm_p=math.nan, t_end=math.inf)),
    (ExperimentConfig, dict(scenario="decay-study", norm_p=-math.inf)),
    (ExperimentConfig, dict(scenario="converge", dt=-1.0)),
    (ExperimentConfig, dict(scenario="converge", dt=0.0)),
    (ExperimentConfig, dict(scenario="wkb-eval", times=(0.5, math.nan))),
    (DataConfig, dict(r_max=math.inf)),
    (DataConfig, dict(chirp=math.nan)),
])
def test_config_rejects_non_finite_and_non_positive_dt(cls, kwargs):
    # direct construction takes the same check as a JSON file
    with pytest.raises(ConfigError):
        cls(**kwargs)


def test_config_keeps_the_sup_norm():
    assert ExperimentConfig(scenario="decay-study",
                            norm_p=math.inf).norm_p == math.inf


def test_config_scenario_gate():
    with pytest.raises(ConfigError):
        ExperimentConfig(scenario="nope")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json({"scenario": "converge"},
                                   scenario="classify")


def test_on_disk_format_pinned():
    # emitted data hashes and run headers are computed over these values
    assert RadialGrid(40.0, 8192).descriptor() == {
        "r_max": 40.0, "points": 8192, "spacing": "uniform",
        "include_origin": True, "stretch": 1.0}
    recorded = {"converge": "fd894c6b43f62598",
                "classify": "d7bf5de23b2d9518",
                "decay-study": "cef9901be6c24e9d",
                "schrodinger-run": "2c09f17b1440da73"}
    for scenario, digest in recorded.items():
        assert ExperimentConfig(scenario=scenario).hash() == digest
    # the committed study configs
    configs = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    committed = {"converge": "65983a7275ba188d",
                 "classify": "bf2aff80b208ac0f",
                 "decay-study": "cef9901be6c24e9d",
                 "evolve-ep": "b031e4bacd246284",
                 "schrodinger-run": "dc5b2c3613a45ff2",
                 "wkb-eval": "19b72e54e86b8c9e"}
    assert sorted(os.listdir(configs)) == sorted(f"{s}.json" for s in committed)
    for scenario, digest in committed.items():
        with open(os.path.join(configs, f"{scenario}.json")) as f:
            payload = json.load(f)
        assert ExperimentConfig.from_json(payload,
                                          scenario=scenario).hash() == digest


def test_config_list_keys_become_tuples():
    # every tuple-annotated key is read from a JSON list into a tuple
    lists = {"eps_ladder": [0.5, 0.25, 0.125], "times": [0.1],
             "labels": [1.0], "velocity_scales": [1.0],
             "amplitude_scales": [2.0], "t_tail": [10.0, 1000.0, 5]}
    cfg = ExperimentConfig.from_json(lists, scenario="decay-study")
    for key, value in lists.items():
        assert getattr(cfg, key) == tuple(value)
    tuples = {k: tuple(v) for k, v in lists.items()}
    assert cfg == ExperimentConfig(scenario="decay-study", **tuples)
    assert cfg.hash() == ExperimentConfig(scenario="decay-study",
                                          **tuples).hash()


def test_config_hash_stable():
    a = small_converge_config()
    b = small_converge_config()
    assert a.hash() == b.hash()
    c = small_converge_config(t_end=0.3)
    assert a.hash() != c.hash()


def test_build_data_families():
    for family in ("smooth_ball", "ball"):
        d = build_data(DataConfig(family=family, points=1024, r_max=20.0))
        assert d.compatible
    with pytest.warns(RuntimeWarning, match="truncates"):
        d = build_data(DataConfig(family="sample", points=1024, r_max=20.0))
    assert d.compatible
    free = build_data(DataConfig(family="gaussian_free", lam=0.0,
                                 points=1024, r_max=20.0))
    assert free.lam == 0.0 and not free.compatible
    with pytest.raises(ConfigError):
        DataConfig(family="gaussian_free", lam=-1.0)


def test_truncated_mass_monitor_flags_heavy_tails():
    from semiwkb.harness import truncated_mass_fraction
    # algebraic tail r^(-n-2 delta): a large fraction escapes any finite box
    with pytest.warns(RuntimeWarning, match="truncates"):
        heavy = build_data(DataConfig(family="sample", kappa=3.0, delta=0.25,
                                      points=2048))
    assert truncated_mass_fraction(heavy) > 1e-2
    # the mollified ball decays super-algebraically: nothing to flag
    light = build_data(DataConfig(family="smooth_ball", points=2048))
    assert truncated_mass_fraction(light) < 1e-10


def test_fit_order_pre_asymptotic_guard():
    from semiwkb.harness import fit_order
    eps = np.array([0.5, 0.25, 0.125, 0.0625])
    errs = 2.0 * eps
    errs[0] *= 10.0          # largest-eps point far off the line
    slope, excluded = fit_order(eps, errs)
    assert excluded == [0.5]
    assert abs(slope - 1.0) < 1e-10
    slope2, excluded2 = fit_order(eps, 2.0 * eps)
    assert excluded2 == [] and abs(slope2 - 1.0) < 1e-12


def test_converge_free_gaussian_orders(tmp_path):
    # uncoupled dispersion: the full error is O(eps); the modulus error is
    # O(eps^2) because the first corrector of a real amplitude is purely
    # imaginary (the exact free Gaussian shows |u| deviating at eps^2 t^2)
    cfg = ExperimentConfig(scenario="converge",
                           data=DataConfig(family="gaussian_free", lam=0.0,
                                           points=2048, r_max=20.0),
                           eps_ladder=(0.25, 0.125, 0.0625, 0.03125),
                           t_end=0.25, solver_points=2048,
                           corrector_points=1025)
    report = converge(cfg)
    assert 0.8 <= report.fitted_order_full <= 1.2
    assert report.fitted_order_modulus > 1.7
    # data at rest: required_points returns its floor of 16, and the
    # spectrum of A0 lifts every rung off the 17-node fast floor to 39
    assert [row["points"] for row in report.rows] == [39, 39, 39, 39]
    assert report.spectral_tail <= TAIL_TOL


# -- scenarios -----------------------------------------------------------------

@pytest.fixture(scope="module")
def conv_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("conv")
    cfg = small_converge_config(out_dir=str(out))
    return cfg, converge(cfg), out


def test_converge_orders_and_monotone_errors(conv_report):
    cfg, report, _ = conv_report
    errs_full = [row["err_full"] for row in report.rows]
    errs_mod = [row["err_modulus"] for row in report.rows]
    assert all(a > b for a, b in zip(errs_full, errs_full[1:]))
    assert all(a > b for a, b in zip(errs_mod, errs_mod[1:]))
    assert 0.8 <= report.fitted_order_full <= 1.2
    assert report.config_hash == cfg.hash()


def test_converge_emits_hash_stamped_files(conv_report):
    cfg, report, out = conv_report
    csv = (out / "convergence.csv").read_text()
    assert f"# config_hash: {cfg.hash()}" in csv
    payload = json.loads((out / "convergence.json").read_text())
    assert payload["config_hash"] == cfg.hash()
    assert len(payload["rows"]) == 3
    assert [row["points"] for row in payload["rows"]] == [479, 624, 1214]
    assert "eps,err_modulus,err_full" in csv.splitlines()   # columns kept
    assert "runtime_s" not in payload["rows"][0]   # timings live in the sidecar
    assert (out / "timing.json").exists()
    for row, written in zip(report.rows, payload["rows"]):
        assert written["dt"] == row["dt"]
        assert written["split_error"] == row["split_error"]
        assert written["spectral_tail"] == row["spectral_tail"]
        assert 0.0 < row["spectral_tail"] <= TAIL_TOL
    assert report.spectral_tail == max(r["spectral_tail"] for r in report.rows)
    assert report.split_ratio == max(
        row["split_error"] / min(row["err_modulus"], row["err_full"])
        for row in report.rows)
    assert 0.0 < report.split_ratio <= SPLIT_TOL


@pytest.mark.parametrize("solver_points, expected", [
    (8192, [624, 1214, 2429, 4859]),      # perfbench and acceptance 7/8
    (8191, [624, 1214, 2429, 4859])])     # configs/converge.json
def test_rung_points_on_the_acceptance_ladder(solver_points, expected):
    # the phase decides on this ladder: every rung takes the fast count past
    # its ppw-16 count, well under the cap, whichever cap it is given
    data_cfg = DataConfig(chirp=1.0, points=8192)
    cfg = ExperimentConfig(scenario="converge", data=data_cfg,
                           eps_ladder=(1 / 8, 1 / 16, 1 / 32, 1 / 64),
                           t_end=0.5, solver_points=solver_points)
    data = build_data(data_cfg)
    counts = rung_points(data, cfg)
    assert counts == expected
    for eps, m in zip(cfg.eps_ladder, counts):
        need = required_points(data, eps, data_cfg.r_max, cfg.ppw)
        assert m == fast_points(need) < fast_points(cfg.solver_points)


def test_rung_points_raised_to_required_points():
    # data at rest: the phase needs only the floor of 16 nodes at every eps,
    # and the spectrum of r A0 raises each rung to 39 nodes (M+1 = 40); a
    # cap below that count holds every rung on the cap
    data_cfg = DataConfig(family="gaussian_free", lam=0.0, points=1024,
                          r_max=20.0)
    cfg = ExperimentConfig(scenario="converge", data=data_cfg,
                           eps_ladder=(0.25, 0.125, 0.0625, 0.03125),
                           t_end=0.25, solver_points=127)
    data = build_data(data_cfg)
    assert required_points(data, 0.25, data_cfg.r_max, cfg.ppw) == 16
    assert rung_points(data, cfg) == [39, 39, 39, 39]
    capped = dataclasses.replace(cfg, solver_points=24)
    assert rung_points(data, capped) == [fast_points(24)] * 4 == [24] * 4


def test_converge_rungs_match_the_finest_grid(conv_report):
    # each rung against the same march, at the step its row records, and
    # reference fields on the cap grid, fast_points(solver_points) = 2159
    # nodes; measured moves on this config: err_full 3.9e-6 (eps = 1/8),
    # err_modulus 1.9e-6 (eps = 1/8); the bound leaves a factor of 2.5
    cfg, report, _ = conv_report
    data = build_data(cfg.data)
    T, r_max = cfg.t_end, cfg.data.r_max
    g = RadialGrid(r_max, fast_points(cfg.solver_points), include_origin=False)
    fields = leading_order(data, T, g)
    _, p1T = first_corrector(data, T, grid=RadialGrid(
        r_max, cfg.corrector_points)).at_final()
    a0T, phi0T = fields.a0.values, fields.phi0.values
    beta0 = a0T * np.exp(1j * p1T(g.nodes))
    assert [row["points"] for row in report.rows] == [479, 624, 1214]
    for row in report.rows:
        eps = row["eps"]
        u = run(data, eps, T, dt=row["dt"], grid=g,
                snapshot_times=[T]).snapshots[-1].values
        em = _weighted_l2(np.abs(u) - np.abs(a0T), g.nodes, g.dr, data.n)
        ef = _weighted_l2(u * np.exp(-1j * phi0T / eps) - beta0, g.nodes,
                          g.dr, data.n)
        assert abs(row["err_modulus"] - em) <= 1e-5 * em
        assert abs(row["err_full"] - ef) <= 1e-5 * ef


def test_rung_step_mesh_rule():
    # perfbench and acceptance 7/8: 1.25 T/eps = 5, 10, 20, 40 coarse steps
    for eps in (1 / 8, 1 / 16, 1 / 32, 1 / 64):
        assert rung_step(eps, 0.5) == pytest.approx(eps / 2.5, rel=1e-15)
    # 1.25 T/eps = 2.5 rounds up to 3 coarse steps; 3 + 1e-12 rounds to 3
    assert rung_step(0.125, 0.25) == 0.25 / 6
    assert rung_step(0.25, 0.6 * (1.0 + 1e-12)) == 0.6 * (1.0 + 1e-12) / 6
    assert rung_step(0.25, 0.61) == 0.61 / 8
    # a coarse step longer than eps/1.25 still takes one step
    assert rung_step(0.5, 0.1) == 0.05


def test_converge_split_error_matches_the_splitting_error(conv_report):
    # ||u(dt) - u(2 dt)||/3 against ||u(dt) - u(dt/8)|| on each rung's own
    # grid; measured 1.011, 1.014 and 1.015 on this config
    cfg, report, _ = conv_report
    data, T = build_data(cfg.data), cfg.t_end
    for row in report.rows:
        g = RadialGrid(cfg.data.r_max, row["points"], include_origin=False)
        u, u_ref = (run(data, row["eps"], T, dt=step, grid=g,
                        snapshot_times=[T]).snapshots[-1].values
                    for step in (row["dt"], row["dt"] / 8.0))
        true = _weighted_l2(u - u_ref, g.nodes, g.dr, data.n)
        assert 0.9 * true <= row["split_error"] <= 1.1 * true


def _converge_payload(**over) -> dict:
    payload = {"data": {"family": "smooth_ball", "chirp": 1.0,
                        "points": 2048},
               "eps_ladder": [0.25, 0.125, 0.0625], "t_end": 0.25,
               "solver_points": 2048, "corrector_points": 1025}
    payload.update(over)
    return payload


def test_converge_split_gate_fails_closed(tmp_path, capsys):
    # at dt = 0.0625 (t_end/(2 dt) = 2, on the mesh) the estimate reads
    # 2.3e-3, 8.5e-3 and 3.2e-2 of the smaller WKB error on the three rungs;
    # the third is past SPLIT_TOL: exit 1 and no output
    assert ExperimentConfig.from_json(_converge_payload(), "converge") \
        == small_converge_config()
    cfg_path = tmp_path / "coarse.json"
    cfg_path.write_text(json.dumps(_converge_payload(dt=0.0625)))
    out = tmp_path / "out"
    assert cli_main(["converge", "--config", str(cfg_path),
                     "--out", str(out)]) == 1
    assert "splitting-error estimate" in capsys.readouterr().err
    assert not (out / "convergence.json").exists()


def test_converge_tail_gate_fails_closed(tmp_path, capsys):
    # at ppw 4 the eps = 1/8 phase needs 75 nodes and the cap of 161 passes
    # it, but the spectrum of u0 needs more: the rung runs on the cap and
    # u(T) ends with a spectral tail of 3.1e-4, past TAIL_TOL; exit 3 and
    # no output
    cfg_path = tmp_path / "capped.json"
    cfg_path.write_text(json.dumps({
        "data": {"chirp": 1.0, "points": 1024, "r_max": 20.0},
        "eps_ladder": [0.125, 0.0625, 0.03125], "t_end": 0.1, "ppw": 4,
        "solver_points": 160, "corrector_points": 257}))
    out = tmp_path / "out"
    assert cli_main(["converge", "--config", str(cfg_path),
                     "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "spectral tail 3.1" in err and "eps = 0.125 on 161 nodes" in err
    assert not (out / "convergence.json").exists()


@pytest.mark.parametrize("chirp", [0.75, 1.0, 1.25])
def test_smoke_ladder_rungs_end_resolved(chirp):
    # perfbench's smoke converge; the rule proportional to the finest grid
    # gave eps = 1/2 255 nodes, where u(T) ends with a spectral tail of
    # 2.8e-4 to 3.2e-4; the spectrum of u0 gives it 431 or 449 nodes, and
    # every rung ends at most at 9.1e-7
    cfg = ExperimentConfig(scenario="converge",
                           data=DataConfig(chirp=chirp, points=1024),
                           eps_ladder=(0.5, 0.25, 0.125), t_end=0.1,
                           solver_points=1023, corrector_points=257)
    report = converge(cfg)
    first = report.rows[0]
    assert first["points"] > 255
    assert report.spectral_tail <= TAIL_TOL
    assert 0.8 <= report.fitted_order_full <= 1.2
    old = run(build_data(cfg.data), 0.5, 0.1, dt=first["dt"],
              grid=RadialGrid(40.0, 255, include_origin=False))
    assert old.header["spectral_tail"] > TAIL_TOL


def test_converge_rejects_a_dt_that_blinds_the_estimate(tmp_path, capsys):
    # 2 dt > t_end leaves no full coarse step (t_end/(2 dt) = 0.96 is off
    # the mesh); at dt >= t_end both marches would take the same single step
    # and the estimate would read 0
    cfg_path = tmp_path / "blind.json"
    cfg_path.write_text(json.dumps(_converge_payload(dt=0.13)))
    out = tmp_path / "out"
    assert cli_main(["converge", "--config", str(cfg_path),
                     "--out", str(out)]) == 2
    assert "blind" in capsys.readouterr().err
    assert not out.exists()


def test_cli_converge_summary_prints_the_split_ratio(tmp_path, capsys):
    cfg_path = tmp_path / "conv.json"
    cfg_path.write_text(json.dumps(_converge_payload()))
    assert cli_main(["converge", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    ratio = float(out.split("split_ratio=")[1])
    assert 0.0 < ratio <= SPLIT_TOL
    # the worst final spectral tail over the rungs
    tail = float(out.split("spectral_tail=")[1].split()[0])
    assert 0.0 < tail <= TAIL_TOL


def test_converge_deterministic(tmp_path, conv_report):
    cfg0, report0, out0 = conv_report
    outb = tmp_path / "b"
    cfgb = small_converge_config(out_dir=str(outb))
    converge(cfgb)
    a = (out0 / "convergence.csv").read_bytes()
    b = (outb / "convergence.csv").read_bytes()
    assert a == b
    ja = (out0 / "convergence.json").read_bytes()
    jb = (outb / "convergence.json").read_bytes()
    assert ja == jb


def test_classify_sweep_semantics(tmp_path):
    cfg = ExperimentConfig(scenario="classify",
                           data=DataConfig(points=2048, r_max=30.0),
                           amplitude_scales=(0.1, 1.0, 10.0),
                           velocity_scales=(0.9, 1.0, 1.1),
                           out_dir=str(tmp_path))
    rows = classify_sweep(cfg)
    verdicts = {(r["amplitude_scale"], r["velocity_scale"]): r["kind"]
                for r in rows}
    for alpha in (0.1, 1.0, 10.0):
        assert verdicts[(alpha, 1.0)] == "Global"          # scaling family
        assert verdicts[(alpha, 0.9)] == "FiniteTimeBlowup"
        assert verdicts[(alpha, 1.1)] == "FiniteTimeBlowup"
    assert (tmp_path / "classify_sweep.csv").exists()


def test_decay_study_fits(tmp_path):
    cfg = ExperimentConfig(scenario="decay-study",
                           data=DataConfig(points=4096),
                           t_tail=(100.0, 10000.0, 9),
                           out_dir=str(tmp_path))
    rep = decay_study(cfg)
    assert abs(rep["fits"]["l2_a0"]["exponent"]) < 0.01
    assert abs(rep["fits"]["X_at_1"]["exponent"] - 2.0 / 3.0) < 0.02
    assert abs(rep["fits"]["sup_v"]["exponent"] + 1.0 / 3.0) < 0.02
    assert rep["grad_phi0_lp_strictly_decreasing"]
    assert (tmp_path / "decay_study.json").exists()


def test_decay_study_tail_runs_past_the_grid():
    # at t = 1 the last-time label estimate is 23.8, inside r_max = 40; the
    # vacuum-tail labels must still run outward, to the limit within 1e-4
    cfg = ExperimentConfig(scenario="decay-study",
                           data=DataConfig(family="smooth_ball", points=1024),
                           t_tail=(0.01, 1.0, 8))
    got = decay_study(cfg)["series"]["grad_phi0_lp"]
    _, far = harness.velocity_norms(build_data(cfg.data), [0.01, 1.0], 8.0,
                                    1e6)
    assert got[0] == pytest.approx(far[0], rel=1e-4)
    assert got[-1] == pytest.approx(far[1], rel=1e-4)
    assert far == pytest.approx([1.16808, 1.10480], abs=1e-5)


def test_decay_study_sample_family(tmp_path):
    # the paper's kappa/delta family.  On 2048 points the interpolated v0
    # dips next to the origin and the flow folds between the first nodes by
    # t = 1e4 (B <= 0 on R in [0.0228, 0.0263]); no returned label lies
    # there, and the returned-label check would stop the run if one did
    for points in (2048, 4096):
        cfg_path = tmp_path / f"cfg{points}.json"
        cfg_path.write_text(json.dumps({"data": {"family": "sample",
                                                 "points": points},
                                        "t_tail": [100, 10000, 9]}))
        out = tmp_path / f"out{points}"
        with pytest.warns(RuntimeWarning, match="truncates"):
            assert cli_main(["decay-study", "--config", str(cfg_path),
                             "--out", str(out)]) == 0
        rep = json.loads((out / "decay_study.json").read_text())
        assert all(np.isfinite(v).all() for v in rep["series"].values())


def test_decay_study_sample_family_fold_fails_closed(tmp_path, capsys):
    # on 1024 points the fold reaches the first label: exit 3, no output
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"data": {"family": "sample",
                                             "points": 1024}}))
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning, match="truncates"):
        assert cli_main(["decay-study", "--config", str(cfg_path),
                         "--out", str(out)]) == 3
    assert "folds (B <= 0) at label R = 0.0391 by t = 2154.43" in \
        capsys.readouterr().err
    assert not out.exists()


def test_evolve_ep_outputs(tmp_path):
    # compatible data, and uncoupled data at rest (static limit flow X = R)
    for k, data in enumerate([DataConfig(points=2048, r_max=30.0),
                              DataConfig(family="gaussian_free", lam=0.0,
                                         points=2048, r_max=30.0)]):
        out_dir = tmp_path / str(k)
        cfg = ExperimentConfig(scenario="evolve-ep", data=data,
                               t_end=2.0, labels=(0.5, 1.0), times=(1.0,),
                               out_dir=str(out_dir))
        out = evolve_ep(cfg)
        assert out["verdict"]["kind"] == "Global"
        assert (out_dir / "verdict.json").exists()
        assert (out_dir / "trajectory_R0.5.csv").exists()
        assert (out_dir / "trajectory_R1.csv").exists()
        assert (out_dir / "rho_t1.csv").exists()
        desc = json.loads((out_dir / "rho_t1.json").read_text())
        assert desc["grid"]["points"] > 0 and "provenance" in desc
        text = (out_dir / "trajectory_R1.csv").read_text()
        assert text.splitlines()[2] == "t,X,Xdot,B"


def test_evolve_ep_failure_writes_nothing(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "data": {"points": 2048, "r_max": 30.0}, "times": [-1.0]}))
    out_dir = tmp_path / "out"
    assert cli_main(["evolve-ep", "--config", str(cfg_path),
                     "--out", str(out_dir)]) == 2
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_wkb_eval_failure_writes_nothing(tmp_path, monkeypatch):
    # the second time's leading order fails after the first one succeeded
    solve, times = harness.leading_order, []

    def failing(data, t, grid=None):
        times.append(t)
        if len(times) == 2:
            raise ConvergenceError("injected failure")
        return solve(data, t, grid)

    monkeypatch.setattr(harness, "leading_order", failing)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "data": {"points": 1024, "r_max": 20.0, "chirp": 0.5},
        "times": [0.2, 0.4], "corrector_points": 513}))
    out_dir = tmp_path / "out"
    assert cli_main(["wkb-eval", "--config", str(cfg_path),
                     "--out", str(out_dir)]) == 1
    assert times == [0.2, 0.4]
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_wkb_eval_outputs(tmp_path):
    # a repeated time gives one snapshot
    for k, times in enumerate([(0.2, 0.4), (0.2, 0.4, 0.2)]):
        out = tmp_path / str(k)
        cfg = ExperimentConfig(scenario="wkb-eval",
                               data=DataConfig(points=1024, r_max=20.0,
                                               chirp=0.5),
                               times=times, corrector_points=513,
                               out_dir=str(out))
        fields = wkb_eval(cfg)
        assert len(fields) == 2
        assert fields[0].a1 is not None and fields[1].phi1 is not None
        text = (out / "fields_t0.2.csv").read_text()
        assert text.splitlines()[2].startswith("r,a0_re,a0_im,phi0,V_P,a1_re")
        # one record per time, with the corrector's time-error estimate there
        records = [json.loads(line) for line in
                   (out / "norms.jsonl").read_text().splitlines()]
        corr = first_corrector(build_data(cfg.data), 0.4,
                               grid=RadialGrid(20.0, 513),
                               sample_times=[0.2, 0.4])
        assert [rec["t"] for rec in records] == [0.2, 0.4]
        assert [rec["corrector_time_error"] for rec in records] \
            == list(corr.time_error)
        assert all(0.0 < err <= TIME_ERROR_TOL for err in corr.time_error)


@pytest.mark.parametrize("gap", [1e-13, 1e-11])
def test_wkb_eval_merges_times_within_the_landing_tolerance(gap, tmp_path):
    # times closer than LANDING_TOL * t_end (2e-10) are one sample: one
    # field file and one record, paired with the corrector's one sample
    times = [0.2, 0.2 + gap]
    payload = {"data": {"points": 1024, "r_max": 20.0, "chirp": 0.5},
               "times": times, "corrector_points": 257}
    cfg_path = tmp_path / "near.json"
    cfg_path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert cli_main(["wkb-eval", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    assert [p.name for p in out.glob("fields_t*.csv")] == ["fields_t0.2.csv"]
    records = [json.loads(line) for line in
               (out / "norms.jsonl").read_text().splitlines()]
    corr = first_corrector(build_data(DataConfig(**payload["data"])),
                           max(times), grid=RadialGrid(20.0, 257),
                           sample_times=times)
    assert len(corr.time_error) == len(records) == 1
    assert records[0]["t"] == 0.2
    assert records[0]["corrector_time_error"] == corr.time_error[0]


def test_schrodinger_run_outputs(tmp_path):
    cfg = ExperimentConfig(scenario="schrodinger-run",
                           data=DataConfig(points=1024, r_max=20.0),
                           eps_ladder=(0.25,), t_end=0.1,
                           solver_points=1024, times=(0.05,),
                           out_dir=str(tmp_path))
    out = schrodinger_run(cfg)
    masses = [rec["mass"] for rec in out["observables"]]
    assert abs(masses[-1] - masses[0]) / masses[0] < 1e-10
    header = json.loads((tmp_path / "header.json").read_text())
    assert header["config_hash"] == cfg.hash()
    # solver_points 1024 rounds up to the fast count 1079 (2(M+1) = 2160)
    assert header["grid"]["points"] == 1079
    assert header["transform_len_fast"]
    assert (tmp_path / "observables.jsonl").exists()
    assert (tmp_path / "snapshot_t0.1.csv").exists()
    # one line per observation, each exactly the run's record
    lines = [json.loads(line) for line in
             (tmp_path / "observables.jsonl").read_text().splitlines()]
    res = run(build_data(cfg.data), 0.25, 0.1, dt=cfg.dt,
              grid=RadialGrid(20.0, 1079, include_origin=False),
              observable_times=[0.0, 0.05, 0.1], ppw=cfg.ppw)
    assert len(lines) == len(res.observables)
    for line, ob in zip(lines, res.observables):
        assert set(line) == {"boundary_mass", "energy", "mass", "t"}
        assert line == dataclasses.asdict(ob)


def _wave_payload(**over) -> dict:
    payload = {"data": {"chirp": 1.0, "points": 2048}, "eps_ladder": [0.125],
               "t_end": 0.5, "solver_points": 1024,
               "times": [0.013, 0.1, 0.37]}
    payload.update(over)
    return payload


@pytest.fixture(scope="module")
def wave_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("wave")
    cfg = dataclasses.replace(
        ExperimentConfig.from_json(_wave_payload(), "schrodinger-run"),
        out_dir=str(out))
    return cfg, schrodinger_run(cfg), out


def test_schrodinger_run_split_error_matches_the_splitting_error(wave_run):
    # ||u(dt) - u(2 dt)||/3 against ||u(dt) - u(dt/8)|| at the default step
    # eps/2.5 = 0.05 on 1079 nodes; measured 1.01
    cfg, out, _ = wave_run
    header, T = out["header"], cfg.t_end
    data = build_data(cfg.data)
    g = RadialGrid(cfg.data.r_max, header["grid"]["points"],
                   include_origin=False)
    u, u_ref = (run(data, 0.125, T, dt=step, grid=g,
                    snapshot_times=[T]).snapshots[-1].values
                for step in (header["dt"], header["dt"] / 8.0))
    true = _weighted_l2(u - u_ref, g.nodes, g.dr, data.n)
    assert 0.9 * true <= header["split_error"] <= 1.1 * true


def test_schrodinger_run_header_records_the_step_and_estimate(wave_run):
    # split_ratio is the estimate over eps ||u0||; measured 2.4e-3
    cfg, out, path = wave_run
    header = json.loads((path / "header.json").read_text())
    assert header == out["header"]
    assert header["dt"] == rung_step(0.125, cfg.t_end) == 0.05
    norm0 = math.sqrt(out["observables"][0]["mass"])
    assert header["split_ratio"] == header["split_error"] / (0.125 * norm0)
    assert 0.0 < header["split_ratio"] <= SPLIT_TOL
    assert 0.0 < header["spectral_tail"] <= TAIL_TOL


def test_schrodinger_run_observes_at_the_next_mesh_time(wave_run):
    # each requested time s is observed at the first mesh time k dt at or
    # after s - LANDING_TOL * t_end, and that time is recorded; none of
    # these mesh times falls short of its s
    cfg, out, _ = wave_run
    dt = out["header"]["dt"]
    requested = [0.0, 0.013, 0.1, 0.37, 0.5]
    observed = [ob["t"] for ob in out["observables"]]
    assert len(observed) == len(requested)
    for s, t in zip(requested, observed):
        assert s - 1e-12 <= t <= s + dt
        assert abs(t / dt - round(t / dt)) <= 1e-9
    assert observed[1] == dt


def test_run_default_step_is_the_rung_step():
    data = build_data(DataConfig(points=1024, r_max=20.0))
    g = RadialGrid(20.0, 1079, include_origin=False)
    for eps, T in ((0.25, 0.1), (0.25, 0.3), (0.125, 0.25)):
        assert run(data, eps, T, grid=g).header["dt"] == rung_step(eps, T)


def test_schrodinger_run_split_gate_fails_closed(tmp_path, capsys):
    # at dt = 0.25 (one coarse step) the estimate reads 5.5e-2 of eps ||u0||,
    # past SPLIT_TOL: exit 1 and nothing written
    cfg_path = tmp_path / "coarse.json"
    cfg_path.write_text(json.dumps(_wave_payload(dt=0.25)))
    out = tmp_path / "out"
    assert cli_main(["schrodinger-run", "--config", str(cfg_path),
                     "--out", str(out)]) == 1
    assert "splitting-error estimate" in capsys.readouterr().err
    assert not (out / "header.json").exists()


@pytest.mark.parametrize("dt, on_mesh", [
    (0.0625, True), (0.125, True), (0.025, True),   # t_end/(2 dt) = 2, 1, 5
    (0.0625 * (1 + 1e-12), True),                   # inside LANDING_TOL
    (0.0625 * (1 + 1e-8), False),
    (0.05, False), (0.1, False), (0.07, False),     # 2.5, 1.25, 1.79
    (0.13, False)])                                 # 0.96: no coarse step
@pytest.mark.parametrize("scenario", ["converge", "schrodinger-run"])
def test_config_takes_only_a_dt_on_the_split_mesh(scenario, dt, on_mesh):
    def make():
        return ExperimentConfig(scenario=scenario, t_end=0.25, dt=dt)
    if on_mesh:
        assert make().dt == dt
    else:
        with pytest.raises(ConfigError, match="off the mesh"):
            make()
    # scenarios that take no Strang step do not check it
    assert ExperimentConfig(scenario="wkb-eval", t_end=0.25, dt=dt).dt == dt
    # the config and split_march share one rule
    assert (split_mesh_error(0.25, dt) is None) == on_mesh


@pytest.mark.parametrize("dt", [0.05, 0.1, 0.13, 0.0625 * (1 + 1e-8)])
def test_split_march_rejects_a_dt_off_its_mesh(dt, monkeypatch):
    # called directly, with no config to validate it, split_march refuses
    # the step before it marches (at dt = 0.05 the estimate would read 0.87
    # of the true error)
    def marching(*args, **kwargs):
        raise AssertionError("marched on an off-mesh dt")
    monkeypatch.setattr(harness, "run", marching)
    data = build_data(DataConfig(points=1024, r_max=20.0))
    grid = RadialGrid(20.0, 1079, include_origin=False)
    with pytest.raises(ParameterError, match="off the mesh"):
        split_march(data, 0.25, 0.25, dt, grid, 16, marching)


@pytest.mark.parametrize("scenario, payload", [
    ("converge", _converge_payload(dt=0.1)),          # t_end/(2 dt) = 1.25
    ("schrodinger-run", _wave_payload(dt=0.15))])     # 1.67
def test_off_mesh_dt_is_rejected_before_the_data_is_built(
        scenario, payload, tmp_path, capsys, monkeypatch):
    def build_data(cfg):
        raise AssertionError("data built for an off-mesh dt")
    monkeypatch.setattr(harness, "build_data", build_data)
    cfg_path = tmp_path / "off.json"
    cfg_path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert cli_main([scenario, "--config", str(cfg_path),
                     "--out", str(out)]) == 2
    assert "off the mesh" in capsys.readouterr().err
    assert not out.exists()


# -- CLI ---------------------------------------------------------------------------

def test_cli_exit_codes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "data": {"family": "smooth_ball", "points": 1024, "r_max": 20.0},
        "velocity_scales": [1.0], "amplitude_scales": [1.0]}))
    assert cli_main(["classify", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bogus": True}))
    assert cli_main(["classify", "--config", str(bad)]) == 2

    lad = tmp_path / "lad.json"
    lad.write_text(json.dumps({"eps_ladder": [0.5, 0.5]}))
    assert cli_main(["converge", "--config", str(lad)]) == 2

    # malformed value types are validation errors, not tracebacks
    for payload in ({"data": None}, {"eps_ladder": 0.1}, {"t_end": "x"},
                    {"data": {"points": "many"}}, {"eps_ladder": [0.5, "a"]},
                    {"ppw": True}, {"data": {"lam": None}}):
        typed = tmp_path / "typed.json"
        typed.write_text(json.dumps(payload))
        assert cli_main(["converge", "--config", str(typed)]) == 2

    # out-of-range values are validation errors under the scenario they
    # would otherwise break (a negative ppw defeats the resolution guard)
    small = {"data": {"points": 512, "r_max": 20.0}}
    for scenario, payload in (
            ("schrodinger-run", {"ppw": 0}),
            ("schrodinger-run", {"ppw": -4, "solver_points": 16}),
            ("schrodinger-run", {"eps_ladder": []}),
            ("decay-study", {"t_tail": [100, 10000]}),
            ("decay-study", {"t_tail": [100, 10000, -1]}),
            ("decay-study", {"norm_p": 0}),
            ("schrodinger-run", {"solver_points": -3}),
            ("converge", {"solver_points": 15}),
            ("converge", {"corrector_points": 0}),
            ("wkb-eval", {"times": []}),
            # json.load reads NaN and Infinity; each is rejected up front
            ("schrodinger-run", {**small, "dt": math.inf}),
            ("schrodinger-run", {**small, "dt": math.nan}),
            ("converge", {**small, "dt": math.nan}),
            ("converge", {**small, "dt": -1.0}),
            ("schrodinger-run", {**small, "dt": 0}),
            ("schrodinger-run", {**small, "t_end": math.inf}),
            ("decay-study", {**small, "norm_p": math.nan}),
            ("converge", {"data": {"points": 512, "r_max": math.nan}}),
            ("schrodinger-run", {"data": {"points": 1024, "r_max": 20.0},
                                 "eps_ladder": [0.25], "t_end": 0.1,
                                 "solver_points": 1024,
                                 "times": [-1.0, 0.02]}),
            ("schrodinger-run", {"data": {"points": 1024, "r_max": 20.0},
                                 "eps_ladder": [0.25], "t_end": 0.1,
                                 "solver_points": 1024,
                                 "times": [0.05, 0.2]})):
        ranged = tmp_path / "ranged.json"
        ranged.write_text(json.dumps(payload))
        out_dir = tmp_path / "ranged_out"
        assert cli_main([scenario, "--config", str(ranged),
                         "--out", str(out_dir)]) == 2
        assert not out_dir.exists()

    # under-resolved solver grid -> resolution error -> exit 3
    res = tmp_path / "res.json"
    res.write_text(json.dumps({
        "data": {"family": "smooth_ball", "points": 2048},
        "eps_ladder": [0.03125, 0.015625, 0.0078125],
        "t_end": 0.02, "solver_points": 512, "corrector_points": 513}))
    assert cli_main(["converge", "--config", str(res)]) == 3

    # norm_p = Infinity is the sup norm and stays accepted
    sup = tmp_path / "sup.json"
    sup.write_text(json.dumps({**small, "norm_p": math.inf}))
    assert cli_main(["decay-study", "--config", str(sup)]) == 0

    # there is no --threads flag: argparse exits with a usage error
    with pytest.raises(SystemExit) as exc:
        cli_main(["converge", "--threads", "2"])
    assert exc.value.code == 2


def test_cli_schrodinger_run_summary_names_its_grid(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "data": {"points": 1024, "r_max": 20.0}, "eps_ladder": [0.25],
        "t_end": 0.02, "solver_points": 1024, "times": [0.01]}))
    assert cli_main(["schrodinger-run", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out.rstrip().endswith(" points=1079")
