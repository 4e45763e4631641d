import json
import os

import numpy as np
import pytest

from semiwkb import ConfigError, DataConfig, ExperimentConfig, RadialGrid
from semiwkb.cli import main as cli_main
from semiwkb.harness import (build_data, classify_sweep, converge,
                             decay_study, evolve_ep, schrodinger_run,
                             wkb_eval)


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
    recorded = {"converge": "73a9dbef4fd15783",
                "classify": "d83cb50a478c3273",
                "decay-study": "8853f95825dc9a11",
                "schrodinger-run": "d3d47abd6cc9e3ba"}
    for scenario, digest in recorded.items():
        assert ExperimentConfig(scenario=scenario).hash() == digest
    # the committed study configs
    configs = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    committed = {"converge": "67bf6b77004b98e7",
                 "classify": "3c3f65a3637a7654",
                 "decay-study": "8853f95825dc9a11"}
    assert sorted(os.listdir(configs)) == sorted(f"{s}.json" for s in committed)
    for scenario, digest in committed.items():
        with open(os.path.join(configs, f"{scenario}.json")) as f:
            payload = json.load(f)
        assert ExperimentConfig.from_json(payload,
                                          scenario=scenario).hash() == digest


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
    assert "runtime_s" not in payload["rows"][0]   # timings live in the sidecar
    assert (out / "timing.json").exists()


def test_converge_deterministic_and_thread_invariant(tmp_path, conv_report):
    cfg0, report0, out0 = conv_report
    outb = tmp_path / "b"
    cfgb = small_converge_config(out_dir=str(outb), threads=2)
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
        assert (out / "norms.jsonl").exists()


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
    assert (tmp_path / "observables.jsonl").exists()
    assert (tmp_path / "snapshot_t0.1.csv").exists()


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
                    {"threads": True}, {"data": {"lam": None}}):
        typed = tmp_path / "typed.json"
        typed.write_text(json.dumps(payload))
        assert cli_main(["converge", "--config", str(typed)]) == 2

    # out-of-range values are validation errors under the scenario they
    # would otherwise break (a negative ppw defeats the resolution guard)
    for scenario, payload in (
            ("schrodinger-run", {"ppw": 0}),
            ("schrodinger-run", {"ppw": -4, "solver_points": 16}),
            ("schrodinger-run", {"eps_ladder": []}),
            ("decay-study", {"t_tail": [100, 10000]}),
            ("decay-study", {"t_tail": [100, 10000, -1]}),
            ("decay-study", {"norm_p": 0}),
            ("wkb-eval", {"times": []}),
            ("schrodinger-run", {"data": {"points": 1024, "r_max": 20.0},
                                 "eps_ladder": [0.25], "t_end": 0.1,
                                 "solver_points": 1024,
                                 "times": [-1.0, 0.02]})):
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
