import collections
import copy
import dataclasses
import json
import math
import os
import pickle
import sys

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from semiwkb import (ConfigError, ConvergenceError, DataConfig,
                     ExperimentConfig, RadialGrid, harness, initial_wavefield,
                     madelung_observables, run, wkb)
from semiwkb.cli import main as cli_main
from semiwkb.errors import ParameterError
from semiwkb.grids import LANDING_TOL, time_mesh
from semiwkb.harness import (FAMILIES, SCENARIOS, SPLIT_TOL, TAIL_TOL, UNREAD,
                             ConvergenceReport,
                             _weighted_l2, build_data, classify_sweep,
                             converge, decay_study, evolve_ep, rung_points,
                             rung_step, schrodinger_run, split_march,
                             split_mesh_error, wkb_eval)
from semiwkb.norms import decay_fit, lp_norm
from semiwkb.profiles import InitialData
from semiwkb.schrodinger import dst, fast_points, required_points
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


@pytest.mark.parametrize("scenario, payload", [
    ("converge", {"ppw": 16}), ("schrodinger-run", {"ppw": 16}),
    ("decay-study", {"norm_p": 8}), ("decay-study", {"norm_p": math.inf})])
def test_constants_are_not_config_keys(tmp_path, capsys, scenario, payload):
    # the phase's points per wavelength (schrodinger.PPW) and decay-study's
    # norm exponent (harness.NORM_P) are constants: a config that sets one
    # names an unknown key and exits 2
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    assert cli_main([scenario, "--config", str(path)]) == 2
    assert f"unknown keys in config: {list(payload)}" in capsys.readouterr().err


def test_config_rejects_bad_ladders():
    with pytest.raises(ConfigError):
        ExperimentConfig(scenario="converge", eps_ladder=(0.5, 0.5, 0.25))
    with pytest.raises(ConfigError):
        ExperimentConfig(scenario="converge", eps_ladder=(0.5, 0.25))
    with pytest.raises(ConfigError):
        ExperimentConfig(scenario="converge", eps_ladder=(2.0, 1.0, 0.5))


@pytest.mark.parametrize("cls, kwargs", [
    (ExperimentConfig, dict(scenario="converge", dt=math.nan,
                            t_end=math.inf)),
    (ExperimentConfig, dict(scenario="decay-study",
                            t_tail=(-math.inf, 100.0, 13))),
    (ExperimentConfig, dict(scenario="converge", dt=-1.0)),
    (ExperimentConfig, dict(scenario="converge", dt=0.0)),
    (ExperimentConfig, dict(scenario="wkb-eval", times=(0.5, math.nan))),
    (DataConfig, dict(r_max=math.inf)),
    (DataConfig, dict(chirp=math.nan)),
    (ExperimentConfig, dict(scenario="decay-study",
                            t_tail=(100.0, 10000.0, math.nan))),
    (ExperimentConfig, dict(scenario="decay-study",
                            t_tail=(100.0, math.inf, 13))),
])
def test_config_rejects_non_finite_and_non_positive_dt(cls, kwargs):
    # direct construction takes the same check as a JSON file
    with pytest.raises(ConfigError):
        cls(**kwargs)


def test_config_scenario_gate():
    with pytest.raises(ConfigError):
        ExperimentConfig(scenario="nope")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json({"scenario": "converge"},
                                   scenario="classify")
    # a JSON null names no scenario, and the requested one runs
    assert ExperimentConfig.from_json({"scenario": None},
                                      scenario="converge").scenario == "converge"


def test_on_disk_format_pinned():
    # emitted data hashes and run headers are computed over these values
    assert RadialGrid(40.0, 8192).descriptor() == {
        "r_max": 40.0, "points": 8192, "spacing": "uniform",
        "include_origin": True, "stretch": 1.0}
    recorded = {"converge": "2a10892dd84bcd13",
                "classify": "d495ebfa3df3c91e",
                "decay-study": "1e580c7df96c0670",
                "schrodinger-run": "6b8e7a0739a87ee7",
                "evolve-ep": "d017b2db96ebcc50",
                "wkb-eval": "af3f27823b4747c3"}
    for scenario, digest in recorded.items():
        assert ExperimentConfig(scenario=scenario).hash() == digest
    # the committed study configs
    configs = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    committed = {"converge": "df3fb28baeb7ed79",
                 "classify": "9103ba98c920fec4",
                 "decay-study": "1e580c7df96c0670",
                 "evolve-ep": "44ba6fcb422b23e5",
                 "schrodinger-run": "aa7ea55517968132",
                 "wkb-eval": "e835e06eeacdfe00"}
    assert sorted(os.listdir(configs)) == sorted(f"{s}.json" for s in committed)
    for scenario, digest in committed.items():
        with open(os.path.join(configs, f"{scenario}.json")) as f:
            payload = json.load(f)
        assert ExperimentConfig.from_json(payload,
                                          scenario=scenario).hash() == digest


def test_config_list_keys_become_tuples():
    # every tuple-annotated key is read from a JSON list into a tuple, under
    # a scenario that reads it
    lists = {"converge": {"eps_ladder": [0.5, 0.25, 0.125]},
             "evolve-ep": {"times": [0.1], "labels": [1.0]},
             "classify": {"velocity_scales": [1.0],
                          "amplitude_scales": [2.0]},
             "decay-study": {"t_tail": [10.0, 1000.0, 8]}}
    for scenario, keys in lists.items():
        cfg = ExperimentConfig.from_json(keys, scenario=scenario)
        for key, value in keys.items():
            assert getattr(cfg, key) == tuple(value)
        tuples = {k: tuple(v) for k, v in keys.items()}
        assert cfg == ExperimentConfig(scenario=scenario, **tuples)
        assert cfg.hash() == ExperimentConfig(scenario=scenario,
                                              **tuples).hash()


def test_config_hash_stable():
    a = small_converge_config()
    b = small_converge_config()
    assert a.hash() == b.hash()
    c = small_converge_config(t_end=0.3)
    assert a.hash() != c.hash()


# -- one config path: the type check, canonical form and hash ----------------

# quarters: whole ones can be spelled as ints, and all read back exactly from
# float32 and from JSON
QUARTERS = st.integers(-40, 40).map(lambda k: k / 4)
POSITIVE = st.integers(1, 40).map(lambda k: k / 4)


def _quarter_sets(min_size):
    # distinct quarters carry distinct output file names
    return st.sets(POSITIVE, min_size=min_size, max_size=4).map(
        lambda s: tuple(sorted(s)))


@st.composite
def experiments(draw):
    """The keyword arguments of a valid config in its all-float spelling:
    floats as Python floats, tuple fields as tuples of them (t_tail's count
    too), ints as Python ints; ``data`` holds DataConfig's.  Only the keys
    the drawn scenario and data family read are drawn."""
    scenario = draw(st.sampled_from(sorted(SCENARIOS)))
    owner = SCENARIOS[scenario]
    # classify sweeps velocity_scale, which gaussian_free does not read
    family = draw(st.sampled_from(sorted(
        f for f in FAMILIES if set(owner.sweeps) <= set(FAMILIES[f].reads))))
    types = {f.name: f.type for f in dataclasses.fields(DataConfig)}
    data = {k: draw(st.integers(16, 4096) if types[k] == "int"
                    else QUARTERS)
            for k in FAMILIES[family].reads if k not in owner.sweeps}
    if family == "gaussian_free":
        data["lam"] = 0.0
    t_end, t_min = draw(POSITIVE), draw(st.integers(1, 100))
    ladder = tuple(sorted(draw(st.sets(st.sampled_from(
        [1.0, 0.5, 0.25, 0.125, 0.0625]), min_size=3)), reverse=True))
    values = {
        # schrodinger-run marches one eps, converge at least three
        "eps_ladder": ladder[:1] if scenario == "schrodinger-run" else ladder,
        "t_end": t_end,
        # a dt on the mesh of the splitting estimate, t_end/(2 dt) whole
        "dt": draw(st.none()
                   | st.integers(1, 4).map(lambda j: t_end / 2 ** j)),
        "solver_points": draw(st.integers(16, 2 ** 14)),
        "corrector_points": draw(st.integers(16, 2 ** 14)),
        # schrodinger-run observes no time past t_end
        "times": tuple(t for t in draw(_quarter_sets(1))
                       if scenario != "schrodinger-run" or t <= t_end),
        "labels": draw(_quarter_sets(1)),
        "velocity_scales": draw(_quarter_sets(1)),
        "amplitude_scales": draw(_quarter_sets(1)),
        "t_tail": (float(t_min),
                   float(t_min * draw(st.sampled_from([100, 1000]))),
                   float(draw(st.integers(8, 20)))),
    }
    return {"scenario": scenario, "data": {"family": family, **data},
            **{k: values[k] for k in owner.reads}}


def _spell(draw, x, kind):
    """x as an int field's Python or numpy int, or as a float field's Python
    or numpy float, or its int where it is whole."""
    ints, floats = [int, np.int64, np.int32], [float, np.float64, np.float32]
    if kind == "int":
        kinds = ints
    elif kind == "tuple":
        entries = [_spell(draw, e, "float") for e in x]
        return draw(st.sampled_from([list, tuple]))(entries)
    else:
        kinds = floats + (ints if math.isfinite(x) and x.is_integer() else [])
    return draw(st.sampled_from(kinds))(x)


def _respell(draw, cls, values):
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    return {k: v if v is None or types[k] == "str"
            else _spell(draw, v, types[k].removesuffix(" | None"))
            for k, v in values.items()}


def _as_json(payload) -> dict:
    # json.dumps writes numpy floats as floats; numpy ints go through item()
    return json.loads(json.dumps(payload, default=lambda x: x.item()))


def _canonical_types(config) -> None:
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if value is UNREAD:
            continue
        if f.type == "tuple":
            types = [float] * len(value)
            if f.name == "t_tail":
                types[2] = int
            assert type(value) is tuple
            assert [type(x) for x in value] == types
        elif f.type == "int":
            assert type(value) is int
        elif f.type.startswith("float") and value is not None:
            assert type(value) is float


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_config_spellings_are_one_config(data):
    # however a number is spelled and whichever path builds the config, it
    # is one config: equal, hashable, and stamped with one hash
    kw = data.draw(experiments())
    spelled_data = _respell(data.draw, DataConfig, kw["data"])
    spelled = _respell(data.draw, ExperimentConfig,
                       {k: v for k, v in kw.items() if k != "data"})
    reference = ExperimentConfig(**{**kw, "data": DataConfig(**kw["data"])})
    direct = ExperimentConfig(**spelled, data=DataConfig(**spelled_data))
    via_json = ExperimentConfig.from_json(
        _as_json({**spelled, "data": spelled_data}))
    assert direct == via_json == reference
    assert hash(direct) == hash(via_json) == hash(reference)
    assert direct.hash() == via_json.hash() == reference.hash()
    # a key's UNREAD marker survives a copy and a pickle as itself
    assert pickle.loads(pickle.dumps(direct)) == direct
    assert copy.deepcopy(direct) == direct
    for config in (direct, via_json):
        _canonical_types(config)
        _canonical_types(config.data)


# wrong values for each annotation; np.bool_ and numpy floats go to JSON as
# Python bools and floats
WRONG = {
    "int": [True, np.True_, "3", 3.0, np.float64(2.5), math.nan, None, [3]],
    "float": [True, "0.5", math.nan, np.float64(math.nan), -math.inf,
              math.inf, None, [0.5]],
    "float | None": [True, "0.5", math.nan, math.inf],
    "tuple": [0.5, "0.5", None, [True], ["a"], [0.5, None], [math.nan],
              [[0.5]], (np.float64(math.nan),)],
    "str": [3, None, True, ["converge"]],
    "str | None": [3, True],
    "DataConfig": [None, [], "smooth_ball", 3],
}


@st.composite
def wrong_fields(draw):
    """(is a data field, field name, wrong value, a scenario or a family
    that reads the field: any, where every one does)"""
    cls = draw(st.sampled_from([DataConfig, ExperimentConfig]))
    f = draw(st.sampled_from(dataclasses.fields(cls)))
    wrong = draw(st.sampled_from(WRONG[f.type]))
    owners = FAMILIES if cls is DataConfig else SCENARIOS
    owner = draw(st.sampled_from(sorted(
        name for name, o in owners.items()
        if f.default is not UNREAD or f.name in o.reads)))
    return cls is DataConfig, f.name, wrong, owner


@settings(max_examples=200, deadline=None)
@given(case=wrong_fields())
def test_config_wrong_types_fail_on_both_paths(case):
    # the type pass refuses the value, not the unread-key check: each field
    # is set under an owner that reads it
    in_data, key, wrong, owner = case
    data = {"family": owner, key: wrong}
    payload = ({"scenario": "converge", "data": data} if in_data
               else {"scenario": owner, key: wrong})
    # JSON null for the scenario names none
    why = "wrong type|must be finite|no scenario given"
    with pytest.raises(ConfigError, match="wrong type|must be finite"):
        if in_data:
            DataConfig(**data)
        else:
            ExperimentConfig(**payload)
    with pytest.raises(ConfigError, match=why):
        ExperimentConfig.from_json(_as_json(payload))


@pytest.mark.parametrize("cls, kwargs", [
    (ExperimentConfig, dict(scenario="converge", solver_points=True)),
    (DataConfig, dict(n=3.0)),
    (ExperimentConfig, dict(scenario="converge", solver_points=1023.5)),
    (DataConfig, dict(points=1024.0)),
    (ExperimentConfig, dict(scenario="converge", t_end="1")),
])
def test_config_built_in_python_takes_the_type_checks(cls, kwargs):
    with pytest.raises(ConfigError, match="wrong type"):
        cls(**kwargs)


def test_python_built_schrodinger_run_refuses_times_past_t_end():
    # as from JSON; its own default is no times, so no default passes t_end
    with pytest.raises(ConfigError, match="pass t_end"):
        ExperimentConfig(scenario="schrodinger-run", t_end=0.5,
                         times=(0.25, 2.0))
    assert ExperimentConfig(scenario="schrodinger-run").times == ()
    for times in ((0.5, 1.0, 5.0), (0.5, 1, 5)):
        with pytest.raises(ConfigError, match="pass t_end"):
            ExperimentConfig(scenario="schrodinger-run", times=times)
        with pytest.raises(ConfigError, match="pass t_end"):
            ExperimentConfig.from_json({"times": list(times)},
                                       "schrodinger-run")
    # evolve-ep takes times past t_end, where its trajectories end; wkb-eval
    # reads no t_end, its horizon is its last time
    assert ExperimentConfig(scenario="evolve-ep", t_end=0.5,
                            times=(0.25, 2.0)).times == (0.25, 2.0)
    with pytest.raises(ConfigError, match="does not read config key 't_end'"):
        ExperimentConfig(scenario="wkb-eval", t_end=0.5, times=(0.25, 2.0))


# a value of each key, other than any owner's default, that every owner
# reading the key accepts
OTHER = {"t_end": 1.0, "dt": 0.125, "solver_points": 4095,
         "corrector_points": 1025, "times": (0.25,),
         "labels": (1.5,), "velocity_scales": (2.0,),
         "amplitude_scales": (2.0,), "t_tail": (10.0, 1000.0, 9),
         "n": 4, "lam": -2.0, "amplitude_scale": 2.0,
         "velocity_scale": 0.5, "chirp": 1.0, "kappa": 2.0, "delta": 0.5,
         "r_max": 20.0, "points": 1024}


def _keys(cls) -> list:
    return [f.name for f in dataclasses.fields(cls) if f.default is UNREAD]


def test_every_key_has_a_reader():
    # a key no owner reads is a dead knob; each name an owner reads or
    # defaults is a key of its config class, and each a scenario sweeps is a
    # data key
    for cls, owners in ((ExperimentConfig, SCENARIOS), (DataConfig, FAMILIES)):
        keys = set(_keys(cls))
        assert keys == {k for owner in owners.values() for k in owner.reads}
        for owner in owners.values():
            assert set(owner.defaults) <= keys
    assert ({k for owner in SCENARIOS.values() for k in owner.sweeps}
            <= set(_keys(DataConfig)))


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_each_scenario_and_family_reads_its_own_keys(scenario):
    # a key the scenario or the data family does not read is refused on
    # both paths by a message that names it, and every key either reads
    # moves the hash
    owner = SCENARIOS[scenario]
    other = {**OTHER, "eps_ladder": (0.25,) if scenario == "schrodinger-run"
             else (0.5, 0.25, 0.125)}
    base = ExperimentConfig(scenario=scenario).hash()
    for key in _keys(ExperimentConfig):
        if key in owner.reads:
            assert ExperimentConfig(scenario=scenario,
                                    **{key: other[key]}).hash() != base
            continue
        why = f"{scenario}' does not read config key '{key}'"
        with pytest.raises(ConfigError, match=why):
            ExperimentConfig(scenario=scenario, **{key: other[key]})
        for value in (other[key], None):
            with pytest.raises(ConfigError, match=why):
                ExperimentConfig.from_json(_as_json({key: value}), scenario)
    for family in FAMILIES:
        reads = FAMILIES[family].reads

        def python(**kw):
            return ExperimentConfig(scenario=scenario,
                                    data=DataConfig(family=family, **kw))

        def via_json(**kw):
            return ExperimentConfig.from_json(
                _as_json({"data": {"family": family, **kw}}), scenario)
        if not set(owner.sweeps) <= set(reads):
            # classify sweeps velocity_scale, which gaussian_free does not
            # read
            for build in (python, via_json):
                with pytest.raises(ConfigError, match="sweeps data key"):
                    build()
            continue
        base = python().hash()
        assert via_json().hash() == base
        for key in _keys(DataConfig):
            if key in owner.sweeps:
                # refused set away from its default, on both paths alike
                default = {f.name: f for f in dataclasses.fields(
                    DataConfig)}[key].metadata["default"]
                for build in (python, via_json):
                    with pytest.raises(ConfigError,
                                       match=f"sweeps data keys .*'{key}'"):
                        build(**{key: OTHER[key]})
                    assert build(**{key: default}).hash() == base
            elif key in reads:
                if (family, key) != ("gaussian_free", "lam"):   # fixed at 0
                    assert python(**{key: OTHER[key]}).hash() != base
            else:
                why = f"'{family}' does not read data key '{key}'"
                for build in (python, via_json):
                    with pytest.raises(ConfigError, match=why):
                        build(**{key: OTHER[key]})


def test_unread_keys_leave_the_hash_alone():
    # the default converge config; at the parent, labels = (1.0,) and
    # amplitude_scales = (2.0,) moved its hash, though converge reads
    # neither
    assert ExperimentConfig(scenario="converge").hash() == "2a10892dd84bcd13"
    for key, value in (("labels", (1.0,)), ("amplitude_scales", (2.0,))):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            ExperimentConfig(scenario="converge", **{key: value})
    # out_dir is where a run writes, not what it computes
    config = ExperimentConfig(scenario="converge", out_dir="a")
    assert config.hash() == "2a10892dd84bcd13"


def test_schrodinger_run_takes_one_eps(tmp_path, capsys):
    # it marches one eps: a longer ladder is refused, where it used to run
    # the first entry and size a grid for each of the others
    assert ExperimentConfig(scenario="schrodinger-run").eps_ladder == (0.125,)
    with pytest.raises(ConfigError, match="one eps"):
        ExperimentConfig(scenario="schrodinger-run",
                         eps_ladder=(0.125, 0.0625))
    cfg_path = tmp_path / "ladder.json"
    cfg_path.write_text(json.dumps(_wave_payload(eps_ladder=[0.125, 0.0625])))
    assert cli_main(["schrodinger-run", "--config", str(cfg_path)]) == 2
    assert "one eps" in capsys.readouterr().err


def test_equal_experiments_hash_alike():
    assert ExperimentConfig(scenario="converge",
                            t_end=1).hash() == "1192d3ff83ec3448"
    for config in (ExperimentConfig.from_json({"data": {"lam": -1}},
                                              "converge"),
                   ExperimentConfig(scenario="converge",
                                    data=DataConfig(lam=-1))):
        assert config.hash() == "2a10892dd84bcd13"
    for t_tail in ((100, 10000, 13), (100.0, 10000.0, 13.0)):
        assert ExperimentConfig(scenario="decay-study",
                                t_tail=t_tail).hash() == "1e580c7df96c0670"
    config = ExperimentConfig(scenario="wkb-eval", times=[1, 2])
    assert config.times == (1.0, 2.0)
    assert hash(config) == hash(dataclasses.replace(config, times=(1.0, 2.0)))


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
    # its PPW count, well under the cap, whichever cap it is given
    data_cfg = DataConfig(chirp=1.0, points=8192)
    cfg = ExperimentConfig(scenario="converge", data=data_cfg,
                           eps_ladder=(1 / 8, 1 / 16, 1 / 32, 1 / 64),
                           t_end=0.5, solver_points=solver_points)
    data = build_data(data_cfg)
    counts = rung_points(data, cfg)
    assert counts == expected
    for eps, m in zip(cfg.eps_ladder, counts):
        need = required_points(data, eps, data_cfg.r_max)
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
    assert required_points(data, 0.25, data_cfg.r_max) == 16
    assert rung_points(data, cfg) == [39, 39, 39, 39]
    capped = dataclasses.replace(cfg, solver_points=24)
    assert rung_points(data, capped) == [fast_points(24)] * 4 == [24] * 4


def test_converge_takes_max_v0_once(monkeypatch, tmp_path):
    # on the perfbench ladder, the v0 spline runs over the whole data grid
    # twice per call: once for max|v0| (every required_points call shares
    # it) and once for the corrector's node rates
    callers = collections.Counter()

    def spy(name):
        method = getattr(InitialData, name)

        def counted(self, R):
            if np.size(R) == self.grid.points:
                callers[sys._getframe(1).f_code.co_name] += 1
            return method(self, R)
        monkeypatch.setattr(InitialData, name, counted)
    spy("v0_at")
    spy("v0_and_slope_at")     # rates_at's one lookup of v0 and v0'
    cfg = ExperimentConfig(scenario="converge",
                           data=DataConfig(chirp=1.0, points=8192),
                           eps_ladder=(1 / 8, 1 / 16, 1 / 32, 1 / 64),
                           t_end=0.5, solver_points=8192,
                           corrector_points=2049, out_dir=str(tmp_path))
    report = converge(cfg)
    assert [row["points"] for row in report.rows] == [624, 1214, 2429, 4859]
    assert callers == {"v0_max": 1, "rates_at": 1}


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


def _full_steps(t_end, step):
    """Whether ``time_mesh`` marches to t_end in full steps of ``step`` alone
    and its last one lands on t_end."""
    mesh = list(time_mesh(t_end, step))
    return (all(s == step for s, _ in mesh)
            and abs(mesh[-1][1] - t_end) <= LANDING_TOL * t_end)


# a relative offset of the step: well inside LANDING_TOL, or well outside it
# but short of another whole count
_offsets = st.one_of(
    st.floats(min_value=-LANDING_TOL / 2, max_value=LANDING_TOL / 2),
    st.tuples(st.sampled_from((-1.0, 1.0)),
              st.floats(min_value=2 * LANDING_TOL, max_value=1e-4)).map(
                  lambda sm: sm[0] * sm[1]))


@settings(max_examples=200, deadline=None)
@given(t_end=st.floats(min_value=1e-3, max_value=10.0),
       k=st.integers(1, 2000), delta=_offsets)
def test_split_mesh_takes_the_steps_the_coarse_mesh_lands(t_end, k, delta):
    dt = t_end / (2 * k) * (1.0 + delta)
    assert (split_mesh_error(t_end, dt) is None) == _full_steps(t_end, 2 * dt)
    assert (split_mesh_error(t_end, dt) is None) == (abs(delta)
                                                     <= LANDING_TOL)


@settings(max_examples=100, deadline=None)
@given(t_end=st.floats(min_value=1e-3, max_value=10.0),
       eps=st.floats(min_value=1 / 256, max_value=1.0))
def test_rung_step_is_on_both_meshes(t_end, eps):
    dt = rung_step(eps, t_end)
    assert split_mesh_error(t_end, dt) is None
    assert _full_steps(t_end, dt) and _full_steps(t_end, 2 * dt)


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
    # data at rest: the phase needs only the floor of 16 nodes and the
    # spectrum of u0 needs 39 (``test_rung_points_raised_to_required_points``),
    # so the cap of 24 holds every rung and u(T) ends with a spectral tail
    # of 6.0e-3, past TAIL_TOL; exit 3 and no output
    cfg_path = tmp_path / "capped.json"
    cfg_path.write_text(json.dumps({
        "data": {"family": "gaussian_free", "points": 1024, "r_max": 20.0},
        "eps_ladder": [0.25, 0.125, 0.0625], "t_end": 0.25,
        "solver_points": 24, "corrector_points": 257}))
    out = tmp_path / "out"
    assert cli_main(["converge", "--config", str(cfg_path),
                     "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert ("spectral tail 5.957e-03 of u(0.25) at eps = 0.25 on 24 nodes"
            in err)
    # the message names the knob that caps the grid
    assert "solver_points" in err and "ppw" not in err
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


def test_each_scenario_owns_its_summary_line():
    # the CLI prints "<scenario>: " and the owner's summary of the result;
    # on fixed results each line is the one the CLI printed when it held a
    # branch per scenario name
    assert all(callable(o.summary) for o in SCENARIOS.values())
    assert all(o.summary is None for o in FAMILIES.values())
    report = ConvergenceReport(
        rows=[{"points": 624}, {"points": 1214}], fitted_order_modulus=1.04,
        fitted_order_full=0.996, excluded_eps=[0.125], config_hash="0",
        split_ratio=4.27e-3, spectral_tail=1.2e-7)
    wave = {"observables": [{"t": 0.0}, {"t": 0.5, "mass": 4.689214734,
                                         "energy": 0.062074214}],
            "header": {"dt": 0.0125, "split_ratio": 2.06e-3,
                       "spectral_tail": 6.77e-10, "grid": {"points": 2429}}}
    lines = {
        "converge": (report, "order_modulus=1.040 order_full=0.996 "
                     "excluded=[0.125] points=[624, 1214] "
                     "spectral_tail=1.20e-07 split_ratio=4.27e-03"),
        "classify": ([{"kind": "Global"}, {"kind": "FiniteTimeBlowup"},
                      {"kind": "Global"}],
                     "{'Global': 2, 'FiniteTimeBlowup': 1}"),
        "decay-study": ({"fits": {"sup_v": {"exponent": -0.33221},
                                  "l2_a0": {"exponent": 0.0}}},
                        "exponents={'sup_v': -0.3322, 'l2_a0': 0.0}"),
        "evolve-ep": ({"verdict": {"kind": "Global"}}, "verdict=Global"),
        "wkb-eval": ([{}, {}, {}], "evaluated 3 snapshots"),
        "schrodinger-run": (wave, "t=0.5 mass=4.689214734 energy=0.062074214 "
                            "dt=0.0125 split_ratio=2.06e-03 "
                            "spectral_tail=6.77e-10 points=2429"),
    }
    assert set(lines) == set(SCENARIOS)
    for name, (result, line) in lines.items():
        assert SCENARIOS[name].summary(result) == line


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


def _reference_decay_study(config):
    """decay_study as it was before it pulled back a0 alone: the whole
    leading_order at every time, of which it reads a0."""
    data = build_data(config.data)
    times = np.geomspace(*config.t_tail)
    tail_c = max(data.tail_coeff, 1e-6)
    label_top = max(20.0 * (0.5 * data.n * tail_c * times[-1]) ** (2.0 / data.n),
                    100.0 * data.r_max)
    series = {name: [] for name in
              ("l2_a0", "sup_v", "X_at_1", "grad_phi0_lp", "grad_a0_l2")}
    edge_and_one = harness.label_flow(data, [data.r_max, 1.0])
    for t in times:
        top, X_at_1 = (float(x) for x in edge_and_one.at(t).X)
        grid_t = RadialGrid(top, 8192)
        f = leading_order(data, t, grid_t)
        series["l2_a0"].append(lp_norm(f.a0.values, grid_t.nodes, data.n, 2))
        series["X_at_1"].append(X_at_1)
        da0 = f.a0.derivative(1, left_parity="even")
        series["grad_a0_l2"].append(lp_norm(da0, grid_t.nodes, data.n, 2))
    series["sup_v"], series["grad_phi0_lp"] = harness.velocity_norms(
        data, times, label_top)
    fits = {}
    for name, vals in series.items():
        fit = decay_fit(times, np.array(vals))
        fits[name] = {"exponent": fit.exponent, "stderr": fit.stderr}
    return {"config_hash": config.hash(),
            "times": [float(t) for t in times],
            "series": {k: [float(x) for x in v] for k, v in series.items()},
            "fits": fits,
            "grad_phi0_lp_strictly_decreasing":
                bool(np.all(np.diff(series["grad_phi0_lp"]) < 0))}


def test_decay_study_pulls_back_a0_alone(monkeypatch):
    # no phase tail quadrature, no Poisson solve: one flow-map inversion per
    # time, and the report of the whole leading order
    cfg = ExperimentConfig(scenario="decay-study",
                           data=DataConfig(family="smooth_ball", points=1024))
    calls = collections.Counter()

    def spy(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for name in ("_potential_term_nodes", "hartree_potential",
                 "invert_flow_map"):
        spy(wkb, name)
    spy(scipy.integrate, "quad")    # the phase tail imports it where it calls it
    report = decay_study(cfg)
    assert calls == {"invert_flow_map": cfg.t_tail[2]}
    monkeypatch.undo()
    assert report == _reference_decay_study(cfg)


def test_decay_study_tail_runs_past_the_grid():
    # at t = 1 the last-time label estimate is 23.8, inside r_max = 40; the
    # vacuum-tail labels must still run outward, to the limit within 1e-4
    cfg = ExperimentConfig(scenario="decay-study",
                           data=DataConfig(family="smooth_ball", points=1024),
                           t_tail=(0.01, 1.0, 8))
    got = decay_study(cfg)["series"]["grad_phi0_lp"]
    _, far = harness.velocity_norms(build_data(cfg.data), [0.01, 1.0], 1e6)
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
    # the run takes the rung_points count, 224 (2(M+1) = 450), under the cap
    # of solver_points 1024 rounded up to the fast count 1079
    assert header["grid"]["points"] == rung_points(build_data(cfg.data),
                                                   cfg)[0] == 224
    assert header["transform_len_fast"]
    assert (tmp_path / "observables.jsonl").exists()
    assert (tmp_path / "snapshot_t0.1.csv").exists()
    # one line per observation, each exactly the run's record
    lines = [json.loads(line) for line in
             (tmp_path / "observables.jsonl").read_text().splitlines()]
    res = run(build_data(cfg.data), 0.25, 0.1, dt=header["dt"],
              grid=RadialGrid(20.0, 224, include_origin=False),
              observable_times=[0.0, 0.05, 0.1])
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
    # eps/2.5 = 0.05 on 624 nodes; measured 1.01
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


def test_schrodinger_run_state_is_the_cap_grid_state(wave_run):
    # the run takes rung_points' 624 nodes, not the cap's 1079; its u(T)
    # matches the cap grid's to 1.6e-6 (relative L2 in the sine basis, the
    # first 624 modes), and the cap grid's modes past 624 hold 7.1e-9.
    # sqrt(dr) times the DST of w = r u is, up to one factor, the sine
    # series of w on every grid of the box
    cfg, out, path = wave_run
    header, T = out["header"], cfg.t_end
    assert header["grid"]["points"] == 624
    r, re, im = np.loadtxt(path / "snapshot_t0.5.csv", delimiter=",",
                           comments="#", skiprows=4).T
    g = RadialGrid(cfg.data.r_max, fast_points(cfg.solver_points),
                   include_origin=False)
    assert g.points == 1079
    cap = run(build_data(cfg.data), 0.125, T, dt=header["dt"], grid=g,
              snapshot_times=[T]).snapshots[-1]
    small = dst(r * (re + 1j * im)) * math.sqrt(r[0])     # r[0] = dr
    big = cap.spectrum * math.sqrt(g.dr)
    scale = np.linalg.norm(big)
    assert np.linalg.norm(small - big[:624]) <= 4e-6 * scale
    assert np.linalg.norm(big[624:]) <= 2e-8 * scale


def test_wave_energy_is_grid_independent():
    # the spectral energy of u0 reads 0.3554157 on 624 nodes and on 1079 to
    # 5.8e-7 (relative; the fourth-order Hartree term's grid error); the
    # stencil energy it replaced read 0.35127 and 0.35494, 1.0 % apart
    cfg = ExperimentConfig.from_json(_wave_payload(), "schrodinger-run")
    data = build_data(cfg.data)
    e624, e1079 = (madelung_observables(initial_wavefield(
        data, 0.125, RadialGrid(cfg.data.r_max, m, include_origin=False))
    ).energy for m in (624, 1079))
    assert abs(e624 - e1079) <= 2e-6 * abs(e1079)


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


def test_split_march_default_step_is_the_rung_step():
    data = build_data(DataConfig(points=1024, r_max=20.0))
    g = RadialGrid(20.0, 1079, include_origin=False)
    for eps, T in ((0.25, 0.1), (0.25, 0.3), (0.125, 0.25)):
        fine, _ = split_march(data, eps, T, None, g,
                              lambda fine: (1.0, "one"))
        assert fine.header["dt"] == rung_step(eps, T)


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
    # scenarios that take no Strang step do not read a dt
    with pytest.raises(ConfigError, match="does not read config key 'dt'"):
        ExperimentConfig(scenario="wkb-eval", dt=dt)
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
        split_march(data, 0.25, 0.25, dt, grid, marching)


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

def test_cli_exit_codes(tmp_path, capsys):
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
                    {"solver_points": True}, {"data": {"lam": None}}):
        typed = tmp_path / "typed.json"
        typed.write_text(json.dumps(payload))
        assert cli_main(["converge", "--config", str(typed)]) == 2

    # out-of-range values are validation errors under the scenario they
    # would otherwise break
    small = {"data": {"points": 512, "r_max": 20.0}}
    for scenario, payload in (
            ("schrodinger-run", {"eps_ladder": []}),
            ("decay-study", {"t_tail": [100, 10000]}),
            ("decay-study", {"t_tail": [100, 10000, -1]}),
            # below decay_fit's floor, or a count the log grid would truncate
            ("decay-study", {"t_tail": [100, 10000, 7]}),
            ("decay-study", {"t_tail": [1, 10, 9]}),
            ("decay-study", {"t_tail": [100, 10000, 8.9]}),
            ("schrodinger-run", {"solver_points": -3}),
            ("converge", {"solver_points": 15}),
            ("converge", {"corrector_points": 0}),
            ("wkb-eval", {"times": []}),
            ("wkb-eval", {**small, "times": [-1.0]}),
            ("wkb-eval", {**small, "times": [-1.0, 0.5]}),
            ("evolve-ep", {**small, "times": [-0.5]}),
            ("classify", {**small, "amplitude_scales": []}),
            ("classify", {**small, "velocity_scales": []}),
            # distinct values that would write to one file name ({x:g})
            ("wkb-eval", {**small, "times": [0.5, 0.5000001],
                          "corrector_points": 257}),
            ("evolve-ep", {**small, "labels": [1.0, 1.0000001]}),
            ("evolve-ep", {**small, "times": [0.5, 0.5000001]}),
            # json.load reads NaN and Infinity; each is rejected up front
            ("schrodinger-run", {**small, "dt": math.inf}),
            ("schrodinger-run", {**small, "dt": math.nan}),
            ("converge", {**small, "dt": math.nan}),
            ("converge", {**small, "dt": -1.0}),
            ("schrodinger-run", {**small, "dt": 0}),
            ("schrodinger-run", {**small, "t_end": math.inf}),
            ("decay-study", {**small, "t_tail": [100, math.nan, 13]}),
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

    # a negative time is refused when the config is built, from JSON or from
    # Python, by a message that names it (not the interval [0, max(times)])
    capsys.readouterr()
    negative = tmp_path / "negative.json"
    negative.write_text(json.dumps({**small, "times": [-1.0]}))
    assert cli_main(["wkb-eval", "--config", str(negative)]) == 2
    assert "time -1 is negative" in capsys.readouterr().err
    for scenario in ("wkb-eval", "evolve-ep", "schrodinger-run"):
        with pytest.raises(ConfigError, match="time -0.5 is negative"):
            ExperimentConfig(scenario=scenario, times=(0.25, -0.5))

    # wkb-eval at t = 0 alone: the initial fields, with no corrector yet
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({**small, "times": [0.0],
                                "corrector_points": 257}))
    assert cli_main(["wkb-eval", "--config", str(zero),
                     "--out", str(tmp_path / "zero_out")]) == 0
    norms = (tmp_path / "zero_out" / "norms.jsonl").read_text()
    record, = [json.loads(line) for line in norms.splitlines()]
    assert record["t"] == 0.0 and record["corrector_time_error"] == 0.0
    fields = np.loadtxt(tmp_path / "zero_out" / "fields_t0.csv",
                        delimiter=",", comments="#", skiprows=3)
    assert not fields[:, 5:].any()          # a1_re, a1_im, phi1

    # under-resolved solver grid -> resolution error -> exit 3
    res = tmp_path / "res.json"
    res.write_text(json.dumps({
        "data": {"family": "smooth_ball", "points": 2048},
        "eps_ladder": [0.03125, 0.015625, 0.0078125],
        "t_end": 0.02, "solver_points": 512, "corrector_points": 513}))
    assert cli_main(["converge", "--config", str(res)]) == 3

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
    # rung_points' count, below the cap fast_points(1024) = 1079
    assert capsys.readouterr().out.rstrip().endswith(" points=224")
