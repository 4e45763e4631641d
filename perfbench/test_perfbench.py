"""The benchmark's own tests: ``python3 -m pytest perfbench``."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, seed=5):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert result["attempted"] >= 1
    assert result["correct"] and result["failed"] == 0


def test_per_layer_metrics_match_the_tracer():
    assert set(tracing.PER_LAYER) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    wl = workloads.WORKLOADS[name]
    assert wl.inputs(11) == wl.inputs(11)
    assert wl.inputs(11) != wl.inputs(12)
    assert json.loads(json.dumps(wl.inputs(11))) == wl.inputs(11)


def test_seed_zero_is_the_acceptance_configuration():
    conv = workloads.WORKLOADS["converge"].inputs(0)
    assert conv["chirp"] == 1.0 and conv["eps_ladder"] == [1 / 8, 1 / 16, 1 / 32, 1 / 64]
    assert workloads.WORKLOADS["decay"].inputs(0)["amplitude_scale"] == 1.0
    batch = workloads.WORKLOADS["classify"].inputs(0)["instances"]
    assert len(batch) == 100
    # first draw of the acceptance-3 generator
    assert batch[0]["value"] == np.random.default_rng(715225).uniform(0.5, 2.0)


def test_self_time_never_exceeds_duration(tmp_path):
    wl = workloads.WORKLOADS["converge"]
    state = wl.setup(wl.inputs(3, smoke=True), str(tmp_path))
    tr = tracing.Tracer()
    with tr, tr.span("bench.op"):
        wl.op(state, 0)
    dur, self_t = tr.durations_and_self()
    assert len(dur) > 100
    for i, (d, s) in enumerate(zip(dur, self_t)):
        assert 0.0 <= s <= d, tr.names[i]
        p = tr.parents[i]
        if p >= 0:
            assert tr.starts[p] <= tr.starts[i] <= tr.ends[i] <= tr.ends[p]


def test_tracer_wraps_every_binding_and_restores_it():
    import semiwkb
    import semiwkb.euler_poisson as ep
    import semiwkb.schrodinger as sch
    import semiwkb.wkb as wkb
    originals = (ep.invert_flow_map, wkb.invert_flow_map, sch.dst,
                 sch.hartree_potential, semiwkb.run)
    tr = tracing.Tracer()
    with tr:
        assert ep.invert_flow_map is wkb.invert_flow_map
        assert ep.invert_flow_map is not originals[0]
        assert sch.dst is not originals[2]
        assert sch.hartree_potential is wkb.hartree_potential is not originals[3]
        assert semiwkb.run is sch.run is not originals[4]
    assert (ep.invert_flow_map, wkb.invert_flow_map, sch.dst,
            sch.hartree_potential, semiwkb.run) == originals


def test_removed_name_is_reported_absent_not_raised():
    tr = tracing.Tracer()
    tr.install([("wkb.gone", "semiwkb.wkb", "no_such_function")])
    tr.uninstall()
    assert tr.absent == ["wkb.gone"]
