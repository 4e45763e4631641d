"""Module boundaries of the package, read from its source."""

import ast
import json
import os
import subprocess
import sys

import semiwkb

PACKAGE_DIR = os.path.dirname(semiwkb.__file__)


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _own_names(tree: ast.Module) -> set:
    """Every name the module binds itself: functions, classes, methods,
    assignment targets and ``self.<name>`` attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Store):
            names.add(node.attr)
    return names


def private_crossings(path: str) -> list:
    """``_``-prefixed names of other package modules that ``path`` imports
    (relative imports) or reads as an attribute of anything but
    ``self``/``cls``; dunders and imports from other packages are skipped."""
    with open(path) as f:
        tree = ast.parse(f.read(), filename=path)
    own = _own_names(tree)
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            hits += [f"{node.lineno}: import {a.name}" for a in node.names
                     if _private(a.name)]
        elif (isinstance(node, ast.Attribute) and _private(node.attr)
              and node.attr not in own
              and not (isinstance(node.value, ast.Name)
                       and node.value.id in ("self", "cls"))):
            hits.append(f"{node.lineno}: .{node.attr}")
    return hits


def test_no_private_names_across_modules():
    found = {}
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            hits = private_crossings(os.path.join(PACKAGE_DIR, name))
            if hits:
                found[name] = hits
    assert found == {}


def test_landing_rule_lives_in_grids():
    # the landing and reach rules are grids' alone: no other module reads
    # their tolerance
    readers = []
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py") and name != "grids.py":
            with open(os.path.join(PACKAGE_DIR, name)) as f:
                tree = ast.parse(f.read(), filename=name)
            readers += [name for node in ast.walk(tree)
                        if "LANDING_TOL" in (getattr(node, "id", None),
                                             getattr(node, "attr", None),
                                             getattr(node, "name", None))]
    assert readers == []


def test_private_crossings_are_seen(tmp_path):
    # the walker itself: each kind of crossing is reported, the exempt
    # forms are not
    src = tmp_path / "probe.py"
    src.write_text(
        "from .other import _hidden, visible\n"
        "from scipy.fft import dst as _dst\n"
        "class A:\n"
        "    def f(self, data):\n"
        "        self._mine = data._theirs\n"
        "        return self._mine, data.__class__, data._mine\n")
    assert private_crossings(str(src)) == ["1: import _hidden",
                                           "5: ._theirs"]


_AT_FIRST_USE = ("scipy.integrate", "scipy.interpolate", "scipy.optimize")
_IMPORT_GUARD = """
import json, sys
from semiwkb import DataConfig, ExperimentConfig
from semiwkb.harness import run_scenario

def loaded():
    return sorted(m for m in {lazy!r} if m in sys.modules)

stages = {{"import": loaded()}}
data = DataConfig(chirp=1.0, points=1024)
run_scenario(ExperimentConfig(scenario="schrodinger-run", data=data,
                              t_end=0.02, solver_points=1024, times=(0.01,)))
stages["schrodinger-run"] = loaded()
run_scenario(ExperimentConfig(scenario="converge", data=data,
                              eps_ladder=(0.25, 0.125, 0.0625), t_end=0.25,
                              solver_points=2048, corrector_points=513))
stages["converge"] = loaded()
run_scenario(ExperimentConfig(scenario="classify",
                              data=DataConfig(points=1024, r_max=30.0),
                              amplitude_scales=(1.0,),
                              velocity_scales=(0.9, 1.0)))
stages["classify"] = loaded()
print(json.dumps(stages))
"""


def test_wave_solver_starts_without_the_scipy_it_does_not_use():
    # a fresh interpreter: importing the package and a whole schrodinger-run
    # load no scipy.integrate, .interpolate or .optimize; the flow map and
    # the classifier load them at first use
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(PACKAGE_DIR), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD.format(lazy=_AT_FIRST_USE)],
        env=env, capture_output=True, text=True, check=True).stdout
    stages = json.loads(out.splitlines()[-1])
    assert stages["import"] == stages["schrodinger-run"] == []
    assert "scipy.interpolate" in stages["converge"]
    assert stages["classify"] == list(_AT_FIRST_USE)
