"""Module boundaries of the package, read from its source."""

import ast
import os

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
