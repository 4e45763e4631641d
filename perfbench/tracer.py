"""Span tracing around the package's public functions, from outside.

``Tracer.install`` replaces each traced name with a wrapper that records a
span (name, parent span, start, end) in memory.  A function defined in the
package is replaced in every module namespace that binds it (for example
``invert_flow_map`` in both ``semiwkb.euler_poisson`` and ``semiwkb.wkb``);
a name imported from elsewhere (``dst`` in ``semiwkb.schrodinger``) only in
the namespace named.  ``uninstall`` puts the originals back.  A name that no
longer exists is recorded as absent instead of failing the run.

The program is one serial process, so spans nest strictly: a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import sys
import time
from collections import Counter

# (span name, module, attribute path).  A span name is the layer (module)
# followed by the traced function.
TARGETS = [
    ("grids.cumulative_radial", "semiwkb.grids", "cumulative_radial"),
    ("grids.derivative_uniform", "semiwkb.grids", "derivative_uniform"),
    ("grids.profile_eval", "semiwkb.grids", "RadialProfile.__call__"),
] + [
    (f"profiles.{m}", "semiwkb.profiles", f"InitialData.{m}")
    for m in ("rho0_at", "m0_at", "v0_at", "phi0_at", "amplitude_at",
              "v0_prime_at", "F_at", "G_at")
] + [
    (f"profiles.{f}", "semiwkb.profiles", f)
    for f in ("build_initial_data", "ball_data", "smooth_ball_data",
              "sample_data", "free_data", "gaussian_free_data",
              "smooth_ball_amplitude", "sample_amplitude", "cumulative_mass",
              "compatible_phase", "critical_threshold")
] + [
    (f"euler_poisson.{f}", "semiwkb.euler_poisson", f)
    for f in ("invert_flow_map", "explicit_characteristics", "classify",
              "integrate_characteristics")
] + [
    (f"wkb.{f}", "semiwkb.wkb", f)
    for f in ("first_corrector", "leading_order", "hartree_potential")
] + [
    ("schrodinger.strang_step", "semiwkb.schrodinger", "strang_step"),
    ("schrodinger.kinetic_dst", "semiwkb.schrodinger", "dst"),
    ("schrodinger.madelung_observables", "semiwkb.schrodinger",
     "madelung_observables"),
    ("schrodinger.run", "semiwkb.schrodinger", "run"),
] + [
    (f"norms.{f}", "semiwkb.norms", f)
    for f in ("lp_norm", "norm_diagnostics", "decay_fit")
] + [
    (f"harness.{f}", "semiwkb.harness", f)
    for f in ("converge", "schrodinger_run", "decay_study", "classify_sweep",
              "evolve_ep", "wkb_eval", "run_scenario", "build_data")
] + [
    (f"io.{f}", "semiwkb.io", f) for f in ("write_csv", "write_json", "write_jsonl")
]

PACKAGE = "semiwkb"


def _argument(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


# What a span notes about its call, read from the arguments after it returns.
NOTES = {
    "schrodinger.kinetic_dst": lambda a, k: len(a[0]),
    "euler_poisson.invert_flow_map": lambda a, k: float(_argument(a, k, 1, "t")),
    "io.write_csv": lambda a, k: os.path.getsize(a[0]),
    "io.write_json": lambda a, k: os.path.getsize(a[0]),
    "io.write_jsonl": lambda a, k: os.path.getsize(a[0]),
}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.notes: dict[int, object] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def span(self, name: str):
        """Context manager recording one span around a block of benchmark code."""
        return _Span(self, name)

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        note = NOTES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if note is not None:
                tracer.notes[idx] = note(args, kwargs)
            return result
        return traced

    # -- installing wrappers ---------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        self.absent = []
        for name, module_name, path in targets:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for holder, holder_attr in self._bindings(owner, attr, original):
                self._patches.append((holder, holder_attr, original))
                setattr(holder, holder_attr, wrapper)

    @staticmethod
    def _bindings(owner, attr, original):
        """Every (namespace, name) that binds ``original``: all package modules
        for a function the package defines, else only the owner given."""
        if isinstance(owner, type) or not getattr(
                original, "__module__", "").startswith(PACKAGE):
            return [(owner, attr)]
        found = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    found.append((mod, key))
        return found

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ----------------------------------------------------------------

    def durations_and_self(self) -> tuple[list[float], list[float]]:
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]

    def has_ancestor(self, idx: int, names) -> bool:
        p = self.parents[idx]
        while p >= 0:
            if self.names[p] in names:
                return True
            p = self.parents[p]
        return False

    def mean_duration(self, name: str, within: str | None = None):
        """Mean duration of the spans called ``name`` (only those inside a
        ``within`` span, if given); None when there are none."""
        durations = [self.ends[i] - self.starts[i]
                     for i, n in enumerate(self.names) if n == name
                     and (within is None or self.has_ancestor(i, (within,)))]
        return sum(durations) / len(durations) if durations else None

    def write(self, path: str) -> None:
        """Write every span as [name index, parent, start, end, note]."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        spans = [[index[n], p, round(s - t0, 9), round(e - t0, 9),
                  self.notes.get(i)]
                 for i, (n, p, s, e) in enumerate(
                     zip(self.names, self.parents, self.starts, self.ends))]
        with gzip.open(path, "wt") as f:
            json.dump({"names": table, "absent": self.absent,
                       "fields": ["name", "parent", "start_s", "end_s", "note"],
                       "spans": spans}, f, separators=(",", ":"))


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.idx = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False


# -- per-layer metrics ----------------------------------------------------------

PROFILE_EVALUATORS = tuple(f"profiles.{m}" for m in (
    "rho0_at", "m0_at", "v0_at", "phi0_at", "amplitude_at", "v0_prime_at",
    "F_at", "G_at"))

# metric prefix -> (span names it sums, statistics it reports)
GROUPS = {
    "grids.cumulative_radial": (("grids.cumulative_radial",), ("calls", "self_s")),
    "grids.derivative_uniform": (("grids.derivative_uniform",), ("calls", "self_s")),
    "grids.profile_eval": (("grids.profile_eval",), ("calls", "self_s")),
    "profiles.label_eval": (PROFILE_EVALUATORS, ("calls", "self_s")),
    "profiles.v0_prime_at": (("profiles.v0_prime_at",), ("calls", "self_s")),
    "profiles.build": (tuple(t[0] for t in TARGETS
                             if t[0].startswith("profiles.")
                             and t[0] not in PROFILE_EVALUATORS),
                       ("calls", "self_s")),
    "euler_poisson.invert_flow_map": (("euler_poisson.invert_flow_map",),
                                      ("calls", "self_s", "total_s")),
    "euler_poisson.explicit_characteristics": (
        ("euler_poisson.explicit_characteristics",), ("calls", "self_s")),
    "euler_poisson.classify": (("euler_poisson.classify",), ("calls", "self_s")),
    "euler_poisson.integrate_characteristics": (
        ("euler_poisson.integrate_characteristics",), ("calls", "self_s")),
    "wkb.first_corrector": (("wkb.first_corrector",), ("calls", "self_s", "total_s")),
    "wkb.leading_order": (("wkb.leading_order",), ("calls", "self_s", "total_s")),
    "wkb.hartree_potential": (("wkb.hartree_potential",),
                              ("calls", "self_s", "total_s")),
    "schrodinger.strang_step": (("schrodinger.strang_step",),
                                ("calls", "self_s", "total_s")),
    "schrodinger.kinetic_dst": (("schrodinger.kinetic_dst",), ("calls", "self_s")),
    "schrodinger.madelung_observables": (("schrodinger.madelung_observables",),
                                         ("calls", "self_s")),
    "schrodinger.run": (("schrodinger.run",), ("calls", "total_s")),
    "norms.lp_norm": (("norms.lp_norm",), ("calls", "self_s")),
    "norms.norm_diagnostics": (("norms.norm_diagnostics",), ("calls", "self_s")),
    "norms.decay_fit": (("norms.decay_fit",), ("calls", "self_s")),
    "harness.scenario": (tuple(t[0] for t in TARGETS
                               if t[0].startswith("harness.")
                               and t[0] != "harness.build_data"),
                         ("total_s", "self_s")),
    "harness.build_data": (("harness.build_data",), ("calls", "self_s")),
}
STAT_UNITS = {"calls": "count/op", "self_s": "s/op", "total_s": "s/op"}

IO_SPANS = ("io.write_csv", "io.write_json", "io.write_jsonl")
# Exact counts and ratios of counts: unit, and the spans they are made from.
DERIVED = {
    "euler_poisson.explicit_per_inversion": (
        "count", ("euler_poisson.invert_flow_map",
                  "euler_poisson.explicit_characteristics")),
    "wkb.inversions_per_corrector_step": (
        "count", ("euler_poisson.invert_flow_map", "wkb.first_corrector")),
    "schrodinger.poisson_per_step": (
        "count", ("schrodinger.strang_step", "wkb.hartree_potential")),
    "schrodinger.transform_len": ("count", ("schrodinger.kinetic_dst",)),
    "schrodinger.transform_len_fast": ("bool", ("schrodinger.kinetic_dst",)),
    "euler_poisson.warnings": ("count/op", ()),
    "harness.warnings": ("count/op", ()),
    "schrodinger.truncation_warnings": ("count/op", ()),
    "io.files": ("count/op", IO_SPANS),
    "io.bytes_written": ("B/op", IO_SPANS),
    "io.write_s": ("s/op", IO_SPANS),
    "trace.overhead_s": ("s", ()),
}

PER_LAYER = {f"{g}.{stat}": STAT_UNITS[stat]
             for g, (_, stats) in GROUPS.items() for stat in stats}
PER_LAYER.update({name: unit for name, (unit, _) in DERIVED.items()})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, ops: int, warning_files: Counter) -> tuple[dict, list]:
    """Per-layer values, summed over the traced spans and divided by the
    number of traced operations; ratios are taken over the whole run.

    Returns ({metric: value}, [metrics whose traced names are all absent]).
    ``warning_files`` counts the warnings raised, by source file name.
    """
    from scipy.fft import next_fast_len

    dur, self_t = tr.durations_and_self()
    by_name: dict[str, list[int]] = {}
    for i, n in enumerate(tr.names):
        by_name.setdefault(n, []).append(i)

    def spans(names):
        return [i for n in names for i in by_name.get(n, ())]

    absent = [f"{group}.{stat}" for group, (names, stats) in GROUPS.items()
              if all(n in tr.absent for n in names) for stat in stats]
    absent += [name for name, (_, needs) in DERIVED.items()
               if any(n in tr.absent for n in needs)]
    values = {}
    for group, (names, stats) in GROUPS.items():
        idx = spans(names)
        for stat in stats:
            if stat == "calls":
                v = len(idx)
            elif stat == "self_s":
                v = sum(self_t[i] for i in idx)
            else:   # outermost spans only, so recursion is not counted twice
                v = sum(dur[i] for i in idx if not tr.has_ancestor(i, names))
            values[f"{group}.{stat}"] = v / ops

    inversions = by_name.get("euler_poisson.invert_flow_map", [])
    explicit_in_inversion = [i for i in by_name.get(
        "euler_poisson.explicit_characteristics", ())
        if tr.has_ancestor(i, ("euler_poisson.invert_flow_map",))]
    values["euler_poisson.explicit_per_inversion"] = _ratio(
        len(explicit_in_inversion), len(inversions))

    # corrector steps are told apart by the time each step inverts at; the
    # inversion at t = 0 sets up the first step and is not a step of its own
    corrector_times = [tr.notes[i] for i in inversions
                       if tr.has_ancestor(i, ("wkb.first_corrector",))
                       and tr.notes.get(i, 0.0) > 0.0]
    values["wkb.inversions_per_corrector_step"] = _ratio(
        len(corrector_times), len(set(corrector_times)))

    steps = by_name.get("schrodinger.strang_step", [])
    poisson_in_step = [i for i in by_name.get("wkb.hartree_potential", ())
                       if tr.has_ancestor(i, ("schrodinger.strang_step",))]
    values["schrodinger.poisson_per_step"] = _ratio(len(poisson_in_step),
                                                    len(steps))

    lengths = [2 * (tr.notes[i] + 1)
               for i in by_name.get("schrodinger.kinetic_dst", ())]
    length = Counter(lengths).most_common(1)[0][0] if lengths else 0
    values["schrodinger.transform_len"] = length
    values["schrodinger.transform_len_fast"] = int(
        bool(length) and next_fast_len(length, real=True) == length)

    values["euler_poisson.warnings"] = warning_files["euler_poisson.py"] / ops
    values["harness.warnings"] = warning_files["harness.py"] / ops
    values["schrodinger.truncation_warnings"] = warning_files["schrodinger.py"] / ops

    writes = [i for i in spans(IO_SPANS) if not tr.has_ancestor(i, IO_SPANS)]
    values["io.files"] = len(writes) / ops
    values["io.bytes_written"] = sum(tr.notes.get(i, 0) for i in writes) / ops
    values["io.write_s"] = sum(dur[i] for i in writes) / ops
    return values, absent
