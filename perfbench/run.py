"""Benchmark of the semiwkb toolkit.

    python3 perfbench/run.py --workload {converge,wave,decay,classify}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  One run sets the workload up, then repeats its operation in a
closed loop (the next operation starts when the previous one has returned)
for about S seconds, never starting a round it expects to end after S.
Every operation's output is checked against the acceptance tolerances.

The host this is meant for runs at a speed that drifts by a factor of two
or more within minutes.  So during untraced runs a timer interrupts the
program every PROBE_PERIOD_S seconds of wall time and times a fixed kernel
(the speed probe): a Python loop, a few vectorised numpy calls and a small
DST.  Every end-to-end time is reported in
*reference seconds*: the wall (or CPU) time of the interval multiplied by the
mean of (nominal kernel time) / (kernel time) over the probes taken in it,
that is the time the interval would have taken on a host where the kernel
runs at its nominal speed.  The raw wall and CPU times are kept in the report.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced round, and prints the per-layer metrics from the
traced spans plus the tracing overhead (traced minus untraced median
operation time).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a report with
the environment, inputs, per-operation times and output fingerprints is
written to ``.perfbench_out/<workload>-seed<N>/``, together with the
operations' own output files and, when traced, the spans.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("converge", "wave", "decay", "classify")
# set-up is timed in this many fresh interpreters besides the run's own
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 60.0
# tail percentile: the highest one with at least this many operations beyond
TAIL_BEYOND = 10
# speed probe period, and its kernel's time on an unloaded 2.1 GHz Xeon core
PROBE_PERIOD_S = 0.02
PROBE_NOMINAL_S = 2.0e-4

E2E_UNITS = {
    "setup_s": "s",
    "op_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "op_cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

# The program is serial; keep BLAS from starting threads of its own.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny problem sizes, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true",
                   help="time the set-up in this interpreter and exit")
    return p.parse_args(argv)


def require_program() -> None:
    if not (SRC / "semiwkb" / "__init__.py").is_file():
        sys.exit(f"perfbench: no semiwkb sources under {SRC}; run from the "
                 "root of a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


class SpeedProbe:
    """Host speed, sampled by timing a fixed kernel from a SIGALRM handler
    (it runs in the main thread between bytecodes, so it never overlaps the
    program's own work).  The kernel is a Python loop plus vectorised numpy
    calls and a small DST-I, in about equal shares, because the workloads
    spend their time in both kinds of code.  Creating a probe imports numpy
    and scipy.fft."""

    def __init__(self):
        import numpy as np
        from scipy.fft import dst
        self._np, self._dst = np, dst
        self._x = np.linspace(0.1, 1.0, 8192)
        self._y = self._x[:2047].copy()
        self.times: list[float] = []
        self.speeds: list[float] = []   # PROBE_NOMINAL_S / kernel time

    def _kernel(self) -> None:
        s = 0
        for i in range(2000):
            s += i * i
        self._np.sum(self._np.sqrt(self._x) * self._x)
        self._np.cumsum(self._x)
        self._dst(self._y, type=1)

    def _sample(self, signum, frame):
        t = time.perf_counter()
        self._kernel()
        self.times.append(t)
        self.speeds.append(PROBE_NOMINAL_S / (time.perf_counter() - t))

    def __enter__(self):
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)
        return False

    def speed(self, t0: float, t1: float) -> float:
        """Mean speed over the probes taken in [t0, t1], or over the two
        around it when none was."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi == lo:
            lo, hi = max(lo - 1, 0), hi + 1
        return statistics.fmean(self.speeds[lo:hi])


def timed_setup(name: str, seed: int, smoke: bool, out_dir: str):
    """Import the program, make the inputs and build data and grids.
    Returns the set-up time in reference seconds and its raw wall time.
    numpy and scipy.fft, which the probe needs, are imported before the
    clock starts."""
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        import workloads
        wl = workloads.WORKLOADS[name]
        inputs = wl.inputs(seed, smoke)
        state = wl.setup(inputs, out_dir)
        t1 = time.perf_counter()
    return (t1 - t0) * probe.speed(t0, t1), t1 - t0, wl, inputs, state


def probe_setup(args) -> list[dict]:
    """Set-up times measured in fresh interpreters, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return times


def environment() -> dict:
    import platform

    import numpy
    import scipy
    caches = {}
    try:   # os.sysconf does not know the cache names; getconf asks the CPU
        listing = subprocess.run(["getconf", "-a"], capture_output=True,
                                 text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        listing = ""
    for line in listing.splitlines():
        key, _, value = line.partition(" ")
        if key in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE",
                   "LEVEL3_CACHE_SIZE") and value.strip().isdigit():
            caches[key.lower()] = int(value)
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "cache_bytes": caches, "blas": blas,
            "blas_thread_env": {v: os.environ.get(v) for v in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


class Loop:
    """Operations run so far, with their times, checks and warnings."""

    def __init__(self, wl, state):
        self.wl, self.state = wl, state
        self.count = 0
        self.spans = {False: [], True: []}    # (start, end) per operation
        self.walls = {False: [], True: []}
        self.cpus = {False: [], True: []}
        self.failures: list[dict] = []
        self.fingerprints: list[dict] = []
        self.warning_files = {False: Counter(), True: Counter()}

    def one(self, traced: bool, tracer=None) -> None:
        i = self.count
        self.count += 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("bench.op"):
                        result = self.wl.op(self.state, i)
                else:
                    result = self.wl.op(self.state, i)
                error = None
            except Exception as exc:     # a failed operation is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            self.cpus[traced].append(time.process_time() - c0)
            self.spans[traced].append((t0, t1))
            self.walls[traced].append(t1 - t0)
        self.warning_files[traced].update(
            os.path.basename(w.filename) for w in caught)
        if error is None:
            try:
                ok, fingerprint = self.wl.check(self.state, result)
            except Exception as exc:     # output the check cannot read
                ok, fingerprint = False, f"{type(exc).__name__}: {exc}"
            self.fingerprints.append(fingerprint)
            if not ok:
                error = f"output check failed: {fingerprint}"
        if error is not None:
            self.failures.append({"op": i, "error": error})

    def run(self, seconds: float, tracer=None) -> tuple[float, float]:
        """Repeat operations (an untraced and a traced one when tracing) while
        the next is expected to end within ``seconds``; at least one runs.
        Returns the (start, end) of the measured window."""
        t_begin = time.perf_counter()
        while True:
            t_cycle = time.perf_counter()
            self.one(False)
            if tracer is not None:
                with tracer:
                    self.one(True, tracer)
            now = time.perf_counter()
            if now + (now - t_cycle) > t_begin + seconds:
                return t_begin, now


def tail(samples: list[float]) -> float:
    """Highest percentile with TAIL_BEYOND operations beyond it; the maximum
    when a run has too few operations for that."""
    ordered = sorted(samples)
    if len(ordered) > TAIL_BEYOND:
        return ordered[-TAIL_BEYOND - 1]
    return ordered[-1]


def end_to_end(loop: Loop, window: tuple[float, float], probe: SpeedProbe,
               setup_times: list[float]) -> dict:
    speeds = [probe.speed(t0, t1) for t0, t1 in loop.spans[False]]
    walls = [w * v for w, v in zip(loop.walls[False], speeds)]
    cpus = [c * v for c, v in zip(loop.cpus[False], speeds)]
    attempted = loop.count
    elapsed = (window[1] - window[0]) * probe.speed(*window)
    return {
        "setup_s": statistics.median(setup_times),
        "op_s": statistics.median(walls),
        "op_tail_s": tail(walls),
        "ops_per_s": attempted / elapsed,
        "op_cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - len(loop.failures)) / attempted,
    }


def baseline_comparison(tr, fingerprints: list[dict]) -> dict:
    """Traced layer times next to the hand-measured figures the project
    started from (M = 8192 wave grid, chirp 1, 2049 corrector nodes,
    T = 0.5); meaningful on the converge workload at seed 0.  Traced times
    include the tracing overhead; the ladder rungs come from an untraced
    operation."""
    measured = {
        "strang_step_ms": tr.mean_duration("schrodinger.strang_step"),
        "dst_ms": tr.mean_duration("schrodinger.kinetic_dst"),
        "poisson_ms": tr.mean_duration("wkb.hartree_potential",
                                       within="schrodinger.strang_step"),
        "first_corrector_s": tr.mean_duration("wkb.first_corrector"),
        "ladder_s": [row["runtime_s"] for row in fingerprints[0].get("rows", [])]
        if fingerprints else [],
    }
    for key in ("strang_step_ms", "dst_ms", "poisson_ms"):
        if measured[key] is not None:
            measured[key] *= 1e3
    reference = {"strang_step_ms": 11.3, "dst_ms": 3.4, "poisson_ms": 1.0,
                 "first_corrector_s": 14.5, "ladder_s": [0.45, 0.77, 1.46, 3.40]}
    ratio = {k: measured[k] / reference[k] for k in reference
             if isinstance(measured[k], float)}
    if len(measured["ladder_s"]) == len(reference["ladder_s"]):
        ratio["ladder_s"] = [m / r for m, r in zip(measured["ladder_s"],
                                                   reference["ladder_s"])]
    return {"measured": measured, "reference": reference,
            "measured_over_reference": ratio}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    require_program()
    run_dir = OUT / f"{args.workload}-seed{args.seed}"
    out_dir = str(run_dir / "outputs")

    if args.setup_only:
        setup_s, setup_wall, *_ = timed_setup(args.workload, args.seed,
                                              args.smoke, out_dir)
        print(json.dumps({"setup_s": setup_s, "wall_s": setup_wall}))
        return 0

    setups = [] if args.trace else probe_setup(args)
    setup_s, setup_wall, wl, inputs, state = timed_setup(
        args.workload, args.seed, args.smoke, out_dir)
    setups.append({"setup_s": setup_s, "wall_s": setup_wall})
    run_dir.mkdir(parents=True, exist_ok=True)

    loop = Loop(wl, state)
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        window = loop.run(args.seconds, tracer)
    else:
        # the probe would add its own time to traced spans, so only
        # untraced runs take it
        with SpeedProbe() as probe:
            window = loop.run(args.seconds)
    elapsed = window[1] - window[0]

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "environment": environment(),
              "inputs": inputs, "setup": setups,
              "op_wall_s": loop.walls[False], "op_cpu_s": loop.cpus[False],
              "failures": loop.failures, "fingerprints": loop.fingerprints}
    if not args.trace:
        metrics = end_to_end(loop, window, probe,
                             [s["setup_s"] for s in setups])
        units = E2E_UNITS
        report["probe_speed"] = {
            "median": statistics.median(probe.speeds),
            "quartiles": statistics.quantiles(probe.speeds, n=4),
            "samples": len(probe.speeds)}
    else:
        traced_ops = len(loop.walls[True])
        metrics, absent = tracing.layer_metrics(tracer, traced_ops,
                                                loop.warning_files[True])
        metrics["trace.overhead_s"] = (statistics.median(loop.walls[True])
                                       - statistics.median(loop.walls[False]))
        units = tracing.PER_LAYER
        report.update({"traced_op_wall_s": loop.walls[True],
                       "absent_metrics": absent, "spans": len(tracer.names),
                       "baseline": baseline_comparison(tracer,
                                                       loop.fingerprints)})
        tracer.write(str(run_dir / "trace.json.gz"))
        if absent:
            print(f"# absent (reported as 0): {', '.join(absent)}")
    report["metrics"] = metrics
    with open(run_dir / f"report-trace{args.trace}.json", "w") as f:
        json.dump(report, f, indent=1, default=str)

    print(f"# {args.workload} seed={args.seed} ops={loop.count} "
          f"elapsed={elapsed:.3f}s failed={len(loop.failures)}")
    if not args.trace:
        print(f"# raw wall: setup {statistics.median(s['wall_s'] for s in setups):.6g} s, "
              f"op median {statistics.median(loop.walls[False]):.6g} s; "
              f"probe speed median {report['probe_speed']['median']:.4g}")
    print(f"# environment {json.dumps(report['environment'], sort_keys=True)}")
    if loop.fingerprints:
        print(f"# fingerprint {json.dumps(loop.fingerprints[0], default=str)}")
    if args.trace:
        print(f"# baseline {json.dumps(report['baseline'])}")
    for failure in loop.failures[:5]:
        print(f"# failure {failure}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not loop.failures, "attempted": loop.count,
        "failed": len(loop.failures),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
