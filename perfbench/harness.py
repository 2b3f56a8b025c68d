"""Measured loop, metrics and result line of the benchmark (entry: run.py)."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from fnmatch import fnmatchcase
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

import numpy as np

import checks
import config
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"

#: fresh interpreters that repeat the set-up, besides this process's own
SETUP_PROBES = 4
#: wall time given to each per-call RHS timing in the traced run
RHS_PROBE_SECONDS = 0.3
#: median time of calibration_work() on the reference machine (2-vCPU x86-64
#: container, Python 3.11.7, numpy 2.4.6); it fixes the unit "reference second"
CAL_REFERENCE_S = 0.020
#: task time between two calibrations
CALIBRATE_EVERY_S = 0.25

# the bootstrap warns past the depths it trusts; the checks judge the result
warnings.simplefilter("ignore", RuntimeWarning)


def environment(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "held_out_seed": config.HELD_OUT_SEED,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": metadata.version("scipy"),
        "threads": {v: os.environ.get(v) for v in config.THREAD_VARS},
    }


class Result(NamedTuple):
    name: str
    seconds: float       # wall time of the program call
    ref_seconds: float   # the same, rescaled to the reference machine speed
    outcome: checks.Outcome


def calibration_work():
    """Fixed work whose time tracks the machine's current speed.

    Like the program it mixes pure-Python complex arithmetic, small numpy
    array operations and a batched complex power over a few hundred
    kilobytes (the shape of the circle quadrature).  It is the benchmark's
    own code, so no change to ertl moves it.
    """
    acc, z = 0j, 0.3 + 0.1j
    for k in range(30000):
        acc = acc * 0.999 + z * (k % 7) / (1 + k % 3)
    a = np.linspace(0.0, 1.0, 257) + 0j
    for _ in range(300):
        a = a * 0.5 + np.exp(1j * a.real)
    w = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 2048))
    ks = np.arange(-20, 21)
    for _ in range(4):
        acc += (w[None, :] ** ks[:, None] * w[None, :]).mean(axis=1).sum()
    return acc, a


def calibrate() -> float:
    start = time.perf_counter()
    calibration_work()
    return time.perf_counter() - start


def run_sweep(tasks, tracer=None) -> list:
    """Run every task once; returns a Result per task.

    Only the program call is timed, and only it is traced.  A task that
    raises is a failed task.  The calibration work runs before the first
    task and after every CALIBRATE_EVERY_S of task time; each task's wall
    time is rescaled by CAL_REFERENCE_S over the mean of the calibrations
    around it, which cancels the machine's speed drift (see README.md).
    """
    results, segment = [], []
    cal, since = calibrate(), 0.0
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.enabled = True
        start = time.perf_counter()
        try:
            out, error = task.run(), None
        except Exception as exc:  # reported as a failed task; the run goes on
            out, error = None, exc
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        if error is not None:
            outcome = checks.fail(f"raised {type(error).__name__}: {error}")
        else:
            try:
                outcome = task.check(out)
            except Exception as exc:  # malformed output
                outcome = checks.fail(f"check raised {type(exc).__name__}: {exc}")
        segment.append((task.name, seconds, outcome))
        since += seconds
        if since >= CALIBRATE_EVERY_S or i == len(tasks) - 1:
            nxt = calibrate()
            scale = CAL_REFERENCE_S / ((cal + nxt) / 2)
            results += [Result(n, s, s * scale, o) for n, s, o in segment]
            segment, cal, since = [], nxt, 0.0
    return results


def is_baseline_failure(name: str) -> bool:
    return any(fnmatchcase(name, pattern) for pattern in config.BASELINE_FAILURES)


def summarize(sweeps) -> dict:
    """Counts, failures outside the baseline record, and a per-task record."""
    flat = [r for sweep in sweeps for r in sweep]
    per_task = {}
    for name, seconds, _, outcome in flat:
        rec = per_task.setdefault(name, {"runs": 0, "failed": 0, "seconds": [],
                                         "digits": checks.DIGITS_CAP, "detail": ""})
        rec["runs"] += 1
        rec["seconds"].append(seconds)
        rec["digits"] = min(rec["digits"], outcome.digits)
        if not outcome.ok:
            rec["failed"] += 1
            rec["detail"] = outcome.detail
    for rec in per_task.values():
        rec["median_s"] = statistics.median(rec.pop("seconds"))
    return {
        "attempted": len(flat),
        "failed": sum(not r.outcome.ok for r in flat),
        "unexpected": sorted({r.name for r in flat
                              if not r.outcome.ok and not is_baseline_failure(r.name)}),
        "tasks": per_task,
    }


def end_to_end(sweeps, setup_samples) -> dict:
    """The end-to-end metrics, name -> (value, unit)."""
    rates = [sum(r.outcome.ok for r in sw) / sum(r.ref_seconds for r in sw) for sw in sweeps]
    outcomes = [r.outcome for sw in sweeps for r in sw]
    passed = [o.digits for o in outcomes if o.ok]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "verified_per_s": (statistics.median(rates), "1/ref_s"),
        "verified_frac": (len(passed) / len(outcomes), "fraction"),
        "accuracy_digits": (min(passed) if passed else 0.0, "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def setup_probe_samples(args) -> list:
    """Set-up times of fresh interpreters doing the same imports and inputs."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def timed_loop(seconds, body):
    """Call body() until ``seconds`` have passed; at least once."""
    deadline = time.perf_counter() + seconds
    while True:
        body()
        if time.perf_counter() >= deadline:
            return


def rhs_timings(lattice_inputs) -> dict:
    """Median per-call microseconds of the lattice right-hand sides."""
    import ertl.lattice as lattice
    out = {}
    for metric, fn_name, state in workloads.rhs_probes(lattice_inputs):
        fn = getattr(lattice, fn_name)
        per_call = []
        deadline = time.perf_counter() + RHS_PROBE_SECONDS
        while time.perf_counter() < deadline:
            start = time.perf_counter()
            for _ in range(20):
                fn(state)
            per_call.append((time.perf_counter() - start) / 20 * 1e6)
        out[metric] = (statistics.median(per_call), "us")
    return out


def measure(args, t_start):
    """--trace 0: one workload, end-to-end metrics."""
    inputs = workloads.make_inputs(args.workload, args.seed)
    setup_samples = [time.perf_counter() - t_start] + setup_probe_samples(args)
    tasks = workloads.make_tasks(args.workload, inputs, OUT_DIR)
    sweeps = []
    timed_loop(args.seconds, lambda: sweeps.append(run_sweep(tasks)))
    raw = [sum(r.outcome.ok for r in sw) / sum(r.seconds for r in sw) for sw in sweeps]
    extra = {"sweeps": len(sweeps), "setup_samples": setup_samples,
             "raw_verified_per_wall_s": statistics.median(raw)}
    return sweeps, end_to_end(sweeps, setup_samples), extra


def trace(args, env):
    """--trace 1: every workload, untraced then traced, round after round.

    The per-layer metrics cover all layers whichever workload is named, so
    every traced run reports the same set; the untraced sweeps of the same
    rounds give the tracing overhead.
    """
    inputs = {w: workloads.make_inputs(w, args.seed) for w in workloads.NAMES}
    tasks = {w: workloads.make_tasks(w, inputs[w], OUT_DIR) for w in workloads.NAMES}
    tracer = tracing.Tracer()
    patch = tracing.Patch(tracer)
    # one warm-up sweep each, so that first calls fall on neither side
    sweeps = [run_sweep(tasks[w]) for w in workloads.NAMES]
    untraced, traced = [], []

    def one_round():
        for w in workloads.NAMES:
            untraced.append(run_sweep(tasks[w]))
            with patch:
                traced.append(run_sweep(tasks[w], tracer))

    timed_loop(args.seconds, one_round)
    rounds = len(traced) // len(workloads.NAMES)
    metrics = tracing.layer_metrics(tracer.spans, rounds)
    metrics.update(rhs_timings(inputs["lattice"]))
    task_time = {side: sum(r.ref_seconds for sw in sw_list for r in sw)
                 for side, sw_list in (("untraced", untraced), ("traced", traced))}
    metrics["trace.overhead_frac"] = (task_time["traced"] / task_time["untraced"] - 1.0,
                                      "fraction")
    tracing.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json",
                        tracer.spans, env)
    extra = {"rounds": rounds, "task_ref_seconds": task_time}
    return sweeps + untraced + traced, metrics, extra


def main(args, t_start) -> int:
    if args.setup_probe:
        workloads.make_inputs(args.workload, args.seed)
        print(repr(time.perf_counter() - t_start))
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    env = environment(args)
    if args.trace:
        sweeps, metrics, extra = trace(args, env)
    else:
        sweeps, metrics, extra = measure(args, t_start)
    summary = summarize(sweeps)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {"env": env, **extra, **summary, "metrics": metrics}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"env": env, **extra, "unexpected_failures": summary["unexpected"]}))
    print(json.dumps({"correct": not summary["unexpected"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0
