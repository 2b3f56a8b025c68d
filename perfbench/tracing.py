"""Traced run: spans around every public function of the ertl layers.

``Patch`` wraps each public function of the layer modules and replaces the
name wherever a caller looks it up: in its own module (``integrate_buffered``
calls ``ertl.lattice.integrate``), in modules that imported it by name
(``ertl.circle.integrate_core``, ``ertl.cli.lax_spectrum``) and in the
package namespace.  Nothing under ``src/`` changes.  A span records name,
start, end, parent span and a small note taken from the call's result; spans
stay in memory until the run writes them out.  Self time is a span's
duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict

#: the layers; ertl.oracles is a reference route and is never timed
LAYERS = ("measures", "lorth", "lattice", "lax", "circle", "cli")


def _all_finite(values) -> bool:
    return all(math.isfinite(complex(v).real) and math.isfinite(complex(v).imag)
               for v in values)


def _flow_steps(out):
    stats = out[-1]
    return stats["accepted"], stats["rejected"]


#: per-function notes kept on the span: qualified name -> f(result)
NOTES = {
    "measures.compute_moments": lambda out: len(out.nu),
    "lattice.integrate": lambda out: (out.states[0].N, out.step_stats["accepted"],
                                      out.step_stats["rejected"]),
    "lattice.integrate_buffered": lambda out: out.step_stats["n_buf"],
    "lax.spectrum": lambda out: "ok" if _all_finite(out) else "non-finite",
    "circle.integrate_schur": _flow_steps,
    "circle.integrate_cd": _flow_steps,
}


class Tracer:
    """In-memory span recorder; ``enabled`` gates recording at call time."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, note]
        self._stack = []
        self.enabled = False

    def wrap(self, name, fn):
        note = NOTES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = time.perf_counter()
                span[4] = f"raised {type(exc).__name__}"
                raise
            finally:
                stack.pop()
            span[2] = time.perf_counter()
            if note is not None:
                span[4] = note(out)
            return out
        return traced


class Patch:
    """Context manager that installs a tracer's wrappers and restores on exit."""

    def __init__(self, tracer: Tracer):
        self._wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"ertl.{layer}"]
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    self._wrappers[fn] = tracer.wrap(f"{layer}.{attr}", fn)
        self._saved = []

    def __enter__(self):
        for name, mod in list(sys.modules.items()):
            if name != "ertl" and not name.startswith("ertl."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in self._wrappers:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, self._wrappers[val])
        return self

    def __exit__(self, *exc):
        for mod, attr, val in self._saved:
            setattr(mod, attr, val)
        self._saved.clear()
        return False


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, rounds: int = 1) -> dict:
    """Per-layer metrics (name -> (value, unit)) from recorded spans.

    Counts and times are per traced round (one traced sweep of every
    workload), so for a given seed the counts repeat exactly whatever the
    number of rounds; rates and ratios are over all rounds.
    """
    child = [0.0] * len(spans)
    kids = defaultdict(list)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            kids[parent].append(i)

    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    core_self = {"lattice": 0.0, "circle": 0.0}
    site_steps = accepted = rejected = 0
    flow_steps = {"schur": [0, 0], "cd": [0, 0]}
    spectrum_failed = 0
    moments = 0
    buf_reported = buf_total = buf_integrate_calls = 0

    for i, (name, start, end, parent, note) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        self_s[name] += dur - child[i]
        total_s[name] += dur
        if name == "lattice.integrate_core" and parent >= 0:
            caller = spans[parent][0].split(".")[0]
            core_self[caller] = core_self.get(caller, 0.0) + dur - child[i]
        elif name == "lattice.integrate" and isinstance(note, tuple):
            n, acc, rej = note
            site_steps += n * acc
            accepted += acc
            rejected += rej
        elif name in ("circle.integrate_schur", "circle.integrate_cd") and isinstance(note, tuple):
            steps = flow_steps[name.rsplit("_", 1)[1]]
            steps[0] += note[0]
            steps[1] += note[1]
        elif name == "lax.spectrum" and note != "ok":
            spectrum_failed += 1
        elif name == "measures.compute_moments" and isinstance(note, int):
            moments += note
        elif name == "lattice.integrate_buffered" and isinstance(note, int):
            runs = [spans[k][4] for k in kids[i]
                    if spans[k][0] == "lattice.integrate" and isinstance(spans[k][4], tuple)]
            buf_integrate_calls += len(runs)
            buf_total += sum(n * acc for n, acc, _ in runs)
            reported = [n * acc for n, acc, _ in runs if n == note]
            buf_reported += reported[-1] if reported else 0

    out = {}

    def put(name, value, unit):
        out[name] = (value if unit == "fraction" or unit.startswith("1/") else value / rounds,
                     unit)

    put("measures.compute_moments.calls", calls["measures.compute_moments"], "count")
    put("measures.compute_moments.self_s", self_s["measures.compute_moments"], "s")
    put("measures.moments_per_s", _ratio(moments, self_s["measures.compute_moments"]), "1/s")
    put("lorth.bootstrap_recurrence.calls", calls["lorth.bootstrap_recurrence"], "count")
    put("lorth.bootstrap_recurrence.self_s", self_s["lorth.bootstrap_recurrence"], "s")
    put("lattice.integrate.calls", calls["lattice.integrate"], "count")
    put("lattice.integrate.self_s", self_s["lattice.integrate"], "s")
    put("lattice.steps_accepted", accepted, "count")
    put("lattice.steps_rejected", rejected, "count")
    put("lattice.step_accept_ratio", _ratio(accepted, accepted + rejected), "fraction")
    put("lattice.site_steps_per_s", _ratio(site_steps, total_s["lattice.integrate"]), "1/s")
    put("lattice.integrate_core.self_s.lattice", core_self["lattice"], "s")
    put("lattice.integrate_core.self_s.circle", core_self["circle"], "s")
    put("lattice.integrate_buffered.calls", calls["lattice.integrate_buffered"], "count")
    put("lattice.integrate_buffered.integrate_calls", buf_integrate_calls, "count")
    put("lattice.buffer_useful_ratio", _ratio(buf_reported, buf_total), "fraction")
    for fn in ("spectrum", "lax_residual"):
        put(f"lax.{fn}.calls", calls[f"lax.{fn}"], "count")
        put(f"lax.{fn}.self_s", self_s[f"lax.{fn}"], "s")
    put("lax.spectrum.failed", spectrum_failed, "count")
    for fn in ("verblunsky_from_moments", "cd_from_verblunsky", "kernel_coeffs",
               "integrate_schur", "integrate_cd"):
        put(f"circle.{fn}.calls", calls[f"circle.{fn}"], "count")
        put(f"circle.{fn}.self_s", self_s[f"circle.{fn}"], "s")
    put("circle.rhs_schur.calls", calls["circle.rhs_schur"], "count")
    for flow, (acc, rej) in flow_steps.items():
        put(f"circle.{flow}.steps_accepted", acc, "count")
        put(f"circle.{flow}.steps_rejected", rej, "count")
    put("cli.main.calls", calls["cli.main"], "count")
    put("cli.main.self_s", self_s["cli.main"], "s")
    return out


def write_spans(path, spans, env):
    """Spans as compact rows [name index, start, end, parent, note]."""
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    rows = [[index[s[0]], s[1], s[2], s[3], s[4]] for s in spans]
    with open(path, "w") as fh:
        json.dump({"env": env, "names": names, "spans": rows}, fh)
