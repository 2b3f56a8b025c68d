"""Tests of the benchmark itself: checks, seeding, metric names, tracing.

Run from the root of the checkout:  python3 perfbench/selftest.py
"""

import json
import math
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import numpy as np  # noqa: E402

import ertl.lattice as lattice  # noqa: E402
import ertl.lorth as lorth  # noqa: E402
from ertl import circle, oracles  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 3
BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def task(tasks, name):
    return next(t for t in tasks if t.name == name)


def nudged(values, i, delta):
    out = list(values)
    out[i] = out[i] + delta
    return out


class ChecksRejectPerturbedResults(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.workdir = harness.OUT_DIR / "selftest"
        cls.workdir.mkdir(parents=True, exist_ok=True)
        cls.tasks = {w: workloads.make_tasks(w, workloads.make_inputs(w, SEED), cls.workdir)
                     for w in workloads.NAMES}

    def test_measure_coefficient_off_by_1e6(self):
        check = task(self.tasks["measure"], "measure/example2/d12/t0.00").check
        rc = oracles.example2_coeffs(oracles.ClosedFormExample("example2", 1.0, 2.0), 0.0, 12)
        self.assertTrue(check(rc).ok)
        bad = lorth.RecurrenceCoeffs(rc.t, rc.p, rc.q, nudged(rc.beta, 3, 1e-6), rc.alpha)
        self.assertFalse(check(bad).ok)
        nan = lorth.RecurrenceCoeffs(rc.t, rc.p, rc.q, nudged(rc.beta, 3, math.nan), rc.alpha)
        self.assertFalse(check(nan).ok)

    def test_finite_lattice_invariant_off_by_1e6(self):
        t = task(self.tasks["lattice"], "lattice/finite/N40/0")
        traj = t.run()
        self.assertTrue(t.check(traj).ok)
        last = traj.states[-1]
        moved = lattice.LatticeState(last.p, last.q, last.t,
                                     nudged(last.beta, 5, 1e-6 * abs(last.beta[5])), last.alpha)
        bad = lattice.Trajectory(traj.times, traj.states[:-1] + (moved,), traj.step_stats)
        self.assertFalse(t.check(bad).ok)

    def test_lax_all_nan_spectrum(self):
        t = task(self.tasks["lax"], "lax/spectrum/N8/0")
        lam = t.run()
        self.assertTrue(t.check(lam).ok)
        self.assertFalse(t.check([complex(math.nan, math.nan)] * len(lam)).ok)
        self.assertFalse(t.check(nudged(lam, 0, 1e-6)).ok)
        self.assertFalse(t.check(lam[1:]).ok)

    def test_lax_residual_bound(self):
        check = task(self.tasks["lax"], "lax/residual/N8/0").check
        self.assertTrue(check(1e-16).ok)
        self.assertFalse(check(1e-6).ok)
        self.assertFalse(check(math.nan).ok)

    def test_pipeline_rejects_zero_drift_from_nan_spectra(self):
        t = task(self.tasks["lax"], "lax/pipeline/N8")
        self.assertTrue(t.check(t.run()).ok)
        spec_path = self.workdir / "lax-spec-N8.csv"
        lines = spec_path.read_text().splitlines()
        nan_lines = lines[:2] + [",".join(ln.split(",")[:2] + ["nan", "nan"]) for ln in lines[2:]]
        spec_path.write_text("\n".join(nan_lines) + "\n")
        by_t = workloads.read_spectrum_csv(spec_path)
        base = by_t[0.0]
        # the naive drift over NaN spectra reads as a perfect 0.0
        naive = max([0.0] + [abs(a - b) for lam in by_t.values() for a, b in zip(lam, base)])
        self.assertEqual(naive, 0.0)
        self.assertFalse(t.check((0, 0)).ok)
        self.assertFalse(t.check((0, 2)).ok)

    def test_circle_verblunsky_off_by_1e6(self):
        t = task(self.tasks["circle"], "circle/real/0")
        out = t.run()
        self.assertTrue(t.check(out).ok)
        v = out["v"]
        bad = dict(out, v=circle.VerblunskySeq(v.t, nudged(v.a, 0, 1e-6)))
        self.assertFalse(t.check(bad).ok)

    def test_buffered_coefficient_off_by_1e6(self):
        t = task(self.tasks["lattice"], "lattice/buffered/example2-ertl")
        check = t.check
        ex = oracles.ClosedFormExample("example2", 1.0, 2.0)
        states = []
        for time_ in (0.0,) + workloads.BUF_T_OUT:
            rc = oracles.example2_coeffs(ex, time_, workloads.BUF_REPORT + 1)
            states.append(lattice.LatticeState(
                1.0, 2.0, time_, rc.beta[:workloads.BUF_REPORT],
                (0.0,) + rc.alpha[:workloads.BUF_REPORT], closure="buffered"))
        good = lattice.Trajectory((0.0,) + workloads.BUF_T_OUT, tuple(states), {})
        self.assertTrue(check(good).ok)
        s = states[-1]
        moved = lattice.LatticeState(s.p, s.q, s.t, nudged(s.beta, 2, 1e-6), s.alpha,
                                     closure="buffered")
        bad = lattice.Trajectory(good.times, tuple(states[:-1]) + (moved,), {})
        self.assertFalse(check(bad).ok)


class Seeding(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in workloads.NAMES:
            first = repr(workloads.make_inputs(w, SEED))
            self.assertEqual(first, repr(workloads.make_inputs(w, SEED)), w)
            self.assertNotEqual(first, repr(workloads.make_inputs(w, SEED + 1)), w)


class MetricNames(unittest.TestCase):
    def test_end_to_end_metrics_match_benchmark_json(self):
        result = harness.Result("a", 0.5, 0.4, checks.Outcome(True, 12.0))
        metrics = harness.end_to_end([[result]], [0.2, 0.3, 0.25])
        declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual({k: u for k, (_, u) in metrics.items()}, declared)
        self.assertTrue(all(v != 0 for v, _ in metrics.values()))

    def test_per_layer_metrics_match_benchmark_json(self):
        inputs = workloads.make_inputs("lattice", SEED)
        names = {k: u for k, (_, u) in tracing.layer_metrics([]).items()}
        names.update({m: "us" for m, _, _ in workloads.rhs_probes(inputs)})
        names["trace.overhead_frac"] = "fraction"
        declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        self.assertEqual(names, declared)


class Tracing(unittest.TestCase):
    def test_spans_nest_under_their_caller(self):
        def make_state(m):
            rc = oracles.example1_coeffs(oracles.ClosedFormExample("example1", 1.0, 2.0),
                                         0.0, m + 1)
            return lattice.state_from_coeffs(1.0, 2.0, 0.0, rc.beta[:m], rc.alpha[:m - 1])

        tracer = tracing.Tracer()
        with tracing.Patch(tracer):
            tracer.enabled = True
            lattice.integrate_buffered(make_state, 2, 0.05, n_buf=6)
            tracer.enabled = False
        names = [s[0] for s in tracer.spans]
        top = names.index("lattice.integrate_buffered")
        runs = [s for s in tracer.spans if s[0] == "lattice.integrate"]
        self.assertGreaterEqual(len(runs), 2)  # each run has its buffer-doubling check
        self.assertTrue(all(s[3] == top for s in runs))
        n_buf = tracer.spans[top][4]
        site_steps = [n * acc for n, acc, _ in (s[4] for s in runs)]
        reported = [n * acc for n, acc, _ in (s[4] for s in runs) if n == n_buf][-1]
        metrics = tracing.layer_metrics(tracer.spans)
        self.assertEqual(metrics["lattice.integrate_buffered.integrate_calls"][0], len(runs))
        self.assertAlmostEqual(metrics["lattice.buffer_useful_ratio"][0],
                               reported / sum(site_steps))
        self.assertGreater(metrics["lattice.integrate_core.self_s.lattice"][0], 0.0)

    def test_patch_restores_every_name(self):
        before = lattice.integrate
        with tracing.Patch(tracing.Tracer()):
            self.assertIsNot(lattice.integrate, before)
        self.assertIs(lattice.integrate, before)

    def test_self_time_excludes_children(self):
        spans = [["lax.spectrum", 0.0, 1.0, -1, "ok"], ["cli.main", 2.0, 5.0, -1, None],
                 ["lax.spectrum", 3.0, 4.5, 1, "non-finite"]]
        m = tracing.layer_metrics(spans)
        self.assertAlmostEqual(m["cli.main.self_s"][0], 1.5)
        self.assertAlmostEqual(m["lax.spectrum.self_s"][0], 2.5)
        self.assertEqual(m["lax.spectrum.failed"][0], 1)


if __name__ == "__main__":
    np.seterr(all="ignore")
    unittest.main()
