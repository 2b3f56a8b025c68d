"""The four workloads: inputs drawn from a seed, tasks that call ertl, references.

``make_inputs`` is the set-up the benchmark times: it draws every random
input from the seed and builds the program's input objects.  ``make_tasks``
then computes each task's reference by a route independent of the one being
timed; that work is excluded from set-up.

Task bodies reach the program through module attributes (``lattice.integrate``
and so on) so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import ertl.circle as circle
import ertl.cli as cli
import ertl.lattice as lattice
import ertl.lax as lax
import ertl.lorth as lorth
import ertl.measures as measures
import ertl.oracles as oracles

from checks import (Outcome, bounded, compare, compare_sets, fail, hessenberg,
                    invariants, worst)
from config import TOLERANCES as TOL

NAMES = ("measure", "lattice", "circle", "lax")

#: closed-form parameters, as in the tier-1 tests
DELTA, Q = 1.0, 2.0


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]


def make_inputs(workload: str, seed: int):
    rng = np.random.default_rng(seed)
    return _INPUTS[workload](rng)


def make_tasks(workload: str, inputs, workdir: Path) -> list:
    return _TASKS[workload](inputs, workdir)


def random_state(rng, N):
    """Complex finite-closure state of the shape the tier-1 tests draw."""
    beta = rng.uniform(0.5, 1.5, N) * np.exp(1j * rng.uniform(-0.5, 0.5, N))
    alpha = rng.uniform(0.2, 1.0, N - 1) * np.exp(1j * rng.uniform(-0.5, 0.5, N - 1))
    p = rng.uniform(0.3, 1.5) + 1j * rng.uniform(-1, 1)
    q = rng.uniform(0.3, 1.5) + 1j * rng.uniform(-1, 1)
    return lattice.state_from_coeffs(p, q, 0.0, beta, alpha)


# ---------------------------------------------------------------------------
# measure: quadrature moments + bootstrap, no time stepping
# ---------------------------------------------------------------------------

T_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
DEPTHS = (12, 20)
DISCRETE_DEPTH = 8
TEN_NODES = (0.31, 0.55, 0.83, 1.12, 1.55, 2.1, 2.9, 4.0, 5.6, 7.9)
TEN_WEIGHTS = (1.0, 0.7, 1.3, 0.9, 1.1, 0.8, 1.2, 0.6, 1.0, 0.5)


def _measure_inputs(rng):
    nodes = np.array(TEN_NODES) * np.exp(rng.uniform(-0.05, 0.05, len(TEN_NODES)))
    return {
        "example1": measures.example1_spec(DELTA, Q),
        "example2": measures.example2_spec(DELTA, Q),
        "discrete": measures.discrete_spec([float(x) for x in nodes], TEN_WEIGHTS,
                                           p=1.0, q=Q),
    }


def _from_measure(spec, t, depth):
    table = measures.compute_moments(spec, t, depth + 1)
    return lorth.bootstrap_recurrence(table, depth, p=spec.p, q=spec.q)[1]


def _coeff_vector(rc):
    return list(rc.beta) + list(rc.alpha)


def _exact_discrete(spec, t, depth):
    """Fraction bootstrap of the pre-weighted measure w_j exp(-t(p x_j + q/x_j))."""
    p, q = spec.p.real, spec.q.real
    weights = [w * math.exp(-t * (p * x + q / x)) for x, w in zip(spec.nodes, spec.weights)]
    table = measures.compute_moments_exact(measures.discrete_spec(spec.nodes, weights),
                                           0.0, depth + 1)
    return [float(v) for v in _coeff_vector(lorth.bootstrap_recurrence(table, depth)[1])]


def _measure_tasks(inputs, workdir):
    tasks = []
    for family, closed in (("example1", oracles.example1_coeffs),
                           ("example2", oracles.example2_coeffs)):
        spec = inputs[family]
        ex = oracles.ClosedFormExample(family, DELTA, Q)
        tol = TOL[f"{family}_closed_form"]
        for depth in DEPTHS:
            for t in T_GRID:
                ref = _coeff_vector(closed(ex, t, depth))
                tasks.append(Task(
                    f"measure/{family}/d{depth}/t{t:.2f}",
                    lambda spec=spec, t=t, depth=depth: _from_measure(spec, t, depth),
                    lambda rc, ref=ref, tol=tol: compare(_coeff_vector(rc), ref, tol)))
    spec = inputs["discrete"]
    for t in T_GRID:
        ref = _exact_discrete(spec, t, DISCRETE_DEPTH)
        tasks.append(Task(
            f"measure/discrete/d{DISCRETE_DEPTH}/t{t:.2f}",
            lambda t=t: _from_measure(spec, t, DISCRETE_DEPTH),
            lambda rc, ref=ref: compare(_coeff_vector(rc), ref, TOL["discrete_exact"])))
    return tasks


# ---------------------------------------------------------------------------
# lattice: buffered semi-infinite runs and large finite-closure states
# ---------------------------------------------------------------------------

LATTICE_REL_TOL = 1e-8
BUF_REPORT, BUF_T_END, BUF_T_OUT = 6, 0.5, (0.25, 0.5)
#: (N, number of states, t_end) of the seeded finite-closure runs
FINITE_RUNS = ((40, 6, 0.25), (160, 3, 0.1))
#: sites of the symmetric example1 state used to time rhs_langmuir
LANGMUIR_PROBE_N = 24
BUFFERED = (("example2", "ertl"), ("example1", "langmuir"))


def _truncations(family, sizes):
    """Finite-closure truncations of a closed-form family at t = 0, by size."""
    closed = oracles.example1_coeffs if family == "example1" else oracles.example2_coeffs
    ex = oracles.ClosedFormExample(family, DELTA, Q)
    out = {}
    for m in sizes:
        rc = closed(ex, 0.0, m + 1)
        out[m] = lattice.state_from_coeffs(1.0, Q, 0.0, rc.beta[:m], rc.alpha[:m - 1])
    return out


def _make_state(family, cache):
    """``make_state(M)`` for integrate_buffered; windows are built once."""
    def make_state(m):
        if m not in cache:
            cache.update(_truncations(family, [m]))
        return cache[m]
    return make_state


def _lattice_inputs(rng):
    sizes = [BUF_REPORT, LANGMUIR_PROBE_N]
    return {
        "ctrl": lattice.StepControl(rel_tol=LATTICE_REL_TOL),
        "truncations": {family: _truncations(family, sizes) for family, _ in BUFFERED},
        "finite": [random_state(rng, N) for N, count, _ in FINITE_RUNS
                   for _ in range(count)],
    }


def _buffered_check(ref):
    def check(traj):
        if tuple(traj.times) != (0.0,) + BUF_T_OUT:
            return fail(f"output times {traj.times}")
        return worst(compare(list(s.beta) + list(s.alpha[1:]), r, TOL["buffered_closed_form"])
                     for s, r in zip(traj.states, ref))
    return check


def _finite_check(state, t_out):
    ref = invariants(state.beta, state.alpha)

    def check(traj):
        if tuple(traj.times) != (state.t,) + t_out:
            return fail(f"output times {traj.times}")
        parts = []
        for s in traj.states[1:]:
            got = invariants(s.beta, s.alpha)
            parts += [compare(got[i:i + 1], ref[i:i + 1], TOL["invariant_drift"], relative=True)
                      for i in range(2)]
        return worst(parts)
    return check


def _lattice_tasks(inputs, workdir):
    ctrl = inputs["ctrl"]
    tasks = []
    for family, system in BUFFERED:
        make_state = _make_state(family, inputs["truncations"][family])
        closed = oracles.example1_coeffs if family == "example1" else oracles.example2_coeffs
        ex = oracles.ClosedFormExample(family, DELTA, Q)
        ref = []
        for t in (0.0,) + BUF_T_OUT:
            rc = closed(ex, t, BUF_REPORT + 1)
            ref.append(list(rc.beta[:BUF_REPORT]) + list(rc.alpha[:BUF_REPORT]))
        tasks.append(Task(
            f"lattice/buffered/{family}-{system}",
            lambda make_state=make_state, system=system: lattice.integrate_buffered(
                make_state, BUF_REPORT, BUF_T_END, rhs_id=system, ctrl=ctrl,
                t_out=list(BUF_T_OUT)),
            _buffered_check(ref)))
    t_ends = [t_end for N, count, t_end in FINITE_RUNS for _ in range(count)]
    for i, (state, t_end) in enumerate(zip(inputs["finite"], t_ends)):
        t_out = (t_end / 2, t_end)
        tasks.append(Task(
            f"lattice/finite/N{state.N}/{i}",
            lambda state=state, t_out=t_out: lattice.integrate(
                state, t_out[-1], ctrl=ctrl, t_out=list(t_out)),
            _finite_check(state, t_out)))
    return tasks


def rhs_probes(inputs):
    """(metric name, rhs function name, state) for the per-call RHS timings."""
    probes = []
    for N in (40, 160):
        state = next(s for s in inputs["finite"] if s.N == N)
        probes.append((f"lattice.rhs_ertl.us_per_call.N{N}", "rhs_ertl", state))
    state = inputs["truncations"]["example1"][LANGMUIR_PROBE_N]
    probes.append((f"lattice.rhs_langmuir.us_per_call.N{LANGMUIR_PROBE_N}",
                   "rhs_langmuir", state))
    return probes


# ---------------------------------------------------------------------------
# circle: Levinson, kernel and (c, d) maps, Schur and cd flows
# ---------------------------------------------------------------------------

CIRCLE_T0, CIRCLE_T_END, CIRCLE_T_OUT = 0.1, 0.4, (0.2, 0.3, 0.4)
#: window, moment order and reported head, as in the tier-1 Schur-flow test
CIRCLE_M, CIRCLE_K, CIRCLE_REPORT = 16, 20, 6
#: (label, q, number of atoms); the q values are those of the tier-1 circle
#: tests, and the seed draws the atoms' angles and masses
CIRCLE_KINDS = (("real", 0.5, 0), ("complex", 0.3 + 0.4j, 0),
                ("real-atom", 0.5, 1), ("complex-atoms", 0.3 + 0.4j, 2))
#: draws of each kind per sweep; the kinds without atoms repeat the same work,
#: which keeps the sweep's mix fixed
CIRCLE_COPIES = 6
#: trapezoid nodes of the reference moments (spectrally convergent)
REF_CIRCLE_NODES = 4096


def _circle_inputs(rng):
    specs = []
    for copy in range(CIRCLE_COPIES):
        for label, q, n_atoms in CIRCLE_KINDS:
            atoms = tuple((float(rng.uniform(-np.pi, np.pi)), float(rng.uniform(0.15, 0.3)))
                          for _ in range(n_atoms))
            specs.append((f"{label}/{copy}", measures.circle_lebesgue_spec(complex(q), atoms)))
    return specs


def reference_verblunsky(q, atoms, t, n):
    """a_0..a_{n-1} of the modified measure by dense Toeplitz solves.

    Moments mu_m of (arc measure + atoms) exp(-t(conj(q) z + q/z)) come from
    a plain trapezoid rule; a_k = -conj(Phi_{k+1}(0)) with the monic
    Phi_{k+1} solved from <Phi_{k+1}, z^j> = 0, j <= k.
    """
    theta = 2.0 * np.pi * np.arange(REF_CIRCLE_NODES) / REF_CIRCLE_NODES
    z = np.exp(1j * theta)
    ks = np.arange(-n, n + 1)
    damp = np.exp(-t * (np.conj(q) * z + q / z)).real
    mu = (z[None, :] ** ks[:, None] * damp[None, :]).mean(axis=1)
    for th, mass in atoms:
        za = np.exp(1j * th)
        mu = mu + mass * np.exp(-t * (np.conj(q) * za + q / za)) * za ** ks
    m = dict(zip(ks.tolist(), mu))
    out = []
    for k in range(1, n + 1):
        gram = np.array([[m[i - j] for i in range(k)] for j in range(k)])
        rhs = np.array([m[k - j] for j in range(k)])
        out.append(-np.conj(np.linalg.solve(gram, -rhs)[0]))
    return out


def _circle_run(spec):
    table = measures.compute_moments(spec, CIRCLE_T0, CIRCLE_K)
    v = circle.verblunsky_from_moments(table, CIRCLE_M)
    beta, alpha, _ = circle.kernel_coeffs(v, 1.0)
    cs = circle.cd_from_verblunsky(v, CIRCLE_T0)
    d_full = [0.0] + list(cs.d)
    mapped = circle.map_beta_alpha_cd(list(cs.c), d_full)
    _, seqs, _ = circle.integrate_schur(v, spec.q, CIRCLE_T_END, t_out=list(CIRCLE_T_OUT),
                                        n_report=CIRCLE_REPORT)
    cd_flow = circle.integrate_cd(list(cs.c), d_full, spec.q, CIRCLE_T0, CIRCLE_T_END,
                                  t_out=list(CIRCLE_T_OUT))
    return {"v": v, "kernel": (beta, alpha), "cd": cs, "mapped": mapped,
            "schur": seqs, "cd_flow": cd_flow}


def _circle_check(ref_a, ref_cd):
    n = CIRCLE_REPORT

    def check(out):
        beta, alpha = out["kernel"]
        cs = out["cd"]
        bmap, amap = out["mapped"]
        c2, d2 = circle.map_cd_beta_alpha(bmap, amap)
        parts = [
            compare(out["v"].a, ref_a[CIRCLE_T0], TOL["verblunsky"]),
            compare(list(bmap) + list(amap[1:]), list(beta) + list(alpha), TOL["kernel_cd_map"]),
            compare(c2 + d2, list(cs.c) + [0.0] + list(cs.d), TOL["cd_inverse_map"]),
        ]
        seqs = out["schur"]
        times, c_snaps, d_snaps, _ = out["cd_flow"]
        if [s.t for s in seqs[1:]] != list(CIRCLE_T_OUT) or list(times[1:]) != list(CIRCLE_T_OUT):
            return fail("flow output times differ from the request")
        for t, s, c, d in zip(CIRCLE_T_OUT, seqs[1:], c_snaps[1:], d_snaps[1:]):
            parts.append(compare(s.a, ref_a[t][:n], TOL["circle_flow"]))
            parts.append(compare(c[:n] + d[1:n], ref_cd[t], TOL["circle_flow"]))
        return worst(parts)
    return check


def _circle_tasks(specs, workdir):
    tasks = []
    for label, spec in specs:
        atoms = spec.params.get("atoms", ())
        ref_a, ref_cd = {}, {}
        for t in (CIRCLE_T0,) + CIRCLE_T_OUT:
            ref_a[t] = reference_verblunsky(spec.q, atoms, t, CIRCLE_M)
            cs = circle.cd_from_verblunsky(circle.VerblunskySeq(t, tuple(ref_a[t])), t)
            ref_cd[t] = list(cs.c[:CIRCLE_REPORT]) + list(cs.d[:CIRCLE_REPORT - 1])
        tasks.append(Task(f"circle/{label}", lambda spec=spec: _circle_run(spec),
                          _circle_check(ref_a, ref_cd)))
    return tasks


# ---------------------------------------------------------------------------
# lax: commutator residual, spectrum, and the CLI simulate -> spectrum pipeline
# ---------------------------------------------------------------------------

LAX_SIZES = (8, 16, 24, 40)
LAX_STATES_PER_SIZE = 3
PIPE_T_END, PIPE_T_OUT = 0.1, (0.05, 0.1)


def _lax_inputs(rng):
    return {N: [random_state(rng, N) for _ in range(LAX_STATES_PER_SIZE)] for N in LAX_SIZES}


def _cx(z):
    return f"{z.real!r},{z.imag!r}"


def _pipeline(state, traj_path: Path, spec_path: Path):
    """ertl simulate -> ertl spectrum through cli.main; returns both exit codes."""
    spec_path.unlink(missing_ok=True)
    init = json.dumps({"beta": [[b.real, b.imag] for b in state.beta],
                       "alpha": [[a.real, a.imag] for a in state.alpha[1:-1]]})
    sim = cli.main(["simulate", "--system", "ertl", f"--p={_cx(state.p)}",
                    f"--q={_cx(state.q)}", "--t-end", repr(PIPE_T_END),
                    "--t-out", ",".join(map(repr, PIPE_T_OUT)), "--init", init,
                    "--out", str(traj_path)])
    if sim != 0:
        return sim, None
    return sim, cli.main(["spectrum", "--traj", str(traj_path), "--out", str(spec_path)])


def read_spectrum_csv(path: Path) -> dict:
    """{t: [eigenvalues]} from an ``ertl spectrum`` CSV."""
    by_t = {}
    for line in path.read_text().splitlines():
        if not line or line.startswith("#") or line.startswith("t,"):
            continue
        t, _, re, im = line.split(",")
        by_t.setdefault(float(t), []).append(complex(float(re), float(im)))
    return by_t


def pipeline_check(ref_eigs, spec_path: Path):
    """Every time's spectrum must match the t0 eigenvalues of H."""
    def check(codes):
        if codes != (0, 0):
            return fail(f"exit codes {codes}")
        by_t = read_spectrum_csv(spec_path)
        if sorted(by_t) != [0.0] + list(PIPE_T_OUT):
            return fail(f"spectrum times {sorted(by_t)}")
        return worst(compare_sets(lam, ref_eigs, TOL["isospectral_cli"]) for lam in by_t.values())
    return check


def _lax_tasks(states, workdir):
    tasks = []
    for N in LAX_SIZES:
        eigs = [np.linalg.eigvals(hessenberg(st.beta, st.alpha)) for st in states[N]]
        for i, st in enumerate(states[N]):
            tasks.append(Task(f"lax/residual/N{N}/{i}", lambda st=st: lax.lax_residual(st),
                              lambda r: bounded(r, TOL["lax_residual"])))
            tasks.append(Task(f"lax/spectrum/N{N}/{i}", lambda st=st: lax.spectrum(st),
                              lambda lam, ref=eigs[i]: compare_sets(lam, ref, TOL["spectrum_eig"])))
        traj_path, spec_path = workdir / f"lax-traj-N{N}.csv", workdir / f"lax-spec-N{N}.csv"
        tasks.append(Task(
            f"lax/pipeline/N{N}",
            lambda st=states[N][0], a=traj_path, b=spec_path: _pipeline(st, a, b),
            pipeline_check(eigs[0], spec_path)))
    return tasks


_INPUTS = {"measure": _measure_inputs, "lattice": _lattice_inputs,
           "circle": _circle_inputs, "lax": _lax_inputs}
_TASKS = {"measure": _measure_tasks, "lattice": _lattice_tasks,
          "circle": _circle_tasks, "lax": _lax_tasks}
