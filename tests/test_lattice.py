"""Lattice right-hand sides, reductions, and the adaptive integrator."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ertl import (BufferTooSmall, ClosedFormExample, NotSymmetricState,
                  SingularDenominator, StepControl, StepUnderflow,
                  VerblunskySeq, bootstrap_recurrence, compute_moments,
                  discrete_spec, example1_coeffs, example2_coeffs, integrate,
                  integrate_buffered, integrate_cd, integrate_schur, rhs_ertl,
                  rhs_langmuir, state_from_coeffs, LatticeState, Trajectory)
from ertl.lattice import BUFFER_ESCALATIONS, BUFFER_VALIDATION_TOL, default_buffer
from tests.conftest import rk4_reference

EX1 = ClosedFormExample("example1", 1.0, 2.0)


def random_state(rng, N, complex_data=True, p=None, q=None):
    if complex_data:
        beta = rng.uniform(0.5, 1.5, N) * np.exp(1j * rng.uniform(-0.5, 0.5, N))
        alpha = rng.uniform(0.2, 1.0, N - 1) * np.exp(1j * rng.uniform(-0.5, 0.5, N - 1))
        p = (rng.uniform(0.3, 1.5) + 1j * rng.uniform(-1, 1)) if p is None else p
        q = (rng.uniform(0.3, 1.5) + 1j * rng.uniform(-1, 1)) if q is None else q
    else:
        beta = rng.uniform(0.5, 2.0, N)
        alpha = rng.uniform(0.1, 1.0, N - 1)
        p = rng.uniform(0.5, 2.0) if p is None else p
        q = rng.uniform(0.5, 2.0) if q is None else q
    return state_from_coeffs(p, q, 0.0, beta, alpha)


def test_single_site_is_stationary():
    st = state_from_coeffs(1.0, 2.0, 0.0, [0.9 + 0.1j], [])
    db, da = rhs_ertl(st)
    assert db[0] == 0
    assert da == [0, 0]


def test_state_invariants():
    with pytest.raises(ValueError):
        LatticeState(1, 1, 0.0, (1.0,), (0.1, 0.0))  # alpha_1 != 0
    with pytest.raises(ValueError):
        LatticeState(1, 1, 0.0, (1.0,), (0.0, 0.5))  # finite needs alpha_top = 0
    with pytest.raises(SingularDenominator):
        LatticeState(1, 1, 0.0, (1e-15,), (0.0, 0.0))


BAD = (float("nan"), float("inf"), complex(0.0, float("nan")))


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("field", ["p", "q", "t", "beta", "alpha"])
def test_state_rejects_non_finite_entry(field, bad):
    # a NaN or inf is bad input (ValueError), not a breakdown at t = 0 later
    fields = dict(p=1.0, q=2.0, t=0.0, beta=(1.0, 2.0), alpha=(0.0, 0.5, 0.0))
    if field in ("beta", "alpha"):
        fields[field] = fields[field][:1] + (bad,) + fields[field][2:]
    else:
        fields[field] = abs(bad) if field == "t" else bad  # t is real
    with pytest.raises(ValueError, match="must be finite"):
        LatticeState(**fields)


@pytest.mark.parametrize("t", [1j, True, "0"])
def test_state_rejects_time_that_is_not_a_real_number(t):
    # a complex or boolean t was stored, and integrate then failed in float()
    with pytest.raises(ValueError, match="t must be a real number"):
        LatticeState(1.0, 2.0, t, (1.0,), (0.0, 0.0))


def test_trajectory_times_must_increase():
    s = state_from_coeffs(1.0, 2.0, 0.0, [1.0], [])
    with pytest.raises(ValueError, match="output times must be strictly increasing"):
        Trajectory(times=(0.0, 0.5, 0.5), states=(s, s, s), step_stats={})


def test_int_state_integrates_like_its_float_twin():
    ints = LatticeState(1, 2, 0, [1, 2], [0, 1, 0])
    floats = LatticeState(1.0, 2.0, 0.0, [1.0, 2.0], [0.0, 1.0, 0.0])
    assert ints == floats
    assert all(type(x) is complex for x in (ints.p, ints.q, *ints.beta, *ints.alpha))
    a, b = integrate(ints, 0.5, t_out=[0.25]), integrate(floats, 0.5, t_out=[0.25])
    assert a.times == b.times and a.states == b.states and a.step_stats == b.step_stats


@pytest.mark.parametrize("n", [0, -1, True, False, 2.5, 2.0, "2", None])
def test_prefix_rejects_length_that_is_not_a_positive_integer(n):
    # prefix(0) returned an empty state, prefix(True) ran as 1, prefix(-1)
    # blamed the alpha count and prefix(2.5) raised TypeError
    state = state_from_coeffs(1.0, 2.0, 0.0, [1.0, 2.0, 1.5], [0.5, 0.25])
    with pytest.raises(ValueError, match=re.escape(f"got {n!r}")):
        state.prefix(n)


def test_prefix_keeps_true_top_alpha():
    state = state_from_coeffs(1.0, 2.0, 0.0, [1.0, 2.0, 1.5], [0.5, 0.25])
    assert state.prefix(np.int64(2)) == LatticeState(1.0, 2.0, 0.0, (1.0, 2.0), (0.0, 0.5, 0.25),
                                                     closure="buffered")
    assert state.prefix(3) is state and state.prefix(4) is state


def test_state_from_coeffs_counts_free_alphas():
    with pytest.raises(ValueError, match="N - 1 = 1 entries, got 2"):
        state_from_coeffs(1, 1, 0.0, [1.0, 2.0], [0.5, 0.5])


def test_state_from_coeffs_needs_a_site():
    with pytest.raises(ValueError, match="depth N must be >= 1"):
        state_from_coeffs(1, 1, 0.0, [], [])


NAN = float("nan")


@pytest.mark.parametrize("t0,t_end,t_out", [
    (0.0, NAN, None), (NAN, 1.0, None), (0.0, float("inf"), None),
    (0.0, 1.0, [0.5, NAN]), (0.0, 1.0, [NAN, 0.5]), (0.0, 1.0, [0.2, NAN, 0.5]),
], ids=["t_end", "t0", "t_end-inf", "t_out-last", "t_out-first", "t_out-middle"])
@pytest.mark.parametrize("flow", ["lattice", "schur", "cd"])
def test_time_grid_rejects_nan(flow, t0, t_end, t_out):
    # each comparison of the grid check is False for NaN; written negated, all raise
    with pytest.raises(ValueError):
        if flow == "lattice":
            integrate(state_from_coeffs(1, 1, t0, [1.0, 2.0], [0.5]), t_end, t_out=t_out)
        elif flow == "schur":
            integrate_schur(VerblunskySeq(t0, (0.2, 0.1)), 0.5, t_end, t_out=t_out)
        else:
            integrate_cd([0.0, 0.0], [0.0, 0.25], 0.5, t0, t_end, t_out=t_out)


def test_gamma_is_shifted_alpha_plus_beta(rng):
    # the paper's gamma equation, gamma_n = alpha_{n+1} + beta_n, written out
    # site by site, is alpha_dot_{n+1} + beta_dot_n of rhs_ertl
    for _ in range(20):
        st = random_state(rng, int(rng.integers(2, 9)))
        db, da = rhs_ertl(st)
        a = (-1,) + st.alpha  # a[n] = alpha_n, alpha_0 = -1; alpha_{N+1} = 0
        b = (1,) + st.beta    # b[n] = beta_n, beta_0 = 1
        g = lambda n: a[n + 1] + b[n]
        for n in range(1, st.N + 1):
            out = a[n + 1] * g(n + 1) if n < st.N else 0
            dg = st.p * (a[n] * g(n) - out) + st.q * (a[n + 1] / b[n] - a[n] / b[n - 1])
            assert abs(dg - (da[n] + db[n - 1])) < 1e-13 * (1 + abs(dg))


def test_specializations_share_kernel(rng):
    # rtl1 and rtl2 are the generic flow at the (p, q) they force, bit for bit,
    # and their states carry that (p, q), not the input state's
    for rhs_id, p, q in (("rtl1", 0.0, 1.0), ("rtl2", 1.0, 0.0)):
        st = random_state(rng, 6)
        forced = integrate(st, 0.3, rhs_id=rhs_id, t_out=[0.1, 0.3])
        generic = integrate(replace(st, p=p, q=q), 0.3, t_out=[0.1, 0.3])
        assert forced.times == generic.times
        assert [(s.p, s.q, s.beta, s.alpha) for s in forced.states] == \
            [(s.p, s.q, s.beta, s.alpha) for s in generic.states]
        assert {(s.p, s.q) for s in forced.states} == {(p, q)}


def test_rtl_single_site_zero():
    st = state_from_coeffs(0.0, 1.0, 0.0, [1.1], [])
    db, da = rhs_ertl(st)
    assert db[0] == 0 and da == [0, 0]


def test_example1_state_rhs_closed_form():
    rc = example1_coeffs(EX1, 0.0, 21)
    st = state_from_coeffs(1.0, 2.0, 0.0, rc.beta[:20], rc.alpha[:19])
    db, da = rhs_ertl(st)
    for n in range(1, 13):  # reported sites, excluding closure-polluted top
        assert abs(db[n - 1]) < 1e-12
        assert abs(da[n - 1] - (-(n - 1) / 2.0)) < 1e-12


def test_rhs_matches_moment_derived_path(ten_node_spec):
    # central differences of bootstrapped coefficients against the lattice
    # right-hand side, exact discrete moments
    h, t0 = 1e-4, 0.3
    boots = {dt: bootstrap_recurrence(compute_moments(ten_node_spec, t0 + dt, 9),
                                      8, p=1.0, q=2.0)[1] for dt in (-h, 0.0, h)}
    rc = boots[0.0]
    st = state_from_coeffs(1.0, 2.0, t0, rc.beta[:7], rc.alpha[:6])
    db, da = rhs_ertl(st)
    for n in range(1, 7):
        fd_b = (boots[h].beta[n - 1] - boots[-h].beta[n - 1]) / (2 * h)
        assert abs(fd_b - db[n - 1]) < 1e-5
    for n in range(2, 7):
        fd_a = (boots[h].alpha[n - 2] - boots[-h].alpha[n - 2]) / (2 * h)
        assert abs(fd_a - da[n - 1]) < 1e-5


# -- Langmuir reduction ---------------------------------------------------------

def test_langmuir_single_excited_site():
    sq = np.sqrt(2.0)
    st = state_from_coeffs(1.0, 2.0, 0.0, [sq] * 5, [0.0, 0.7, 0.0, 0.0])
    da = rhs_langmuir(st)
    # alpha_dot_n = alpha_n (alpha_{n-1} - alpha_{n+1}): only alpha_3 = 0.7
    assert da[2] == pytest.approx(0.0)            # alpha_3 (a_2 - a_4) = 0.7*(0-0)
    assert da[1] == pytest.approx(-0.0 * 0.7)     # alpha_2 = 0
    assert da[3] == pytest.approx(0.0)            # alpha_4 = 0 (pattern a_4*a_3)


def test_langmuir_example1_closed_form():
    rc = example1_coeffs(EX1, 0.0, 16)
    st = state_from_coeffs(1.0, 2.0, 0.0, rc.beta[:15], rc.alpha[:14])
    da = rhs_langmuir(st)
    for n in range(2, 10):
        assert abs(da[n - 1] - (-(n - 1) / 2.0)) < 1e-12


def test_langmuir_equals_ertl_alpha(rng):
    sq = np.sqrt(1.7)
    alpha = rng.uniform(0.1, 1.0, 7)
    st = state_from_coeffs(1.0, 1.7, 0.0, [sq] * 8, alpha)
    da = rhs_langmuir(st)
    _, da_full = rhs_ertl(st)
    assert max(abs(x - y) for x, y in zip(da, da_full)) < 1e-12
    # and the frozen-beta trajectory is the generic flow's on the manifold
    st = state_from_coeffs(1.0, 1.7, 0.0, [sq] * 6, alpha[:5])
    volterra = integrate(st, 0.1, rhs_id="langmuir", t_out=[0.05, 0.1])
    generic = integrate(st, 0.1, t_out=[0.05, 0.1])
    assert volterra.times == generic.times
    assert max(abs(x - y) for a, b in zip(volterra.states, generic.states)
               for x, y in zip(a.alpha, b.alpha)) <= 1e-13


def test_langmuir_rejects_asymmetric(rng):
    st = state_from_coeffs(1.0, 2.0, 0.0, [1.4, 1.5, 1.4], [0.3, 0.2])
    with pytest.raises(NotSymmetricState):
        rhs_langmuir(st)
    st2 = state_from_coeffs(1.0, -2.0, 0.0, [1.4] * 3, [0.3, 0.2])
    with pytest.raises(NotSymmetricState):
        rhs_langmuir(st2)
    # within SYMMETRY_TOL of the manifold, but the beta equation does not vanish
    sq = np.sqrt(2.0)
    st3 = state_from_coeffs(1.0, 2.0, 0.0, [sq * (1 + 1e-10)] * 3, [0.3, 0.2])
    bad = max(abs(x) for x in rhs_ertl(st3)[0])
    with pytest.raises(NotSymmetricState) as err:
        rhs_langmuir(st3)
    # the check reads the generic flow's own dbeta, to the last digit shown
    assert str(err.value) == f"beta equation does not vanish: {bad:.3e}"
    # off p = 1 the manifold is not invariant, so the Volterra flow is not the flow
    st4 = state_from_coeffs(0.5, 2.0, 0.0, [sq] * 3, [0.3, 0.2])
    with pytest.raises(NotSymmetricState, match="p = 1"):
        integrate(st4, 0.1, rhs_id="langmuir")


# -- integration ------------------------------------------------------------------

def test_integrate_single_site_unchanged():
    st = state_from_coeffs(1.0, 2.0, 0.0, [1.3 + 0.2j], [])
    traj = integrate(st, 1.0)
    assert abs(traj.final.beta[0] - (1.3 + 0.2j)) < 1e-14
    assert traj.times == (0.0, 1.0)


def test_integrate_example1_buffered_to_t1():
    def mk(M):
        rc = example1_coeffs(EX1, 0.0, M + 1)
        return state_from_coeffs(1.0, 2.0, 0.0, rc.beta[:M], rc.alpha[:M - 1])

    traj = integrate_buffered(mk, 6, 1.0, ctrl=StepControl(rel_tol=1e-10),
                              n_buf=40)
    fin = traj.final
    assert fin.closure == "buffered"
    assert max(abs(b - np.sqrt(2.0)) for b in fin.beta) < 1e-7
    for n in range(1, 7):
        assert abs(fin.alpha[n] - n / 4.0) < 1e-6


def test_integrate_discrete_measure_full_depth_matches_bootstrap():
    # an m-point measure's coefficient flow *is* the finite-closure lattice of
    # order m (the top alpha vanishes identically), so direct integration must
    # land on the bootstrapped coefficients of the later-time moments
    nodes = [0.4, 0.9, 1.5, 2.3, 3.4, 5.0]
    weights = [1.0, 0.8, 1.2, 0.9, 1.1, 0.7]
    spec = discrete_spec(nodes, weights, p=1.0, q=2.0)
    _, rc0 = bootstrap_recurrence(compute_moments(spec, 0.0, 7), 6, p=1, q=2)
    st = state_from_coeffs(1.0, 2.0, 0.0, rc0.beta, rc0.alpha)
    traj = integrate(st, 0.5, ctrl=StepControl(rel_tol=1e-11, abs_tol=1e-13))
    _, rc5 = bootstrap_recurrence(compute_moments(spec, 0.5, 7), 6, p=1, q=2)
    fin = traj.final
    assert max(abs(fin.beta[n] - rc5.beta[n]) for n in range(6)) < 1e-6
    # state alpha[n] is alpha_{n+1}; rc alpha[n-1] is alpha_{n+1} as well
    assert max(abs(fin.alpha[n] - rc5.alpha[n - 1]) for n in range(1, 6)) < 1e-6


def test_fixed_step_fourth_order_convergence(rng):
    st = random_state(rng, 4, complex_data=False)
    ref = integrate(st, 0.5, ctrl=StepControl(rel_tol=1e-13, abs_tol=1e-14)).final
    errs = []
    for h in (0.025, 0.0125, 0.00625):
        fin = rk4_reference(st, 0.5, h).final
        errs.append(max(abs(a - b) for a, b in zip(fin.beta, ref.beta)))
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    assert 10 < r1 < 24 and 10 < r2 < 24  # ~16x per halving


def test_adaptive_error_falls_with_tolerance():
    # error per step: the global error over [0, 0.5] tracks rel_tol, measured
    # against the fixed-step RK4 reference at h = 1e-4 (converged to ~1e-14
    # relative)
    rc = example2_coeffs(ClosedFormExample("example2", 1.0, 2.0), 0.0, 24)
    st = state_from_coeffs(1.0, 2.0, 0.0, rc.beta, rc.alpha)
    coeffs = lambda traj: np.array(traj.final.beta + traj.final.alpha)
    ref = coeffs(rk4_reference(st, 0.5, 1e-4))
    errs = []
    for tol in (1e-6, 1e-8, 1e-10):
        fin = coeffs(integrate(st, 0.5, ctrl=StepControl(rel_tol=tol)))
        errs.append(np.abs(fin - ref).max() / np.abs(ref).max())
        assert errs[-1] < tol
    assert errs[1] < 0.1 * errs[0] and errs[2] < 0.1 * errs[1]


def test_error_vs_work_beats_dp54_record():
    # truncated example2 (N = 40, T = 0.5): at rel_tol 1e-8 and 1e-10 the
    # DOP853 stepper is at least as accurate as the Dormand-Prince 5(4)
    # stepper it replaced was (4.4e-10 and 5.0e-12) with fewer RHS calls than
    # it made (535 and 1,303)
    rc = example2_coeffs(ClosedFormExample("example2", 1.0, 2.0), 0.0, 40)
    st = state_from_coeffs(1.0, 2.0, 0.0, rc.beta, rc.alpha)
    coeffs = lambda traj: np.array(traj.final.beta + traj.final.alpha)
    coarse, ref = (coeffs(rk4_reference(st, 0.5, h)) for h in (2e-4, 1e-4))
    scale = np.abs(ref).max()
    # halving h moves fixed-step RK4 by 15 times its error at 1e-4, so the
    # reference is good to 1e-12 / 15 < 7e-14 relative
    assert np.abs(coarse - ref).max() <= 1e-12 * scale
    for tol, dp54_err, dp54_calls in ((1e-8, 4.4e-10, 535), (1e-10, 5.0e-12, 1303)):
        traj = integrate(st, 0.5, ctrl=StepControl(rel_tol=tol))
        assert np.abs(coeffs(traj) - ref).max() <= dp54_err * scale
        assert traj.step_stats["rhs_calls"] < dp54_calls


def test_buffered_example2_check_run_rejects_few_steps():
    # a 64-site example2 run, the last check of a buffered sweep that doubles
    # every window: with the 5th- and 3rd-order estimates combined per
    # component it rejected 10 of 45 attempts; combining their norms, as
    # DOP853 does, rejects at most 3
    ex = ClosedFormExample("example2", 1.0, 2.0)

    def mk(M):
        rc = example2_coeffs(ex, 0.0, M + 1)
        return state_from_coeffs(1.0, 2.0, 0.0, rc.beta[:M], rc.alpha[:M - 1])

    # one sweep from the default window lands on the closed form
    sweep = integrate_buffered(mk, 6, 0.5, ctrl=StepControl(rel_tol=1e-8))
    ref = example2_coeffs(ex, 0.5, 7)
    assert max(abs(a - b) for a, b in zip(sweep.final.beta, ref.beta[:6])) <= 1e-8
    assert max(abs(a - b) for a, b in zip(sweep.final.alpha[1:], ref.alpha[:6])) <= 1e-8
    traj = integrate(mk(64), 0.5, ctrl=StepControl(rel_tol=1e-8), t_out=[0.25, 0.5])
    assert traj.step_stats["rejected"] <= 3
    for t, s in zip(traj.times[1:], traj.states[1:]):
        ref = example2_coeffs(ex, t, 7)
        got = s.prefix(6)
        assert max(abs(a - b) for a, b in zip(got.beta, ref.beta[:6])) <= 1e-7
        # the state's alpha runs alpha_1 = 0, alpha_2, ...; the oracle's from alpha_2
        assert max(abs(a - b) for a, b in zip(got.alpha[1:], ref.alpha[:6])) <= 1e-7


def test_positivity_preserved_and_enforced(rng):
    # a real positive state stays real and positive along the flow
    st = random_state(rng, 6, complex_data=False)
    traj = integrate(st, 1.0, t_out=[0.25, 0.5, 0.75])
    for s in traj.states[1:]:
        assert all(b.real > 0 and b.imag == 0 for b in s.beta)
        assert all(a.real > 0 and a.imag == 0 for a in s.alpha[1:-1])


@pytest.mark.parametrize("complex_data", [True, False])
def test_validate_hook_reads_beta_and_alpha_of_each_accepted_step(rng, complex_data):
    # integrate owns the stepped layout: _validate(t, beta, alpha) gets beta_1..N and
    # alpha_1 = 0, alpha_2..N in the stepped dtype, once per accepted step
    N, calls = 6, []
    state = random_state(rng, N, complex_data=complex_data)
    traj = integrate(state, 0.3, t_out=[0.1, 0.3],
                     _validate=lambda t, beta, alpha: calls.append((t, beta.copy(), alpha.copy())))
    assert len(calls) == traj.step_stats["accepted"] > 2
    for _, beta, alpha in calls:
        assert len(beta) == len(alpha) == N and alpha[0] == 0
        assert beta.dtype == alpha.dtype == (complex if complex_data else np.float64)
    t, beta, alpha = calls[-1]  # the last accepted step lands on t_end
    assert t == pytest.approx(0.3, abs=1e-15)
    assert beta.tolist() == list(traj.final.beta) and alpha.tolist() == list(traj.final.alpha[:-1])


@pytest.mark.parametrize("tols", [dict(rel_tol=float("nan")), dict(rel_tol=float("inf")),
                                  dict(abs_tol=float("nan")), dict(abs_tol=float("inf")),
                                  dict(rel_tol=0.0), dict(abs_tol=-1e-12)])
def test_step_control_rejects_non_finite_or_non_positive_tolerance(tols):
    # a NaN tolerance would make integrate report StepUnderflow at t = 0, and
    # an infinite one would let every step pass unchecked
    ((name, value),) = tols.items()
    needle = ("tolerances must be finite and > 0" if value <= 0
              else f"{name} must be finite, got {value!r}")
    with pytest.raises(ValueError, match=re.escape(needle)):
        StepControl(**tols)


@pytest.mark.parametrize("tols", [dict(rel_tol=True), dict(abs_tol=True),
                                  dict(rel_tol="1e-8"), dict(abs_tol=1e-12j)])
def test_step_control_rejects_tolerance_that_is_not_a_real_number(tols):
    # rel_tol = True ran as 1.0
    (name,) = tols
    with pytest.raises(ValueError, match=f"{name} must be a real number"):
        StepControl(**tols)


def test_blowup_detected():
    # alpha_2 < 0 with q-coupling drives beta_1 through zero in finite time
    st = state_from_coeffs(0.0, 1.0, 0.0, [0.5, 1.0], [-1.0])
    with pytest.raises((SingularDenominator, StepUnderflow)) as exc:
        integrate(st, 2.0)
    if isinstance(exc.value, SingularDenominator):
        assert exc.value.t_bracket is not None


def test_tight_tolerance_short_step_accepted():
    # a tight tolerance and a short step clipped to land on t = 0.25: an
    # error test per unit step, unfloored, rejected such steps down to
    # StepUnderflow
    st = state_from_coeffs(1, 0, 0.0, [1, 2, 1.5], [0.5, 0.25])
    traj = integrate(st, 0.5, rhs_id="rtl2",
                     ctrl=StepControl(rel_tol=1e-13, abs_tol=1e-15), t_out=[0.25, 0.5])
    ref = rk4_reference(st, 0.5, 1e-3, t_out=[0.25, 0.5], rhs_id="rtl2")
    assert traj.times == ref.times == (0.0, 0.25, 0.5)
    for a, b in zip(traj.states, ref.states):
        assert max(abs(x - y) for x, y in zip(a.beta + a.alpha, b.beta + b.alpha)) < 1e-12


def test_buffer_too_small_reuses_check_runs():
    calls = []

    def mk(M):
        # stationary (alpha = 0), but the reported beta depend on M, so no
        # two buffer sizes ever agree
        calls.append(M)
        return state_from_coeffs(1.0, 2.0, 0.0, [1.0 + 1.0 / M] * M, [0.0] * (M - 1))

    with pytest.raises(BufferTooSmall, match="buffer 60 failed validation against 64 sites"):
        integrate_buffered(mk, 2, 0.1, n_buf=4)
    # the probe, the first run, then each check m + ceil(m / 4) sites after
    # the run m it checks, up to the cap of 4 * 2^(BUFFER_ESCALATIONS + 1)
    # sites: every failed check run becomes the next run instead of
    # repeating it
    assert calls == [2, 4, 5, 7, 9, 12, 15, 19, 24, 30, 38, 48, 60, 64]
    assert len(calls) == len(set(calls))
    assert 4 * 2 ** (BUFFER_ESCALATIONS + 1) == 64


def _closed_form_truncations(family, delta=1.0, q_w=2.0):
    """``make_state(M)``: the first M sites of a closed-form family at t = 0, p = 1, q = q_w."""
    closed = example1_coeffs if family == "example1" else example2_coeffs
    ex = ClosedFormExample(family, delta, q_w)

    def mk(M):
        rc = closed(ex, 0.0, M + 1)
        return state_from_coeffs(1.0, q_w, 0.0, rc.beta[:M], rc.alpha[:M - 1])
    return mk


def _head_error(traj, family):
    """Largest |entry - closed form| of the reported heads at the later output times."""
    closed = example1_coeffs if family == "example1" else example2_coeffs
    ex, err = ClosedFormExample(family, 1.0, 2.0), 0.0
    for t, s in zip(traj.times[1:], traj.states[1:]):
        ref = closed(ex, t, s.N + 1)
        # the state's alpha runs alpha_1 = 0, alpha_2, ...; the oracle's from alpha_2
        err = max(err, *(abs(a - b) for a, b in zip(s.beta + s.alpha[1:], ref.beta[:s.N]
                                                     + ref.alpha[:s.N])))
    return err


@pytest.mark.parametrize("family, system", [("example2", "ertl"), ("example1", "langmuir")])
def test_buffered_check_sized_from_deviation(family, system):
    # the benchmark's buffered sweeps: the default window, 30 sites, passes
    # its first check against 30 + ceil(30 / 4) = 38, and the reported run is
    # the 30-site one, bitwise as an integration of that window with an open top
    mk = _closed_form_truncations(family)
    ctrl = StepControl(rel_tol=1e-8)
    sweep = integrate_buffered(mk, 6, 0.5, rhs_id=system, ctrl=ctrl, t_out=[0.25, 0.5])
    stats = sweep.step_stats
    assert stats["windows"] == [30, 38]
    assert stats["n_buf"] == 30
    assert stats["deviation"] < BUFFER_VALIDATION_TOL
    ref = integrate(mk(30), 0.5, rhs_id=system, ctrl=ctrl, t_out=[0.25, 0.5], _open=True)
    assert sweep.times == ref.times
    assert sweep.states == tuple(s.prefix(6) for s in ref.states)
    assert {k: stats[k] for k in ref.step_stats} == ref.step_stats
    # the window's top site no longer sets the step: the wall alpha_31 = 0
    # takes more than twice the f calls
    wall = integrate(mk(30), 0.5, rhs_id=system, ctrl=ctrl, t_out=[0.25, 0.5])
    assert 2 * ref.step_stats["rhs_calls"] < wall.step_stats["rhs_calls"]
    if family == "example1":
        return  # its tail, beta constant and alpha linear in n, is continued exactly
    # from 8 sites every check is a quarter larger than its run, and each
    # failed check becomes the next run: 22 sites agree with 28, and the
    # reported run is the 22-site one
    small = integrate_buffered(mk, 6, 0.5, rhs_id=system, ctrl=ctrl, t_out=[0.25, 0.5],
                               n_buf=8)
    assert small.step_stats["windows"] == [8, 10, 13, 17, 22, 28]
    assert small.step_stats["n_buf"] == 22
    assert small.step_stats["deviation"] < BUFFER_VALIDATION_TOL
    run = integrate(mk(22), 0.5, rhs_id=system, ctrl=ctrl, t_out=[0.25, 0.5], _open=True)
    assert small.states == tuple(s.prefix(6) for s in run.states)


@pytest.mark.parametrize("t_span, rel_tol", [
    *(pytest.param(t, 1e-8, id=str(t)) for t in (0.1, 0.25, 0.5, 1.0, 2.0)),
    *(pytest.param(t, 1e-10, id=f"{t}-1e-10") for t in (0.5, 2.0))])
@pytest.mark.parametrize("family, system", [
    ("example1", "ertl"), ("example1", "rtl1"), ("example1", "rtl2"), ("example1", "langmuir"),
    ("example2", "ertl"), ("example2", "rtl1"), ("example2", "rtl2")])
def test_default_buffer_passes_its_first_check(lattice_runs, family, system, t_span, rel_tol):
    # default_buffer's law, n_report + 12 + ceil(24 t_span), was measured on
    # these flows (langmuir needs example1's symmetric beta) at rel_tol 1e-8:
    # its window agrees with its first check to a decade under the
    # tolerance, so every sweep integrates twice, and at 1e-10 as well
    mk = _closed_form_truncations(family)
    ctrl, t_out = StepControl(rel_tol=rel_tol), [t_span / 2, t_span]
    sweep = integrate_buffered(mk, 6, t_span, rhs_id=system, ctrl=ctrl, t_out=t_out)
    n_buf = default_buffer(6, t_span)
    assert sweep.step_stats["windows"] == [n_buf, n_buf + math.ceil(n_buf / 4)]
    assert [r["N"] for r in lattice_runs] == sweep.step_stats["windows"]
    assert sweep.step_stats["deviation"] < 0.1 * BUFFER_VALIDATION_TOL
    if system in ("ertl", "langmuir"):  # p = 1, q = 2: the families' own flow
        assert _head_error(sweep, family) <= 1e-9  # 6.4e-11 measured


def test_failed_check_is_followed_by_a_quarter_larger_one():
    calls = []

    def mk(M):
        # stationary (alpha = 0); the reported beta move by 10^(-M/2), which
        # decays tenfold per two sites
        calls.append(M)
        return state_from_coeffs(1.0, 2.0, 0.0, [1.0 + 10.0 ** (-M / 2)] * M, [0.0] * (M - 1))

    sweep = integrate_buffered(mk, 2, 0.1, n_buf=8)
    # 8 fails against 10 (deviation 9e-5), and each failed check becomes the
    # run of a check a quarter larger: 22 passes against 28 (deviation 1e-11)
    assert calls[1:] == sweep.step_stats["windows"] == [8, 10, 13, 17, 22, 28]
    assert sweep.step_stats["n_buf"] == 22


def test_open_top_window_passes_where_the_wall_needed_five():
    # example1's tail is continued exactly, so a window of 8 sites agrees with
    # 10 at once, where the wall alpha_9 = 0 ran [8, 10, 20, 40, 43]
    mk = _closed_form_truncations("example1")
    sweep = integrate_buffered(mk, 6, 0.5, ctrl=StepControl(rel_tol=1e-8), t_out=[0.25, 0.5],
                               n_buf=8)
    assert sweep.step_stats["windows"] == [8, 10]
    assert _head_error(sweep, "example1") <= 1e-9  # 6.2e-11 measured
    assert all(s.closure == "buffered" for s in sweep.states)


@pytest.mark.parametrize("family, system", [
    ("example1", "ertl"), ("example1", "rtl1"), ("example1", "rtl2"), ("example1", "langmuir"),
    ("example2", "ertl"), ("example2", "rtl1"), ("example2", "rtl2")])
def test_off_scale_sweeps_validate_in_three_windows(lattice_runs, family, system):
    # off-scale data (delta = 0.3, q_w = 1, p = q = 1) need more sites than
    # default_buffer gives; the open top keeps each sweep to at most one
    # escalation (the wall took up to 4 windows and 29,502 f calls)
    mk = _closed_form_truncations(family, delta=0.3, q_w=1.0)
    for t_span in (0.25, 0.5, 1.0):
        lattice_runs.clear()
        sweep = integrate_buffered(mk, 6, t_span, rhs_id=system,
                                   ctrl=StepControl(rel_tol=1e-8), t_out=[t_span / 2, t_span])
        assert len(sweep.step_stats["windows"]) <= 3
        assert sweep.step_stats["deviation"] < BUFFER_VALIDATION_TOL
        assert sum(r["rhs_calls"] for r in lattice_runs) <= 1000  # 731 measured


@pytest.mark.parametrize("rel_tol, t_span, windows", [(1e-6, 0.5, [30, 38]),
                                                      (1e-3, 0.25, [24, 30])])
def test_loose_tolerance_buffered_run_keeps_its_ladder(rel_tol, t_span, windows):
    # off-scale example1 under rtl2 at a loose tolerance: the open top
    # continues its tail exactly, so the default window passes its first check
    mk = _closed_form_truncations("example1", delta=0.3, q_w=1.0)
    sweep = integrate_buffered(mk, 6, t_span, rhs_id="rtl2", ctrl=StepControl(rel_tol=rel_tol),
                               t_out=[t_span / 2, t_span])
    assert sweep.step_stats["windows"] == windows
    assert sweep.step_stats["deviation"] < BUFFER_VALIDATION_TOL


@settings(max_examples=40)
@given(r=st.floats(0.05, 0.95), n_report=st.integers(1, 3), extra=st.integers(1, 10))
def test_every_check_is_a_quarter_larger_than_its_run(r, n_report, extra):
    calls, n_buf = [], n_report + extra

    def mk(M):
        # stationary (alpha = 0); the reported beta move by r^M
        calls.append(M)
        return state_from_coeffs(1.0, 2.0, 0.0, [1.0 + r ** M] * M, [0.0] * (M - 1))

    largest = n_buf * 2 ** (BUFFER_ESCALATIONS + 1)
    try:
        sweep = integrate_buffered(mk, n_report, 0.1, n_buf=n_buf)
    except BufferTooSmall:
        sweep = None
    windows = calls[1:]  # after the probe
    assert windows[0] == n_buf
    assert all(b == min(a + math.ceil(a / 4), largest) for a, b in zip(windows, windows[1:]))
    gaps = [abs((1.0 + r ** a) - (1.0 + r ** b)) for a, b in zip(windows, windows[1:])]
    assert all(g >= BUFFER_VALIDATION_TOL for g in gaps[:-1])
    if sweep is None:  # only once a check of the capped size has failed
        assert windows[-1] == largest and gaps[-1] >= BUFFER_VALIDATION_TOL
    else:
        assert gaps[-1] < BUFFER_VALIDATION_TOL
        assert sweep.step_stats["windows"] == windows
        assert sweep.step_stats["n_buf"] == windows[-2]
        assert sweep.final.beta == (1.0 + r ** windows[-2],) * n_report


def test_imaginary_p_ladder_climbs_by_quarters():
    # example2 under ertl at p = 3i, q = 2: transport carries the truncation
    # inward, so the default window (30) needs three more checks
    ex = ClosedFormExample("example2", 1.0, 2.0)

    def mk(M):
        rc = example2_coeffs(ex, 0.0, M + 1)
        return state_from_coeffs(3j, 2.0, 0.0, rc.beta[:M], rc.alpha[:M - 1])

    t_out = [0.25, 0.5]
    sweep = integrate_buffered(mk, 6, 0.5, ctrl=StepControl(rel_tol=1e-8), t_out=t_out)
    assert sweep.step_stats["windows"] == [30, 38, 48, 60, 75]
    ref = integrate(mk(100), 0.5, ctrl=StepControl(rel_tol=1e-11), t_out=t_out, _open=True)
    err = 0.0
    for got, want in zip(sweep.states, ref.states):
        want = want.prefix(6)
        err = max(err, *(abs(a - b) for a, b in zip(got.beta + got.alpha,
                                                      want.beta + want.alpha)))
    assert err <= 1e-10  # 2.7e-11 measured


def test_integrate_buffered_rejects_buffer_not_wider_than_report():
    def mk(M):
        # stationary (alpha = 0): every buffer size agrees with every other
        return state_from_coeffs(1.0, 2.0, 0.0, [1.0] * M, [0.0] * (M - 1))

    for n_buf in (4, 10):
        with pytest.raises(ValueError, match="n_buf"):
            integrate_buffered(mk, 10, 0.1, n_buf=n_buf)
    assert integrate_buffered(mk, 10, 0.1, n_buf=11).final.N == 10
    # the default window of a backward span is not the error: the span is
    with pytest.raises(ValueError, match="t_end must exceed the start time"):
        integrate_buffered(mk, 10, -1.0)


@pytest.mark.parametrize("n_report, n_buf, name", [
    (0, None, "n_report"), (-2, None, "n_report"), (2.5, None, "n_report"),
    (True, None, "n_report"), (2, 10.5, "n_buf")])
def test_integrate_buffered_rejects_bad_site_counts(n_report, n_buf, name):
    calls = []

    def mk(M):
        calls.append(M)
        return _closed_form_truncations("example1")(M)

    with pytest.raises(ValueError, match=name):
        integrate_buffered(mk, n_report, 0.2, n_buf=n_buf)
    assert calls == []  # rejected before make_state is called


# -- output grid, shared by every flow through integrate_core ---------------------

def _lattice_times(t_end, t_out):
    st = state_from_coeffs(1.0, 2.0, 0.0, [1.0, 1.5, 0.8], [0.4, 0.3])
    return integrate(st, t_end, t_out=t_out).times


def _schur_times(t_end, t_out):
    v = VerblunskySeq(0.0, (0.2, 0.1 + 0.05j, 0.05))
    return integrate_schur(v, 0.5, t_end, t_out=t_out)[0]


def _cd_times(t_end, t_out):
    return integrate_cd([0.0] * 4, [0.0, 0.25, 0.25, 0.25], 0.5, 0.0, t_end, t_out=t_out)[0]


@pytest.mark.parametrize("run", [_lattice_times, _schur_times, _cd_times],
                         ids=["integrate", "integrate_schur", "integrate_cd"])
def test_output_grid(run):
    assert tuple(run(0.4, [0.1, 0.2, 0.3, 0.4])) == (0.0, 0.1, 0.2, 0.3, 0.4)
    assert tuple(run(0.4, [0.3, 0.1])) == (0.0, 0.1, 0.3, 0.4)  # sorted, t_end added
    assert tuple(run(1.0, [0.3])) == (0.0, 0.3, 1.0)
    assert tuple(run(0.4, None)) == (0.0, 0.4)
    bad = [(0.4, [0.5]),          # past t_end
           (0.4, [-1.0]),         # before t0
           (0.4, [0.0, 0.4]),     # at t0
           (0.4, [0.2, 0.2]),     # duplicate
           (0.0, None),           # t_end = t0
           (-0.5, None)]          # t_end < t0
    for t_end, t_out in bad:
        with pytest.raises(ValueError):
            run(t_end, t_out)
