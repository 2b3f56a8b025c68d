"""Unit-circle reductions: reflection coefficients, kernel maps, both flows."""

import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import ertl.circle as circle
import ertl.lattice as lattice
from hypothesis import given, settings, strategies as st

from ertl import (CircleState, DegenerateKernel, LatticeState, NotPositiveDefinite,
                  PositivityLost, RecurrenceCoeffs, StepControl, VerblunskySeq,
                  bootstrap_recurrence, cd_from_verblunsky, circle_kernel_spec,
                  circle_lebesgue_spec, compute_moments, explicit_table_spec,
                  integrate_cd, integrate_schur, kernel_coeffs, map_beta_alpha_cd,
                  map_cd_beta_alpha, rhs_cd, rhs_ertl, rhs_schur,
                  verblunsky_from_moments)
from ertl.lorth import MAX_DEPTH
from ertl.measures import MomentTable
from tests.conftest import cd_edge_rates, eval_Q, q_at_zero


def gram_schmidt_verblunsky(mu, N):
    """Brute-force oracle: orthogonalize 1, z, ..., z^N against Toeplitz data.

    ``mu[m]`` are the measure moments; returns reflection coefficients via
    a_n = -conj(Phi_{n+1}(0)) with Phi from explicit monic Gram-Schmidt.
    """
    def inner(bc, bd):
        # <f, g> = sum_{i,j} bc_i conj(bd_j) mu_{i-j}
        return sum(ci * dj.conjugate() * mu[i - j]
                   for i, ci in enumerate(bc) for j, dj in enumerate(bd))

    basis = []  # monic orthogonal coefficient vectors
    out = []
    for n in range(N + 1):
        b = [0j] * n + [1.0 + 0j]
        for prev in basis:
            coef = inner(b, prev) / inner(prev, prev)
            b = [bi - coef * (prev[i] if i < len(prev) else 0)
                 for i, bi in enumerate(b)]
        basis.append(b)
        if n >= 1:
            out.append(-b[0].conjugate())
    return out


def opuc_recurrence_coeffs(v, q=None):
    """Recurrence coefficients of the z-weighted functional from reflections.

    beta_1 = conj(a_0), beta_{n+1} = -conj(a_n)/conj(a_{n-1}) and
    alpha_{n+1} = conj(a_n)/conj(a_{n-1}) (1 - |a_{n-1}|^2), the second route
    to the bootstrap of a circle table.  Defined only when no a_n vanishes
    (the three-term form of the orthogonality breaks down); ValueError
    otherwise.
    """
    if 0 in v.a:
        raise ValueError(f"a_{v.a.index(0)} = 0: coefficient map undefined")
    ac = [x.conjugate() for x in v.a]
    ratios = [ac[n] / ac[n - 1] for n in range(1, v.N)]
    qq = 0j if q is None else complex(q)
    return RecurrenceCoeffs(t=v.t, p=qq.conjugate(), q=qq, beta=[ac[0]] + [-r for r in ratios],
                            alpha=[r * (1.0 - abs(v.a[n]) ** 2) for n, r in enumerate(ratios)])


@pytest.fixture(scope="module")
def leb_table():
    return compute_moments(circle_lebesgue_spec(0.5), 0.3, 12)


@pytest.fixture(scope="module")
def leb_verb(leb_table):
    return verblunsky_from_moments(leb_table, 10)


@pytest.mark.parametrize("N", [0, -1])
def test_verblunsky_depth_below_1_rejected(leb_table, N):
    # an empty sequence was returned before
    with pytest.raises(ValueError, match="depth N must be >= 1"):
        verblunsky_from_moments(leb_table, N)


def test_lebesgue_at_zero_time_gives_zero_coefficients():
    tab = compute_moments(circle_lebesgue_spec(0.7), 0.0, 6)
    v = verblunsky_from_moments(tab, 5)
    assert all(abs(a) < 1e-14 for a in v.a)


def test_verblunsky_matches_gram_schmidt_oracle(leb_table, leb_verb):
    mu = {m: leb_table.nu_at(m - 1) for m in range(-11, 12)}
    ref = gram_schmidt_verblunsky(mu, 8)
    assert max(abs(a - b) for a, b in zip(leb_verb.a, ref)) < 1e-9


def test_verblunsky_point_mass_mixture_vs_oracle():
    spec = circle_lebesgue_spec(0.0, atoms=((0.0, 0.5), (1.1, 0.25)))
    tab = compute_moments(spec, 0.0, 10)
    v = verblunsky_from_moments(tab, 6)
    mu = {m: tab.nu_at(m - 1) for m in range(-9, 10)}
    ref = gram_schmidt_verblunsky(mu, 6)
    assert max(abs(a - b) for a, b in zip(v.a, ref)) < 1e-9


def test_not_positive_definite_detected():
    nu = {k: 0.0 + 0j for k in range(-6, 7)}
    nu[-1] = 1.0 + 0j   # mu_0 = 1
    nu[0] = 2.0 + 0j    # mu_1 = 2 -> |a_0| = 2
    nu[-2] = 2.0 + 0j   # keep conjugation symmetry mu_{-1} = conj(mu_1)
    tab = compute_moments(explicit_table_spec(nu), 0.0, 6)
    with pytest.raises(NotPositiveDefinite):
        verblunsky_from_moments(tab, 3)


def test_verblunsky_seq_rejects_modulus_one():
    with pytest.raises(ValueError):
        VerblunskySeq(0.0, (0.5, 1.0))


# -- coefficient maps -------------------------------------------------------------

def test_opuc_coeffs_constant_reflection():
    a = 0.4
    v = VerblunskySeq(0.0, (a,) * 6)
    rc = opuc_recurrence_coeffs(v)
    assert rc.beta[0] == pytest.approx(a)
    for n in range(1, 6):
        assert rc.beta[n] == pytest.approx(-1.0)
        assert rc.alpha[n - 1] == pytest.approx(1.0 - a * a)


def test_opuc_coeffs_route_equivalence(leb_table, leb_verb):
    rc = opuc_recurrence_coeffs(leb_verb, q=0.5)
    _, rcb = bootstrap_recurrence(leb_table, 8, p=0.5, q=0.5)
    assert max(abs(a - b) for a, b in zip(rc.beta[:8], rcb.beta)) < 1e-8
    assert max(abs(a - b) for a, b in zip(rc.alpha[:7], rcb.alpha)) < 1e-8


def test_opuc_coeffs_product_identity(leb_verb):
    # beta_1..beta_n = (-1)^(n-1) conj(a_{n-1}), hence Q_n(0) = -conj(a_{n-1});
    # checked through both the product form and the recurrence at 0
    rc = opuc_recurrence_coeffs(leb_verb, q=0.5)
    for n in range(1, 8):
        lhs = q_at_zero(rc, n)
        ref = -leb_verb.a[n - 1].conjugate()
        assert abs(lhs - ref) < 1e-10 * max(1.0, abs(ref))
        assert abs(lhs - eval_Q(rc, n, 0.0)) < 1e-12 * max(1e-6, abs(lhs))


def test_zero_verblunsky_raises():
    v = VerblunskySeq(0.0, (0.3, 0.0, 0.2))
    with pytest.raises(ValueError, match="a_1 = 0"):
        opuc_recurrence_coeffs(v)


def test_kernel_coeffs_free_case():
    w = np.exp(0.7j)
    v = VerblunskySeq(0.0, (0j,) * 6)
    beta, alpha, rho = kernel_coeffs(v, w)
    for n in range(6):
        assert rho[n] == pytest.approx(w ** n)
    assert all(abs(b + w) < 1e-14 for b in beta)
    assert all(abs(a - w) < 1e-14 for a in alpha)


def kernel_route_gap(q, t, N, w):
    """Largest |difference| of the kernel coefficients to depth N by the moment
    bootstrap and by Levinson + ``kernel_coeffs``."""
    kt = compute_moments(circle_kernel_spec(q, w=w), t, N + 4)
    _, rck = bootstrap_recurrence(kt, N, p=np.conj(q), q=q)
    v = verblunsky_from_moments(compute_moments(circle_lebesgue_spec(q), t, N + 4), N + 2)
    beta, alpha, _ = kernel_coeffs(v, w)
    return max(abs(a - b) for a, b in zip(beta[:N] + alpha[:N - 1], rck.beta + rck.alpha))


# depth 8 is the moment route's general bound; on circle kernel tables it
# stays near rounding up to its cap MAX_DEPTH (about 1e-15 measured)
ROUTE_CASES = pytest.mark.parametrize(
    "N, w, bound", [(8, 1.0, 1e-8), (MAX_DEPTH, 1.0, 1e-14), (MAX_DEPTH, np.exp(0.7j), 1e-14)],
    ids=["depth8", "cap-w=1", "cap-w=exp(0.7i)"])


@ROUTE_CASES
def test_kernel_coeffs_route_equivalence_real_q(N, w, bound):
    assert kernel_route_gap(0.5, 0.2, N, w) < bound


@ROUTE_CASES
def test_kernel_coeffs_route_equivalence_complex_q(N, w, bound):
    assert kernel_route_gap(0.3 + 0.4j, 0.15, N, w) < bound


def test_cd_symmetric_measure_c_vanishes(leb_verb):
    cs = cd_from_verblunsky(leb_verb)
    assert max(abs(c) for c in cs.c) < 1e-12
    assert all(0 < g < 1 for g in cs.g)


def test_cd_free_case_values():
    v = VerblunskySeq(0.0, (0j,) * 5)
    cs = cd_from_verblunsky(v)
    assert all(g == pytest.approx(0.5) for g in cs.g)
    assert all(c == pytest.approx(0.0) for c in cs.c)
    assert all(d == pytest.approx(0.25) for d in cs.d)


def test_cd_map_matches_kernel_coeffs_complex_q():
    q = 0.3 + 0.4j
    v = verblunsky_from_moments(compute_moments(circle_lebesgue_spec(q), 0.15, 14), 10)
    cs = cd_from_verblunsky(v)
    beta, alpha, _ = kernel_coeffs(v, 1.0)
    bmap, amap = map_beta_alpha_cd(list(cs.c), [0.0] + list(cs.d))
    assert max(abs(a - b) for a, b in zip(bmap, beta)) < 1e-10
    assert max(abs(a - b) for a, b in zip(amap[1:], alpha)) < 1e-10


def test_degenerate_kernel_detected():
    # at w = 1, rho_0 = 1: g_1 = |1 - a_0|^2 / (2 (1 - Re a_0)) = (1 - a_0) / 2
    # for real a_0, and its denominator falls below 1e-14 at a_0 = 1 - 1e-15
    with pytest.raises(DegenerateKernel) as exc:
        cd_from_verblunsky(VerblunskySeq(0.0, (1 - 1e-15, 0.1)))
    assert exc.value.n == 1
    cs = cd_from_verblunsky(VerblunskySeq(0.0, (1 - 1e-13, 0.1)))
    assert cs.g[0] == pytest.approx(5.0e-14, rel=1e-2)


def test_map_trivial_values():
    beta, alpha = map_beta_alpha_cd([0.0, 0.0], [0.0, 0.25])
    assert beta[0] == pytest.approx(-1.0)
    assert alpha[1] == pytest.approx(1.0)
    beta1, _ = map_beta_alpha_cd([1.0], [0.0])
    assert beta1[0] == pytest.approx(1j)


@pytest.mark.parametrize("call, message", [
    # a one-site (c, d) answered before
    (lambda: map_cd_beta_alpha([-1.0, 1j], [0j]), "equal length"),
    # ZeroDivisionError before
    (lambda: map_cd_beta_alpha([1.0], [0j]), "beta_1 = 1 maps to no finite c_1"),
    (lambda: map_cd_beta_alpha([-1.0, complex(np.nan, 0.0)], [0j, 0j]), "must be finite"),
    (lambda: map_cd_beta_alpha([-1.0], [np.inf]), "must be finite"),
    # NaN and inf went through, and a complex c raised TypeError
    (lambda: map_beta_alpha_cd([0.0, np.nan], [0.0, 0.25]), "must be finite real numbers"),
    (lambda: map_beta_alpha_cd([0.0, 0.0], [0.0, np.inf]), "must be finite real numbers"),
    (lambda: map_beta_alpha_cd([0.0, 0.5j], [0.0, 0.25]), "must be finite real numbers"),
    (lambda: map_beta_alpha_cd([0.0], [0.0, 0.25]), "equal length"),
    (lambda: map_beta_alpha_cd([0.0], [0.5]), "d_1 must be 0"),
    # the same rules reach integrate_cd through the map
    (lambda: integrate_cd([0.0, 0.5j], [0.0, 0.25], 0.5, 0.0, 0.1), "must be finite real numbers"),
    # NaN rows answered before; integrate_schur rejected the same q
    (lambda: rhs_schur(VerblunskySeq(0.0, (0.2, 0.1, 0.3)), np.nan), "q must be finite")])
def test_circle_maps_reject_what_they_cannot_map(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("beta, alpha, message", [
    ([0.5], [0.0], "recovered c = -3j is not real"),  # beta off the unit circle
    ([-1.0, -1.0], [0.0, 1j], "recovered d = 0.25j is not real")])
def test_map_back_rejects_what_is_not_a_real_chain(beta, alpha, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        map_cd_beta_alpha(beta, alpha)


def toeplitz_table(changes=()):
    """A K = 3 table of the arc measure (nu_k = mu_{k+1}, mu_0 = 1) with ``changes`` k -> nu_k."""
    nu = {k: 1.0 + 0j if k == -1 else 0j for k in range(-3, 4)}
    return MomentTable(t=0.0, K=3, nu={**nu, **dict(changes)})


@pytest.mark.parametrize("table, N, message", [
    (toeplitz_table(), 5, "need nu_k for -1 <= k <= 4 to reach depth 5"),
    (toeplitz_table({-1: -1.0 + 0j}), 2, "is not real positive; not a measure table"),
    (toeplitz_table({0: 0.5 + 0j, -2: 0.1 + 0j}), 2, "mu_-1 != conj(mu_1)")])
def test_levinson_needs_a_toeplitz_measure_table(table, N, message):
    assert verblunsky_from_moments(toeplitz_table(), 3).a == (0j, 0j, 0j)
    with pytest.raises(ValueError, match=re.escape(message)):
        verblunsky_from_moments(table, N)


def test_map_round_trip_random(rng):
    for _ in range(5):
        N = 8
        c = rng.uniform(-2.0, 2.0, N)
        d = np.concatenate([[0.0], rng.uniform(0.05, 0.24, N - 1)])
        beta, alpha = map_beta_alpha_cd(c, d)
        c2, d2 = map_cd_beta_alpha(beta, alpha)
        assert max(abs(x - y) for x, y in zip(c, c2)) < 1e-13
        assert max(abs(x - y) for x, y in zip(d, d2)) < 1e-13


# -- flows ------------------------------------------------------------------------

def test_rhs_cd_symmetric_real_q_is_langmuir_type(leb_verb):
    cs = cd_from_verblunsky(leb_verb)
    dc, dd = rhs_cd(cs, 0.5)
    assert max(abs(x) for x in dc) < 1e-11
    d_full = [0.0] + list(cs.d)
    for n in range(2, cs.N - 1):
        ref = 4 * 0.5 * d_full[n - 1] * (d_full[n - 2] - d_full[n])
        assert abs(dd[n - 2] - ref) < 1e-11


def test_rhs_cd_transport_identity():
    # the (c, d) flow transported through the coefficient map must equal the
    # two-parameter lattice flow with p = conj(q)
    q = 0.3 + 0.4j
    v = verblunsky_from_moments(compute_moments(circle_lebesgue_spec(q), 0.15, 16), 12)
    cs = cd_from_verblunsky(v, 0.15)
    M = cs.N
    bmap, amap = map_beta_alpha_cd(list(cs.c), [0.0] + list(cs.d))
    st = LatticeState(p=np.conj(q), q=q, t=0.15, beta=bmap, alpha=amap + [0j])
    db, da = rhs_ertl(st)
    dc, dd = rhs_cd(cs, q)
    for n in range(1, M):
        cdot = 1j * db[n - 1] * (1 + cs.c[n - 1] ** 2) / (2 * bmap[n - 1])
        assert abs(cdot.imag) < 1e-11
        assert abs(cdot.real - dc[n - 1]) < 1e-11
    d_full = [0.0] + list(cs.d)
    for n in range(2, M):
        ddot = d_full[n - 1] * (da[n - 1] / amap[n - 1]
                                + 1j * dc[n - 1] / (1 + 1j * cs.c[n - 1])
                                + 1j * dc[n - 2] / (1 + 1j * cs.c[n - 2]))
        assert abs(ddot.imag) < 1e-11
        assert abs(ddot.real - dd[n - 2]) < 1e-11


def test_rhs_cd_finite_differences():
    q = 0.5
    h, t0 = 1e-4, 0.2

    def cd_at(t):
        v = verblunsky_from_moments(compute_moments(circle_lebesgue_spec(q), t, 14), 11)
        return cd_from_verblunsky(v, t)

    s0, sp, sm = cd_at(t0), cd_at(t0 + h), cd_at(t0 - h)
    dc, dd = rhs_cd(s0, q)
    fd_d = [(a - b) / (2 * h) for a, b in zip(sp.d, sm.d)]
    fd_c = [(a - b) / (2 * h) for a, b in zip(sp.c, sm.c)]
    for i in range(s0.N - 2):
        assert abs(fd_c[i] - dc[i]) < 1e-5
    for i in range(s0.N - 3):
        assert abs(fd_d[i] - dd[i]) < 1e-5


def test_rhs_schur_boundary_factor_vanishes():
    v = VerblunskySeq(0.0, (0.999999, 0.3))
    da = rhs_schur(v, 0.5)
    assert abs(da[0]) < 1e-5  # (1 - |a_0|^2) -> 0 damps the flow


def test_rhs_schur_preserves_realness():
    v = VerblunskySeq(0.0, (0.2, -0.4, 0.1, 0.3))
    da = rhs_schur(v, 0.7)
    assert all(abs(x.imag) == 0.0 for x in da)


def test_rhs_schur_finite_differences():
    for q in (0.5, 0.3 + 0.4j):
        spec = circle_lebesgue_spec(q)
        h, t0, N = 1e-4, 0.25, 10

        def verb(t):
            return verblunsky_from_moments(compute_moments(spec, t, 14), N + 1)

        v0 = verb(t0)
        fd = [(a - b) / (2 * h) for a, b in zip(verb(t0 + h).a, verb(t0 - h).a)]
        rhs = rhs_schur(v0, q)
        for n in range(1, N):
            assert abs(fd[n] - rhs[n]) < 1e-5
        # the n = 0 row with the a_{-1} = -1 convention
        assert abs(fd[0] - rhs[0]) < 1e-5


def test_integrate_schur_keeps_modulus_below_one():
    rng = np.random.default_rng(5)
    a0 = 0.6 * rng.uniform(0.3, 1.0, 12) * np.exp(1j * rng.uniform(0, 2 * np.pi, 12))
    v = VerblunskySeq(0.0, tuple(a0))
    times, seqs, _ = integrate_schur(v, 0.4 + 0.2j, 1.0,
                                     t_out=[0.25, 0.5, 0.75, 1.0], n_report=8)
    for s in seqs:
        assert max(abs(a) for a in s.a) < 1.0


def test_integrate_schur_matches_measure_evolution():
    # truncation window wide enough that the reported head tracks the
    # quadrature-evolved coefficients
    q = 0.5
    spec = circle_lebesgue_spec(q)
    v0 = verblunsky_from_moments(compute_moments(spec, 0.1, 20), 16)
    times, seqs, _ = integrate_schur(v0, q, 0.4, n_report=6)
    v_end = verblunsky_from_moments(compute_moments(spec, 0.4, 20), 16)
    assert max(abs(a - b) for a, b in zip(seqs[-1].a, v_end.a[:6])) < 1e-6


def test_integrate_cd_chain_sequence_preserved():
    q = 0.5
    v = verblunsky_from_moments(compute_moments(circle_lebesgue_spec(q), 0.0, 18), 14)
    cs = cd_from_verblunsky(v, 0.0)
    c0 = list(cs.c)
    d0 = [0.0] + list(cs.d)
    times, cs_out, ds_out, _ = integrate_cd(c0, d0, q, 0.0, 0.5,
                                            t_out=[0.1, 0.3, 0.5])
    for t, dd in zip(times[1:], ds_out[1:]):
        # recover chain parameters with the measure-anchored g_1 at time t
        vt = verblunsky_from_moments(compute_moments(circle_lebesgue_spec(q), t, 18), 14)
        g1 = cd_from_verblunsky(vt, t).g[0]
        g = [g1]
        for n in range(1, 8):
            g.append(dd[n] / (1.0 - g[-1]))
            assert 0.0 < g[-1] < 1.0


def test_circle_flows_take_few_steps():
    # step counts are deterministic where timings are not.  The flows of the
    # circle benchmark task, from t0 = 0.1 with outputs at 0.2, 0.3 and 0.4,
    # take 4 accepted steps each, from automatic first steps of 0.021 (Schur)
    # and 0.035 (c, d)
    v = verblunsky_from_moments(compute_moments(circle_lebesgue_spec(0.5), 0.1, 20), 16)
    cs = cd_from_verblunsky(v, 0.1)
    t_out = [0.2, 0.3, 0.4]
    *_, schur = integrate_schur(v, 0.5, 0.4, t_out=t_out, n_report=6)
    *_, cd = integrate_cd(list(cs.c), [0.0, *cs.d], 0.5, 0.1, 0.4, t_out=t_out)
    for stats in (schur, cd):
        assert stats["accepted"] <= 4 and stats["rejected"] == 0


#: the (c, d) window grid: q, and M sites from circle_lebesgue_spec(q) at t = 0.1
CD_GRID = [(q, M) for q in (0.5, 0.3 + 0.4j, 2 + 2j, 1 - 1j) for M in (8, 16, 24)]


@pytest.fixture(scope="module")
def cd_grid_runs():
    """{rel_tol: [(integrate_cd's final c_1..M, d_2..M, stats, reference)]} on CD_GRID, t 0.1 -> 1.

    The reference integrates ``cd_edge_rates`` with scipy's DOP853 at
    rtol 1e-13, atol 1e-15: a second route that shares neither the
    coefficient map nor the stepper.
    """
    runs = {1e-8: [], 1e-10: []}
    for q, M in CD_GRID:
        v = verblunsky_from_moments(compute_moments(circle_lebesgue_spec(q), 0.1, M + 4), M)
        cs = cd_from_verblunsky(v, 0.1)
        c, d = list(cs.c), [0.0, *cs.d]

        def f(t, y):
            return np.concatenate(cd_edge_rates(y[:M], [0.0, *y[M:]], q))

        ref = solve_ivp(f, (0.1, 1.0), c + d[1:], method="DOP853", rtol=1e-13,
                        atol=1e-15).y[:, -1]
        for rel_tol, out in runs.items():
            _, cs_out, ds_out, stats = integrate_cd(c, d, q, 0.1, 1.0,
                                                    ctrl=StepControl(rel_tol=rel_tol))
            out.append((np.array(cs_out[-1] + ds_out[-1][1:]), stats, ref))
    return runs


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-10])
def test_integrate_cd_matches_edge_route_reference(cd_grid_runs, rel_tol):
    for got, _, ref in cd_grid_runs[rel_tol]:
        assert np.abs(got - ref).max() <= 10 * rel_tol


def test_integrate_cd_reports_imag_residue(cd_grid_runs):
    # the drift off the real (c, d) manifold is reported, not raised on: at
    # rel_tol 1e-8 it exceeds map_cd_beta_alpha's 1e-10 realness check (4.1e-10)
    for rel_tol, runs in cd_grid_runs.items():
        residues = [stats["imag_residue"] for _, stats, _ in runs]
        assert max(residues) < 10 * rel_tol
    assert max(stats["imag_residue"] for _, stats, _ in cd_grid_runs[1e-8]) > 1e-10


def test_integrate_cd_positivity_guard():
    # d_2 = d_3 = 0.9 is no chain sequence (d_2 = 0.9 forces g_2 > 0.9, so
    # d_3 < 0.1), and the flow drives d_3 past 1
    with pytest.raises(PositivityLost):
        integrate_cd([0.0, 0.0, 0.0], [0.0, 0.9, 0.9], 3.0, 0.0, 2.0)
    # valid chain data stays inside (0, 1) without a false raise
    for q in (0.5, 3.0, 2 + 2j):
        _, _, ds, _ = integrate_cd([0.0] * 4, [0.0, 0.25, 0.25, 0.25], q, 0.0, 3.0)
        assert all(0.0 < x < 1.0 for x in ds[-1][1:])


@pytest.mark.parametrize("c, d, q, n", [
    ([0.0] * 3, [0.0, 0.9, 0.9], 3.0, 3),
    ([0.0] * 5, [0.0, 0.3, 0.3, 0.95, 0.95], 3.0, 5),
    ([0.1, -0.2, 0.3, 0.0, 0.1], [0.0, 0.5, 0.5, 0.05, 0.5], -3.0 + 1j, 2)])
def test_integrate_cd_positivity_lost_names_n_and_d_n(monkeypatch, c, d, q, n):
    # the stepped vector is the mapped ertl state [beta, alpha_1 = 0, alpha_2..M]:
    # PositivityLost names the first d_n outside (0, 1) of the rejected state,
    # by d's own index
    M, states, core = len(c), [], lattice.integrate_core

    def recording(stage, evaluate, t0, t_end, t_out, ctrl, validate):
        def validate_and_record(t, y):  # d_1 = 0, then d_2..d_M as validate reads them
            states.append(circle._ertl_to_cd(y[:M], y[M:], d_only=True).real)
            validate(t, y)
        return core(stage, evaluate, t0, t_end, t_out, ctrl, validate_and_record)

    monkeypatch.setattr(lattice, "integrate_core", recording)
    with pytest.raises(PositivityLost) as exc:
        integrate_cd(c, d, q, 0.0, 2.0)
    d_now = states[-1]
    assert exc.value.n == n and d_now[0] == 0.0
    assert all(0.0 < x < 1.0 for x in d_now[1:n - 1]) and not 0.0 < d_now[n - 1] < 1.0
    assert str(exc.value).startswith(f"d_{n} = {d_now[n - 1]} left (0, 1)")
    assert all(0.0 < x < 1.0 for s in states[:-1] for x in s[1:])


def test_integrate_schur_rejects_report_outside_window():
    v = VerblunskySeq(0.0, (0.1, 0.2, 0.1))
    for n_report in (0, 4, 10):
        with pytest.raises(ValueError, match="n_report"):
            integrate_schur(v, 0.5, 0.1, n_report=n_report)
    _, seqs, _ = integrate_schur(v, 0.5, 0.1, n_report=3)
    assert len(seqs[-1].a) == 3


def test_circle_flows_reject_empty_window():
    # numpy's "negative dimensions" and an n_report range of 1..0 answered before
    with pytest.raises(ValueError, match=r"the \(c, d\) window is empty"):
        integrate_cd([], [], 0.5, 0.0, 0.1)
    with pytest.raises(ValueError, match="the Schur window is empty"):
        integrate_schur(VerblunskySeq(0.0, ()), 0.5, 0.1)


def test_integrate_cd_rejects_initial_d_outside_unit_interval():
    # with q = 0 the flow is stationary: d_2 never left (0, 1), it started outside
    with pytest.raises(ValueError, match="d_2 = -0.5"):
        integrate_cd([0.1, 0.2, 0.3], [0, -0.5, 0.2], 0.0, 0.0, 0.1)
    with pytest.raises(ValueError, match="d_3 = 1.0"):
        integrate_cd([0.0] * 3, [0.0, 0.25, 1.0], 0.5, 0.0, 0.1)


# -- near-breakdown sweep: chain parameters g_n up to 1e-9 from 0 and 1 ----------

@st.composite
def chain_data(draw):
    """(c_1..c_M, d_1..d_M) with d_1 = 0 and d computed from g_n in [1e-9, 1 - 1e-9]."""
    M = draw(st.integers(1, 8))
    c = draw(st.lists(st.floats(-10.0, 10.0, allow_subnormal=False), min_size=M, max_size=M))
    g = draw(st.lists(st.floats(1e-9, 1.0 - 1e-9), min_size=M, max_size=M))
    return c, [0.0, *CircleState(t=0.0, g=tuple(g), c=tuple(c)).d]


@settings(max_examples=200)
@given(chain_data())
def test_map_round_trip_near_breakdown(data):
    c, d = data
    c2, d2 = map_cd_beta_alpha(*map_beta_alpha_cd(c, d))
    for x, y in zip(c + d, c2 + d2):
        assert abs(x - y) <= 1e-13 * abs(x)


@settings(max_examples=100)
@given(chain_data(), st.complex_numbers(max_magnitude=3.0))
def test_integrate_cd_near_breakdown_keeps_chain_or_raises(data, q):
    c, d = data
    try:
        _, cs, ds, _ = integrate_cd(c, d, q, 0.0, 1.0)
    except PositivityLost:
        return
    for cn, dn in zip(cs, ds):
        assert np.isfinite(cn).all()
        assert all(0.0 < x < 1.0 for x in dn[1:])


# -- near-breakdown sweep: Schur flow with |a_n| up to 1e-9 from 1 ---------------

@st.composite
def near_unit_verblunsky(draw):
    """a_0..a_{M-1} with |a_n| = 1 - 10^-u, u in [0, 9], and any phase."""
    M = draw(st.integers(1, 8))
    u = draw(st.lists(st.floats(0.0, 9.0), min_size=M, max_size=M))
    phase = draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=M, max_size=M))
    return tuple((1.0 - 10.0 ** -x) * np.exp(1j * ph) for x, ph in zip(u, phase))


@settings(max_examples=200)
@given(near_unit_verblunsky(), st.complex_numbers(max_magnitude=3.0))
def test_integrate_schur_near_breakdown_keeps_modulus_or_raises(a, q):
    try:
        _, seqs, _ = integrate_schur(VerblunskySeq(0.0, a), q, 1.0)
    except PositivityLost:
        return
    for s in seqs:
        assert np.isfinite(s.a).all()
        assert max(abs(x) for x in s.a) < 1.0


def test_circle_state_invariants():
    with pytest.raises(ValueError):
        CircleState(t=0.0, g=(1.5,), c=(0.0,))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="must be finite"):
            CircleState(t=0.0, g=(0.5,), c=(bad,))
        with pytest.raises(ValueError, match="must be finite"):
            CircleState(t=bad, g=(0.5,), c=(0.1,))
    for g, c in [((0.5,), (0.1, 0.2, 0.3)), ((0.5, 0.4), (0.1,))]:
        with pytest.raises(ValueError, match="equal length"):
            CircleState(t=0.0, g=g, c=c)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_circle_inputs_reject_non_finite(bad):
    # a NaN or inf is bad input (ValueError), not a breakdown at t = 0 later
    with pytest.raises(ValueError, match="must be finite"):
        VerblunskySeq(0.0, (0.2, bad))
    with pytest.raises(ValueError, match="must be finite"):
        VerblunskySeq(abs(bad), (0.2, 0.1))
    with pytest.raises(ValueError, match="must be finite"):
        integrate_schur(VerblunskySeq(0.0, (0.2, 0.1)), bad, 0.1)
    with pytest.raises(ValueError, match="must be finite"):
        integrate_cd([0.0, abs(bad)], [0.0, 0.25], 0.5, 0.0, 0.1)
    with pytest.raises(ValueError, match="must be finite"):
        integrate_cd([0.0, 0.0], [0.0, 0.25], bad, 0.0, 0.1)
    with pytest.raises(ValueError, match="kernel point"):
        kernel_coeffs(VerblunskySeq(0.0, (0.2, 0.1)), bad)


@pytest.mark.parametrize("t", [1j, True, "0"])
def test_verblunsky_seq_rejects_time_that_is_not_a_real_number(t):
    # a complex or string t was stored, and integrate_schur then failed in float()
    with pytest.raises(ValueError, match="t must be a real number"):
        VerblunskySeq(t, (0.2, 0.1))


@pytest.mark.parametrize("t", [1j, True, "0"])
def test_circle_state_rejects_time_that_is_not_a_real_number(t):
    # a complex t raised TypeError from the float array of the finiteness check
    with pytest.raises(ValueError, match="t must be a real number"):
        CircleState(t=t, g=(0.5,), c=(0.1,))
