"""Bootstrap of L-orthogonal recurrence coefficients and the sigma/tau ladder."""

import dataclasses
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ertl import (ClosedFormExample, ErtlError, IndexOutOfTable, MomentSpec,
                  NonConvergentIntegral, RecurrenceCoeffs, RegularityBreakdown,
                  bootstrap_recurrence, compute_moments,
                  compute_moments_exact, discrete_spec, example1_coeffs, example1_spec,
                  example2_coeffs, example2_spec, explicit_table_spec,
                  triangle_from_coeffs)
from ertl import measures
from ertl.lorth import stieltjes
from ertl.measures import _Rule
from tests.conftest import (alpha_at, beta_at, eval_Q, orthogonality_residual, q_at_zero,
                            tau_closed_form, two_pass_stieltjes)

#: agreement of the two tau routes (node or moment sums vs the gamma identity)
TAU_RTOL = 1e-8


@pytest.fixture(scope="module")
def ex1_boot(ex1_spec):
    table = compute_moments(ex1_spec, 0.0, 9)
    return table, *bootstrap_recurrence(table, 8, p=1.0, q=2.0)


@pytest.fixture(scope="module")
def ten_node_boot(ten_node_spec):
    table = compute_moments(ten_node_spec, 0.3, 9)
    return table, *bootstrap_recurrence(table, 8, p=1.0, q=2.0)


def test_bootstrap_example1_closed_form(ex1_boot):
    _, lp, rc = ex1_boot
    for n in range(1, 8):
        assert abs(rc.beta[n - 1] - np.sqrt(2.0)) < 1e-8
        if n >= 2:
            assert abs(rc.alpha[n - 2] - (n - 1) / 2.0) < 1e-8


def test_bootstrap_two_point_by_hand():
    table = compute_moments(discrete_spec([1.0, 2.0], [1.0, 1.0]), 0.0, 3)
    _, rc = bootstrap_recurrence(table, 2)
    assert rc.beta[0] == pytest.approx(4.0 / 3.0)


def test_bootstrap_example2_matches_l_recursion(ex2_spec):
    table = compute_moments(ex2_spec, 0.5, 7)
    _, rc = bootstrap_recurrence(table, 6, p=1.0, q=2.0)
    ref = example2_coeffs(ClosedFormExample("example2", 1.0, 2.0), 0.5, 6)
    assert max(abs(a - b) for a, b in zip(rc.beta, ref.beta)) < 1e-7
    assert max(abs(a - b) for a, b in zip(rc.alpha, ref.alpha)) < 1e-7


def test_bootstrap_breaks_down_on_unit_mass():
    table = compute_moments(discrete_spec([1.0], [1.0]), 0.0, 4)
    with pytest.raises(RegularityBreakdown):
        bootstrap_recurrence(table, 3)


def test_bootstrap_positivity(ten_node_boot):
    _, _, rc = ten_node_boot
    assert all(b.real > 0 and abs(b.imag) < 1e-12 for b in rc.beta)
    assert all(a.real > 0 and abs(a.imag) < 1e-12 for a in rc.alpha)


# -- polynomial evaluation ------------------------------------------------------

def test_eval_Q_degree_zero_and_first_root(ex1_boot):
    _, _, rc = ex1_boot
    assert eval_Q(rc, 0, 3.7 + 1j) == 1
    assert abs(eval_Q(rc, 1, rc.beta[0])) < 1e-15


def test_eval_Q_matches_coefficient_triangle(ex1_boot):
    _, lp, rc = ex1_boot
    for n, x in ((3, 1.0), (5, 0.3 + 0.7j), (8, -2.0)):
        horner = sum(lp.rows[n][j] * x ** j for j in range(n + 1))
        val = eval_Q(rc, n, x)
        assert abs(val - horner) <= 1e-12 * max(1.0, abs(horner))


def test_route_equivalence_triangle(ten_node_spec):
    # the triangle of the Stieltjes coefficients against the exact triangle of
    # the Fraction bootstrap of the same measure
    spec = discrete_spec(ten_node_spec.nodes, ten_node_spec.weights)
    lp, _ = bootstrap_recurrence(compute_moments(spec, 0.0, 9), 8)
    lpe, _ = bootstrap_recurrence(compute_moments_exact(spec, 0.0, 9), 8)
    rows = triangle_from_coeffs(lp.beta, lp.alpha)
    for n in range(9):
        for j in range(n + 1):
            ref = float(lpe.rows[n][j])
            assert abs(rows[n][j] - ref) <= 1e-11 * max(1.0, abs(ref))
            assert lp.rows[n][j] == rows[n][j]


def test_q_at_zero_product_form(ex1_boot):
    _, _, rc = ex1_boot
    assert q_at_zero(rc, 1) == -rc.beta[0]
    # beta_n = sqrt(q): Q_4(0) = (+1) q^2 = 4
    assert abs(q_at_zero(rc, 4) - 4.0) < 1e-7
    for n in (3, 6):
        assert abs(q_at_zero(rc, n) - eval_Q(rc, n, 0.0)) <= 1e-13 * abs(q_at_zero(rc, n))


def test_q_at_zero_random_positive(ten_node_boot):
    _, _, rc = ten_node_boot
    v = q_at_zero(rc, 6)
    assert abs(v - eval_Q(rc, 6, 0.0)) <= 1e-13 * abs(v)


# -- sigma/tau identities -------------------------------------------------------

def test_constant_term_recursion(ex1_boot):
    # a_{n,0} = (-1)^n beta_n ... beta_1
    _, lp, rc = ex1_boot
    for n in range(1, 9):
        ref = q_at_zero(rc, n)
        assert abs(lp.rows[n][0] - ref) <= 1e-10 * abs(ref)


def test_abzeros_identity(ex1_boot):
    # alpha_{n+1} + beta_{n+1} = a_{n,n-1} - a_{n+1,n}
    _, lp, rc = ex1_boot
    for n in range(1, 8):
        lhs = alpha_at(rc, n + 1) + beta_at(rc, n + 1)
        rhs = lp.rows[n][n - 1] - lp.rows[n + 1][n]
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_sigxi_sigman_product_identities(ten_node_boot):
    _, lp, rc = ten_node_boot
    prod_alpha = 1.0 + 0j
    for n in range(0, 8):
        if n >= 1:
            prod_alpha *= alpha_at(rc, n + 1)
        sig = lp.sigma_diag[n]
        assert abs(sig - prod_alpha * lp.sigma_diag[0]) <= 1e-10 * abs(sig)
        expect_minus = sig / (beta_at(rc, n + 1) * lp.rows[n][0]) if n >= 1 else None
        if n >= 1 and n + 1 <= rc.N:
            assert abs(lp.sigma_minus[n] - expect_minus) <= 1e-10 * abs(lp.sigma_minus[n])


def test_tau_two_routes_quadrature(ex1_boot):
    _, lp, _ = ex1_boot
    for n in (0, 3, 5, 7):
        assert abs(lp.tau[n] - tau_closed_form(lp, n)) <= TAU_RTOL * abs(lp.tau[n])


def test_tau_n0_is_first_moment(ten_node_boot):
    table, lp, rc = ten_node_boot
    t0 = lp.tau[0]
    assert abs(t0 - table.nu_at(1)) <= 1e-12 * abs(t0)
    assert abs(t0 - tau_closed_form(lp, 0)) <= TAU_RTOL * abs(t0)
    # the n = 0 closed form is nu_0 (alpha_2 + beta_1) = L[x]
    closed = table.nu_at(0) * (alpha_at(rc, 2) + beta_at(rc, 1))
    assert abs(closed - table.nu_at(1)) <= 1e-10 * abs(t0)


def test_tau_exact_rational():
    spec = discrete_spec([1, 2], [1, 1])
    table = compute_moments_exact(spec, 0.0, 3)
    lp, _ = bootstrap_recurrence(table, 2)
    assert lp.tau[1] == tau_closed_form(lp, 1) == Fraction(1)  # 1*(1-4/3) + 2*(2-4/3)


def test_recurrence_coeffs_keep_entries_as_given():
    # Fraction entries stay exact, and a NaN entry (a failed result that a
    # check must still be able to hold) is admitted; a non-number is not
    rc = RecurrenceCoeffs(0, 1, 2, [Fraction(1, 3), Fraction(1, 2)], [Fraction(1, 5)])
    assert rc.beta == (Fraction(1, 3), Fraction(1, 2)) and rc.alpha == (Fraction(1, 5),)
    assert np.isnan(RecurrenceCoeffs(0.0, 1, 2, (1.0, np.nan), (0.5,)).beta[1])
    with pytest.raises(ValueError, match="beta and alpha entries must be a number, got None"):
        RecurrenceCoeffs(0.0, 1, 2, (1.0,), (None,))


def test_exact_rational_agrees_with_float_bootstrap():
    spec = discrete_spec([1, 2, 4, 8], [1, 1, 1, 1])
    ft = compute_moments(spec, 0.0, 5)
    et = compute_moments_exact(spec, 0.0, 5)
    lpf, rcf = bootstrap_recurrence(ft, 4)
    lpe, rce = bootstrap_recurrence(et, 4)
    for bf, be in zip(rcf.beta, rce.beta):
        assert abs(bf - float(be)) <= 1e-12 * abs(float(be))
    for af, ae in zip(rcf.alpha, rce.alpha):
        assert abs(af - float(ae)) <= 1e-12 * abs(float(ae))


def test_orthogonality_residual_levels(ex1_boot):
    table, lp, _ = ex1_boot
    assert orthogonality_residual(table, lp, 1) < 1e-12
    assert orthogonality_residual(table, lp, 6) < 1e-9


def test_beta_sum_identity(ex1_spec):
    # sum_k beta_dot_k/beta_k = -p alpha_{n+1} + q alpha_{n+1}/(beta_{n+1} beta_n)
    h = 1e-4
    boots = {}
    for t in (0.5 - h, 0.5, 0.5 + h):
        table = compute_moments(ex1_spec, t, 9)
        boots[t] = bootstrap_recurrence(table, 8, p=1.0, q=2.0)[1]
    rc = boots[0.5]
    for n in range(1, 7):
        lhs = 0.0 + 0j
        for k in range(1, n + 1):
            bdot = (boots[0.5 + h].beta[k - 1] - boots[0.5 - h].beta[k - 1]) / (2 * h)
            lhs += bdot / rc.beta[k - 1]
        rhs = (-rc.p * alpha_at(rc, n + 1)
               + rc.q * alpha_at(rc, n + 1) / (beta_at(rc, n + 1) * beta_at(rc, n)))
        assert abs(lhs - rhs) < 1e-5


def test_depth_cap_enforced(ex1_boot, ex1_spec):
    # a node table has no depth cap, only its moment coverage; the cap stays
    # on the moment bootstrap of a table that carries moments alone
    table, _, _ = ex1_boot
    with pytest.raises(IndexOutOfTable):
        bootstrap_recurrence(table, 30)
    deep = compute_moments(ex1_spec, 0.0, 31)
    _, rc = bootstrap_recurrence(deep, 30)
    assert rc.N == 30
    moments_only = compute_moments(explicit_table_spec(deep.nu), 0.0, 31)
    with pytest.raises(ValueError, match="cap"):
        bootstrap_recurrence(moments_only, 30)


@pytest.mark.parametrize("N", [40, 80])
@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("family", ["example1", "example2"])
def test_stieltjes_deep_closed_form(family, t, N):
    spec = (example1_spec if family == "example1" else example2_spec)(1.0, 2.0)
    closed = example1_coeffs if family == "example1" else example2_coeffs
    _, rc = bootstrap_recurrence(compute_moments(spec, t, N + 1), N, p=1.0, q=2.0)
    ref = closed(ClosedFormExample(family, 1.0, 2.0), t, N)
    for got, want in zip(rc.beta + rc.alpha, ref.beta + ref.alpha):
        assert abs(got - want) <= 1e-12 * abs(want)


def test_ten_node_matches_exact_bootstrap(ten_node_spec):
    # full depth: ten nodes are regular to level 9
    table = compute_moments(ten_node_spec, 0.0, 11)
    assert table.nodes is not None
    _, rc = bootstrap_recurrence(table, 10)
    _, exact = bootstrap_recurrence(compute_moments_exact(ten_node_spec, 0.0, 11), 10)
    for got, want in zip(rc.beta + rc.alpha, exact.beta + exact.alpha):
        assert abs(got - float(want)) <= 1e-14 * abs(float(want))


@pytest.mark.parametrize("t", [0.0, 0.5])
@pytest.mark.parametrize("which", ["example1", "example2", "ten_node"])
def test_stieltjes_matches_moment_bootstrap_on_explicit_table(which, t, ten_node_spec):
    spec = {"example1": example1_spec(1.0, 2.0), "example2": example2_spec(1.0, 2.0),
            "ten_node": ten_node_spec}[which]
    table = compute_moments(spec, t, 9)
    moments_only = compute_moments(explicit_table_spec(table.nu, t0=t), t, 9)
    assert moments_only.nodes is None
    _, rs = bootstrap_recurrence(table, 8)
    _, rm = bootstrap_recurrence(moments_only, 8)
    # the moment route's conditioning at depth 8 (test_bootstrap_example1_closed_form)
    for got, want in zip(rm.beta + rm.alpha, rs.beta + rs.alpha):
        assert abs(got - want) <= 1e-8 * abs(want)


def real_line_spec(family, p, q):
    return MomentSpec(kind="real_line_weighted", weight_id=family,
                      params={"delta": 1.0, "q": 2.0}, p=p, q=q)


def pinned(table, m):
    """The table with its Stieltjes ladder started at the m-interval rule."""
    build = table.nodes.build
    return dataclasses.replace(table, nodes=_Rule(*build(m, False), m, build))


def test_node_doubling_driven_by_coefficients(ex1_spec):
    # started from too coarse a rule (the 128-interval rule is off by 1e-2 at
    # depth 40), the refinement doubles until one pass certifies its rule
    table = compute_moments(ex1_spec, 0.5, 41)
    _, rc = bootstrap_recurrence(pinned(table, 128), 40)
    ref = example1_coeffs(ClosedFormExample("example1", 1.0, 2.0), 0.5, 40)
    for got, want in zip(rc.beta + rc.alpha, ref.beta + ref.alpha):
        assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("p, q", [(1.0, 2.0), (1 + 0.5j, 2 - 0.5j), (1 + 3j, 2 - 2j)],
                         ids=["real", "complex", "complex-breakdown"])
@pytest.mark.parametrize("family", ["example1", "example2"])
def test_one_pass_certificate_agrees_with_two_runs(family, p, q, stieltjes_sweeps):
    # the m/2 sums of one pass and the coefficients of two whole runs settle
    # at the same rule, so the coefficients are bitwise the same; the
    # cancelling modification breaks down at the same level on both routes
    spec = real_line_spec(family, p, q)
    broken = 0
    for N in (8, 12, 20, 30, 40):
        for t in (0.0, 0.5, 1.0, 2.0):
            table, twin = (compute_moments(spec, t, N + 1) for _ in range(2))
            stieltjes_sweeps.clear()
            try:
                lp, _ = bootstrap_recurrence(table, N)
            except RegularityBreakdown as err:
                with pytest.raises(RegularityBreakdown) as ref:
                    two_pass_stieltjes(twin, N)
                assert (ref.value.n, ref.value.which) == (err.n, err.which)
                broken += 1
                continue
            settled = stieltjes_sweeps[-1]  # the two-run route sweeps too
            ref, m = two_pass_stieltjes(twin, N)
            assert settled == m
            assert lp == ref
    assert (broken > 0) == (p == 1 + 3j)


def test_coarse_rule_refines_past_it(ex1_spec, stieltjes_sweeps):
    # a 32-interval rule resolves the functional at no depth this deep: the
    # ladder doubles past it, one sweep per rule, to the closed forms, and
    # leaves the table's rule as it was.  The two-run route reads the
    # 16-interval rule too, whose 17 nodes break down at level 7; a
    # breakdown only the m/2 rule would hit no longer raises
    N, t = 30, 0.5
    table = pinned(compute_moments(ex1_spec, t, N + 1), 32)
    _, rc = bootstrap_recurrence(table, N)
    assert stieltjes_sweeps == [32, 64, 128, 256, 512]
    assert table.nodes.m == 32
    closed = example1_coeffs(ClosedFormExample("example1", 1.0, 2.0), t, N)
    for got, want in zip(rc.beta + rc.alpha, closed.beta + closed.alpha):
        assert abs(got - want) <= 1e-12 * abs(want)
    with pytest.raises(RegularityBreakdown) as err:
        two_pass_stieltjes(pinned(compute_moments(ex1_spec, t, N + 1), 32), N)
    assert err.value.n == 7
    # from a rule both routes resolve they double to the same rule
    table = pinned(compute_moments(ex1_spec, t, N + 1), 128)
    stieltjes_sweeps.clear()
    lp, _ = bootstrap_recurrence(table, N)
    settled = stieltjes_sweeps[-1]
    ref, m = two_pass_stieltjes(pinned(compute_moments(ex1_spec, t, N + 1), 128), N)
    assert settled == m == 512 and lp == ref


def test_doubling_budget_raises(ex1_spec, monkeypatch, stieltjes_sweeps):
    # with no doublings allowed the ladder stops at _M0 = 256 intervals, which
    # does not resolve depth 40 from a 128-interval start
    table = compute_moments(ex1_spec, 0.5, 41)
    monkeypatch.setattr(measures, "_MAX_DOUBLINGS", 0)
    with pytest.raises(NonConvergentIntegral, match="did not converge"):
        bootstrap_recurrence(pinned(table, 128), 40)
    assert stieltjes_sweeps == [128, 256]


def test_stieltjes_raises_on_cancelling_complex_weights():
    # a strongly oscillating modification cancels the node sums: the route
    # raises at the level where they lose 12 digits instead of refining forever
    spec = MomentSpec(kind="real_line_weighted", weight_id="example1",
                      params={"delta": 1.0, "q": 2.0}, p=1 + 3j, q=2 - 2j)
    table = compute_moments(spec, 2.0, 21)
    lp, _ = bootstrap_recurrence(table, 8)
    assert 0 < min(lp.margin) < 1e-6
    with pytest.raises(RegularityBreakdown) as err:
        bootstrap_recurrence(table, 20)
    assert 8 < err.value.n < 20 and err.value.which == "condition_b"


@st.composite
def positive_discrete(draw):
    """1-8 nodes at ratios 1.05-2.5 apart, weights 0.1-10."""
    m = draw(st.integers(1, 8))
    first = draw(st.floats(0.1, 1.0))
    ratios = draw(st.lists(st.floats(1.05, 2.5), min_size=m - 1, max_size=m - 1))
    nodes = list(first * np.cumprod([1.0] + ratios))
    weights = draw(st.lists(st.floats(0.1, 10.0), min_size=m, max_size=m))
    return nodes, weights


@settings(max_examples=60)
@given(positive_discrete(), st.floats(0.0, 0.5))
# rounding in the last levels leaves sigma_{8,8} of these eight nodes above
# the threshold test; the level still breaks down
@example(([0.14, 4.49, 5.71, 5.97, 6.44, 6.83, 7.44, 9.02],
          [6.3, 2.8, 7.6, 2.4, 3.3, 0.7, 9.8, 9.0]), 0.0)
def test_stieltjes_matches_exact_bootstrap_property(measure, t):
    nodes, weights = measure
    m = len(nodes)
    table = compute_moments(discrete_spec(nodes, weights, p=1.0, q=1.0), t, m + 2)
    lp, rc = bootstrap_recurrence(table, m)
    # the exact oracle of the modified weights the node route summed
    x, w = table.nodes.x, table.nodes.w
    exact_table = compute_moments_exact(discrete_spec(x, w.real), 0.0, m + 1)
    _, exact = bootstrap_recurrence(exact_table, m)
    # rounding grows as eps over the smallest margin: relative error times
    # margin stayed below 5e-15 on a few thousand seeded measures
    bound = 1e-13 / min(lp.margin)
    for got, want in zip(rc.beta + rc.alpha, exact.beta + exact.alpha):
        assert abs(got - float(want)) <= bound * abs(float(want))
    for n in range(1, m + 1):
        assert orthogonality_residual(table, lp, n) < 1e-12
    for n in range(m):
        assert abs(lp.tau[n] - tau_closed_form(lp, n)) <= TAU_RTOL * abs(lp.tau[n])
    # m nodes carry a regular functional to level m - 1 only
    with pytest.raises(RegularityBreakdown) as err:
        bootstrap_recurrence(table, m + 1)
    assert err.value.n == m and err.value.which == "condition_b"


@st.composite
def coincident_discrete(draw):
    """2-10 nodes in [0.1, 10], some adjacent pairs x, x (1 + 10^-u), u in [2, 12]."""
    n = draw(st.integers(2, 10))
    nodes = sorted(draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n, unique=True)))
    for i in range(n - 1):
        if draw(st.booleans()):
            twin = nodes[i] * (1.0 + 10.0 ** -draw(st.floats(2.0, 12.0)))
            # only moving a node down keeps the nodes sorted and distinct
            nodes[i + 1] = min(nodes[i + 1], twin)
    weights = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    return nodes, weights


@settings(max_examples=100)
@given(coincident_discrete(), st.floats(0.0, 1.0))
def test_coincident_nodes_give_finite_or_typed_result(measure, t):
    # a near-double node makes the measure nearly one node short: each depth
    # either returns finite coefficients or raises a typed error, never NaN
    nodes, weights = measure
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = compute_moments(discrete_spec(nodes, weights, p=1.0, q=2.0), t, len(nodes))
        for N in range(1, len(nodes)):
            try:
                _, rc = bootstrap_recurrence(table, N)
            except ErtlError:
                continue
            assert np.all(np.isfinite(rc.beta + rc.alpha))


def test_stieltjes_direct_call_matches_bootstrap(ten_node_boot):
    table, lp, _ = ten_node_boot
    x, w = table.nodes.x, table.nodes.w
    direct = stieltjes(x, w, 8)
    assert direct == lp


@pytest.mark.parametrize("x, w", [([1.0, 2.0], [1.0, np.nan]), ([1.0, np.inf], [1.0, 1.0])])
def test_stieltjes_rejects_non_finite_nodes_and_weights(x, w):
    # a NaN weight was reported as NonConvergentIntegral, "sums overflow"
    with pytest.raises(ValueError, match="nodes and weights must be finite"):
        stieltjes(x, w, 1)
