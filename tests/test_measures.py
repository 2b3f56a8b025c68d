"""Moment tables: closed-form oracles, Hankel-determinant regularity, spec invariants."""

import dataclasses
import json
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import iv, kv

from ertl import (ClosedFormExample, IndexOutOfTable, InvalidSupport, MomentSpec,
                  MomentTable, NonConvergentIntegral, RegularityBreakdown,
                  bootstrap_recurrence, circle_kernel_spec, circle_lebesgue_spec,
                  compute_moments, compute_moments_exact, discrete_spec, example1_coeffs,
                  example1_spec, example2_coeffs, example2_spec, explicit_table_spec,
                  integrate_buffered, integrate_schur, state_from_coeffs, verblunsky_from_moments,
                  VerblunskySeq)
from ertl import measures
from ertl.cli import main
from ertl.lorth import stieltjes
from ertl.measures import (_circle_node_set, _dft_sums, _discrete_node_set, _power_sums,
                           _real_line_node_set)
from tests.conftest import direct_power_sums


def bessel_moment(n, t, delta, q):
    """Independent closed form for the x^(-1/2) exp(-(t+delta)(x+q/x)) weight:
    nu_n = 2 q^((2n+1)/4) K_{n+1/2}(2 (t+delta) sqrt(q))."""
    return 2.0 * q ** ((2 * n + 1) / 4.0) * kv(n + 0.5, 2.0 * (t + delta) * math.sqrt(q))


def circle_moment(k, t, q):
    """Fourier coefficients of exp(-2 t q cos(theta)) shifted by the z factor:
    nu_k = I_{k+1}(-2 t q) for real q."""
    return iv(k + 1, -2.0 * t * q)


def test_unit_mass_moments_all_one():
    tab = compute_moments(discrete_spec([1.0], [1.0]), t=0.7, K=5)
    for k in range(-5, 6):
        assert tab.nu_at(k) == pytest.approx(1.0)


def test_example1_moments_match_bessel_closed_form():
    spec = example1_spec(1.0, 2.0)
    tab = compute_moments(spec, 0.0, 3)
    for n in range(-3, 4):
        ref = bessel_moment(n, 0.0, 1.0, 2.0)
        assert abs(tab.nu_at(n) - ref) <= 1e-10 * abs(ref)


def test_example1_moments_at_later_time():
    spec = example1_spec(1.0, 2.0)
    tab = compute_moments(spec, 0.6, 4)
    for n in range(-4, 5):
        ref = bessel_moment(n, 0.6, 1.0, 2.0)
        assert abs(tab.nu_at(n) - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("delta, t", [(1.0, 0.0), (1.0, 0.5), (1.0, 1.0), (0.015, 0.0)])
@pytest.mark.parametrize("family", ["example1", "example2"])
def test_real_line_table_k21_matches_bessel(family, delta, t):
    # example2's weight is (x + sqrt q) x^(-3/2) e^(...): nu_k = B_k + sqrt(q) B_(k-1);
    # at delta = 0.015 the window must widen for the outer k, not for k = 0
    spec = (example1_spec if family == "example1" else example2_spec)(delta, 2.0)
    tab = compute_moments(spec, t, 21)
    for k in range(-21, 22):
        ref = bessel_moment(k, t, delta, 2.0)
        if family == "example2":
            ref += math.sqrt(2.0) * bessel_moment(k - 1, t, delta, 2.0)
        assert abs(tab.nu_at(k) - ref) <= 1e-13 * abs(ref)


def test_complex_modification_matches_bessel():
    # int_0^inf x^(nu-1) e^(-a x - b/x) dx = 2 (b/a)^(nu/2) K_nu(2 sqrt(ab)), complex a, b;
    # the error is measured against M_k, the same integral of the modulus
    delta, qw, p, q, t = 1.0, 2.0, 1 + 3j, 2 - 2j, 2.0
    spec = MomentSpec(kind="real_line_weighted", weight_id="example1",
                      params={"delta": delta, "q": qw}, p=p, q=q)
    tab = compute_moments(spec, t, 13)
    a, b = delta + t * p, delta * qw + t * q
    for k in range(-13, 14):
        nu = k + 0.5
        ref = 2 * (b / a) ** (nu / 2) * kv(nu, 2 * np.sqrt(a * b))
        mod = 2 * (b.real / a.real) ** (nu / 2) * kv(nu, 2 * math.sqrt(a.real * b.real))
        assert abs(tab.nu_at(k) - ref) <= 1e-13 * mod


@pytest.mark.parametrize("t", [0.5, 1.0])
@pytest.mark.parametrize("p, q", [(0.0, 1.0), (0.0, 2.0), (1.0, 0.0), (0.5, 0.0)])
def test_relativistic_toda_modifications_match_closed_form(p, q, t):
    # p = 0 (rtl1) and q = 0 (rtl2) converge on (0, inf): with A = delta + t p
    # and B = delta q_w + t q the modified example1 weight is example1 with
    # delta' = A and q' = B / A, at time 0
    delta, qw, N = 1.0, 2.0, 20
    spec = MomentSpec(kind="real_line_weighted", weight_id="example1",
                      params={"delta": delta, "q": qw}, p=p, q=q)
    _, rc = bootstrap_recurrence(compute_moments(spec, t, N + 1), N, p=p, q=q)
    A, B = delta + t * p, delta * qw + t * q
    ref = example1_coeffs(ClosedFormExample("example1", A, B / A), 0.0, N)
    got, want = np.array(rc.beta + rc.alpha), np.array(ref.beta + ref.alpha)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14


OVERFLOW_SPEC = ('{"kind":"real_line_weighted","weight_id":"example1",'
                 '"params":{"delta":1.0,"q":2.0},"p":[1,0],"q":[2,0]}')


def test_real_line_overflow_raises_without_warning():
    # |nu_101| ~ 1e158 fits a double, but x^101 on the window does not
    spec = MomentSpec.from_json(OVERFLOW_SPEC)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergentIntegral, match="overflow"):
            compute_moments(spec, 0.0, 101)
        tab = compute_moments(spec, 0.0, 81)
    for k in (-81, 0, 81):
        ref = bessel_moment(k, 0.0, 1.0, 2.0)
        assert abs(tab.nu_at(k) - ref) <= 1e-12 * abs(ref)


def test_circle_damping_overflow_raises_without_warning():
    # exp(-2 t q cos theta) passes 1e308 near theta = pi
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergentIntegral, match="overflow"):
            compute_moments(circle_lebesgue_spec(400.0), 1.0, 4)


def test_cli_moments_exits_2_on_overflow(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["moments", "--measure", OVERFLOW_SPEC, "--K", "101"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "NonConvergentIntegral"


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("spec, t", [
    (circle_lebesgue_spec(0.5), 0.3),
    (circle_lebesgue_spec(0.3 + 0.4j, atoms=((0.4, 0.2), (2.5, 0.7))), 0.25),
    (circle_kernel_spec(0.3 + 0.4j, w=np.exp(0.7j)), 0.4)])
def test_circle_dft_sums_match_direct_sums(spec, t, m):
    # the rule's power sums as one FFT of its weights; K = 20 >= m wraps |k| past m
    z, w = _circle_node_set(spec, t).build(m, False)
    scale = np.abs(w).sum()
    for K in (3, 20):
        nu, s = _dft_sums(w, K)
        assert np.abs(nu - direct_power_sums(z, w, K)).max() <= 1e-14 * scale
        assert np.all(s == scale)


@pytest.mark.parametrize("atoms", [(), ((0.4, 0.2), (2.5, 0.7))])
def test_circle_table_matches_direct_sums(atoms):
    # the rule converges geometrically: at m = 512 its direct sums are exact to
    # rounding, whatever node count the refinement stopped at
    spec, t, K = circle_lebesgue_spec(0.3 + 0.4j, atoms=atoms), 0.25, 20
    z, w = _circle_node_set(spec, t).build(512, False)
    ref, scale = direct_power_sums(z, w, K), np.abs(w).sum()
    if atoms:
        theta, mass = np.array(atoms).T
        za = np.exp(1j * theta)
        wa = mass * za * np.exp(-t * (spec.p * za + spec.q / za))
        ref, scale = ref + direct_power_sums(za, wa, K), scale + np.abs(wa).sum()
    tab = compute_moments(spec, t, K)
    got = np.array([tab.nu_at(k) for k in range(-K, K + 1)])
    assert np.abs(got - ref).max() <= 1e-14 * scale


def equal_but_subnormal(a, b):
    """a == b entrywise, except where both parts of an entry are at most the
    smallest normal double: a halved weight that underflows rounds twice."""
    tiny = np.finfo(float).tiny
    return all(np.all((u == v) | (np.maximum(np.abs(u), np.abs(v)) <= tiny))
               for u, v in ((a.real, b.real), (a.imag, b.imag)))


def real_line_spec(family, p, q):
    return MomentSpec(kind="real_line_weighted", weight_id=family,
                      params={"delta": 1.0, "q": 2.0}, p=p, q=q)


NESTED_SPECS = {
    "example1-real": real_line_spec("example1", 1.0, 2.0),
    "example1-complex": real_line_spec("example1", 1 + 0.5j, 2 - 0.5j),
    "example2-real": real_line_spec("example2", 1.0, 2.0),
    "example2-complex": real_line_spec("example2", 1 + 0.5j, 2 - 0.5j),
    "circle-atoms": circle_lebesgue_spec(0.3 + 0.4j, atoms=((0.4, 0.2), (2.5, 0.7))),
    "circle-kernel": circle_kernel_spec(0.3 + 0.4j, w=np.exp(0.7j)),
}


@pytest.mark.parametrize("which", sorted(NESTED_SPECS))
def test_nested_rule_equals_direct_rule(which):
    # each doubling reuses the m/2 rule's nodes: positions bitwise, weights
    # halved exactly, so sums and Stieltjes coefficients are those of the rule
    # built from scratch
    spec, t, K, N = NESTED_SPECS[which], 0.5, 20, 8
    circle = spec.kind == "unit_circle_weighted"
    nested = _circle_node_set(spec, t) if circle else _real_line_node_set(spec, t, K)
    half = None
    for m in (256, 512, 1024, 2048):
        if m > nested.m:
            nested = nested.finer()
        x, w = nested.x, nested.w
        xd, wd = nested.build(m, False)
        assert np.array_equal(x, xd)
        assert w.dtype == wd.dtype and equal_but_subnormal(w, wd)
        if circle:
            # the circle ladder takes one FFT of the assembled weights
            assert np.array_equal(_dft_sums(w, K)[0], _dft_sums(wd, K)[0])
        else:
            half = _power_sums(x, w, K, half)
            ref, scale = _power_sums(xd, wd, K)
            assert np.all(np.abs(half[0] - ref) <= 1e-15 * scale)
            assert np.all(np.abs(half[1] - scale) <= 1e-15 * scale)
            assert stieltjes(x, w, N) == stieltjes(xd, wd, N)
    assert nested.m == 2048 and not (x.flags.writeable or w.flags.writeable)


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("N", [12, 20])
@pytest.mark.parametrize("family", ["example1", "example2"])
def test_each_node_is_evaluated_once_per_table(family, N, t, monkeypatch, stieltjes_sweeps):
    # the moment ladder 256 -> 512 evaluates the weight on the 257 + 256 nodes
    # of the 512 rule (besides the 129-point window probes), and the Stieltjes
    # ladder certifies the table's rule in one level sweep, evaluating no
    # weight and leaving the table's rule as it was
    sizes = []
    weight = measures._real_line_weight

    def counted(spec, t, u):
        sizes.append(len(u))
        return weight(spec, t, u)

    monkeypatch.setattr(measures, "_real_line_weight", counted)
    table = compute_moments(real_line_spec(family, 1.0, 2.0), t, N + 1)
    rule = table.nodes
    assert rule.m == 512
    assert sum(n for n in sizes if n != 129) == rule.m + 1
    sizes.clear()
    bootstrap_recurrence(table, N)
    assert sizes == []
    assert stieltjes_sweeps == [rule.m]
    assert table.nodes is rule and len(rule.x) == rule.m + 1
    assert not rule.x.flags.writeable and not rule.w.flags.writeable


@pytest.mark.parametrize("t", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("family", ["example1", "example2"])
def test_power_sums_positive_path_matches_abs_path(family, t):
    # float64 terms >= 0 take s_k = nu_k without the |terms| pass; the same
    # rule with complex weights takes that pass and gives the same scales,
    # through the nested ladder too
    K = 20
    rule = _real_line_node_set(real_line_spec(family, 1.0, 2.0), t, K)
    fast = slow = None
    for m in (256, 512, 1024):
        if m > rule.m:
            rule = rule.finer()
        x, w = rule.x, rule.w
        fast = _power_sums(x, w, K, fast)
        slow = _power_sums(x, w.astype(complex), K, slow)
        assert np.array_equal(fast[1], fast[0])
        assert np.array_equal(fast[1], slow[1])
        assert np.all(np.abs(fast[0] - slow[0]) <= 1e-15 * fast[1])


def test_power_sums_signed_weights_keep_abs_path():
    # a negative weight makes nu_k cancel, so s_k is summed from |terms|
    x = np.array([0.5, 1.0, 2.0])
    for w in (np.array([1.0, -1.0, 1.0]), np.array([1.0, -1.0, 1.0]) + 0j):
        nu, scale = _power_sums(x, w, 3)
        ref = direct_power_sums(x, w, 3)
        assert np.allclose(nu, ref, rtol=1e-15, atol=0)
        assert np.allclose(scale, direct_power_sums(x, np.abs(w), 3), rtol=1e-15, atol=0)
        assert scale[3] == 3.0 and nu[3] == 1.0  # k = 0


def test_real_modification_keeps_node_weights_float64():
    real_line = lambda p, q: MomentSpec(kind="real_line_weighted", weight_id="example1",
                                        params={"delta": 1.0, "q": 2.0}, p=p, q=q)
    for p, q, dtype in ((1.0, 2.0, np.float64), (1 + 3j, 2.0, np.complex128),
                        (1.0, 2 - 2j, np.complex128)):
        assert _real_line_node_set(real_line(p, q), 0.5, 4).w.dtype == dtype
        spec = discrete_spec([0.5, 2.0], [1.0, 1.0], p=p, q=q)
        assert _discrete_node_set(spec, 0.5).w.dtype == dtype


def test_circle_lebesgue_matches_bessel_series():
    tab = compute_moments(circle_lebesgue_spec(0.5), 0.3, 4)
    for k in range(-4, 5):
        ref = circle_moment(k, 0.3, 0.5)
        assert abs(tab.nu_at(k) - ref) <= 1e-10 * max(abs(ref), 1e-3)


def test_circle_complex_q_matches_rotated_bessel():
    q = 0.3 + 0.4j
    t = 0.2
    tab = compute_moments(circle_lebesgue_spec(q), t, 3)
    phi = math.atan2(q.imag, q.real)
    for k in range(-3, 4):
        ref = np.exp(1j * (k + 1) * phi) * iv(k + 1, -2.0 * t * abs(q))
        assert abs(tab.nu_at(k) - ref) <= 1e-10 * max(abs(ref), 1e-3)


def test_discrete_moments_exact_sums():
    tab = compute_moments(discrete_spec([1.0, 2.0], [1.0, 1.0]), 0.0, 2)
    assert tab.nu_at(0) == pytest.approx(2.0)
    assert tab.nu_at(-1) == pytest.approx(1.5)
    assert tab.nu_at(1) == pytest.approx(3.0)


@given(st.lists(st.tuples(st.floats(0.1, 10.0), st.floats(0.01, 10.0)),
                min_size=1, max_size=12, unique_by=lambda nw: nw[0]),
       st.integers(1, 15))
def test_discrete_moments_match_exact_rational(masses, K):
    spec = discrete_spec([x for x, _ in masses], [w for _, w in masses], p=1.0, q=2.0)
    tab = compute_moments(spec, 0.0, K)
    exact = compute_moments_exact(spec, 0.0, K)
    for k in range(-K, K + 1):
        ref = float(exact.nu_at(k))
        assert abs(tab.nu_at(k) - ref) <= 1e-14 * ref


def test_moment_table_index_error():
    tab = compute_moments(discrete_spec([1.0], [1.0]), 0.0, 2)
    with pytest.raises(IndexOutOfTable):
        tab.nu_at(3)


def test_moment_table_rejects_non_finite_entry(capsys):
    spec = explicit_table_spec({-1: 1.0, 0: math.inf, 1: 1.0})
    with pytest.raises(ValueError, match="non-finite moment nu_0"):
        compute_moments(spec, 0.0, 1)
    assert main(["moments", "--measure", spec.to_json(), "--K", "1"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "nu_0" in err["message"]
    # the first non-finite entry is named, in a table with Fractions too
    with pytest.raises(ValueError, match="non-finite moment nu_0"):
        MomentTable(0.0, 1, {-1: Fraction(1), 0: complex(0.0, math.nan), 1: math.inf})


def test_moment_table_exact_is_derived_from_entries():
    spec = discrete_spec([1, 2, 4], [1, 3, 2])
    assert compute_moments_exact(spec, 0.0, 3).exact
    assert not compute_moments(spec, 0.0, 3).exact
    assert not compute_moments(example1_spec(1.0, 2.0), 0.0, 3).exact
    assert not compute_moments(circle_lebesgue_spec(0.5), 0.0, 3).exact
    # an explicit table given Fractions is converted to complex, so it is not exact
    tab = compute_moments(explicit_table_spec({k: Fraction(k + 4, 3) for k in range(-2, 3)}),
                          0.0, 2)
    assert not tab.exact and tab.nu_at(1) == 5 / 3
    # a table mixing Fraction and complex entries is not exact; its Fractions
    # are not converted, so one past double range passes the finiteness check
    assert not MomentTable(0.0, 1, {-1: Fraction(10 ** 400), 0: 1.0, 1: Fraction(1, 3)}).exact


# -- Hankel determinants: the regularity conditions as determinants -----------

def hankel_det(table, m, n):
    """H_n^(m) = det[nu_{m+i+j}]_{i,j<n}, H_0^(m) = 1: exact elimination on a
    Fraction table, numpy's LU otherwise."""
    rows = [[table.nu_at(m + i + j) for j in range(n)] for i in range(n)]
    if not table.exact:
        return complex(np.linalg.det(np.array(rows, dtype=complex).reshape(n, n)))
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return det


def hankel_sigmas(table, n):
    """(sigma_{n,n}, sigma_{n,-1}) by Cramer's rule on L[x^(-n+s) Q_n] = 0, s < n:
    H_{n+1}^(-n) / H_n^(-n) and (-1)^n H_{n+1}^(-n-1) / H_n^(-n)."""
    h = hankel_det(table, -n, n)
    return hankel_det(table, -n, n + 1) / h, (-1) ** n * hankel_det(table, -n - 1, n + 1) / h


def test_hankel_order_zero_is_one(ex1_table_t0):
    assert hankel_det(ex1_table_t0, m=4, n=0) == 1.0


def test_hankel_rank_one_unit_mass():
    tab = compute_moments(discrete_spec([1.0], [1.0]), 0.0, 4)
    assert hankel_det(tab, m=-1, n=2) == pytest.approx(0.0, abs=1e-14)


def test_hankel_first_negative_moment(ex1_table_t0):
    val = hankel_det(ex1_table_t0, m=-1, n=1)
    assert val == pytest.approx(ex1_table_t0.nu_at(-1))
    assert complex(val).real > 0


def test_hankel_exact_rational():
    tab = compute_moments_exact(discrete_spec([1, 2], [1, 1]), 0.0, 3)
    # H_2^(-1) = nu_-1 nu_1 - nu_0^2 = (3/2)(3) - 4 = 1/2
    assert hankel_det(tab, -1, 2) == Fraction(1, 2)
    # the moment bootstrap's sigma ladder is the determinant ratios, exactly
    tab = compute_moments_exact(discrete_spec([1, 2, 4, 8], [1, 3, 2, 1]), 0.0, 5)
    lp, _ = bootstrap_recurrence(tab, 4)
    for n in range(5):
        assert (lp.sigma_diag[n], lp.sigma_minus[n]) == hankel_sigmas(tab, n)


def test_regularity_example1_all_positive(ex1_table_t0):
    # a positive measure: H_n^(-n), H_{n+1}^(-n) > 0 at every level, and the
    # Stieltjes ladder matches the determinant ratios (to 1e-11 at n = 6)
    lp, _ = bootstrap_recurrence(ex1_table_t0, 6)
    for n in range(7):
        assert hankel_det(ex1_table_t0, -n, n).real > 0
        assert hankel_det(ex1_table_t0, -n, n + 1).real > 0
        for got, want in zip((lp.sigma_diag[n], lp.sigma_minus[n]),
                             hankel_sigmas(ex1_table_t0, n)):
            assert abs(got - want) <= 1e-10 * abs(want)


def test_regularity_unit_mass_fails_at_two():
    # rank-one Hankel matrices: Q_1 exists (H_1^(-1) != 0), Q_2 does not
    # (H_2^(-2) = 0), and sigma_{1,1} = H_2^(-1) / H_1^(-1) = 0 is where both
    # routes of the ladder break down
    tab = compute_moments_exact(discrete_spec([1], [1]), 0.0, 4)
    assert hankel_det(tab, -1, 1) == 1
    assert hankel_det(tab, -2, 2) == hankel_det(tab, -1, 2) == 0
    for table in (tab, compute_moments(discrete_spec([1.0], [1.0]), 0.0, 4)):
        with pytest.raises(RegularityBreakdown) as err:
            bootstrap_recurrence(table, 3)
        assert (err.value.n, err.value.which) == (1, "condition_b")


# -- spec invariants ----------------------------------------------------------

def test_spec_json_roundtrip():
    from ertl import explicit_table_spec
    for spec in (example1_spec(1.0, 2.0),
                 discrete_spec([1.0, 2.5], [0.5, 0.5], p=1.0, q=0.5),
                 circle_lebesgue_spec(0.3 + 0.4j),
                 circle_kernel_spec(0.5, w=np.exp(0.3j)),
                 explicit_table_spec({k: complex(k, 1) for k in range(-2, 3)}, t0=0.5)):
        back = MomentSpec.from_json(spec.to_json())
        assert back == spec


def test_spec_factories_leave_reading_to_the_spec():
    # the factories no longer convert with float()/complex(); a spec built from
    # floats equals the one they built by converting
    from ertl import explicit_table_spec
    assert example1_spec(1.0, 2.0) == MomentSpec(
        kind="real_line_weighted", weight_id="example1", params={"delta": 1.0, "q": 2.0},
        p=1.0 + 0j, q=2.0 + 0j)
    assert circle_lebesgue_spec(0.3 + 0.4j) == MomentSpec(
        kind="unit_circle_weighted", weight_id="circle_lebesgue", p=0.3 - 0.4j, q=0.3 + 0.4j)
    assert circle_kernel_spec(0.5, w=1.0, atoms=((0.1, 0.2),)) == MomentSpec(
        kind="unit_circle_weighted", weight_id="circle_kernel",
        params={"w": 1 + 0j, "atoms": ((0.1, 0.2),)}, p=0.5 + 0j, q=0.5 + 0j)
    assert explicit_table_spec({0: 1.0}, t0=0.5) == MomentSpec(
        kind="explicit_table", params={"nu": {0: 1.0}, "t0": 0.5})
    # numpy scalars are kept as given and still written as JSON numbers
    spec = example1_spec(np.int64(1), np.float32(2.0))
    assert json.loads(spec.to_json())["params"] == {"delta": 1.0, "q": 2.0}
    assert MomentSpec.from_json(spec.to_json()) == spec


def test_spec_json_rejects_unknown_keys(capsys):
    # a spec written for a bounded interval must not run on (0, inf)
    text = ('{"kind":"real_line_weighted","weight_id":"example1",'
            '"params":{"delta":1.0,"q":2.0},"p":[1,0],"q":[2,0],"support":[1,2],"bogus":3}')
    with pytest.raises(ValueError, match="'bogus', 'support'"):
        MomentSpec.from_json(text)
    assert main(["moments", "--measure", text, "--t", "0", "--K", "1"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "support" in err["message"]


@pytest.mark.parametrize("spec", [
    example1_spec(1.0, 2.0),
    discrete_spec([1.0, 2.5], [0.5, 0.5]),
    circle_lebesgue_spec(0.3 + 0.4j, atoms=[(0.5, 0.1)]),
    circle_kernel_spec(0.5, w=np.exp(0.3j), atoms=[(0.5, 0.1)]),
    explicit_table_spec({k: complex(k, 1) for k in range(-2, 3)}, t0=0.5)])
def test_spec_rejects_unknown_params_keys(spec):
    assert MomentSpec.from_json(spec.to_json()) == spec  # every key in use is accepted
    with pytest.raises(ValueError, match="'support'"):
        dataclasses.replace(spec, params={**spec.params, "support": (1.0, 2.0)})


def test_spec_json_rejects_unknown_params_keys(capsys):
    # a bounded-interval spec with its support moved into params must not run on (0, inf)
    text = ('{"kind":"real_line_weighted","weight_id":"example1",'
            '"params":{"delta":1.0,"q":2.0,"support":[1,2]},"p":[1,0],"q":[2,0]}')
    assert main(["moments", "--measure", text, "--t", "0", "--K", "1"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "'support'" in err["message"]


NON_NUMERIC_SPECS = {
    "node": ('{"kind":"discrete","nodes":[1,null],"weights":[1,1]}', "discrete node"),
    "weight": ('{"kind":"discrete","nodes":[1,2],"weights":[1,"1"]}', "discrete weight"),
    "delta": ('{"kind":"real_line_weighted","weight_id":"example1",'
              '"params":{"delta":"1","q":2.0},"p":[1,0],"q":[2,0]}', "weight parameter delta"),
    "weight-q": ('{"kind":"real_line_weighted","weight_id":"example2",'
                 '"params":{"delta":1.0,"q":[2]},"p":[1,0],"q":[2,0]}', "weight parameter q"),
    "atom": ('{"kind":"unit_circle_weighted","weight_id":"circle_lebesgue",'
             '"params":{"atoms":[[0.5,null]]},"p":[0.5,0],"q":[0.5,0]}', "atom mass"),
    "atom-pair": ('{"kind":"unit_circle_weighted","weight_id":"circle_lebesgue",'
                  '"params":{"atoms":[[0.5]]},"p":[0.5,0],"q":[0.5,0]}', "atom"),
    "kernel-w": ('{"kind":"unit_circle_weighted","weight_id":"circle_kernel",'
                 '"params":{"w":[1,"0"]},"p":[0.5,0],"q":[0.5,0]}', "kernel point w"),
    "p": ('{"kind":"discrete","nodes":[1,2],"weights":[1,1],"p":[1,null]}', "p"),
    "nodes": ('{"kind":"discrete","nodes":1,"weights":[1]}', "nodes"),
}


@pytest.mark.parametrize("which", sorted(NON_NUMERIC_SPECS))
def test_spec_rejects_non_numeric_entries(which, capsys):
    # a non-numeric JSON entry is invalid input: a ValueError naming the
    # field, and from the CLI the one-line JSON error with exit 1
    text, field = NON_NUMERIC_SPECS[which]
    with pytest.raises(ValueError, match=field):
        MomentSpec.from_json(text)
    assert main(["moments", "--measure", text, "--K", "3"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and field in err["message"]


def test_spec_constructor_rejects_non_numeric_entries():
    with pytest.raises(ValueError, match="discrete node"):
        discrete_spec([1.0, None], [1.0, 1.0])
    with pytest.raises(ValueError, match="discrete weight"):
        discrete_spec([1.0, 2.0], [1.0, 1j])
    with pytest.raises(ValueError, match="weight parameter delta"):
        MomentSpec(kind="real_line_weighted", weight_id="example1",
                   params={"delta": "1", "q": 2.0}, p=1.0, q=2.0)
    with pytest.raises(ValueError, match="weight parameter q is missing"):
        MomentSpec(kind="real_line_weighted", weight_id="example1",
                   params={"delta": 1.0}, p=1.0, q=2.0)
    with pytest.raises(ValueError, match="atom angle"):
        circle_lebesgue_spec(0.5, atoms=(("0.4", 0.2),))
    with pytest.raises(ValueError, match="p must be a number"):
        discrete_spec([1.0], [1.0], p=None)
    with pytest.raises(ValueError, match="nu_1"):
        explicit_table_spec({0: 1.0, 1: "2"})


def test_circle_kernel_spec_needs_w():
    # one rule for the constructor and the moments: w is required, never defaulted
    with pytest.raises(ValueError, match=r"params\['w'\]"):
        MomentSpec(kind="unit_circle_weighted", weight_id="circle_kernel", p=0.5, q=0.5)
    with pytest.raises(ValueError, match=r"params\['w'\]"):
        MomentSpec.from_json('{"kind":"unit_circle_weighted","weight_id":"circle_kernel",'
                             '"params":{},"p":[0.5,0],"q":[0.5,0]}')
    table = compute_moments(circle_kernel_spec(0.5, w=1.0), 0.1, 2)
    assert all(math.isfinite(abs(v)) for v in table.nu.values())


def test_spec_rejects_bad_inputs():
    with pytest.raises(ValueError):
        discrete_spec([1.0, -2.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        discrete_spec([1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        discrete_spec([1.0], [0.0])
    with pytest.raises(InvalidSupport):
        MomentSpec(kind="real_line_weighted", weight_id="example1",
                   params={"delta": 1.0, "q": 2.0}, p=-1.0, q=2.0)
    with pytest.raises(TypeError):  # the real-line weights live on (0, inf) only
        MomentSpec(kind="real_line_weighted", weight_id="example1",
                   params={"delta": 1.0, "q": 2.0}, p=1.0, q=2.0, support=(1.0, 2.0))
    with pytest.raises(ValueError):
        MomentSpec(kind="unit_circle_weighted", weight_id="circle_lebesgue",
                   p=1.0, q=0.5j)


INF, NAN = math.inf, math.nan


@pytest.mark.parametrize("build", [
    lambda: example1_spec(INF, 2.0),
    lambda: example1_spec(1.0, INF),
    lambda: example2_spec(1.0, NAN),
    lambda: MomentSpec(kind="real_line_weighted", weight_id="example1",
                       params={"delta": 1.0, "q": 2.0}, p=complex(1.0, INF), q=2.0),
    lambda: discrete_spec([1.0, 2.0], [1.0, INF]),
    lambda: discrete_spec([1.0, INF], [1.0, 1.0]),
    lambda: discrete_spec([1.0, 2.0], [1.0, 1.0], p=NAN),
    lambda: circle_lebesgue_spec(complex(NAN, 0.0)),
    lambda: circle_lebesgue_spec(0.5, atoms=((0.4, INF),)),
    lambda: circle_lebesgue_spec(0.5, atoms=((NAN, 0.2),)),
    lambda: circle_kernel_spec(0.5, w=complex(NAN, 0.0)),
], ids=["delta", "weight-q", "nan-q", "p", "weight", "node", "discrete-p", "circle-q",
        "atom-mass", "atom-angle", "kernel-w"])
def test_spec_rejects_non_finite_input(build):
    # invalid input, not a numerical breakdown: no all-zero table, no overflow error
    with pytest.raises(ValueError, match="finite"):
        build()


@pytest.mark.parametrize("t", [INF, NAN])
@pytest.mark.parametrize("spec", [example1_spec(1.0, 2.0), circle_lebesgue_spec(0.5),
                                  discrete_spec([1.0, 2.0], [1.0, 1.0])],
                         ids=["real-line", "circle", "discrete"])
def test_compute_moments_rejects_non_finite_time(spec, t):
    with pytest.raises(ValueError, match="finite"):
        compute_moments(spec, t, 5)


def test_decay_bound_real_positive_modification():
    # |nu_k(t)| <= exp(-2 t sqrt(p q)) |nu_k(0)| for positive measures
    spec = example1_spec(1.0, 2.0)
    t = 0.4
    tab0 = compute_moments(spec, 0.0, 4)
    tabt = compute_moments(spec, t, 4)
    bound = math.exp(-2.0 * t * math.sqrt(spec.p.real * spec.q.real))
    for k in range(-4, 5):
        v = tabt.nu_at(k)
        assert abs(v.imag) <= 1e-12 * abs(v.real)
        assert abs(v) <= bound * abs(tab0.nu_at(k)) * (1 + 1e-12)


def test_decay_bound_discrete():
    spec = discrete_spec([0.5, 1.0, 3.0], [1.0, 2.0, 0.5], p=1.0, q=2.0)
    t = 0.7
    tab0 = compute_moments(spec, 0.0, 3)
    tabt = compute_moments(spec, t, 3)
    bound = math.exp(-2.0 * t * math.sqrt(2.0))
    for k in range(-3, 4):
        assert abs(tabt.nu_at(k)) <= bound * abs(tab0.nu_at(k)) * (1 + 1e-12)


def test_moment_time_derivative_discrete():
    # d/dt nu_k = -(p nu_{k+1} + q nu_{k-1}), checked by central differences
    spec = discrete_spec([0.5, 1.0, 3.0], [1.0, 2.0, 0.5], p=1.0, q=2.0)
    t, h = 0.3, 1e-5
    tp = compute_moments(spec, t + h, 4)
    tm = compute_moments(spec, t - h, 4)
    tc = compute_moments(spec, t, 4)
    for k in range(-3, 4):
        fd = (tp.nu_at(k) - tm.nu_at(k)) / (2 * h)
        rhs = -(spec.p * tc.nu_at(k + 1) + spec.q * tc.nu_at(k - 1))
        assert abs(fd - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_moment_time_derivative_quadrature():
    spec = example1_spec(1.0, 2.0)
    t, h = 0.5, 1e-4
    tp = compute_moments(spec, t + h, 4)
    tm = compute_moments(spec, t - h, 4)
    tc = compute_moments(spec, t, 4)
    for k in range(-3, 4):
        fd = (tp.nu_at(k) - tm.nu_at(k)) / (2 * h)
        rhs = -(spec.p * tc.nu_at(k + 1) + spec.q * tc.nu_at(k - 1))
        assert abs(fd - rhs) <= 1e-6 * max(1.0, abs(rhs))


def test_circle_conjugation_symmetry():
    # z-weighted functional over a real measure: nu_{-k} = conj(nu_{k-2})
    tab = compute_moments(circle_lebesgue_spec(0.3 + 0.4j), 0.25, 5)
    for k in range(-3, 4):
        assert abs(tab.nu_at(-k) - tab.nu_at(k - 2).conjugate()) <= 1e-12


def test_point_mass_plus_lebesgue_atoms():
    spec = circle_lebesgue_spec(0.0, atoms=((0.0, 0.5),))
    tab = compute_moments(spec, 0.0, 3)
    # nu_k = int z^{k+1} (dtheta/2pi + 0.5 delta_{theta=0}) = [k = -1] + 0.5
    for k in range(-3, 4):
        expect = (1.0 if k == -1 else 0.0) + 0.5
        assert tab.nu_at(k) == pytest.approx(expect, abs=1e-13)


def test_exact_rational_requires_trivial_factor():
    spec = discrete_spec([1, 2], [1, 1], p=1.0, q=1.0)
    with pytest.raises(ValueError):
        compute_moments_exact(spec, 0.5, 3)
    tab = compute_moments_exact(spec, 0.0, 3)
    assert tab.nu_at(-2) == Fraction(5, 4)


def test_explicit_table_spec_roundtrip():
    from ertl import explicit_table_spec
    nu = {k: complex(k, -k) for k in range(-3, 4)}
    spec = explicit_table_spec(nu, t0=0.25)
    tab = compute_moments(spec, 0.25, 3)
    assert tab.nu_at(2) == 2 - 2j
    with pytest.raises(ValueError):
        compute_moments(spec, 0.5, 3)


#: each public count of sites, depth or moment order: a call with ``n`` in its place
COUNT_SITES = {
    "compute_moments": (lambda n: compute_moments(discrete_spec([1.0, 2.0], [1.0, 1.0]), 0.0, n),
                        "K"),
    "bootstrap_recurrence": (lambda n: bootstrap_recurrence(
        compute_moments(discrete_spec([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]), 0.0, 4), n), "depth N"),
    "stieltjes": (lambda n: stieltjes([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], n), "depth N"),
    "verblunsky_from_moments": (lambda n: verblunsky_from_moments(
        compute_moments(circle_lebesgue_spec(0.5), 0.1, 4), n), "depth N"),
    "example1_coeffs": (lambda n: example1_coeffs(ClosedFormExample("example1", 1.0, 2.0), 0.0, n),
                        "depth N"),
    "example2_coeffs": (lambda n: example2_coeffs(ClosedFormExample("example2", 1.0, 2.0), 0.0, n),
                        "depth N"),
    "integrate_schur": (lambda n: integrate_schur(VerblunskySeq(0.0, (0.2, 0.1)), 0.5, 0.1,
                                                  n_report=n), "n_report"),
    "prefix": (lambda n: state_from_coeffs(1.0, 2.0, 0.0, [1.0, 2.0], [0.5]).prefix(n),
               "prefix length n"),
    "integrate_buffered": (lambda n: integrate_buffered(
        lambda M: state_from_coeffs(1.0, 2.0, 0.0, [1.0] * M, [0.0] * (M - 1)), n, 0.1),
        "n_report"),
}


@pytest.mark.parametrize("n", [True, False, 1.5, 2.0, "2", 0, -1])
@pytest.mark.parametrize("site", COUNT_SITES)
def test_counts_are_integers_of_at_least_one(site, n):
    # one rule at every boundary: a bool ran as depth 1 (or gave a table with
    # K = True), and a float raised TypeError, after a whole integration for
    # integrate_schur
    call, name = COUNT_SITES[site]
    bound = r"(an integer|>= 1|in 1\.\.\d+)"
    with pytest.raises(ValueError, match=f"^{name} must be {bound}, got {re.escape(repr(n))}$"):
        call(n)


def test_require_count_bounds():
    measures.require_count("n", np.int64(3), least=3, most=3)
    with pytest.raises(ValueError, match=r"^n must be in 1\.\.2, got 3$"):
        measures.require_count("n", 3, most=2)
