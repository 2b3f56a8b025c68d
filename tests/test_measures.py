"""Moment tables: closed-form oracles, Hankel diagnostics, spec invariants."""

import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import iv, kv

from ertl import (IndexOutOfTable, InvalidSupport, MomentSpec, NonConvergentIntegral,
                  check_regularity, circle_kernel_spec, circle_lebesgue_spec,
                  compute_moments, compute_moments_exact, discrete_spec,
                  example1_spec, example2_spec, hankel_determinant,
                  verblunsky_from_moments)
from ertl.cli import main


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


# -- Hankel determinants ------------------------------------------------------

def test_hankel_order_zero_is_one(ex1_table_t0):
    assert hankel_determinant(ex1_table_t0, m=4, n=0) == 1.0


def test_hankel_rank_one_unit_mass():
    tab = compute_moments(discrete_spec([1.0], [1.0]), 0.0, 4)
    assert hankel_determinant(tab, m=-1, n=2) == pytest.approx(0.0, abs=1e-14)


def test_hankel_first_negative_moment(ex1_table_t0):
    val = hankel_determinant(ex1_table_t0, m=-1, n=1)
    assert val == pytest.approx(ex1_table_t0.nu_at(-1))
    assert complex(val).real > 0


def test_hankel_exact_rational():
    tab = compute_moments_exact(discrete_spec([1, 2], [1, 1]), 0.0, 3)
    # H_2^(-1) = nu_-1 nu_1 - nu_0^2 = (3/2)(3) - 4 = 1/2
    assert hankel_determinant(tab, -1, 2) == Fraction(1, 2)


def test_hankel_needs_coverage(ex1_table_t0):
    with pytest.raises(IndexOutOfTable):
        hankel_determinant(ex1_table_t0, m=-12, n=4)


# -- regularity ---------------------------------------------------------------

def test_regularity_example1_all_positive(ex1_table_t0):
    rep = check_regularity(ex1_table_t0, 6)
    assert rep.all_ok
    assert rep.all_positive
    assert rep.first_failure() is None


def test_regularity_unit_mass_fails_at_two():
    tab = compute_moments(discrete_spec([1.0], [1.0]), 0.0, 4)
    rep = check_regularity(tab, 2)
    lv = {s.n: s for s in rep.levels}
    assert lv[0].ok_existence and lv[0].ok_at_zero
    assert not lv[2].ok_existence  # rank-one moment matrix


def test_regularity_matches_verblunsky_nonzero():
    # z-weighted circle table: condition (b) holding through level n is the
    # same statement as the first n reflection coefficients being nonzero
    tab = compute_moments(circle_lebesgue_spec(0.5), 0.2, 8)
    rep = check_regularity(tab, 5)
    v = verblunsky_from_moments(tab, 6)
    cond_b = all(s.ok_at_zero for s in rep.levels)
    assert cond_b == all(a != 0 for a in v.a[:6])
    assert cond_b


# -- spec invariants ----------------------------------------------------------

def test_spec_json_roundtrip():
    for spec in (example1_spec(1.0, 2.0),
                 discrete_spec([1.0, 2.5], [0.5, 0.5], p=1.0, q=0.5),
                 circle_lebesgue_spec(0.3 + 0.4j),
                 circle_kernel_spec(0.5, w=np.exp(0.3j))):
        back = MomentSpec.from_json(spec.to_json())
        assert back == spec


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
    with pytest.raises(ValueError):
        MomentSpec(kind="unit_circle_weighted", weight_id="circle_lebesgue",
                   p=1.0, q=0.5j)


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
