"""Array kernels of every flow against their per-site loop forms (property tests),
and the array Aberth spectrum against numpy's eigensolver and the recurrence.

The loops below are the scalar formulas the kernels replaced, kept here as the
oracle: one row per site, boundary values through small index helpers.  The
public right-hand sides are fed plain namespaces, so the singular-denominator
guard can be reached with data a ``LatticeState`` would refuse to hold.
"""

import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import ertl.circle as circle
import ertl.lattice as lattice
from ertl import (ClosedFormExample, LatticeState, NonConvergence, RecurrenceCoeffs,
                  SingularDenominator, StepControl, StepUnderflow, VerblunskySeq, build_pair,
                  example1_coeffs, integrate, integrate_buffered, integrate_cd,
                  integrate_schur, isospectral_drift, lax_residual, rhs_cd, rhs_ertl,
                  rhs_langmuir, rhs_schur, spectrum, state_from_coeffs)
from ertl.cli import main
from ertl.circle import _first_outside_disk, _schur_kernel
from ertl.lattice import (EPS_SING, _DOP_A, _DOP_C, _DOP_E, _H_FALLBACK, _StageTable,
                          _check_betas, _ertl_kernel, _volterra_kernel, integrate_core)
from tests.conftest import bound_flow, cd_edge_rates, copying_step, ertl_drag_rates, eval_Q
from tests.test_lattice import random_state

NAN = complex(float("nan"), float("nan"))
REL = 1e-13


# -- loop oracles -----------------------------------------------------------------

def check_betas(beta, t=None):
    for i, b in enumerate(beta):
        if abs(b) < EPS_SING:
            raise SingularDenominator(i + 1, b, t=t)


def ertl_loop(p, q, beta, alpha, t=None):
    """dbeta_1..N and dalpha_1..N+1 of the two-parameter flow, site by site."""
    N = len(beta)
    check_betas(beta, t)
    b = lambda n: 1 if n == 0 else beta[n - 1]
    a = lambda n: -1 if n == 0 else alpha[n - 1]

    dbeta = []
    for n in range(1, N + 1):
        lead = p * b(n) * (a(n) - a(n + 1))
        drag_in = a(n) / (b(n) * b(n - 1))
        if n < N:
            drag_out = a(n + 1) / (b(n + 1) * b(n))
        elif alpha[N] == 0:
            drag_out = 0
        else:
            dbeta.append(NAN)
            continue
        dbeta.append(lead + q * b(n) * (drag_out - drag_in))

    dalpha = []
    for n in range(1, N + 2):
        if n == N + 1:
            dalpha.append(0 if alpha[N] == 0 else NAN)
            continue
        lead = p * a(n) * (a(n - 1) + b(n - 1) - a(n + 1) - b(n))
        drag = q * a(n) * (1 / b(n - 1) - 1 / b(n))
        dalpha.append(lead + drag)
    return dbeta, dalpha


def gamma_loop(p, q, beta, alpha, t=None):
    """gamma_dot_1..N from gamma_n = alpha_{n+1} + beta_n, site by site."""
    N = len(beta)
    check_betas(beta, t)
    b = lambda n: 1 if n == 0 else beta[n - 1]
    a = lambda n: -1 if n == 0 else alpha[n - 1]
    g = lambda n: alpha[n] + beta[n - 1]

    out = []
    for n in range(1, N + 1):
        if n < N:
            head = a(n) * g(n) - a(n + 1) * g(n + 1)
        elif alpha[N] == 0:
            head = a(N) * g(N)
        else:
            out.append(NAN)
            continue
        out.append(p * head + q * (a(n + 1) / b(n) - a(n) / b(n - 1)))
    return out


def volterra_loop(alpha):
    """dalpha_1..N+1 of alpha_dot_n = alpha_n (alpha_{n-1} - alpha_{n+1})."""
    N = len(alpha) - 1
    a = lambda n: -1 if n == 0 else alpha[n - 1]
    out = [a(n) * (a(n - 1) - a(n + 1)) for n in range(1, N + 1)]
    out.append(0 if alpha[N] == 0 else NAN)
    return out


def cd_loop(c, d_full, q):
    """(dc_1..M, dd_1..M) of the real kernel flow with d_{M+1} = 0, site by site."""
    M = len(c)
    qr, qi = q.real, q.imag
    cg = lambda n: 1.0 if n == 0 else (c[n - 1] if n <= M else 0.0)
    dg = lambda n: d_full[n - 1] if 1 <= n <= M else 0.0

    dc = []
    for n in range(1, M + 1):
        lo = dg(n) * (cg(n) + cg(n - 1)) / (1.0 + cg(n - 1) ** 2)
        hi = dg(n + 1) * (cg(n) + cg(n + 1)) / (1.0 + cg(n + 1) ** 2)
        lo_i = dg(n) * (1.0 - cg(n) * cg(n - 1)) / (1.0 + cg(n - 1) ** 2)
        hi_i = dg(n + 1) * (1.0 - cg(n) * cg(n + 1)) / (1.0 + cg(n + 1) ** 2)
        dc.append(4.0 * qr * (lo - hi) + 4.0 * qi * (lo_i - hi_i))

    dd = [0.0]
    for n in range(2, M + 1):
        den_n = 1.0 + cg(n) ** 2
        den_m = 1.0 + cg(n - 1) ** 2
        re_part = (dg(n) * dg(n - 1) / (1.0 + cg(n - 2) ** 2)
                   - dg(n) * dg(n + 1) / (1.0 + cg(n + 1) ** 2)
                   + dg(n) * (1.0 - dg(n)) * (cg(n - 1) ** 2 - cg(n) ** 2) / (den_n * den_m))
        im_part = (dg(n) * dg(n - 1) * cg(n - 2) / (1.0 + cg(n - 2) ** 2)
                   - dg(n) * dg(n + 1) * cg(n + 1) / (1.0 + cg(n + 1) ** 2)
                   + dg(n) * (1.0 - dg(n)) * (cg(n) - cg(n - 1)) * (1.0 - cg(n) * cg(n - 1))
                   / (den_n * den_m))
        dd.append(4.0 * qr * re_part - 4.0 * qi * im_part)
    return dc, dd


def schur_loop(a, q, a_top=None):
    """a_dot_n = (1 - |a_n|^2)(conj(q) a_{n-1} - q a_{n+1}) with a_{-1} = -1."""
    prevs = [-1.0 + 0j] + list(a[:-1])
    tops = list(a[1:]) + ([] if a_top is None else [a_top])
    return [(1.0 - abs(a[n]) ** 2) * (q.conjugate() * prevs[n] - q * up)
            for n, up in enumerate(tops)]


def assert_matches(got, want, scale, rel=REL):
    """Same NaN pattern; finite entries agree to ``rel`` times the term scale."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    fin = ~np.isnan(want)
    assert np.all(np.abs(got[fin] - want[fin]) <= rel * scale)


# -- strategies -------------------------------------------------------------------

sizes = st.integers(1, 64)
coeffs = st.complex_numbers(max_magnitude=3.0)
nonzero = st.complex_numbers(min_magnitude=0.2, max_magnitude=3.0)
tiny = st.complex_numbers(max_magnitude=0.5 * EPS_SING)
tops = st.one_of(st.just(0j), nonzero)
real_coeffs = st.floats(-3.0, 3.0)
real_nonzero = st.one_of(st.floats(-3.0, -0.2), st.floats(0.2, 3.0))


def values(draw, n, elements, dtype=complex):
    """n draws of ``elements`` as a list of Python scalars (the loops' arithmetic)."""
    return draw(arrays(dtype, n, elements=elements)).tolist()


@st.composite
def lattice_data(draw, real=False):
    """(p, q, beta_1..N, alpha_1..N+1): finite or buffered (alpha_{N+1} != 0).

    ``real=True`` draws every value as a float.
    """
    N = draw(sizes)
    dtype, nz, cf = (float, real_nonzero, real_coeffs) if real else (complex, nonzero, coeffs)
    beta = values(draw, N, nz, dtype)
    alpha = [dtype(0)] + values(draw, N - 1, cf, dtype) + [draw(st.one_of(st.just(dtype(0)), nz))]
    return draw(nz), draw(nz), beta, alpha


def lattice_scale(p, q, beta, alpha):
    """Bound on the terms: (|p| + |q|) times two factors of |alpha|, |beta|, 1/|beta|."""
    m = max([1.0] + [abs(x) for x in alpha] + [abs(b) for b in beta]
            + [1.0 / abs(b) for b in beta])
    return 4.0 * (abs(p) + abs(q)) * m * m


def raw_state(p, q, beta, alpha):
    """The fields the right-hand sides read, without LatticeState's validation."""
    return SimpleNamespace(p=complex(p), q=complex(q), t=0.0, beta=tuple(beta),
                           alpha=tuple(alpha))


# -- properties -------------------------------------------------------------------

@given(st.one_of(lattice_data(), lattice_data(real=True)))
def test_ertl_kernel_matches_loop(data):
    p, q, beta, alpha = data
    db, da = rhs_ertl(raw_state(p, q, beta, alpha))
    wb, wa = ertl_loop(p, q, beta, alpha)
    scale = lattice_scale(p, q, beta, alpha)
    assert_matches(db, wb, scale)
    assert_matches(da, wa, scale)
    assert np.isnan(db[-1]) == np.isnan(da[-1]) == (alpha[-1] != 0)
    assert da[0] == 0 and not np.signbit(da[0].real)  # dalpha_1 is +0, not computed
    if isinstance(p, float):
        # the real route integrate takes: a float64 buffer in, float64 out, the
        # derivative of its interior [beta, alpha_1 = 0, alpha_2..N]
        N = len(beta)
        out = _ertl_kernel(p, q, np.array([1.0, *beta, *alpha]))()
        assert out.dtype == np.float64
        assert_matches(out[:N], wb, scale)
        assert_matches(out[N:], [0.0] + wa[1:-1], scale)


@given(lattice_data())
def test_gamma_kernel_matches_loop(data):
    # the paper's gamma equation is alpha_dot_{n+1} + beta_dot_n of the ertl kernel
    p, q, beta, alpha = data
    db, da = rhs_ertl(raw_state(p, q, beta, alpha))
    got = np.add(da[1:], db)
    assert_matches(got, gamma_loop(p, q, beta, alpha), lattice_scale(p, q, beta, alpha))


@given(lattice_data(), st.data())
def test_singular_beta_raises_at_same_site(lattice, data):
    p, q, beta, alpha = lattice
    sites = data.draw(st.sets(st.integers(0, len(beta) - 1), min_size=1, max_size=4))
    for i in sites:
        beta[i] = data.draw(tiny)
    with pytest.raises(SingularDenominator) as want:
        ertl_loop(p, q, beta, alpha)
    with pytest.raises(SingularDenominator) as got:
        rhs_ertl(raw_state(p, q, beta, alpha))
    assert got.value.n == want.value.n == min(sites) + 1


@given(sizes, st.floats(0.1, 4.0), st.data())
def test_volterra_kernel_matches_loop(N, q, data):
    alpha = [0j] + values(data.draw, N - 1, coeffs) + [data.draw(tops)]
    state = raw_state(1.0, q, [math.sqrt(q)] * N, alpha)
    m = max([1.0] + [abs(x) for x in alpha])
    assert_matches(rhs_langmuir(state), volterra_loop(alpha), 2.0 * m * m)


@given(st.one_of(lattice_data(), lattice_data(real=True)).filter(lambda d: len(d[2]) >= 2))
def test_open_kernels_match_loop_on_continued_tail(data):
    # an open binding (a buffered run's window) reads one more site, the
    # continued tail beta_{N+1} = beta_N^2 / beta_{N-1} and alpha_{N+1} =
    # 2 alpha_N - alpha_{N-1}, whatever alpha_{N+1} the buffer held
    p, q, beta, alpha = data
    N = len(beta)
    top = 2 * alpha[N - 1] - alpha[N - 2]
    beta_x, alpha_x = beta + [beta[-1] ** 2 / beta[-2]], alpha[:N] + [top, 0]
    wb, wa = ertl_loop(p, q, beta_x, alpha_x)
    scale = lattice_scale(p, q, beta_x, alpha_x)
    buf = np.array([1, *beta, *alpha])
    out = _ertl_kernel(p, q, buf, True)()
    assert out.dtype == buf.dtype
    assert_matches(out[:N], wb[:N], scale)
    assert_matches(out[N:], [0] + wa[1:N], scale)
    assert buf[-1] == top
    buf[-1] = 7.0  # refilled at every evaluation
    volterra = _volterra_kernel(buf, True)()
    assert buf[-1] == top
    m = max([1.0] + [abs(x) for x in alpha_x])
    assert_matches(volterra[N:], volterra_loop(alpha_x[:N + 1])[:N], 2.0 * m * m)
    assert not volterra[:N].any()


@given(sizes, st.one_of(nonzero, real_nonzero), st.data())
def test_rhs_cd_matches_loop(M, q, data):
    q = complex(q)
    c = values(data.draw, M, st.floats(-3.0, 3.0), float)
    d = [0.0] + values(data.draw, M - 1, st.floats(0.0, 1.0), float)
    dc, dd = rhs_cd(SimpleNamespace(c=tuple(c), d=tuple(d[1:])), q)
    wc, wd = cd_loop(c, d, q)
    scale = 4.0 * abs(q) * 4.0 * max([1.0] + [abs(x) for x in c]) ** 2
    assert_matches(dc, wc, scale)
    assert_matches(dd, wd[1:], scale)


@st.composite
def cd_data(draw):
    """(c_1..c_M, d_1..d_M): c_n in [-3, 3], d_1 = 0 and d_n in (0, 1)."""
    M = draw(st.integers(1, 24))
    inside = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    return (values(draw, M, st.floats(-3.0, 3.0), float),
            [0.0] + values(draw, M - 1, inside, float))


@given(cd_data(), coeffs)
@example(([0.7], [0.0]), 0.5 + 0.3j)  # M = 1: the boundary row alone
@example(([-3.0, 3.0, 0.5], [0.0, 0.999, 1e-3]), -2.0 + 1.5j)
def test_rhs_cd_matches_edge_route(cd, q):
    # the transport of rhs_ertl and the real edge form agree to rounding
    c, d = cd
    dc, dd = rhs_cd(SimpleNamespace(c=tuple(c), d=tuple(d[1:])), q)
    wc, wd = cd_edge_rates(c, d, complex(q))
    scale = 16.0 * abs(q) * max([1.0] + [abs(x) for x in c]) ** 2
    assert_matches(dc, wc, scale, rel=1e-14)
    assert_matches(dd, wd, scale, rel=1e-14)


@given(st.one_of(lattice_data(), lattice_data(real=True)))
@example((1 + 0.5j, 0.8 - 0.3j, [1.2 + 0.1j], [0j, 0j]))  # N = 1, finite
@example((1 + 0.5j, 0.8 - 0.3j, [1.2 + 0.1j], [0j, 0.4 - 0.2j]))  # N = 1, NaN top row
@example((0.5, 2.0, [1.5, 0.3, -2.0], [0.0, 0.7, -1.1, 2.5]))  # buffered, real
def test_rhs_ertl_matches_drag_route(data):
    # u_n = q / beta_n once, and the bind-time s_{N+1}, change results by rounding only
    p, q, beta, alpha = data
    db, da = rhs_ertl(raw_state(p, q, beta, alpha))
    wb, wa = ertl_drag_rates(complex(p), complex(q), beta, alpha)
    m = max([1.0] + [abs(x) for x in alpha] + [abs(b) for b in beta]
            + [1.0 / abs(b) for b in beta])
    scale = 4.0 * m * m * (abs(p) + abs(q) * m * m)  # beta alpha q / (beta beta), and so on
    assert_matches(db, wb, scale, rel=1e-14)
    assert_matches(da, wa, scale, rel=1e-14)
    assert np.isnan(db[-1]) == np.isnan(da[-1]) == (alpha[-1] != 0)


@given(sizes, nonzero, st.one_of(st.none(), st.complex_numbers(max_magnitude=0.99)),
       st.data())
def test_schur_kernel_matches_loop(N, q, a_top, data):
    a = values(data.draw, N, st.complex_numbers(max_magnitude=0.99))
    if a_top is None:
        got = rhs_schur(SimpleNamespace(a=tuple(a)), q)
    else:  # integrate_schur's window adds the n = N-1 row against a frozen top
        A = np.array([-1.0, *a, a_top], dtype=complex)
        got = _schur_kernel(A, complex(q))()
    assert_matches(got, schur_loop(a, q, a_top), 2.0 * abs(q))


def plus_zero(z):
    """z is 0j with both parts +0."""
    return z == 0 and not np.signbit(z.real) and not np.signbit(z.imag)


def test_public_rhs_edge_cases():
    # N = 0: no rows, and dalpha still has its N + 1 entries
    assert rhs_ertl(raw_state(1j, 2.0, [], [0j])) == ([], [0j])
    assert rhs_langmuir(raw_state(1.0, 2.0, [], [0j])) == [0j]
    # dalpha_1 is +0, not a computed 0 * x (which is -0 here)
    db, da = rhs_ertl(raw_state(1.0, 2.0, [1.0], [0j, 0j]))
    assert len(db) == 1 and len(da) == 2 and plus_zero(da[0])
    state = state_from_coeffs(1.0, 2.0, 0.0, [2.0 ** 0.5] * 3, [0.5, -0.25])
    assert plus_zero(rhs_langmuir(state)[0]) and plus_zero(rhs_ertl(state)[1][0])
    # an empty or one-coefficient sequence has no Schur row, as rhs_cd has none at M = 0
    assert rhs_schur(SimpleNamespace(a=()), 1.0) == []
    assert rhs_schur(SimpleNamespace(a=(0.5,)), 1.0) == []
    assert rhs_cd(SimpleNamespace(c=(), d=()), 1.0) == ([], [])


def test_schur_kernel_rejects_modulus_one():
    with pytest.raises(ValueError, match=r"\|a_1\| = 1.0 >= 1: degenerate measure rejected"):
        rhs_schur(SimpleNamespace(a=(0.5, 1.0, 0.2)), 1.0)


def test_check_betas_skips_nan():
    # a NaN elsewhere in beta must not hide a small beta_n (a NaN-propagating
    # minimum would)
    beta = np.array([1.0, np.nan, 0.5, 0.3 * EPS_SING, 2.0, 0.1 * EPS_SING]) + 0j
    with pytest.raises(SingularDenominator) as exc:
        _check_betas(beta, 0.5)
    assert (exc.value.n, exc.value.value, exc.value.t) == (4, complex(beta[3]), 0.5)
    _check_betas(np.array([np.nan, 1.0]))  # NaN alone is not a small beta


def test_first_outside_disk_skips_nan():
    # a NaN elsewhere in a must not hide an |a_n| >= 1 (a NaN-propagating
    # maximum would)
    assert _first_outside_disk(np.array([0.5, np.nan, 0.2j, 1.25, 1.5 + 0j])) == 3
    assert _first_outside_disk(np.array([1.0, 0.5])) == 0
    assert _first_outside_disk(np.array([np.nan, 0.5])) is None  # NaN alone is not |a_n| >= 1


# -- bound kernels: the public right-hand sides and the stepped flows agree bit for bit

class Captured(Exception):
    """Carries the (stage, evaluate) an integration hands to ``integrate_core``."""


def stepping_flow(module, run):
    """(stage, evaluate) that ``run()`` passes to ``module.integrate_core``, which is not run."""
    def capture(stage, evaluate, *args):
        raise Captured(stage, evaluate)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "integrate_core", capture)
        with pytest.raises(Captured) as exc:
            run()
    return exc.value.args


def same_bits(got, want):
    """got and want hold the same bits; a float64 got is compared with want's real part."""
    want = np.asarray(want, dtype=complex)
    if got.dtype == np.float64:
        assert not want.imag.any()
        want = want.real
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def without_gaps(x, gaps):
    """x without its gap slots, which must hold +0 exactly (not -0, not NaN)."""
    assert not np.asarray(x)[gaps].any() and not np.signbit(np.real(x[gaps])).any()
    return np.delete(x, gaps)


@given(st.one_of(lattice_data(), lattice_data(real=True)))
def test_bound_ertl_is_public_rhs_bitwise(data):
    p, q, beta, alpha = data
    alpha[-1] = alpha[0]  # integrate takes finite closure only
    N = len(beta)
    db, da = rhs_ertl(raw_state(p, q, beta, alpha))
    stage, evaluate = stepping_flow(
        lattice, lambda: integrate(LatticeState(p, q, 0.0, beta, alpha), 1.0))
    # the stepped vector is the one buffer's interior: beta, alpha_1 = 0, alpha_2..N
    same_bits(without_gaps(stage, N), beta + alpha[1:-1])
    got = evaluate(0.0)
    if stage.dtype == complex:
        same_bits(got, db + da[:-1])
    else:  # stepped in float64: the public binding on the float64 buffer, as a
        # complex quotient of real values rounds differently
        want = _ertl_kernel(complex(p).real, complex(q).real, np.array([1.0, *beta, *alpha]))()
        same_bits(got, want)
        without_gaps(got, N)


@given(sizes, st.floats(0.1, 4.0), st.booleans(), st.data())
def test_bound_volterra_is_public_rhs_bitwise(N, q, real, data):
    dtype, cf = (float, real_coeffs) if real else (complex, coeffs)
    alpha = [dtype(0)] + values(data.draw, N - 1, cf, dtype) + [dtype(0)]
    beta = [math.sqrt(q)] * N
    da = rhs_langmuir(raw_state(1.0, q, beta, alpha))
    state = LatticeState(1.0, q, 0.0, beta, alpha)
    stage, evaluate = stepping_flow(lattice, lambda: integrate(state, 1.0, rhs_id="langmuir"))
    # a float64 evaluation matches too: the complex products of real values
    # are exact.  beta is frozen: its rows stay 0, and the gap slot is dalpha_1
    same_bits(evaluate(0.0), [0.0] * N + da[:-1])


@given(sizes, nonzero, st.data())
def test_bound_schur_is_public_rhs_bitwise(N, q, data):
    a = values(data.draw, N, st.one_of(st.complex_numbers(max_magnitude=0.99),
                                       st.floats(-0.99, 0.99).map(complex)))
    # the window's frozen zero top is the public rhs's last coefficient
    want = rhs_schur(SimpleNamespace(a=(*a, 0j)), q)
    stage, evaluate = stepping_flow(
        circle, lambda: integrate_schur(VerblunskySeq(0.0, tuple(a)), q, 1.0))
    same_bits(stage, a)
    same_bits(evaluate(0.0), want)


# -- stepped snapshots: built unchecked, yet what the public constructors build

def assert_public_twin(s):
    """s equals, value for value and type for type, its public construction from its values."""
    twin = (VerblunskySeq(s.t, s.a) if isinstance(s, VerblunskySeq)
            else LatticeState(s.p, s.q, s.t, s.beta, s.alpha, s.closure))
    assert s == twin and repr(s) == repr(twin)


@settings(max_examples=40)
@given(flow=st.sampled_from(["ertl", "rtl1", "rtl2", "langmuir", "schur"]),
       N=st.integers(1, 12), real=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_stepped_snapshots_equal_public_construction(flow, N, real, seed):
    rng = np.random.default_rng(seed)
    turn = 1.0 if real else np.exp(1j * rng.uniform(-0.5, 0.5, N))
    kw = dict(ctrl=StepControl(rel_tol=1e-8), t_out=[0.1, 0.2])
    if flow == "schur":
        q = rng.uniform(0.2, 1.0) if real else complex(*rng.uniform(-1.0, 1.0, 2))
        v = VerblunskySeq(0.0, tuple(rng.uniform(-0.9, 0.9, N) * turn))
        snaps = integrate_schur(v, q, 0.2, n_report=int(rng.integers(1, N + 1)), **kw)[1]
    elif flow == "langmuir":
        state = state_from_coeffs(1.0, 2.0, 0.0, [2.0 ** 0.5] * N,
                                  (rng.uniform(0.1, 1.0, N) * turn)[:N - 1])
        snaps = integrate(state, 0.2, rhs_id="langmuir", **kw).states
    else:
        state = random_state(rng, N, complex_data=not real)
        snaps = integrate(state, 0.2, rhs_id=flow, **kw).states
    assert len(snaps) == 3
    for s in snaps:
        assert_public_twin(s)


@pytest.mark.parametrize("system", ["ertl", "langmuir"])
def test_buffered_snapshots_equal_public_construction(system):
    ex = ClosedFormExample("example1", 1.0, 2.0)

    def make_state(M):
        rc = example1_coeffs(ex, 0.0, M + 1)
        return state_from_coeffs(1.0, 2.0, 0.0, rc.beta[:M], rc.alpha[:M - 1])

    traj = integrate_buffered(make_state, 4, 0.25, rhs_id=system,
                              ctrl=StepControl(rel_tol=1e-8), t_out=[0.125, 0.25])
    assert len(traj.states) == 3
    for s in traj.states:
        assert s.closure == "buffered" and s.N == 4
        assert_public_twin(s)


def flow_run(flow):
    """(module, run) of a small integration of ``flow`` to t = 1."""
    if flow in ("ertl", "langmuir"):
        state = state_from_coeffs(1.0, 2.0, 0.0, [2.0 ** 0.5] * 4, [0.5, 0.3, 0.8])
        return lattice, lambda: integrate(state, 1.0, rhs_id=flow)
    v = VerblunskySeq(0.0, (0.2 + 0.1j, -0.1, 0.05j))
    return circle, lambda: integrate_schur(v, 0.5 + 0.3j, 1.0)


@pytest.mark.parametrize("flow", ["ertl", "langmuir", "schur"])
def test_stepping_f_reuses_one_array(flow):
    # each stage is written into the flow's own padded state, the array its
    # kernel reads, and each evaluation writes its derivative into one array
    # per integration, which integrate_core copies at once
    stage, evaluate = stepping_flow(*flow_run(flow))
    assert stage.ndim == 1 and stage.flags.c_contiguous and stage.flags.writeable
    y0 = stage.copy()
    first = evaluate(0.0)
    want = first.copy()
    stage *= 1.01
    moved = evaluate(0.0)
    assert moved is first and not np.array_equal(moved, want)
    stage[...] = y0
    assert evaluate(0.0) is first and np.array_equal(first, want)


@pytest.mark.parametrize("flow, gaps", [("ertl", [4]), ("langmuir", [4])])
def test_gap_slots_stay_zero(flow, gaps):
    # a gap slot holds 0 with derivative 0, so every stage, the start probe
    # and every snapshot read +0 there, also when the values elsewhere are
    # not finite: here the start probe and the first stage read NaN, so the
    # first attempt is rejected and the start falls back to _H_FALLBACK
    module, run = flow_run(flow)
    real_core = module.integrate_core
    seen, snaps, stats = [], [], {}

    def leaving(stage, evaluate):
        def wrapped(t):
            seen.append(stage.copy())
            out = evaluate(t)
            if len(seen) in (2, 3):
                out = out.copy()
                out[np.delete(np.arange(len(out)), gaps)] = np.nan
            return out
        return wrapped

    def core(stage, evaluate, *args):
        times, ys, st = real_core(stage, leaving(stage, evaluate), *args)
        snaps.extend(ys)
        stats.update(st)
        return times, ys, st

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "integrate_core", core)
        run()
    assert len(seen) > 24 and len(snaps) == 2
    assert stats["h_start"] == _H_FALLBACK and stats["rejected"] >= 1
    assert not np.isfinite(seen[3]).all()  # the second stage read the first one's NaN
    for x in seen + snaps:
        without_gaps(x, gaps)
    assert all(np.isfinite(x).all() for x in snaps)


@settings(max_examples=60)
@given(flow=st.sampled_from(["ertl", "langmuir", "schur", "cd"]), size=st.integers(1, 24),
       seed=st.integers(0, 2 ** 32 - 1), rel_tol=st.sampled_from([1e-8, 1e-10, 1e-12]))
def test_stage_table_matches_copying_stages(flow, size, seed, rel_tol):
    # one product per stage argument, written into the stage, against the
    # stage form before it (y + h A[i, :i] @ K[:i], then copied into the
    # kernel's arrays): the same steps, and values within 8 ulp of their scale
    # (the largest seen on 1200 such runs was 5.3 ulp; it grows with the span)
    rng = np.random.default_rng(seed)
    kw = dict(ctrl=StepControl(rel_tol=rel_tol), t_out=[0.125, 0.25])
    if flow == "ertl":
        state = random_state(rng, size, complex_data=bool(seed % 2))
        run = lambda: integrate(state, 0.25, **kw)
    elif flow == "langmuir":
        state = state_from_coeffs(1.0, 2.0, 0.0, [2.0 ** 0.5] * size,
                                  rng.uniform(0.1, 1.0, size - 1))
        run = lambda: integrate(state, 0.25, rhs_id="langmuir", **kw)
    elif flow == "schur":
        a = rng.uniform(0.0, 0.9, size) * np.exp(2j * np.pi * rng.uniform(size=size))
        q = complex(*rng.uniform(-1.0, 1.0, 2))
        run = lambda: integrate_schur(VerblunskySeq(0.0, tuple(a)), q, 0.25, **kw)
    else:
        c = rng.uniform(-1.0, 1.0, size).tolist()
        d = [0.0] + rng.uniform(0.3, 0.7, size - 1).tolist()
        q = complex(*rng.uniform(-0.5, 0.5, 2))
        run = lambda: integrate_cd(c, d, q, 0.0, 0.25, **kw)

    def flat(result):
        if flow in ("ertl", "langmuir"):
            return (np.array([s.beta + s.alpha for s in result.states]),
                    result.step_stats)
        if flow == "schur":
            return np.array([v.a for v in result[1]]), result[2]
        return np.hstack((result[1], result[2])), result[3]

    got, got_stats = flat(run())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_StageTable, "step", copying_step)
        want, want_stats = flat(run())
    assert (got_stats["accepted"], got_stats["rejected"]) == \
        (want_stats["accepted"], want_stats["rejected"])
    eps = np.finfo(float).eps
    assert np.abs(got - want).max() <= 8 * eps * np.abs(want).max()


# -- integrator: Dormand-Prince 8(5,3) with FSAL ----------------------------------

def test_rhs_calls_per_attempt():
    calls = []

    def f(t, y):
        calls.append(t)
        return -y * (1.0 + t)

    ctrl = StepControl(rel_tol=1e-10)  # the controller rejects some attempts
    _, _, stats = integrate_core(*bound_flow(f, [1.0, 0.5j]), 0.0, 2.0, None, ctrl,
                                 lambda t, y: None)
    assert stats["rejected"] >= 1
    # 11 stages per attempt, f(t, y) once per starting point, which is the
    # start plus every accepted step but the last, and the starting-step probe
    attempts = stats["accepted"] + stats["rejected"]
    assert stats["rhs_calls"] == len(calls) == 11 * attempts + stats["accepted"] + 1


def test_integrate_core_steps_in_y0_dtype():
    seen = []

    def f(t, y):
        seen.append(y.dtype)
        return -y

    for y0, dtype in (([1.0, 2.0], np.float64), ([1.0, 2j], np.complex128)):
        seen.clear()
        _, snaps, _ = integrate_core(*bound_flow(f, y0), 0.0, 0.5, None, StepControl(),
                                     lambda t, y: None)
        assert set(seen) == {np.dtype(dtype)} and snaps[-1].dtype == dtype
        assert np.allclose(snaps[-1], np.array(y0) * math.exp(-0.5), rtol=1e-9, atol=0.0)


def dop_quadrature_step(g):
    """One DOP853 step of y' = g(t) over [0, 1] from y = 0: (y_new, e5, e3)."""
    stage, evaluate = bound_flow(lambda t, y: np.full(y.shape, g(t)), np.zeros(1))
    table = _StageTable(1, stage.dtype)
    table.Y[0] = 0.0
    table.Y[1] = evaluate(0.0)
    e = table.step(stage, evaluate, 0.0, 1.0)
    return float(stage[0]), float(e[0, 0]), float(e[1, 0])


def test_dop853_tableau_quadrature_orders():
    c, b = np.array(_DOP_C), _DOP_A[12, :12]
    e5, e3 = _DOP_E
    assert np.abs(_DOP_A.sum(axis=1) - c).max() < 1e-14  # row sums of A are c
    # for y' = g(t) the pair is a quadrature: b integrates degree <= 7 exactly
    # and misses degree 8; E5 annihilates degree <= 4 and E3 degree <= 2
    for k in range(8):
        assert abs(b @ c[:12] ** k - 1 / (k + 1)) < 1e-15
    assert b @ c[:12] ** 8 - 1 / 9 == pytest.approx(2.675e-5, rel=1e-3)
    for k in range(5):
        assert abs(e5 @ c[:12] ** k) < 1e-15
    assert abs(e5 @ c[:12] ** 5) > 1e-4
    for k in range(3):
        assert abs(e3 @ c[:12] ** k) < 1e-15
    assert abs(e3 @ c[:12] ** 3) > 1e-2
    # and the step applies the tableau: exact at degree 7, e5 = 0 at degree 4,
    # e3 = 0 at degree 2
    y_new, e5_7, _ = dop_quadrature_step(lambda t: 8.0 * t ** 7)
    assert abs(y_new - 1.0) < 1e-14 and abs(e5_7 - 8.0 * (e5 @ c[:12] ** 7)) < 1e-14
    y_new, e5_4, e3_4 = dop_quadrature_step(lambda t: 5.0 * t ** 4)
    assert abs(y_new - 1.0) < 1e-14 and abs(e5_4) < 1e-14 and abs(e3_4) > 0.1
    _, _, e3_2 = dop_quadrature_step(lambda t: 3.0 * t ** 2)
    assert abs(e3_2) < 1e-14


def test_step_stats_report_step_sizes():
    state = state_from_coeffs(1, 0, 0.0, [1, 2, 1.5], [0.5, 0.25])
    stats = integrate(state, 0.5, rhs_id="rtl2", t_out=[0.25, 0.5]).step_stats
    assert 0.0 < stats["h_min"] <= stats["h_max"] <= 0.25
    assert 0.0 < stats["max_err_est"] <= 1.0


def test_flat_start_takes_one_step_per_output_interval():
    # from the fallback first step of 1e-2 the controller takes 4 steps on
    # [0, 1]: 0.01, 0.05, 0.25, 0.69
    zero = lambda t, y: np.zeros_like(y)
    for t_out, steps in ((None, 1), ([0.25, 0.5, 0.75, 1.0], 4)):
        _, _, stats = integrate_core(*bound_flow(zero, [1.0, 2.0]), 0.0, 1.0, t_out, None,
                                     lambda t, y: None)
        assert (stats["accepted"], stats["rejected"]) == (steps, 0)
        assert stats["h_start"] == (t_out or [1.0])[0]


@pytest.mark.parametrize("lam, fallback_attempts", [(1e-3, 4), (1.0, 6)])
def test_start_step_is_accepted_on_linear_decay(lam, fallback_attempts):
    # fallback_attempts: the attempts made from the fallback first step of 1e-2
    passed = []
    _, snaps, stats = integrate_core(*bound_flow(lambda t, y: -lam * y, [1.0]), 0.0, 1.0,
                                     None, None, lambda t, y: passed.append(t))
    assert passed[0] == stats["h_start"]  # the first attempt passed the error test
    assert stats["rejected"] == 0 and stats["accepted"] <= fallback_attempts
    assert abs(snaps[-1][0] - math.exp(-lam)) < 1e-10


@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_start_falls_back_when_probe_leaves_the_domain(bad):
    # a pure kernel outside its domain returns large or non-finite values; it
    # never raises, so a probe that leaves the domain reads non-finite
    calls = []

    def f(t, y):
        calls.append(t)
        if len(calls) == 2:  # the starting-step probe, right after f(t0, y0)
            return np.full_like(y, float(bad))
        return -y

    _, snaps, stats = integrate_core(*bound_flow(f, [1.0]), 0.0, 1.0, None, None,
                                     lambda t, y: None)
    assert stats["h_start"] == _H_FALLBACK and stats["rhs_calls"] == len(calls)
    assert abs(snaps[-1][0] - math.exp(-1.0)) < 1e-10


def test_overflowed_step_is_rejected():
    # y' = 1e307 from y = 1.7e308 overflows before t = 1.  A y_new of inf
    # makes every error scale inf, so the step's error reads 0 while its
    # estimate stays finite (e5 = 0, e3 about 2.5e291 h); such a step must
    # still be rejected, so the run ends in StepUnderflow with every accepted
    # state finite
    accepted = []
    flow = bound_flow(lambda t, y: np.full_like(y, 1e307), [1.7e308])
    with pytest.raises(StepUnderflow):
        integrate_core(*flow, 0.0, 1.0, None, None, lambda t, y: accepted.append(y.copy()))
    assert accepted and all(np.isfinite(y).all() for y in accepted)


def test_start_probe_past_unit_modulus_is_no_breakdown():
    # the probe y0 + h0 f0 from a_0 = -(1 - 1e-8) lands at |a_0| > 1, off the
    # trajectory, where the kernel is evaluated unchecked; the flow itself
    # keeps |a_0| < 1
    _, seqs, _ = integrate_schur(VerblunskySeq(0.0, (-(1 - 1e-8),)), 2 + 2j, 1.0)
    assert abs(seqs[-1].a[0]) < 1.0


@settings(max_examples=100)
@given(N=st.integers(1, 8), u=st.floats(0.0, 11.0), complex_data=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_integrate_near_singular_beta_is_finite_or_typed(N, u, complex_data, seed, data):
    # one |beta_n| = 10^-u, run for 10^-u, the time beta_n takes to move by
    # its own size: finite states or a SingularDenominator bracketed inside
    # the run, never NaN and never an error of the starting-step probe.  The
    # Lax identity holds to rounding on every state, near breakdown too
    state = random_state(np.random.default_rng(seed), N, complex_data=complex_data)
    n = data.draw(st.integers(0, N - 1))
    beta = list(state.beta)
    beta[n] = 10.0 ** -u * beta[n] / abs(beta[n])
    state = state_from_coeffs(state.p, state.q, 0.0, beta, state.alpha[1:-1])
    assert lax_residual(state) <= 1e-12
    t_end = 10.0 ** -u
    try:
        traj = integrate(state, t_end)
    except SingularDenominator as exc:
        lo, hi = exc.t_bracket
        assert 0.0 <= lo < hi <= t_end
    else:
        assert all(np.isfinite(s.beta + s.alpha).all() for s in traj.states)
        assert all(lax_residual(s) <= 1e-12 for s in traj.states)


@given(N=st.integers(2, 64), seed=st.integers(0, 2 ** 32 - 1))
def test_adaptive_run_keeps_trace_and_determinant(N, seed):
    # tr H = sum gamma_n is linear in the unknowns, so every RK method keeps it
    # to rounding; det H = prod beta_n is kept to the order of the tolerance
    state = random_state(np.random.default_rng(seed), N)
    tr0, det0 = sum(state.beta) + sum(state.alpha), math.prod(state.beta)
    traj = integrate(state, 0.25, ctrl=StepControl(rel_tol=1e-8))
    for s in traj.states[1:]:
        assert abs(sum(s.beta) + sum(s.alpha) - tr0) <= 1e-13 * abs(tr0)
        assert abs(math.prod(s.beta) - det0) <= 1e-7 * abs(det0)


# -- spectrum: Aberth from eig(H), refined on the recurrence --------------------

def sorted_eigs(state):
    """Eigenvalues of H by numpy's dense eigensolver, in spectrum's order."""
    return sorted(np.linalg.eigvals(build_pair(state).H).tolist(),
                  key=lambda z: (z.real, z.imag))


def fd_dq(rc, N, lam):
    """Central-difference Q_N'(lam) from the test-side recurrence evaluation."""
    h = 1e-6 * (1.0 + abs(lam))
    return (eval_Q(rc, N, lam + h) - eval_Q(rc, N, lam - h)) / (2.0 * h)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("N", [26, 28, 31, 32, 40])
def test_spectrum_matches_eig_from_n26(seed, N):
    # the Cauchy-bound start stalled for N = 26..31 and overflowed from N = 32
    state = random_state(np.random.default_rng(seed), N)
    lam = spectrum(state)
    assert max(abs(a - b) for a, b in zip(lam, sorted_eigs(state))) < 1e-9


@pytest.mark.parametrize("N", [32, 40])
def test_drift_of_former_overflow_state(N):
    # these states overflowed Q_N in the first sweep of the Cauchy-bound start
    state = random_state(np.random.default_rng(N), N)
    assert max(abs(a - b) for a, b in zip(spectrum(state), sorted_eigs(state))) < 1e-9
    drift = isospectral_drift(integrate(state, 0.02))
    assert math.isfinite(drift) and drift < 1e-7


def test_cli_spectrum_n32_matches_eig(tmp_path):
    state = random_state(np.random.default_rng(32), 32)
    traj, out = tmp_path / "traj.csv", tmp_path / "spec.csv"
    init = {"beta": [[b.real, b.imag] for b in state.beta],
            "alpha": [[a.real, a.imag] for a in state.alpha[1:-1]]}
    p, q = state.p, state.q
    assert main(["simulate", "--system", "ertl", f"--p={p.real},{p.imag}",
                 f"--q={q.real},{q.imag}", "--t-end", "0.02", "--t-out", "0.01,0.02",
                 "--init", json.dumps(init), "--out", str(traj)]) == 0
    assert main(["spectrum", "--traj", str(traj), "--out", str(out)]) == 0
    by_t = {}
    for line in out.read_text().splitlines()[2:]:
        t, _, re, im = line.split(",")
        by_t.setdefault(float(t), []).append(complex(float(re), float(im)))
    assert sorted(by_t) == [0.0, 0.01, 0.02]
    eig = sorted_eigs(state)
    for lam in by_t.values():
        assert len(lam) == 32
        assert max(abs(a - b) for a, b in zip(lam, eig)) < 1e-7


@pytest.mark.parametrize("N", [23, 48, 64, 100, 128])
def test_spectrum_constant_coefficients_closed_form(N):
    # beta = alpha = 1: Q_N(x) = x^(N/2) U_N(cos theta) with x - 1 = 2 sqrt(x) cos theta,
    # so the zeros are (cos theta_k + sqrt(1 + cos^2 theta_k))^2, theta_k = k pi / (N + 1).
    # H is far from normal here: eig(H) is 2.7e-9 off at N = 23 and 2e-2 at N = 48,
    # so the start is poor and the Aberth repulsion keeps two estimates off one zero
    c = np.cos(np.arange(1, N + 1) * np.pi / (N + 1))
    want = np.sort((c + np.sqrt(1.0 + c * c)) ** 2)
    lam = spectrum(state_from_coeffs(1.0, 1.0, 0.0, [1.0] * N, [1.0] * (N - 1)))
    assert np.max(np.abs(np.array(lam) - want)) < 1e-12
    # Aberth stops after a correction below ABERTH_TOL; converging cubically, it
    # leaves rounding error only
    assert np.all(np.abs(np.array(lam) - want) <= 1e-15 * (1.0 + want))


def overflow_state():
    """N = 8 with beta_k ~ 1e160: Q_8 overflows double precision near every root."""
    beta = [1e160 * (1.0 + 0.1 * k) for k in range(8)]
    return state_from_coeffs(1.0, 1.0, 0.0, beta, [0.5] * 7)


def test_spectrum_overflow_raises_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence):
            spectrum(overflow_state())


def test_cli_spectrum_exits_2_on_overflow(tmp_path, capsys):
    state = overflow_state()
    traj, out = tmp_path / "traj.csv", tmp_path / "spec.csv"
    rows = [f"0.0,{n},{b.real!r},0.0,{a.real!r},0.0"
            for n, (b, a) in enumerate(zip(state.beta, state.alpha), start=1)]
    traj.write_text("\n".join(["# overflow", "t,site,re_beta,im_beta,re_alpha,im_alpha"]
                              + rows) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["spectrum", "--traj", str(traj), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "NonConvergence"
    assert not out.exists()


@st.composite
def spectrum_states(draw):
    """Complex finite-closure states in random_state's ranges, N from 1 to 48."""
    N = draw(st.integers(1, 48))
    polar = lambda n, lo, hi: (draw(arrays(float, n, elements=st.floats(lo, hi)))
                               * np.exp(1j * draw(arrays(float, n, elements=st.floats(-0.5, 0.5)))))
    beta, alpha = polar(N, 0.5, 1.5), polar(N - 1, 0.2, 1.0)
    return state_from_coeffs(draw(nonzero), draw(nonzero), 0.0, beta, alpha)


@given(spectrum_states())
def test_spectrum_roots_match_eig_and_recurrence(state):
    N = state.N
    lam = np.array(spectrum(state))
    assert lam.shape == (N,)
    # eig(H) is backward stable, so each eigenvalue is off by at most about
    # N eps |H| times its condition number: 1e-9 for most states, but H is far
    # from normal at beta = alpha = 1 (eig is 2.7e-9 off at N = 23, 2e-2 at N = 48)
    H = build_pair(state).H
    w, vl, vr = scipy.linalg.eig(H, left=True, right=True)
    kappa = (np.linalg.norm(vl, axis=0) * np.linalg.norm(vr, axis=0)
             / np.abs(np.sum(vl.conj() * vr, axis=0)))
    tol = np.maximum(1e-9, N * np.finfo(float).eps * np.linalg.norm(H) * kappa)
    assert np.all(np.min(np.abs(lam[None, :] - w[:, None]), axis=1) <= tol)
    rc = RecurrenceCoeffs(0.0, state.p, state.q, state.beta, state.alpha[1:-1])
    for z in lam:  # the Newton correction |Q_N / Q_N'| is small at every root
        assert abs(eval_Q(rc, N, z)) <= 1e-9 * (1.0 + abs(z)) * abs(fd_dq(rc, N, z))
    # each zero once: Q_N = prod (x - lambda_i) at N + 1 points around the spectrum
    c = lam.mean()
    radius = 1.0 + np.max(np.abs(lam - c))
    for x in c + 2.0 * radius * np.exp(2j * np.pi * np.arange(N + 1) / (N + 1)):
        assert abs(eval_Q(rc, N, x) / np.prod(x - lam) - 1.0) < 1e-9
