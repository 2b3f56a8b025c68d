"""Array kernels of every flow against their per-site loop forms (property tests).

The loops below are the scalar formulas the kernels replaced, kept here as the
oracle: one row per site, boundary values through small index helpers.  The
public right-hand sides are fed plain namespaces, so the singular-denominator
guard can be reached with data a ``LatticeState`` would refuse to hold.
"""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from ertl import (NonConvergence, SingularDenominator, StepControl, integrate,
                  isospectral_drift, rhs_cd, rhs_ertl, rhs_gamma, rhs_langmuir,
                  rhs_schur, spectrum)
from ertl.cli import main
from ertl.lattice import EPS_SING, integrate_core
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


def assert_matches(got, want, scale):
    """Same NaN pattern; finite entries agree to REL times the term scale."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    fin = ~np.isnan(want)
    assert np.all(np.abs(got[fin] - want[fin]) <= REL * scale)


# -- strategies -------------------------------------------------------------------

sizes = st.integers(1, 64)
coeffs = st.complex_numbers(max_magnitude=3.0)
nonzero = st.complex_numbers(min_magnitude=0.2, max_magnitude=3.0)
tiny = st.complex_numbers(max_magnitude=0.5 * EPS_SING)
tops = st.one_of(st.just(0j), nonzero)


def values(draw, n, elements, dtype=complex):
    """n draws of ``elements`` as a list of Python scalars (the loops' arithmetic)."""
    return draw(arrays(dtype, n, elements=elements)).tolist()


@st.composite
def lattice_data(draw):
    """(p, q, beta_1..N, alpha_1..N+1): finite or buffered (alpha_{N+1} != 0)."""
    N = draw(sizes)
    beta = values(draw, N, nonzero)
    alpha = [0j] + values(draw, N - 1, coeffs) + [draw(tops)]
    return draw(nonzero), draw(nonzero), beta, alpha


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

@given(lattice_data())
def test_ertl_kernel_matches_loop(data):
    p, q, beta, alpha = data
    db, da = rhs_ertl(raw_state(p, q, beta, alpha))
    wb, wa = ertl_loop(p, q, beta, alpha)
    scale = lattice_scale(p, q, beta, alpha)
    assert_matches(db, wb, scale)
    assert_matches(da, wa, scale)
    assert np.isnan(db[-1]) == np.isnan(da[-1]) == (alpha[-1] != 0)


@given(lattice_data())
def test_gamma_kernel_matches_loop(data):
    p, q, beta, alpha = data
    got = rhs_gamma(raw_state(p, q, beta, alpha))
    assert_matches(got, gamma_loop(p, q, beta, alpha), lattice_scale(p, q, beta, alpha))


@given(lattice_data(), st.data())
def test_singular_beta_raises_at_same_site(lattice, data):
    p, q, beta, alpha = lattice
    sites = data.draw(st.sets(st.integers(0, len(beta) - 1), min_size=1, max_size=4))
    for i in sites:
        beta[i] = data.draw(tiny)
    with pytest.raises(SingularDenominator) as want:
        ertl_loop(p, q, beta, alpha)
    for rhs in (rhs_ertl, rhs_gamma):
        with pytest.raises(SingularDenominator) as got:
            rhs(raw_state(p, q, beta, alpha))
        assert got.value.n == want.value.n == min(sites) + 1


@given(sizes, st.floats(0.1, 4.0), st.data())
def test_volterra_kernel_matches_loop(N, q, data):
    alpha = [0j] + values(data.draw, N - 1, coeffs) + [data.draw(tops)]
    state = raw_state(1.0, q, [math.sqrt(q)] * N, alpha)
    m = max([1.0] + [abs(x) for x in alpha])
    assert_matches(rhs_langmuir(state), volterra_loop(alpha), 2.0 * m * m)


@given(sizes, nonzero, st.data())
def test_cd_kernel_matches_loop(M, q, data):
    c = values(data.draw, M, st.floats(-3.0, 3.0), float)
    d = [0.0] + values(data.draw, M - 1, st.floats(0.0, 1.0), float)
    dc, dd = rhs_cd(SimpleNamespace(c=tuple(c), d=tuple(d[1:])), q)
    wc, wd = cd_loop(c, d, q)
    scale = 4.0 * abs(q) * 4.0 * max([1.0] + [abs(x) for x in c]) ** 2
    assert_matches(dc, wc, scale)
    assert_matches(dd, wd[1:], scale)


@given(sizes, nonzero, st.one_of(st.none(), st.complex_numbers(max_magnitude=0.99)),
       st.data())
def test_schur_kernel_matches_loop(N, q, a_top, data):
    a = values(data.draw, N, st.complex_numbers(max_magnitude=0.99))
    got = rhs_schur(SimpleNamespace(a=tuple(a)), q, a_top=a_top)
    assert_matches(got, schur_loop(a, q, a_top), 2.0 * abs(q))


def test_schur_kernel_rejects_modulus_one():
    with pytest.raises(ValueError, match=r"\|a_1\| = 1.0 >= 1: degenerate measure rejected"):
        rhs_schur(SimpleNamespace(a=(0.5, 1.0, 0.2)), 1.0, a_top=0j)


# -- integrator: k1 shared between the full step and the first half-step -------------

def test_rhs_calls_per_attempt():
    calls = []

    def f(t, y):
        calls.append(t)
        return -y * (1.0 + t)

    ctrl = StepControl(h_init=1.0, rel_tol=1e-10)  # the first attempts are rejected
    _, _, stats = integrate_core(f, 0.0, [1.0, 0.5j], 2.0, None, ctrl, lambda t, y: None)
    assert stats["rejected"] >= 1
    assert stats["rhs_calls"] == len(calls) == 11 * (stats["accepted"] + stats["rejected"])

    calls.clear()
    fixed = StepControl(h_init=0.1, fixed=True)
    _, _, stats = integrate_core(f, 0.0, [1.0], 1.0, None, fixed, lambda t, y: None)
    assert stats["rhs_calls"] == len(calls) == 4 * stats["accepted"] == 40


# -- spectrum: a non-finite root estimate fails fast --------------------------------

@pytest.mark.parametrize("N", [32, 40])
def test_spectrum_raises_instead_of_nan(N):
    state = random_state(np.random.default_rng(N), N)
    with pytest.raises(NonConvergence, match="non-finite"):
        spectrum(state)
    with pytest.raises(NonConvergence):
        isospectral_drift(integrate(state, 0.02))


def test_cli_spectrum_exits_2_on_divergence(tmp_path, capsys):
    state = random_state(np.random.default_rng(32), 32)
    traj, out = tmp_path / "traj.csv", tmp_path / "spec.csv"
    init = {"beta": [[b.real, b.imag] for b in state.beta],
            "alpha": [[a.real, a.imag] for a in state.alpha[1:-1]]}
    p, q = state.p, state.q
    assert main(["simulate", "--system", "ertl", f"--p={p.real},{p.imag}",
                 f"--q={q.real},{q.imag}", "--t-end", "0.02",
                 "--init", json.dumps(init), "--out", str(traj)]) == 0
    capsys.readouterr()
    assert main(["spectrum", "--traj", str(traj), "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "NonConvergence"
    assert not out.exists()
