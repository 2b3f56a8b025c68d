"""Lax matrices, the commutator identity, spectra, isospectral drift."""

from fractions import Fraction

import numpy as np
import pytest

import ertl.lattice as lattice
from ertl import (LaxPair, NonConvergence, RecurrenceCoeffs, StepControl, build_pair,
                  commutator, example1_coeffs, hausdorff_distance, integrate,
                  isospectral_drift, lax_residual, spectrum, state_from_coeffs,
                  ClosedFormExample)
from tests.conftest import eval_Q
from tests.test_lattice import random_state

EX1 = ClosedFormExample("example1", 1.0, 2.0)


def test_build_pair_scalar_case():
    st = state_from_coeffs(1.0, 2.0, 0.0, [1.3], [])
    pair = build_pair(st)
    assert pair.H.shape == (1, 1)
    assert pair.H[0, 0] == 1.3          # gamma_1 = alpha_2 + beta_1 = beta_1
    assert pair.F[0, 0] == pytest.approx(2.0 / 1.3)  # p alpha_1 + q / beta_1


def test_build_pair_example1_layout():
    rc = example1_coeffs(EX1, 0.0, 4)
    st = state_from_coeffs(1.0, 2.0, 0.0, rc.beta[:3], rc.alpha[:2])
    pair = build_pair(st)
    assert pair.H[1, 0] == pytest.approx(0.5)   # alpha_2
    assert pair.H[2, 1] == pytest.approx(1.0)   # alpha_3
    sq = np.sqrt(2.0)
    assert pair.H[0, 0] == pytest.approx(0.5 + sq)   # gamma_1
    assert pair.H[1, 1] == pytest.approx(1.0 + sq)   # gamma_2
    assert pair.H[2, 2] == pytest.approx(sq)         # gamma_3 (alpha_4 = 0)
    assert pair.H[0, 2] == pair.H[1, 2] == pair.H[2, 2]


def test_build_pair_filled_row_entry(rng):
    st = random_state(rng, 6)
    pair = build_pair(st)
    gamma5 = st.alpha[5] + st.beta[4]
    assert pair.H[0, 4] == gamma5
    assert np.count_nonzero(np.tril(pair.H, -2)) == 0


def test_f_decomposition(rng):
    st = random_state(rng, 7)
    pair = build_pair(st)
    # X lower bidiagonal {diag alpha_k, sub -alpha_k}, Y upper bidiagonal
    # {diag 1/beta_k, super -1/beta_k}; p X + q Y recombined in scalar
    # arithmetic must equal the tridiagonal F exactly
    inv_beta = 1.0 / np.array(st.beta, dtype=complex)
    X = np.zeros((7, 7), dtype=complex)
    Y = np.zeros((7, 7), dtype=complex)
    for k in range(7):
        X[k, k] = st.alpha[k]
        Y[k, k] = inv_beta[k]
        if k > 0:
            X[k, k - 1] = -st.alpha[k]
        if k < 6:
            Y[k, k + 1] = -inv_beta[k]
    recombined = np.zeros_like(pair.F)
    for i in range(7):
        for j in range(7):
            recombined[i, j] = st.p * complex(X[i, j]) + st.q * complex(Y[i, j])
    assert np.array_equal(recombined, pair.F)
    assert np.count_nonzero(np.triu(pair.F, 2)) == 0
    assert np.count_nonzero(np.tril(pair.F, -2)) == 0


def test_commutator_trivial_cases():
    st = state_from_coeffs(1.0, 2.0, 0.0, [0.8], [])
    assert commutator(build_pair(st)) == pytest.approx(np.zeros((1, 1)))
    eye = np.eye(3, dtype=complex)
    assert np.allclose(commutator(LaxPair(3, eye, eye)), 0.0)


def test_commutator_against_triple_loop(rng):
    st = random_state(rng, 8)
    pair = build_pair(st)
    ref = np.zeros((8, 8), dtype=complex)
    for i in range(8):
        for j in range(8):
            acc = 0j
            for k in range(8):
                acc += pair.H[i, k] * pair.F[k, j] - pair.F[i, k] * pair.H[k, j]
            ref[i, j] = acc
    assert np.max(np.abs(commutator(pair) - ref)) < 1e-13 * max(1, np.max(np.abs(ref)))


def test_lax_residual_scalar_zero():
    st = state_from_coeffs(1.0, 2.0, 0.0, [1.1], [])
    assert lax_residual(st) == 0.0


def test_lax_residual_random_sweep(rng):
    for _ in range(40):
        st = random_state(rng, int(rng.integers(2, 11)))
        assert lax_residual(st) < 1e-12


def test_lax_residual_example1():
    rc = example1_coeffs(EX1, 0.0, 6)
    st = state_from_coeffs(1.0, 2.0, 0.0, rc.beta[:5], rc.alpha[:4])
    assert lax_residual(st) < 1e-12


def test_lax_residual_reads_beta_equation(rng, monkeypatch):
    # dH/dt above the diagonal is alpha_dot_{n+1} + beta_dot_n of the stepped
    # right-hand side, so a wrong beta equation shows in the residual
    st = random_state(rng, 8)
    kernel = lattice._ertl_kernel

    def wrong_beta(*args, **kwargs):
        dbeta, dalpha = kernel(*args, **kwargs)
        return dbeta * (1 + 1e-6), dalpha

    monkeypatch.setattr(lattice, "_ertl_kernel", wrong_beta)
    assert lax_residual(st) > 1e-9


def test_lax_identity_exact_rational():
    # the commutator identity evaluated in exact arithmetic on a rational
    # state: an independent oracle confirming the identity is algebraic
    N = 4
    p, q = Fraction(2, 3), Fraction(5, 7)
    beta = [Fraction(3, 2), Fraction(4, 3), Fraction(7, 5), Fraction(9, 8)]
    alpha = [Fraction(0), Fraction(1, 2), Fraction(2, 5), Fraction(3, 7), Fraction(0)]

    def b(n):
        return Fraction(1) if n == 0 else beta[n - 1]

    def a(n):
        return Fraction(-1) if n == 0 else alpha[n - 1]

    gamma = [alpha[k] + beta[k - 1] for k in range(1, N + 1)]
    H = [[gamma[j] if j >= i else (alpha[i] if j == i - 1 else Fraction(0))
          for j in range(N)] for i in range(N)]
    F = [[Fraction(0)] * N for _ in range(N)]
    for k in range(N):
        F[k][k] = p * alpha[k] + q / beta[k]
        if k > 0:
            F[k][k - 1] = -p * alpha[k]
        if k < N - 1:
            F[k][k + 1] = -q / beta[k]

    dbeta = [p * b(n) * (a(n) - a(n + 1))
             + q * b(n) * ((a(n + 1) / (b(n + 1) * b(n)) if n < N else Fraction(0))
                           - a(n) / (b(n) * b(n - 1)))
             for n in range(1, N + 1)]
    dalpha = [Fraction(0)] + [
        p * a(n) * (a(n - 1) + b(n - 1) - a(n + 1) - b(n))
        + q * a(n) * (Fraction(1) / b(n - 1) - Fraction(1) / b(n))
        for n in range(2, N + 1)]
    dgamma = [dalpha[k] + dbeta[k - 1] if k < N else dbeta[N - 1]
              for k in range(1, N + 1)]

    Hdot = [[dgamma[j] if j >= i else (dalpha[i] if j == i - 1 else Fraction(0))
             for j in range(N)] for i in range(N)]
    for i in range(N):
        for j in range(N):
            comm = sum(H[i][k] * F[k][j] - F[i][k] * H[k][j] for k in range(N))
            assert Hdot[i][j] == comm  # exact equality, no tolerance


# -- spectrum ---------------------------------------------------------------------

def test_spectrum_scalar():
    st = state_from_coeffs(1.0, 2.0, 0.0, [0.7 - 0.1j], [])
    assert spectrum(st) == [0.7 - 0.1j]


def test_spectrum_quadratic_by_hand():
    st = state_from_coeffs(1.0, 1.0, 0.0, [1.0, 2.0], [1.0])
    lam = spectrum(st)
    assert lam[0] == pytest.approx(2.0 - np.sqrt(2.0))
    assert lam[1] == pytest.approx(2.0 + np.sqrt(2.0))


def test_spectrum_matches_dense_eigensolver(rng):
    for _ in range(8):
        st = random_state(rng, 6)
        lam = spectrum(st)
        eig = sorted(np.linalg.eigvals(build_pair(st).H),
                     key=lambda z: (z.real, z.imag))
        assert max(abs(a - b) for a, b in zip(lam, eig)) < 1e-9


def test_spectrum_polynomial_duality(rng):
    st = random_state(rng, 7)
    rc = RecurrenceCoeffs(0.0, st.p, st.q, st.beta, st.alpha[1:-1])
    for lam in spectrum(st):
        h = 1e-6 * (1.0 + abs(lam))  # central-difference scale of Q_7'(lam)
        dq = (eval_Q(rc, 7, lam + h) - eval_Q(rc, 7, lam - h)) / (2.0 * h)
        assert abs(eval_Q(rc, 7, lam)) < 1e-9 * max(1.0, abs(dq))


# -- isospectral drift --------------------------------------------------------------

def test_drift_scalar_zero():
    st = state_from_coeffs(1.0, 2.0, 0.0, [1.2], [])
    traj = integrate(st, 1.0)
    assert isospectral_drift(traj) < 1e-14


def test_drift_fixed_point():
    # all alpha = 0 makes every site stationary
    st = state_from_coeffs(1.0, 2.0, 0.0, [1.0, 1.5, 0.7], [0.0, 0.0])
    traj = integrate(st, 1.0, t_out=[0.5, 1.0])
    assert isospectral_drift(traj) < 1e-13


def test_drift_small_and_scales_with_tolerance(rng):
    st = random_state(rng, 6, complex_data=False)
    drift = {}
    for tol in (1e-9, 1e-10):
        traj = integrate(st, 1.0, ctrl=StepControl(rel_tol=tol, abs_tol=tol * 1e-2),
                         t_out=[0.25, 0.5, 0.75, 1.0])
        drift[tol] = isospectral_drift(traj)
    assert drift[1e-10] < 1e-6
    ratio = drift[1e-9] / max(drift[1e-10], 1e-16)
    assert 3.0 < ratio < 40.0  # ~linear in tolerance


def test_hausdorff_distance_basic():
    a = [0 + 0j, 1 + 0j]
    b = [0 + 0j, 1 + 0.25j]
    assert hausdorff_distance(a, b) == pytest.approx(0.25)
