"""Lax matrices, the commutator identity, spectra, isospectral drift."""

from fractions import Fraction

import mpmath
import numpy as np
import pytest

import ertl.lattice as lattice
import ertl.lax as lax
from ertl import (LatticeState, LaxPair, NonConvergence, RecurrenceCoeffs, StepControl,
                  Trajectory, build_pair, cd_from_verblunsky, circle_lebesgue_spec,
                  commutator, compute_moments, example1_coeffs, example2_coeffs,
                  hausdorff_distance, integrate, integrate_cd, isospectral_drift,
                  lax_residual, map_beta_alpha_cd, spectra, spectrum, state_from_coeffs,
                  verblunsky_from_moments, ClosedFormExample)
from ertl.cli import main
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
    # {diag 1/beta_k, super -1/beta_k}; p X + q Y recombined entry by entry in
    # scalar arithmetic is the tridiagonal F up to the rounding of numpy's
    # complex multiply, which may differ from Python's by about eps
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
    assert np.array_equal(recombined != 0, pair.F != 0)
    assert np.all(np.abs(pair.F - recombined) <= 1e-15 * np.abs(recombined))
    assert np.count_nonzero(np.triu(pair.F, 2)) == 0
    assert np.count_nonzero(np.tril(pair.F, -2)) == 0


def test_commutator_trivial_cases():
    st = state_from_coeffs(1.0, 2.0, 0.0, [0.8], [])
    assert commutator(build_pair(st)) == pytest.approx(np.zeros((1, 1)))
    eye = np.eye(3, dtype=complex)
    assert np.allclose(commutator(LaxPair(eye, eye)), 0.0)


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
    # dH/dt above the diagonal is alpha_dot_{n+1} + beta_dot_n of the one
    # binding integrate steps, so a wrong beta equation shows in the residual
    # and moves the integration too
    st = random_state(rng, 8)
    kernel = lattice._ertl_kernel
    right = integrate(st, 0.1).final

    def wrong_beta(p, q, buf, open_top=False):
        evaluate = kernel(p, q, buf, open_top)

        def wrong(t=None):
            out = evaluate()
            out[:st.N] *= 1 + 1e-6
            return out
        return wrong

    monkeypatch.setattr(lattice, "_ertl_kernel", wrong_beta)
    assert lax_residual(st) > 1e-9
    assert integrate(st, 0.1).final.beta != right.beta


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


@pytest.mark.parametrize("beta_1", [0.7, 2.0 ** 0.5, 1e-3, 0.7 - 0.1j, -3e5 + 2e-7j, 1j])
def test_single_site_spectrum_is_beta_1_exactly(eigvals_calls, beta_1):
    # N = 1 takes the general path: Aberth from eig of the 1 x 1 H (cold), or
    # from the previous zero (warm), returns beta_1 bit for bit
    state = state_from_coeffs(1.0, 2.0, 0.0, [beta_1], [])
    traj = integrate(state, 0.5, t_out=[0.25, 0.5])  # a single site is stationary
    other = state_from_coeffs(1.0, 2.0, 0.0, [0.3 + 2j], [])
    runs = [spectrum(state), *spectra(traj.states), spectra([other, state])[1]]
    assert all(np.array(zeros).tobytes() == np.array(state.beta).tobytes() for zeros in runs)
    assert eigvals_calls == [1, 1, 1]  # one cold start per call; the rest ran warm


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


def assert_same_zeros(got, want, tol):
    """Each zero of one set within tol (1 + |z|) of a zero of the other, sets of one size."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    for a, b in ((got, want), (want, got)):
        gap = np.min(np.abs(a[:, None] - b[None, :]), axis=1)
        assert np.all(gap <= tol * (1.0 + np.abs(a))), float(np.max(gap))


@pytest.mark.parametrize("complex_data", [True, False])
@pytest.mark.parametrize("N", [8, 16, 24, 32, 40, 48])
def test_spectra_match_cold_spectrum(N, complex_data):
    state = random_state(np.random.default_rng(100 + N), N, complex_data=complex_data)
    traj = integrate(state, 0.2, t_out=[0.05, 0.1, 0.15, 0.2])
    warm = spectra(traj.states)
    assert len(warm) == 5
    for lam, s in zip(warm, traj.states):
        assert_same_zeros(lam, spectrum(s), 1e-14)


@pytest.fixture
def eigvals_calls(monkeypatch):
    """Count the cold starts: each one forms eig(H) once."""
    calls = []
    eigvals = np.linalg.eigvals

    def counted(a):
        calls.append(len(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return calls


def test_spectra_warm_start_skips_eig(eigvals_calls):
    state = random_state(np.random.default_rng(7), 16)
    spectra(integrate(state, 0.1, t_out=[0.05, 0.1]).states)
    assert eigvals_calls == [16]


def test_spectra_cold_start_when_n_changes(eigvals_calls):
    # N falls, then rises: six estimates from the previous snapshot would
    # converge to only six of the ten zeros
    rng = np.random.default_rng(8)
    states = [random_state(rng, N) for N in (8, 6, 10, 10)]
    got = spectra(states)
    assert eigvals_calls == [8, 6, 10]
    for lam, s in zip(got[:3], states):
        assert lam == spectrum(s)  # the same cold path, bit for bit


def test_spectra_falls_back_to_cold_start(monkeypatch, eigvals_calls):
    # the warm run of the second snapshot fails; its retry from eig(H) is the cold result
    states = integrate(random_state(np.random.default_rng(9), 12), 0.1,
                       t_out=[0.05, 0.1]).states
    zeros, runs = lax._zeros, []

    def failing_second_run(beta, alpha, z):
        runs.append(len(runs))
        if len(runs) == 2:
            raise NonConvergence("forced warm-start failure")
        return zeros(beta, alpha, z)

    monkeypatch.setattr(lax, "_zeros", failing_second_run)
    got = spectra(states)
    assert len(runs) == 4 and eigvals_calls == [12, 12]
    monkeypatch.setattr(lax, "_zeros", zeros)
    assert got[1] == spectrum(states[1])
    assert_same_zeros(got[2], spectrum(states[2]), 1e-14)


def test_spectra_fallback_failure_raises():
    # a warm run that fails and a cold retry that fails too: the error surfaces
    beta = [1e160 * (1.0 + 0.1 * k) for k in range(8)]
    overflow = state_from_coeffs(1.0, 1.0, 0.0, beta, [0.5] * 7)
    with pytest.raises(NonConvergence):
        spectra([random_state(np.random.default_rng(10), 8), overflow])


def test_cli_spectrum_matches_per_snapshot_spectrum(tmp_path):
    state = random_state(np.random.default_rng(11), 20)
    traj = integrate(state, 0.2, t_out=[0.05, 0.1, 0.2])
    cells = lambda z: f"{complex(z).real!r},{complex(z).imag!r}"
    rows = [f"{s.t!r},{n},{cells(b)},{cells(a)}"
            for s in traj.states
            for n, (b, a) in enumerate(zip(s.beta, s.alpha), start=1)]
    path, out = tmp_path / "traj.csv", tmp_path / "spec.csv"
    path.write_text("\n".join(["t,site,re_beta,im_beta,re_alpha,im_alpha"] + rows) + "\n")
    assert main(["spectrum", "--traj", str(path), "--out", str(out)]) == 0
    by_t = {}
    for line in out.read_text().splitlines()[2:]:
        t, _, re, im = line.split(",")
        by_t.setdefault(float(t), []).append(complex(float(re), float(im)))
    assert sorted(by_t) == [s.t for s in traj.states]
    for s in traj.states:
        assert_same_zeros(by_t[s.t], spectrum(s), 1e-14)


def mp_zeros(state, dps=50):
    """Zeros of Q_N at dps digits: the recurrence on coefficient lists, then polyroots."""
    with mpmath.workdps(dps):
        beta = [mpmath.mpc(b) for b in state.beta]
        alpha = [mpmath.mpc(a) for a in state.alpha[1:state.N]]
        q_prev, q_cur = [mpmath.mpc(1)], [-beta[0], mpmath.mpc(1)]  # ascending powers
        for b, a in zip(beta[1:], alpha):
            shifted = [mpmath.mpc(0)] + q_cur  # x Q_k
            q_next = [s - b * c for s, c in zip(shifted, q_cur + [0])]
            for i, c in enumerate(q_prev):
                q_next[i + 1] -= a * c  # - alpha x Q_{k-1}
            q_prev, q_cur = q_cur, q_next
        roots = mpmath.polyroots(q_cur[::-1], maxsteps=400, extraprec=2 * dps)
        return np.array([complex(r) for r in roots])


def test_complex_spectrum_against_50_digit_zeros():
    # a reference that does not start from eig(H): the exact zeros of Q_16
    # for the coefficients as stored, by mpmath at 50 digits
    state = random_state(np.random.default_rng(16), 16)
    states = integrate(state, 0.1, t_out=[0.05, 0.1]).states
    warm = spectra(states)
    for lam, s in zip(warm, states):
        want = mp_zeros(s)
        assert_same_zeros(spectrum(s), want, 1e-13)
        assert_same_zeros(lam, want, 1e-13)


@pytest.mark.parametrize("family, coeffs", [("example1", example1_coeffs),
                                            ("example2", example2_coeffs)])
def test_truncated_example_spectrum_against_50_digit_zeros(family, coeffs):
    # real positive coefficients, N = 24: the zeros are real and simple, and
    # Aberth alone brings them to rounding level
    rc = coeffs(ClosedFormExample(family, 1.0, 2.0), 0.0, 24)
    state = state_from_coeffs(rc.p, rc.q, rc.t, rc.beta, rc.alpha)
    assert_same_zeros(spectrum(state), mp_zeros(state), 1e-15)


def test_spectra_reject_buffered_state():
    state = random_state(np.random.default_rng(12), 8)
    buffered = state.prefix(5)  # carries the true nonzero alpha_6
    traj = Trajectory(times=(0.0, 0.1), states=(state, buffered), step_stats={})
    for call in (lambda: spectrum(buffered), lambda: spectra([state, buffered]),
                 lambda: isospectral_drift(traj), lambda: build_pair(buffered)):
        with pytest.raises(ValueError, match="finite-closure"):
            call()


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


def test_drift_small_and_scales_with_tolerance():
    # one fixed real state: its drifts (1.36e-11 and 2.02e-12) sit well above
    # rounding.  A state whose drift is at rounding level at both tolerances
    # (about 2e-13 each) gives a ratio near 1, which says nothing about the
    # tolerance, so the ratio check needs a state like this one.
    st = state_from_coeffs(
        1.1126131107877189, 1.7914577714813622, 0.0,
        [1.645991924287558, 1.9343334891028272, 1.4740989205170207,
         0.5577316613823924, 1.4661814785060217, 1.9653664257111136],
        [0.8408289313074334, 0.3167979905529723, 0.9036230632346318,
         0.7241937967973563, 0.22682829616499367])
    drift = {}
    for tol in (1e-9, 1e-10):
        traj = integrate(st, 1.0, ctrl=StepControl(rel_tol=tol, abs_tol=tol * 1e-2),
                         t_out=[0.25, 0.5, 0.75, 1.0])
        drift[tol] = isospectral_drift(traj)
    assert drift[1e-10] < 1e-6
    ratio = drift[1e-9] / max(drift[1e-10], 1e-16)
    assert 3.0 < ratio < 40.0  # ~linear in tolerance

    # a (c, d) window is the ertl state at p = conj(q) that map_beta_alpha_cd
    # makes of it: its spectrum, the zeros of a kernel polynomial, lies on the
    # unit circle and stays put (measured: 2.2e-16 off it, drift 4.6e-12)
    q = 2 + 2j
    v = verblunsky_from_moments(compute_moments(circle_lebesgue_spec(q), 0.1, 20), 16)
    cs = cd_from_verblunsky(v, 0.1)
    times, c_snaps, d_snaps, _ = integrate_cd(list(cs.c), [0.0, *cs.d], q, 0.1, 1.0,
                                              ctrl=StepControl(rel_tol=1e-10),
                                              t_out=[0.4, 0.7, 1.0])
    states = []
    for t, c, d in zip(times, c_snaps, d_snaps):
        beta, alpha = map_beta_alpha_cd(c, d)
        states.append(LatticeState(np.conj(q), q, t, beta, alpha + [0j]))
    assert max(abs(abs(lam) - 1.0) for s in states for lam in spectrum(s)) <= 1e-10
    assert isospectral_drift(Trajectory(tuple(times), tuple(states), {})) <= 1e-10


def test_hausdorff_distance_basic():
    a = [0 + 0j, 1 + 0j]
    b = [0 + 0j, 1 + 0.25j]
    assert hausdorff_distance(a, b) == pytest.approx(0.25)
