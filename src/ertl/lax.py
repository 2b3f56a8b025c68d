"""Lax matrices of the finite lattice flow and isospectrality diagnostics.

A finite-closure state (alpha_{N+1} = 0) assembles into the pair

    H: N x N lower Hessenberg, H[i][j] = gamma_{j+1} for j >= i,
       first subdiagonal alpha_2..alpha_N, zero below,
    F = p X + q Y,   X lower bidiagonal {diag alpha_k, sub -alpha_k},
                     Y upper bidiagonal {diag 1/beta_k, super -1/beta_k},

with gamma_k = alpha_{k+1} + beta_k (so gamma_k - alpha_{k+1} = beta_k).  The
flow satisfies  dH/dt = [H, F] = HF - FH  pointwise in the coefficients, an
algebraic identity with no integration involved; ``lax_residual`` measures it
directly.  Consequently the spectrum of H is conserved along trajectories,
and the zeros of Q_N coincide with the eigenvalues of H.  ``spectra`` finds
them along a trajectory, where each snapshot has (to integration error) the
zeros of the one before.  Simultaneous Aberth iteration on the recurrence
evaluation of Q_N, run on all N estimates as arrays, refines the estimates to
zeros of Q_N.  They start from the previous snapshot's zeros when N matches,
and otherwise, or when that run does not converge, from
``numpy.linalg.eigvals`` of the O(N) Hessenberg H (the cold start), so eig(H)
runs once per trajectory rather than once per snapshot.  ``spectrum`` is
``spectra`` of one state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence
from .lattice import LatticeState, Trajectory, rhs_ertl


@dataclass(frozen=True)
class LaxPair:
    """Dense Lax matrices of one finite-closure state (value object)."""

    H: np.ndarray
    F: np.ndarray


def _hessenberg(upper, sub):
    """Row i holds upper[j] for j >= i and sub[i-1] at column i-1; zeros below."""
    N = len(upper)
    M = np.triu(np.tile(np.asarray(upper, dtype=complex), (N, 1)))
    M[np.arange(1, N), np.arange(N - 1)] = sub
    return M


def build_pair(state: LatticeState) -> LaxPair:
    """Assemble (H, F) from a finite-closure state.

    F = p X + q Y is tridiagonal, so only its three diagonals are filled:
    diagonal p alpha_k + q/beta_k, subdiagonal -p alpha_k, superdiagonal
    -q/beta_k.  Each is one numpy array expression, whose complex multiply
    may round an entry differently from Python's scalar one (by up to about
    eps), so F agrees with an entrywise p X + q Y to rounding, not bitwise.
    """
    if state.closure != "finite":
        raise ValueError("Lax pair needs a finite-closure state")
    N = state.N
    beta = np.array(state.beta, dtype=complex)
    alpha = np.array(state.alpha, dtype=complex)  # alpha[k-1] = alpha_k
    H = _hessenberg(alpha[1:] + beta, alpha[1:N])  # gamma_k = alpha_{k+1} + beta_k
    inv_beta = 1.0 / beta

    p, q = state.p, state.q
    F = np.zeros((N, N), dtype=complex)
    F.flat[::N + 1] = p * alpha[:N] + q * inv_beta
    F.flat[N::N + 1] = p * -alpha[1:N]
    F.flat[1::N + 1] = q * -inv_beta[:N - 1]
    return LaxPair(H=H, F=F)


def commutator(pair: LaxPair) -> np.ndarray:
    """[H, F] = H F - F H by dense multiplication."""
    return pair.H @ pair.F - pair.F @ pair.H


def lax_residual(state: LatticeState) -> float:
    """max |dH/dt - [H, F]| normalized by max(1, |H|_max |F|_max).

    dH/dt is assembled from ``rhs_ertl``, the (beta, alpha) right-hand side
    the integrator steps: the subdiagonal carries alpha_dot_2..N, and column
    j (0-based) on and above the diagonal gamma_dot_{j+1} = alpha_dot_{j+2} +
    beta_dot_{j+1}, so the check reads both equations.
    """
    pair = build_pair(state)
    dbeta, dalpha = rhs_ertl(state)
    Hdot = _hessenberg(np.add(dalpha[1:], dbeta), dalpha[1:state.N])
    resid = np.max(np.abs(Hdot - commutator(pair)))
    scale = max(1.0, float(np.max(np.abs(pair.H))) * float(np.max(np.abs(pair.F))))
    return float(resid) / scale


# ---------------------------------------------------------------------------
# Spectrum of the finite system
# ---------------------------------------------------------------------------

def _q_and_dq(beta, alpha, x):
    """(Q_N(x), Q_N'(x)) at every entry of x by the differentiated recurrence.

    ``beta`` holds beta_1..beta_N and ``alpha`` alpha_2..alpha_N (N >= 1).
    The rows x - beta_{k+1} and alpha_{k+1} x are formed once, as
    (N-1) x N arrays; each entry keeps the arithmetic of the scalar
    recurrence
        Q_{k+1} = (x - beta_{k+1}) Q_k - alpha_{k+1} x Q_{k-1}.
    """
    x_beta = x[None, :] - beta[1:, None]
    alpha_x = alpha[:, None] * x[None, :]
    q_prev, dq_prev = np.ones_like(x), np.zeros_like(x)
    q_cur, dq_cur = x - beta[0], np.ones_like(x)
    for xb, ax, a in zip(x_beta, alpha_x, alpha):
        q_next = xb * q_cur - ax * q_prev
        dq_next = q_cur + xb * dq_cur - a * (q_prev + x * dq_prev)
        q_prev, dq_prev = q_cur, dq_cur
        q_cur, dq_cur = q_next, dq_next
    return q_cur, dq_cur


#: Aberth stopping tolerance on corrections (relative to 1 + |z|)
ABERTH_TOL = 1e-13
ABERTH_MAX_ITER = 200


def _zeros(beta, alpha, z):
    """Refine the start estimates z to the N zeros of Q_N (N >= 1).

    Simultaneous Aberth iteration until every correction is below
    ``ABERTH_TOL`` (1 + |z|); near simple zeros the iteration converges
    cubically, so after that correction the estimates are zeros to rounding.
    ``alpha`` holds alpha_2..alpha_N.  Raises NonConvergence when the
    iteration stalls or an estimate turns non-finite (Q_N overflows).
    """
    N = len(z)
    off = ~np.eye(N, dtype=bool)
    with np.errstate(all="ignore"):  # overflow surfaces as NonConvergence, not warnings
        for _ in range(ABERTH_MAX_ITER):
            qv, dqv = _q_and_dq(beta, alpha, z)
            w = np.where(qv == 0, 0, qv / dqv)
            diff = z[:, None] - z[None, :]
            repel = np.divide(1.0, diff, out=np.zeros_like(diff), where=off & (diff != 0))
            denom = 1.0 - w * repel.sum(axis=1)
            step = np.where(denom == 0, w, w / denom)
            stuck = (dqv == 0) & (qv != 0)  # Q_N' vanishes off a root: nudge it
            step[stuck] = -1e-8 * (1.0 + np.abs(z[stuck]))
            z = z - step
            bad = ~np.isfinite(z)
            if bad.any():  # poisons every other root through the repulsion sum
                i = int(bad.argmax())
                raise NonConvergence(f"Aberth root estimate {i} became non-finite ({z[i]})")
            worst = np.inf if stuck.any() else float(np.max(np.abs(step) / (1.0 + np.abs(z))))
            if worst <= ABERTH_TOL:
                return z
    raise NonConvergence(f"Aberth iteration stalled (last correction {worst:.3e})")


def spectrum(state: LatticeState) -> list:
    """All N zeros of Q_N (= eigenvalues of H) for a finite-closure state.

    ``spectra`` of the one state, so from the cold start; see there.
    """
    return spectra([state])[0]


def spectra(states) -> list:
    """All N zeros of Q_N (= eigenvalues of H) of each finite-closure snapshot.

    Cold start: the estimates start at ``numpy.linalg.eigvals`` of the
    Hessenberg H and are refined together by simultaneous Aberth iteration,
    with Q_N and Q_N' evaluated through the recurrence (numerically stable;
    no companion matrix).  The returned values are zeros of the recurrence;
    eig(H) only supplies the start.  Each later snapshot whose N matches the
    previous snapshot's starts the iteration from the previous zeros, which
    the isospectral flow moves only by integration error, so the refinement
    takes a sweep or two and eig(H) is not formed.  A warm run that raises
    NonConvergence is retried from the cold start, and a snapshot with a
    different N takes the cold start directly; at N = 1 either start ends at
    beta_1 exactly.  Returns one list of zeros per snapshot, sorted by (Re,
    Im).  ValueError on a state that is not finite-closure; NonConvergence
    when a cold run stalls or an estimate turns non-finite (Q_N overflows).
    """
    out = []
    for state in states:
        if state.closure != "finite":
            raise ValueError("spectrum needs a finite-closure state")
        N = state.N
        beta = np.array(state.beta, dtype=complex)
        alpha = np.array(state.alpha, dtype=complex)  # alpha[k-1] = alpha_k
        z = None
        if out and len(out[-1]) == N:
            try:
                z = _zeros(beta, alpha[1:N], np.array(out[-1]))
            except NonConvergence:
                pass
        if z is None:
            try:
                start = np.linalg.eigvals(_hessenberg(alpha[1:] + beta, alpha[1:N]))
            except np.linalg.LinAlgError as exc:
                raise NonConvergence(f"eigenvalues of H as Aberth start: {exc}") from exc
            z = _zeros(beta, alpha[1:N], start)
        out.append(sorted(z.tolist(), key=lambda v: (v.real, v.imag)))
    return out


def hausdorff_distance(a, b) -> float:
    """Hausdorff distance between two finite point sets in the plane."""
    d_ab = max(min(abs(x - y) for y in b) for x in a)
    d_ba = max(min(abs(x - y) for y in a) for x in b)
    return max(d_ab, d_ba)


def isospectral_drift(traj: Trajectory) -> float:
    """Worst spectral movement along a finite-closure trajectory.

    Returns the max over output times of the Hausdorff distance between the
    spectrum at t and the spectrum at the initial snapshot; for an exact Lax
    flow this is zero, so the value measures integrator (plus root-finder)
    error.  The spectra come from ``spectra``: a cold start at the first
    snapshot, then each snapshot warm-started from the one before, with the
    cold start as fallback.  Raises ValueError, as ``spectra`` does, when a
    snapshot is not finite-closure.
    """
    base, *rest = spectra(traj.states)
    return max((hausdorff_distance(lam, base) for lam in rest), default=0.0)
