"""Unit-circle reductions: reflection coefficients, kernel recurrences, flows.

For a positive measure mu on |z| = 1 modified by exp(-t(conj(q) z + q/z)),
the monic orthogonal polynomials Phi_n and reciprocals Phi*_n obey the
coupled recursion

    Phi_{n+1}(z)  = z Phi_n(z) - conj(a_n) Phi*_n(z),
    Phi*_{n+1}(z) = Phi*_n(z) - a_n z Phi_n(z),

with reflection (Verblunsky) coefficients a_n = -conj(Phi_{n+1}(0)),
|a_n| < 1.  Two derived objects are computed here:

* the kernel-polynomial recurrence coefficients at a point |w| = 1
  (beta_n = -rho_n/rho_{n-1}, alpha_{n+1} = (1 + rho_n a_{n-1})
  (1 - conj(w rho_n a_n)) w, rho_n = Phi_n(w)/Phi*_n(w), |rho_n| = 1);

* at w = 1 the real parametrization c_n (rotation) and d_{n+1} = (1-g_n)
  g_{n+1} (positive chain sequence with parameters g_n in (0,1)), linked to
  (beta, alpha) by the invertible map beta_n = -(1-i c_n)/(1+i c_n),
  alpha_n = 4 d_n / ((1+i c_n)(1+i c_{n-1})), c_0 = 1, d_1 = 0 (one array
  route each way).  ``CircleState`` stores g_n and c_n; d_{n+1} follows from g.

The induced flows: the (c, d) system closes over the reals, and the
reflection coefficients themselves satisfy the two-parameter Schur flow

    a_dot_n = (1 - |a_n|^2) (conj(q) a_{n-1} - q a_{n+1}),   n >= 1,

extended to n = 0 by the boundary convention a_{-1} = -1 (derived from the
telescoping beta-sum identity through the coefficient map, and verified
against quadrature-evolved measures in the test suite).

The (c, d) flow is the ertl flow at p = conj(q) carried through that map:
a window with d_{M+1} = 0 is the finite state with alpha_{M+1} = 0, which
``integrate_cd`` steps with ``lattice.integrate``.  The Schur flow has one
shifted-slice kernel on the complex window A = (a_{-1} = -1, a_0..a_{M-1},
a_M = 0), which returns its own output array, the derivative of the
interior; ``integrate_schur`` steps that interior in place and
``rhs_schur`` evaluates it once.  Both flows keep ``lattice.integrate_core``'s breakdown rule: pure kernels,
and |a_n| < 1 or d_n in (0, 1) checked on accepted states only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateKernel, NotPositiveDefinite, PositivityLost, ReciprocalZero
from .lattice import LatticeState, StepControl, integrate, integrate_core, rhs_ertl
from .measures import MomentTable, finite_array, require_count, require_finite


@dataclass(frozen=True)
class VerblunskySeq:
    """Reflection coefficients a_0..a_{N-1} of a positive measure at time t.

    t and the a_n are read by the one rule of ``measures.finite_array``:
    every value a finite number, bool excluded, and t a real one.  Every
    |a_n| must be < 1 (ValueError otherwise).  The a_n are stored as Python
    complex numbers.
    """

    t: float
    a: tuple

    def __post_init__(self):
        require_finite("t", self.t, real=True)
        a = finite_array("the reflection coefficients", self.a)
        object.__setattr__(self, "a", tuple(a.tolist()))
        _check_modulus(a)

    @classmethod
    def _unchecked(cls, t: float, a: tuple):
        """A stepper's snapshot, built without ``__post_init__``'s checks.

        Only ``integrate_schur`` calls it, with a finite t and a tuple of
        Python complex a_n, each finite with |a_n| < 1, as ``integrate_core``
        accepts only finite steps that passed the modulus check.
        """
        seq = object.__new__(cls)
        object.__setattr__(seq, "t", t)
        object.__setattr__(seq, "a", a)
        return seq

    @property
    def N(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class CircleState:
    """Kernel parametrization at w = 1: chain parameters g_n and rotations c_n.

    ``g`` and ``c`` hold indices 1..N; ``d`` (derived) holds
    d_{n+1} = (1 - g_n) g_{n+1} for n = 1..N-1.  The conventions c_0 = 1,
    d_1 = 0 are implied.  t, g and c are read by the one rule of
    ``measures.finite_array``: every value a finite real number, bool
    excluded.  ``g`` and ``c`` must have equal length and every g_n must lie
    in (0, 1) (ValueError otherwise).  g and c are stored as read: Python floats.
    """

    t: float
    g: tuple
    c: tuple

    def __post_init__(self):
        N = len(self.g)
        if N != len(self.c):
            raise ValueError(f"g and c must have equal length, got {N}, {len(self.c)}")
        require_finite("t", self.t, real=True)
        x = finite_array("g and c", (*self.g, *self.c), real=True).tolist()
        object.__setattr__(self, "g", tuple(x[:N]))
        object.__setattr__(self, "c", tuple(x[N:]))
        for n, gv in enumerate(self.g, start=1):
            if not 0.0 < gv < 1.0:
                raise ValueError(f"g_{n} = {gv} outside (0,1)")

    @property
    def N(self) -> int:
        return len(self.g)

    @property
    def d(self) -> tuple:
        g = self.g
        return tuple((1.0 - g[i]) * g[i + 1] for i in range(len(g) - 1))


# ---------------------------------------------------------------------------
# Reflection coefficients from Toeplitz moment data
# ---------------------------------------------------------------------------

def _toeplitz_moments(table: MomentTable, N: int):
    """Recover mu_m = integral z^m dmu from a z-weighted circle table.

    The table holds nu_k = mu_{k+1}; consistency of the recovered data with a
    real positive measure (mu_{-m} = conj(mu_m), mu_0 > 0) is verified on the
    available range.
    """
    if not table.covers(-1, N - 1):
        raise ValueError(f"need nu_k for -1 <= k <= {N - 1} to reach depth {N}")
    mu = {m: table.nu_at(m - 1) for m in range(-(table.K - 1), table.K + 2)
          if (m - 1) in table.nu}
    mu0 = mu[0]
    if abs(mu0.imag) > 1e-10 * max(1.0, abs(mu0.real)) or mu0.real <= 0.0:
        raise ValueError(f"mu_0 = {mu0} is not real positive; not a measure table")
    scale = max(abs(v) for v in mu.values())
    for m in range(1, table.K):
        if m in mu and -m in mu:
            if abs(mu[-m] - mu[m].conjugate()) > 1e-8 * max(scale, 1.0):
                raise ValueError("table is not Toeplitz-consistent "
                                 f"(mu_-{m} != conj(mu_{m}))")
    return mu


def verblunsky_from_moments(table: MomentTable, N: int) -> VerblunskySeq:
    """Reflection coefficients a_0..a_{N-1} by Levinson recursion.

    Runs the coefficient-vector form of the Szego recursion against the
    Toeplitz moments: with Phi_n = sum_i b_i z^i,

        conj(a_n) = (sum_i b_i mu_{i+1}) / ||Phi_n||^2,
        ||Phi_{n+1}||^2 = (1 - |a_n|^2) ||Phi_n||^2,

    and the next coefficient vector is shift(b) - conj(a_n) * rev(conj(b)).
    Raises NotPositiveDefinite(n) as soon as an implied |a_n| >= 1, and
    ValueError unless N is an integer >= 1.
    """
    require_count("depth N", N)
    mu = _toeplitz_moments(table, N)
    b = [1.0 + 0j]
    norm2 = mu[0].real
    out = []
    for n in range(N):
        inner = sum(bi * mu[i + 1] for i, bi in enumerate(b))
        ca = inner / norm2
        if abs(ca) >= 1.0:
            raise NotPositiveDefinite(n, abs(ca))
        a_n = ca.conjugate()
        out.append(a_n)
        rev = [x.conjugate() for x in reversed(b)]
        b = [0j] + b
        b = [bi - ca * ri for bi, ri in zip(b, rev + [0j])]
        b[-1] = 1.0 + 0j  # monic by construction; pin against rounding
        norm2 *= 1.0 - abs(a_n) ** 2
    return VerblunskySeq(t=table.t, a=tuple(out))


# ---------------------------------------------------------------------------
# Coefficient maps
# ---------------------------------------------------------------------------

def szego_values(v: VerblunskySeq, w: complex):
    """Ratios rho_n = Phi_n(w)/Phi*_n(w) for n = 0..N, normalized to |rho_n| = 1.

    ValueError unless w is a finite number with |w| = 1.  The coupled
    recursion is rescaled by |Phi*| each level (a common real factor,
    invisible to the ratio).  The unnormalized ratios may drift from the unit
    circle only by rounding; a drift beyond 1e-10 raises ValueError.
    """
    require_finite("kernel point w", w)
    if not abs(abs(w) - 1.0) <= 1e-12:
        raise ValueError("kernel point must satisfy |w| = 1")
    w = complex(w)
    phi, phis = 1.0 + 0j, 1.0 + 0j
    raw = [phi / phis]
    for n, a_n in enumerate(v.a):
        phi, phis = w * phi - a_n.conjugate() * phis, phis - a_n * w * phi
        mag = abs(phis)
        if mag == 0.0:
            raise ReciprocalZero(n + 1)
        phi /= mag
        phis /= mag
        raw.append(phi / phis)
    normalized = []
    for n, r in enumerate(raw):
        m = abs(r)
        if abs(m - 1.0) > 1e-10:
            raise ValueError(f"|rho_{n}| = {m} drifted from the unit circle")
        normalized.append(r / m)
    return normalized


def kernel_coeffs(v: VerblunskySeq, w: complex):
    """Kernel-polynomial recurrence coefficients at the point w, |w| = 1.

    Returns (beta_1..beta_N, alpha_2..alpha_N, rho_0..rho_N) with
    beta_n = -rho_n/rho_{n-1} and
    alpha_{n+1} = (1 + rho_n a_{n-1}) (1 - conj(w rho_n a_n)) w.
    ValueError unless w is a finite number with |w| = 1 (``szego_values``).
    """
    rho = szego_values(v, w)
    w = complex(w)
    beta = [-rho[n] / rho[n - 1] for n in range(1, v.N + 1)]
    alpha = [(1.0 + rho[n] * v.a[n - 1]) * (1.0 - (w * rho[n] * v.a[n]).conjugate()) * w
             for n in range(1, v.N)]
    return beta, alpha, rho


def cd_from_verblunsky(v: VerblunskySeq, t: float | None = None) -> CircleState:
    """Real kernel parametrization (g_n, c_n, d_{n+1}) at w = 1.

        g_n = |1 - rho_{n-1} a_{n-1}|^2 / (2 (1 - Re(rho_{n-1} a_{n-1}))),
        c_n = Im(rho_{n-1} a_{n-1}) / (Re(rho_{n-1} a_{n-1}) - 1),
        d_{n+1} = (1 - g_n) g_{n+1}.
    """
    rho = szego_values(v, 1.0 + 0j)
    g, c = [], []
    for n in range(1, v.N + 1):
        r = rho[n - 1] * v.a[n - 1]
        den = 1.0 - r.real
        if abs(den) < 1e-14:
            raise DegenerateKernel(n)
        g.append(0.5 * abs(1.0 - r) ** 2 / den)
        c.append(r.imag / (r.real - 1.0))
    return CircleState(t=v.t if t is None else t, g=tuple(g), c=tuple(c))


def _cd_to_ertl(c, d):
    """``map_beta_alpha_cd`` on arrays: (beta, alpha, z_0..z_M with z_n = 1 + i c_n, d).

    Reads c and d once, by ``measures.finite_array``; Im z is c_0 = 1, c_1..c_M
    exactly (-0.0 reads +0.0) and d is d_1..d_M as read.
    """
    if len(c) != len(d):
        raise ValueError("c and d must have equal length (d starts at d_1 = 0)")
    x = finite_array("c and d", (1.0, *c, *d), real=True)
    z, d = 1.0 + 1j * x[:len(c) + 1], x[len(c) + 1:]
    if len(d) and d[0] != 0.0:
        raise ValueError("d_1 must be 0")
    return -z[1:].conj() / z[1:], 4.0 * d / (z[1:] * z[:-1]), z, d


def _ertl_to_cd(beta, alpha, d_only=False):
    """Complex [c; d] of (beta_1..M, alpha_1..M), along the first axis, or d alone (four ufuncs).

    With w_n = 1 / (1 - beta_n) and 1 - beta_0 = 1 - i (c_0 = 1):
    c_n = -i (1 + beta_n) / (1 - beta_n) = i (1 - 2 w_n) and d_n = alpha_n w_n w_{n-1}.
    """
    w = np.empty((len(beta) + 1, *beta.shape[1:]), dtype=complex)  # 1 - beta_0..M, then w
    w[0] = 1.0 - 1j
    np.subtract(1.0, beta, out=w[1:])
    np.divide(1.0, w, out=w)
    d = alpha * w[1:] * w[:-1]
    return d if d_only else np.stack((1j - 2j * w[1:], d))


def map_beta_alpha_cd(c, d):
    """(c_1..c_N, d_1..d_N with d_1 = 0) -> (beta_1..beta_N, alpha_1..alpha_N).

    beta_n = -(1 - i c_n)/(1 + i c_n) and
    alpha_n = 4 d_n / ((1 + i c_n)(1 + i c_{n-1})) with c_0 = 1; the
    denominators never vanish for real c.  (The alpha denominator follows
    from dividing the self-inversive recurrence by the running product of
    (1 + i c_k); a conjugated second factor would make alpha disagree with
    the kernel recurrence whenever c != 0.)  ValueError unless c and d have
    equal length, d_1 = 0 and every entry is a finite real number.
    Inverse: ``map_cd_beta_alpha``.
    """
    beta, alpha, _, _ = _cd_to_ertl(c, d)
    return beta.tolist(), alpha.tolist()


def map_cd_beta_alpha(beta, alpha):
    """Inverse of ``map_beta_alpha_cd``: unimodular beta, alpha -> real (c, d).

    ValueError unless beta and alpha have equal length, every entry is a
    finite number and no beta_n is 1 (c_n would be infinite), and when a
    recovered c_n or d_n is not real to 1e-10; the first site n at fault is named.
    """
    if len(beta) != len(alpha):
        raise ValueError("beta and alpha must have equal length (alpha starts at alpha_1)")
    x = finite_array("beta and alpha", (*beta, *alpha)).reshape(2, -1)  # rows beta, alpha
    with np.errstate(all="ignore"):  # beta_n = 1 is rejected below
        cd = _ertl_to_cd(*x)
        faults = np.vstack((x[0] == 1.0, np.abs(cd.imag) > 1e-10 * (1.0 + np.abs(cd.real))))
    if faults.any():
        n, k = np.argwhere(faults.T)[0]  # the first site at fault, and its first fault
        raise ValueError((f"beta_{n + 1} = 1 maps to no finite c_{n + 1}",
                          f"recovered c = {cd[0, n].item()} is not real; beta off the unit circle?",
                          f"recovered d = {cd[1, n].item()} is not real")[k])
    return tuple(cd.real.tolist())


# ---------------------------------------------------------------------------
# Flows
# ---------------------------------------------------------------------------

def rhs_cd(state: CircleState, q):
    """Time derivatives (dc_1..N, dd_2..N) of the real kernel parametrization.

    The transport of ``rhs_ertl`` at p = conj(q) through ``map_beta_alpha_cd``,
    written without division so that d_n = 0 is allowed: with z_n = 1 + i c_n,
    c_0 = 1 and dc_0 = 0,

        dc_n = Re(-i z_n^2 dbeta_n / 2),
        dd_n = Re(z_n z_{n-1} dalpha_n + i alpha_n (z_{n-1} dc_n + z_n dc_{n-1})) / 4.

    ValueError unless q is a finite number.
    """
    require_finite("q", q)
    if not state.c:
        return [], []
    q = complex(q)
    beta, alpha, z, _ = _cd_to_ertl(state.c, (0.0, *state.d))
    dbeta, dalpha = rhs_ertl(LatticeState(q.conjugate(), q, 0.0, beta.tolist(),
                                          [*alpha.tolist(), 0j]))
    dc = (-0.5j * z[1:] * z[1:] * np.array(dbeta)).real
    dd = (z[2:] * z[1:-1] * np.array(dalpha[1:-1])
          + 1j * alpha[1:] * (z[1:-1] * dc[1:] + z[2:] * dc[:-1])).real / 4.0
    return dc.tolist(), dd.tolist()


def _first_outside_disk(a):
    """The first n with |a_n| >= 1, else None; NaN entries are skipped, as by the comparison."""
    mods = np.abs(a)
    return int(np.argmax(mods >= 1.0)) if np.fmax.reduce(mods, initial=0.0) >= 1.0 else None


def _check_modulus(a):
    """ValueError at the first n with |a_n| >= 1."""
    n = _first_outside_disk(a)
    if n is not None:
        raise ValueError(f"|a_{n}| = {abs(a[n])} >= 1: degenerate measure rejected")


def _schur_kernel(A, q):
    """Bind the Schur flow to A = (a_{-1} = -1, a_0..a_{M-1}, a_M = 0); returns evaluate().

    Each call of evaluate() reads the current A and returns the kernel's own
    output array, the rows n = 0..M-1 of (1 - |a_n|^2)(conj(q) a_{n-1} - q
    a_{n+1}), the derivative of A[1:-1].  It does not check |a_n| < 1.  The
    second factor is one product of (conj(q), -q) with the rows a_{n-1} and
    a_{n+1} of A's sliding windows, and 1 - |a_n|^2 is formed in place: five
    numpy calls per evaluation.
    """
    M = len(A) - 2
    coef = np.array((q.conjugate(), -q))
    sides = np.lib.stride_tricks.sliding_window_view(A, M)[::2]  # a_{n-1}; a_{n+1}
    a = A[1:-1]
    out = np.empty(M, dtype=complex)
    mod = np.empty(M)  # |a_n|, then 1 - |a_n|^2

    def evaluate(t=None):
        np.dot(coef, sides, out=out)
        np.abs(a, out=mod)
        np.square(mod, out=mod)
        np.subtract(1.0, mod, out=mod)
        np.multiply(out, mod, out=out)
        return out
    return evaluate


def rhs_schur(v: VerblunskySeq, q):
    """Two-parameter Schur flow a_dot_n = (1-|a_n|^2)(conj(q) a_{n-1} - q a_{n+1}).

    Returns a_dot_0..a_dot_{N-2}, the rows of ``integrate_schur``'s window
    but the last; the n = 0 row uses the boundary convention a_{-1} = -1, so
    a_dot_0 = (1-|a_0|^2)(-conj(q) - q a_1).  ValueError unless q is finite.
    """
    require_finite("q", q)
    A = np.array((-1.0, *v.a, 0.0), dtype=complex)
    _check_modulus(A[1:-2])
    return _schur_kernel(A, complex(q))()[:-1].tolist()


def integrate_schur(v: VerblunskySeq, q, t_end: float,
                    ctrl: StepControl | None = None, t_out=None,
                    n_report: int | None = None):
    """Integrate the Schur flow on a finite window with frozen zero top.

    The window evolves a_0..a_{M-1} with the missing neighbour a_M held at 0;
    only the first ``n_report`` coefficients are trustworthy (truncation
    effects creep in from the top), and ValueError is raised for an empty
    window (M = 0) and unless n_report is an integer in 1..M and q is
    finite.  |a_n| < 1 is checked on accepted steps only (PositivityLost
    with n, modulus and t), by the breakdown rule of ``integrate_core``,
    whose output grid this follows as well.
    Returns (times, list of VerblunskySeq, stats), both starting at v.t.
    """
    if not v.N:
        raise ValueError("the Schur window is empty: integrate_schur needs a_0 at least")
    n_report = v.N if n_report is None else n_report
    require_count("n_report", n_report, 1, v.N)
    require_finite("q", q)
    q = complex(q)
    A = np.array((-1.0,) + v.a + (0j,))  # a_0..a_{M-1} are stepped; a_M = 0 stays
    evaluate = _schur_kernel(A, q)

    def validate(t, y):
        n = _first_outside_disk(y)
        if n is not None:
            mod = float(abs(y[n]))
            raise PositivityLost(f"|a_{n}| = {mod} reached 1 at t={t}", n=n, modulus=mod, t=t)

    times, snaps, stats = integrate_core(A[1:-1], evaluate, v.t, t_end, t_out, ctrl, validate)
    seqs = [VerblunskySeq._unchecked(tt, tuple(y[:n_report].tolist()))
            for tt, y in zip(times, snaps)]
    return times, seqs, stats


def _first_outside_unit(dd):
    """The first n with d_n outside (0, 1) (or NaN), given dd = d_2..d_M; else None."""
    bad = ~((dd > 0.0) & (dd < 1.0))
    return int(np.argmax(bad)) + 2 if bad.any() else None


def integrate_cd(c, d, q, t0: float, t_end: float,
                 ctrl: StepControl | None = None, t_out=None):
    """Integrate the real (c, d) flow on a finite window (d_{M+1} = 0).

    ``d`` lists d_1..d_M with d_1 = 0 (kept pinned).  ``integrate`` steps
    the window's image under ``map_beta_alpha_cd``, the finite ertl state at
    p = conj(q), and each later snapshot is mapped back with the imaginary
    parts dropped.  So ``ctrl`` bounds the local error of the mapped (beta,
    alpha), and c_n is held to about rel_tol (1 + c_n^2) / 2 absolute, not
    rel_tol |c_n|.  No chain sequence lives where some d_n, n >= 2, is
    outside (0, 1): ValueError is raised when the initial chain has one
    there (or is empty, or q is not a finite number, a c_n, d_n, t0 or
    t_end not a finite real one, or t_end <= t0), and
    PositivityLost when an accepted step's d_n, mapped back, is there.
    The output grid follows ``integrate_core``; the t0 snapshot is the
    caller's c and d.  Returns (times, c_snapshots, d_snapshots, stats);
    ``stats`` is ``integrate_core``'s plus ``imag_residue``, the drift off
    the real (c, d) manifold: the largest |Im x| / (1 + |Re x|) the map back
    dropped from a c_n or d_n.  It never raises.
    """
    require_finite("q", q)
    M = len(c)
    if not M:
        raise ValueError("the (c, d) window is empty: integrate_cd needs c_1 and d_1 at least")
    beta, alpha, z, d0 = _cd_to_ertl(c, d)  # checks the lengths, d_1 and finite real entries
    n = _first_outside_unit(d0[1:])
    if n:
        raise ValueError(f"initial d_{n} = {d[n - 1]} is outside (0, 1)")
    q = complex(q)

    def validate(t, beta, alpha):
        dd = _ertl_to_cd(beta, alpha, d_only=True)[1:].real
        n = _first_outside_unit(dd)
        if n:
            raise PositivityLost(f"d_{n} = {dd[n - 2]} left (0, 1) at t={t}", n=n, t=t)

    traj = integrate(LatticeState(q.conjugate(), q, t0, beta.tolist(), [*alpha.tolist(), 0j]),
                     t_end, ctrl=ctrl, t_out=t_out, _validate=validate)
    y = np.array([(*s.beta, *s.alpha[:-1]) for s in traj.states[1:]]).T
    cd = _ertl_to_cd(y[:M], y[M:])  # one column per snapshot
    share = (np.abs(cd.imag) / (1.0 + np.abs(cd.real))).max(initial=0.0)
    cz, dz = (cd.real + 0.0).transpose(0, 2, 1).tolist()  # + 0.0: a c that stays 0 is not -0
    return (list(traj.times), [z.imag[1:].tolist()] + cz, [d0.tolist()] + dz,
            dict(traj.step_stats, imag_residue=float(share)))
