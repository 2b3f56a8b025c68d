"""Unit-circle reductions: reflection coefficients, kernel recurrences, flows.

For a positive measure mu on |z| = 1 modified by exp(-t(conj(q) z + q/z)),
the monic orthogonal polynomials Phi_n and reciprocals Phi*_n obey the
coupled recursion

    Phi_{n+1}(z)  = z Phi_n(z) - conj(a_n) Phi*_n(z),
    Phi*_{n+1}(z) = Phi*_n(z) - a_n z Phi_n(z),

with reflection (Verblunsky) coefficients a_n = -conj(Phi_{n+1}(0)),
|a_n| < 1.  Three derived objects are computed here:

* the recurrence coefficients of the z-weighted functional
  (beta_1 = conj(a_0), beta_{n+1} = -conj(a_n)/conj(a_{n-1}),
  alpha_{n+1} = conj(a_n)/conj(a_{n-1}) (1 - |a_{n-1}|^2)), defined whenever
  no a_n vanishes;

* the kernel-polynomial recurrence coefficients at a point |w| = 1
  (beta_n = -rho_n/rho_{n-1}, alpha_{n+1} = (1 + rho_n a_{n-1})
  (1 - conj(w rho_n a_n)) w, rho_n = Phi_n(w)/Phi*_n(w), |rho_n| = 1);

* at w = 1 the real parametrization c_n (rotation) and d_{n+1} = (1-g_n)
  g_{n+1} (positive chain sequence with parameters g_n in (0,1)), linked to
  (beta, alpha) by the invertible map beta_n = -(1-i c_n)/(1+i c_n),
  alpha_n = 4 d_n / ((1+i c_n)(1-i c_{n-1})), c_0 = 1, d_1 = 0.

The induced flows: the (c, d) system closes over the reals, and the
reflection coefficients themselves satisfy the two-parameter Schur flow

    a_dot_n = (1 - |a_n|^2) (conj(q) a_{n-1} - q a_{n+1}),   n >= 1,

extended to n = 0 by the boundary convention a_{-1} = -1 (derived from the
telescoping beta-sum identity through the coefficient map, and verified
against quadrature-evolved measures in the test suite).

Both flows' right-hand sides are shifted-slice kernels on padded arrays:
float64 C = (c_0 = 1, c_1..c_M, 0) and D = (d_0 = 0, d_1..d_M, d_{M+1} = 0)
for the (c, d) system, and complex A = (a_{-1} = -1, a_0, ..., top
neighbour) for the Schur flow.  The public ``rhs_cd``/``rhs_schur`` pad their
input and return lists; the integrators refill the padded arrays in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateKernel, NotPositiveDefinite, PositivityLost,
                     ReciprocalZero, ZeroVerblunsky)
from .lattice import StepControl, integrate_core
from .lorth import RecurrenceCoeffs
from .measures import MomentTable


@dataclass(frozen=True)
class VerblunskySeq:
    """Reflection coefficients a_0..a_{N-1} of a positive measure at time t."""

    t: float
    a: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(complex(x) for x in self.a))
        _check_modulus(np.array(self.a, dtype=complex))

    @property
    def N(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class CircleState:
    """Kernel parametrization at w = 1: rho ladder, chain parameters, (c, d).

    ``rho[n]`` is rho_n for n = 0..N, ``g``/``c`` hold indices 1..N and ``d``
    holds d_2..d_N; the conventions c_0 = 1, d_1 = 0 are implied.
    """

    t: float
    w: complex
    rho: tuple
    g: tuple
    c: tuple
    d: tuple

    def __post_init__(self):
        for n, r in enumerate(self.rho):
            if abs(abs(r) - 1.0) > 1e-10:
                raise ValueError(f"|rho_{n}| = {abs(r)} deviates from 1")
        for n, gv in enumerate(self.g, start=1):
            if not 0.0 < gv < 1.0:
                raise ValueError(f"g_{n} = {gv} outside (0,1)")
        for i, dv in enumerate(self.d):
            expect = (1.0 - self.g[i]) * self.g[i + 1]
            if abs(dv - expect) > 1e-12 * max(1.0, abs(dv)):
                raise ValueError(f"d_{i + 2} breaks the chain-sequence factorization")

    @property
    def N(self) -> int:
        return len(self.g)


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
    Raises NotPositiveDefinite(n) as soon as an implied |a_n| >= 1.
    """
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

def opuc_recurrence_coeffs(v: VerblunskySeq, q=None) -> RecurrenceCoeffs:
    """Recurrence coefficients of the z-weighted functional from reflections.

    Defined only when every a_n is nonzero (otherwise the three-term form of
    the orthogonality breaks down); raises ZeroVerblunsky(n) on the first
    vanishing coefficient.
    """
    for n, x in enumerate(v.a):
        if x == 0:
            raise ZeroVerblunsky(n)
    ac = [x.conjugate() for x in v.a]
    beta = [ac[0]]
    alpha = []
    for n in range(1, v.N):
        ratio = ac[n] / ac[n - 1]
        beta.append(-ratio)
        alpha.append(ratio * (1.0 - abs(v.a[n - 1]) ** 2))
    qq = 0j if q is None else complex(q)
    return RecurrenceCoeffs(t=v.t, p=qq.conjugate(), q=qq, beta=beta, alpha=alpha)


def szego_values(v: VerblunskySeq, w: complex):
    """Ratios rho_n = Phi_n(w)/Phi*_n(w) for n = 0..N, normalized to |rho_n| = 1.

    The coupled recursion is rescaled by |Phi*| each level (a common real
    factor, invisible to the ratio).  The unnormalized ratios may drift from
    the unit circle only by rounding; a drift beyond 1e-10 raises ValueError.
    """
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
    """
    if abs(abs(w) - 1.0) > 1e-12:
        raise ValueError("kernel point must satisfy |w| = 1")
    rho = szego_values(v, complex(w))
    beta = [-rho[n] / rho[n - 1] for n in range(1, v.N + 1)]
    alpha = [(1.0 + rho[n] * v.a[n - 1])
             * (1.0 - (complex(w) * rho[n] * v.a[n]).conjugate()) * complex(w)
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
    d = [(1.0 - g[i]) * g[i + 1] for i in range(v.N - 1)]
    return CircleState(t=v.t if t is None else t, w=1.0 + 0j, rho=tuple(rho),
                       g=tuple(g), c=tuple(c), d=tuple(d))


def map_beta_alpha_cd(c, d):
    """(c_1..c_N, d_1..d_N with d_1 = 0) -> (beta_1..beta_N, alpha_1..alpha_N).

    beta_n = -(1 - i c_n)/(1 + i c_n) and
    alpha_n = 4 d_n / ((1 + i c_n)(1 + i c_{n-1})) with c_0 = 1; the
    denominators never vanish for real c.  (The alpha denominator follows
    from dividing the self-inversive recurrence by the running product of
    (1 + i c_k); a conjugated second factor would make alpha disagree with
    the kernel recurrence whenever c != 0.)  Inverse: ``map_cd_beta_alpha``.
    """
    c = [float(x) for x in c]
    d = [float(x) for x in d]
    if len(c) != len(d):
        raise ValueError("c and d must have equal length (d starts at d_1 = 0)")
    if d and d[0] != 0.0:
        raise ValueError("d_1 must be 0")
    beta, alpha = [], []
    c_prev = 1.0  # c_0
    for cn, dn in zip(c, d):
        beta.append(-(1.0 - 1j * cn) / (1.0 + 1j * cn))
        alpha.append(4.0 * dn / ((1.0 + 1j * cn) * (1.0 + 1j * c_prev)))
        c_prev = cn
    return beta, alpha


def map_cd_beta_alpha(beta, alpha):
    """Inverse of ``map_beta_alpha_cd``: unimodular beta, alpha -> real (c, d)."""
    c, d = [], []
    c_prev = 1.0
    for bn, an in zip(beta, alpha):
        cn = -1j * (1.0 + bn) / (1.0 - bn)
        if abs(cn.imag) > 1e-10 * (1.0 + abs(cn.real)):
            raise ValueError(f"recovered c = {cn} is not real; beta off the unit circle?")
        cn = cn.real
        dn = an * (1.0 + 1j * cn) * (1.0 + 1j * c_prev) / 4.0
        if abs(dn.imag) > 1e-10 * (1.0 + abs(dn.real)):
            raise ValueError(f"recovered d = {dn} is not real")
        c.append(cn)
        d.append(dn.real)
        c_prev = cn
    return c, d


# ---------------------------------------------------------------------------
# Flows
# ---------------------------------------------------------------------------

def _cd_kernel(C, D, q):
    """(dc_1..M, dd_2..M) on the padded C = (1, c_1..c_M, 0), D = (0, d_1..d_M, 0).

    d_{M+1} = 0 closes the window (the chain analogue of a vanishing top
    alpha).  With d_1 = 0 the n = 1 row of dc is the boundary form of the
    c-equation.  Each 1 + c_n^2 is formed once.
    """
    qr, qi = q.real, q.imag
    sq = C * C
    den = 1.0 + sq
    c, cm, cp, d, dp = C[1:-1], C[:-2], C[2:], D[1:-1], D[2:]  # rows n = 1..M
    dc = (4.0 * qr * (d * (c + cm) / den[:-2] - dp * (c + cp) / den[2:])
          + 4.0 * qi * (d * (1.0 - c * cm) / den[:-2] - dp * (1.0 - c * cp) / den[2:]))
    c, cm, cmm, cp = C[2:-1], C[1:-2], C[:-3], C[3:]  # rows n = 2..M
    d, dm, dp = D[2:-1], D[1:-2], D[3:]
    den_nm = den[2:-1] * den[1:-2]
    dd = (4.0 * qr * (d * dm / den[:-3] - d * dp / den[3:]
                      + d * (1.0 - d) * (sq[1:-2] - sq[2:-1]) / den_nm)
          - 4.0 * qi * (d * dm * cmm / den[:-3] - d * dp * cp / den[3:]
                        + d * (1.0 - d) * (c - cm) * (1.0 - c * cm) / den_nm))
    return dc, dd


def _cd_padded(c, d):
    return np.array([1.0, *c, 0.0]), np.array([0.0, *d, 0.0])


def rhs_cd(state: CircleState, q):
    """Time derivatives (dc_1..N, dd_2..N) of the real kernel parametrization."""
    C, D = _cd_padded(state.c, (0.0,) + state.d)
    dc, dd = _cd_kernel(C, D, complex(q))
    return dc.tolist(), dd.tolist()


def _check_modulus(a):
    """ValueError at the first n with |a_n| >= 1; returns |a_n|."""
    mods = np.abs(a)
    bad = mods >= 1.0
    if bad.any():
        n = int(bad.argmax())
        raise ValueError(f"|a_{n}| = {float(mods[n])} >= 1: degenerate measure rejected")
    return mods


def _flow_modulus(y, t):
    """|a_n| inside the Schur flow; PositivityLost (n, modulus, t) at the first |a_n| >= 1."""
    mods = np.abs(y)
    bad = mods >= 1.0
    if bad.any():
        n = int(bad.argmax())
        mod = float(mods[n])
        raise PositivityLost(f"|a_{n}| = {mod} reached 1 at t={t}", n=n, modulus=mod, t=t)
    return mods


def _schur_kernel(A, q, mods):
    """Rows n = 0..len(A)-3 of (1 - |a_n|^2)(conj(q) a_{n-1} - q a_{n+1}).

    A = (a_{-1} = -1, a_0, ..., top neighbour); ``mods`` holds the rows'
    |a_n|, already checked below 1 by the caller.
    """
    return (1.0 - mods ** 2) * (q.conjugate() * A[:-2] - q * A[2:])


def rhs_schur(v: VerblunskySeq, q, a_top=None):
    """Two-parameter Schur flow a_dot_n = (1-|a_n|^2)(conj(q) a_{n-1} - q a_{n+1}).

    Returns a_dot_0..a_dot_{N-2}; the n = 0 row uses the boundary convention
    a_{-1} = -1, so a_dot_0 = (1-|a_0|^2)(-conj(q) - q a_1).  Passing
    ``a_top`` (a frozen a_N) extends the output by the n = N-1 row.
    """
    A = np.array((-1.0,) + v.a + (() if a_top is None else (a_top,)), dtype=complex)
    return _schur_kernel(A, complex(q), _check_modulus(A[1:-1])).tolist()


def integrate_schur(v: VerblunskySeq, q, t_end: float,
                    ctrl: StepControl | None = None, t_out=None,
                    n_report: int | None = None):
    """Integrate the Schur flow on a finite window with frozen zero top.

    The window evolves a_0..a_{M-1} with the missing neighbour a_M held at 0;
    only the first ``n_report`` coefficients are trustworthy (truncation
    effects creep in from the top).  The modulus bound |a_n| < 1 is asserted
    at every stage and every accepted step (PositivityLost with n, modulus
    and t); the output grid follows ``integrate_core``.
    Returns (times, list of VerblunskySeq, stats), both starting at v.t.
    """
    ctrl = ctrl or StepControl()
    q = complex(q)
    A = np.array((-1.0,) + v.a + (0j,))  # f refills a_0..a_{M-1}; a_M = 0 stays

    def f(t, y):
        A[1:-1] = y
        return _schur_kernel(A, q, _flow_modulus(y, t))

    def validate(t, y):
        _flow_modulus(y, t)

    times, snaps, stats = integrate_core(f, v.t, np.array(v.a, dtype=complex), t_end,
                                         t_out, ctrl, validate)
    n_report = v.N if n_report is None else n_report
    seqs = [VerblunskySeq(t=tt, a=tuple(y[:n_report])) for tt, y in zip(times, snaps)]
    return [v.t] + times, [VerblunskySeq(t=v.t, a=v.a[:n_report])] + seqs, stats


def integrate_cd(c, d, q, t0: float, t_end: float,
                 ctrl: StepControl | None = None, t_out=None):
    """Integrate the real (c, d) flow on a finite window (d_{M+1} = 0).

    ``d`` lists d_1..d_M with d_1 = 0 (kept pinned).  PositivityLost is
    raised when an accepted step takes some d_n, n >= 2, out of (0, 1),
    where no chain sequence lives; the output grid follows ``integrate_core``.
    Returns (times, c_snapshots, d_snapshots, stats); snapshots include t0.
    """
    ctrl = ctrl or StepControl()
    q = complex(q)
    M = len(c)
    if len(d) != M or (M and d[0] != 0.0):
        raise ValueError("d must list d_1..d_M with d_1 = 0")
    y0 = np.array(list(c) + list(d[1:]), dtype=complex)
    C, D = _cd_padded(c, d)  # f refills c_1..c_M and d_2..d_M in place

    def f(t, y):
        C[1:-1] = y[:M].real
        D[2:-1] = y[M:].real
        return np.concatenate(_cd_kernel(C, D, q))

    def validate(t, y):
        dd = y[M:].real
        bad = ~((dd > 0.0) & (dd < 1.0))
        if np.any(bad):
            n = int(np.argmax(bad))
            raise PositivityLost(f"d_{n + 2} = {dd[n]} left (0, 1) at t={t}", n=n + 2, t=t)

    times, snaps, stats = integrate_core(f, t0, y0, t_end, t_out, ctrl, validate)
    c_snaps = [[float(x) for x in c]] + [y[:M].real.tolist() for y in snaps]
    d_snaps = [[float(x) for x in d]] + [[0.0] + y[M:].real.tolist() for y in snaps]
    return [t0] + times, c_snaps, d_snaps, stats
