"""L-orthogonal polynomials and their recurrence coefficients.

For a regular functional L the monic polynomials Q_n defined by
L[x^(-n+s) Q_n] = 0, s = 0..n-1, satisfy

    Q_{n+1}(x) = (x - beta_{n+1}) Q_n(x) - alpha_{n+1} x Q_{n-1}(x),

with Q_0 = 1, Q_1 = x - beta_1.  Writing sigma_{n,n} = L[Q_n] and
sigma_{n,-1} = L[x^(-n-1) Q_n], the coefficients obey

    beta_1      = sigma_{0,0} / sigma_{0,-1},
    alpha_{n+1} = sigma_{n,n} / sigma_{n-1,n-1},
    beta_{n+1}  = -alpha_{n+1} * sigma_{n-1,-1} / sigma_{n,-1}.

Two routes evaluate the sigmas.

* Discretized Stieltjes (Gautschi, *Orthogonal Polynomials: Computation and
  Approximation*, 2004, sec. 2.2) serves every table summed from a weighted
  node set on the positive axis (real-line and discrete kinds).  By
  L-orthogonality sigma_{n,n} = L[x^(-n) Q_n^2] and
  Q_n(0) sigma_{n,-1} = L[x^(-n-1) Q_n^2], so with r_n = Q_n / x^(n/2), which
  obeys r_{n+1} = (sqrt(x) - beta_{n+1}/sqrt(x)) r_n - alpha_{n+1} r_{n-1},
  each level takes two node sums

      D_n = sum_j w_j r_n(x_j)^2 = sigma_{n,n},   S_n = sum_j w_j r_n(x_j)^2 / x_j,

  and alpha_{n+1} = D_n / D_{n-1}, beta_{n+1} = alpha_{n+1} beta_n S_{n-1} / S_n.
  For a positive measure both are sums of positive terms, so the route loses
  nothing to cancellation and needs no depth cap.
* The moment bootstrap is the Chebyshev algorithm (Gautschi 2004, sec. 2.1)
  on the mixed moments m_{n,k} = L[x^k Q_n]: the three-term recurrence
  carries them level by level from m_{0,k} = nu_k, and level n reads
  sigma_{n,n} = m_{n,0}, sigma_{n,-1} = m_{n,-n-1} and tau_n = m_{n,1}.  It
  never forms the coefficients of Q_n.  It serves tables that carry moments
  only (explicit and circle tables) and exact ``fractions.Fraction`` tables,
  the conditioning oracle.  In double precision the map from moments to
  coefficients loses about 8 digits by depth 12, hence its depth cap
  MAX_DEPTH.

Conventions: beta_0 = 1, alpha_0 = -1, alpha_1 = 0 (written out by
``ertl from-measure --dump-poly``).
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import IndexOutOfTable, NonConvergentIntegral, RegularityBreakdown
from .measures import (QUAD_SETTLE_REL, MomentTable, finite_array, require_count, require_finite,
                       require_number)

#: relative threshold below which a sigma counts as a regularity failure
SIGMA_ZERO_REL = 1e-12
#: depth cap of the moment bootstrap in double precision
MAX_DEPTH = 24


@dataclass(frozen=True)
class RecurrenceCoeffs:
    """Recurrence coefficients beta_1..beta_N, alpha_2..alpha_N at one time.

    ``beta[i]`` holds beta_{i+1} and ``alpha[i]`` holds alpha_{i+2}; the
    boundary conventions are beta_0 = 1, alpha_0 = -1, alpha_1 = 0.  Fields are read
    by ``measures.require_finite``'s rule (entries may be NaN or inf) and kept as given.
    """

    t: float
    p: complex
    q: complex
    beta: tuple
    alpha: tuple

    def __post_init__(self):
        require_finite("t", self.t, real=True)
        require_finite("p", self.p)
        require_finite("q", self.q)
        for v in {type(v): v for v in (*self.beta, *self.alpha)}.values():  # one per type
            require_number("beta and alpha entries", v)
        object.__setattr__(self, "beta", tuple(self.beta))
        object.__setattr__(self, "alpha", tuple(self.alpha))
        if len(self.alpha) not in (0, len(self.beta) - 1):
            raise ValueError("need alpha_2..alpha_N alongside beta_1..beta_N")

    @property
    def N(self) -> int:
        return len(self.beta)


@dataclass(frozen=True)
class LPolySequence:
    """Coefficients to depth N with the sigma and tau ladders.

    ``beta`` and ``alpha`` are indexed as in RecurrenceCoeffs;
    sigma_diag[n] = L[Q_n] and sigma_minus[n] = L[x^(-n-1) Q_n] for n <= N,
    and tau[n] = L[x Q_n] for n <= N-1.  On the Stieltjes route margin[n],
    n <= N-1, is the smaller of |D_n| and |S_n| over their rounding scales
    (see ``stieltjes``): how far level n stayed from a regularity breakdown,
    which is margin <= SIGMA_ZERO_REL.  The moment bootstrap leaves it empty.
    """

    beta: tuple
    alpha: tuple
    sigma_diag: tuple
    sigma_minus: tuple
    tau: tuple
    margin: tuple = ()

    @property
    def N(self) -> int:
        return len(self.beta)

    @functools.cached_property
    def rows(self) -> tuple:
        """Monic coefficient triangle: rows[n][j] is the coefficient of x^j in Q_n.

        Built from (beta, alpha) on first use.  It is ill-conditioned past
        depth ~20, so no route to a coefficient reads it.
        """
        return tuple(tuple(r) for r in triangle_from_coeffs(self.beta, self.alpha))


def _sigma_threshold(log_scales) -> float:
    if not log_scales:
        return 0.0
    mean = sum(log_scales) / len(log_scales)
    return SIGMA_ZERO_REL * math.exp(mean)


def bootstrap_recurrence(table: MomentTable, N: int, p=None, q=None):
    """Build (LPolySequence, RecurrenceCoeffs) to depth N of a table's functional.

    A table summed from a weighted node set (``table.nodes``, a rule with m
    intervals: the real-line and discrete kinds) runs the ``stieltjes`` pass
    on its nodes.  Discrete nodes (m = 0) run it once.  A trapezoid rule runs
    it on the rules with m, 2m, 4m, ... intervals, m being where the moments
    settled, until one pass certifies itself: the m/2 rule is the m rule's
    even nodes with doubled weights, so each level's sums D_n, S_n are also
    taken on the m/2 rule, and every level must agree to QUAD_SETTLE_REL of
    its rounding scale (the discretization test of Gautschi 2004, sec.
    2.2.3, applied to the sums).  The m rule is the one the table holds, so
    the weight is not evaluated for it; each finer rule comes from the
    rule's ``finer``, which evaluates the weight at the new odd nodes only
    and shares the moments' doubling budget.  The table is not changed, so
    a second call starts from the same rule.  This route has no depth cap.

    Every other table (explicit, circle, exact Fraction) runs the moment
    bootstrap: each level advances the mixed moments L[x^k Q_n],
    k = -N-1..N-n, by the three-term recurrence and reads its sigma pair
    from them.  RegularityBreakdown(n) is raised when |sigma_{n,n}| or
    |sigma_{n,-1}| falls below a threshold relative to the geometric mean of
    the sigma magnitudes seen so far.  In double precision it is capped at
    MAX_DEPTH and warns when the sigmas run out of range.

    Either route needs the table to cover nu_{-N-1}..nu_N (IndexOutOfTable
    otherwise): a quadrature node set is sized and converged for the table's
    orders.  ``p``/``q`` are the modification coefficients recorded on the
    result (the coefficients themselves depend only on the table); each must
    be a finite number when given (ValueError otherwise).
    """
    require_count("depth N", N)
    for name, z in (("p", p), ("q", q)):
        if z is not None:
            require_finite(name, z)
    if table.nodes is None and N > MAX_DEPTH and not table.exact:
        raise ValueError(
            f"depth {N} exceeds the double-precision cap {MAX_DEPTH} of the moment bootstrap")
    if not table.covers(-N - 1, N):
        raise IndexOutOfTable(f"bootstrap to depth {N} needs moments in [-{N + 1}, {N}]")

    rule = table.nodes
    if rule is None:
        lp = _moment_bootstrap(table, N)
    else:
        while (lp := _stieltjes(rule.x, rule.w, N, nested=rule.m > 0)) is None:
            rule = rule.finer()
    rc = RecurrenceCoeffs(t=table.t, p=0j if p is None else complex(p),
                          q=0j if q is None else complex(q),
                          beta=lp.beta, alpha=lp.alpha)
    return lp, rc


def stieltjes(x, w, N: int) -> LPolySequence:
    """Discretized Stieltjes procedure to depth N on nodes x_j > 0 with weights w_j.

    The functional is L[f] = sum_j w_j f(x_j).  Level n forms r_n = Q_n / x^(n/2)
    at the nodes and the sums D_n = sum w r_n^2 = sigma_{n,n},
    S_n = sum w r_n^2 / x = Q_n(0) sigma_{n,-1} and sum w x r_n^2, which is
    tau_n + a_{n,n-1} sigma_{n,n} by L-orthogonality (a_{n,n-1} being the
    x^(n-1) coefficient of Q_n).

    r_n is formed from three terms, sqrt(x) r_{n-1}, beta_n r_{n-1} / sqrt(x)
    and alpha_n r_{n-2}.  RegularityBreakdown(n, "condition_b") or
    (n, "condition_a") is raised when D_n or S_n is within SIGMA_ZERO_REL of
    the sum of |w| times those terms squared (over x for S_n): the sigma
    vanished to rounding.  At level m of m nodes it vanishes exactly
    (Q_m = prod_j (x - x_j)), and that level raises without a test, since
    rounding in the last levels can leave D_m above any fixed threshold.
    Level N is formed for the ladders but not checked, since it gates level
    N+1 only.  Sums or rounding scales that overflow raise
    NonConvergentIntegral, naming the level: no breakdown is read off an
    infinite scale.

    The margins are D_n and S_n over those scales.  The relative rounding
    error of beta_{n+1} and alpha_{n+1} is of order eps over the smallest
    margin of levels <= n.

    ``bootstrap_recurrence`` runs this pass on a table's node set; on a
    trapezoid rule the same pass also certifies the rule (``_stieltjes``).
    ValueError unless N is an integer >= 1, every node is a finite real
    number and every weight a finite number (``measures.finite_array``).
    """
    require_count("depth N", N)
    return _stieltjes(finite_array("Stieltjes nodes and weights", x, real=True),
                      finite_array("Stieltjes nodes and weights", w), N)


def _stieltjes(x, w, N: int, nested: bool = False):
    """``stieltjes``; with ``nested``, also the discretization test of the m rule.

    x is a float64 array and w a float64 or complex128 one.  With ``nested``,
    (x, w) is a trapezoid rule with m intervals, whose even nodes with
    doubled weights are the m/2 rule (the rules nest).  Each level n <= N-1
    also sums its terms w r_n^2 and w r_n^2 / x over the even nodes, times 2:
    D~_n and S~_n, the same sums on the m/2 rule.  The rule has settled when
    |D_n - D~_n| and |S_n - S~_n| stay within QUAD_SETTLE_REL of the rounding
    scales of the regularity test; a level that has not returns None before
    that test, so a breakdown is read only from a rule that resolves it.
    The main sums are untouched, so the result is ``stieltjes(x, w, N)``.
    """
    if not (x > 0).all():
        raise ValueError("Stieltjes nodes must be positive")
    if np.iscomplexobj(w) and not w.imag.any():
        w = w.real
    positive = not np.iscomplexobj(w) and bool((w >= 0).all())
    sx = np.sqrt(x)
    isx = 1.0 / sx
    powers = np.stack([np.ones_like(x), 1.0 / x, x, x ** -2.0], axis=1)
    even = 2.0 * powers[0::2, :2] if nested else None  # the m/2 rule's D and S columns
    beta, alpha, sigma_diag, sigma_minus, tau, margin = [], [], [], [], [], []
    r_prev, r = np.zeros_like(x), np.ones_like(x)
    mag1 = mag2 = (0.0,) * 4  # sum |w| |r|^2 times 1, 1/x, x, 1/x^2 at levels n-1, n-2
    a = 0.0     # alpha_{n+1}; alpha_1 = 0
    q0 = 1.0    # Q_n(0)
    gsum = 0.0  # sum_{k <= n} (beta_k + alpha_k) = -a_{n,n-1}
    with np.errstate(all="ignore"):
        for n in range(N + 1):
            wr2 = w * r * r
            sums = wr2 @ powers
            D, S, T, _ = sums.tolist()
            if not (cmath.isfinite(D) and cmath.isfinite(S)):
                raise NonConvergentIntegral(
                    f"Stieltjes sums overflow double precision at level {n}")
            sigma_diag.append(D)
            sigma_minus.append(S / q0)
            if n == N:
                break
            mag = (sums if positive else np.abs(wr2) @ powers).tolist()
            if n == 0:
                scale_d, scale_s = mag[0], mag[1]
            else:
                try:
                    bb, aa = abs(beta[-1]) ** 2, abs(a) ** 2
                except OverflowError:
                    bb = aa = math.inf
                scale_d = mag1[2] + bb * mag1[1] + aa * mag2[0]
                scale_s = mag1[0] + bb * mag1[3] + aa * mag2[1]
            if not (math.isfinite(scale_d) and math.isfinite(scale_s)):
                raise NonConvergentIntegral(
                    f"Stieltjes rounding scales overflow double precision at level {n}")
            mag1, mag2 = mag, mag1
            if nested:
                dh, sh = (wr2[0::2] @ even).tolist()
                if not (abs(D - dh) <= QUAD_SETTLE_REL * scale_d
                        and abs(S - sh) <= QUAD_SETTLE_REL * scale_s):
                    return None
            if n == len(x) or not abs(D) > SIGMA_ZERO_REL * scale_d:
                raise RegularityBreakdown(n, "condition_b", D)
            if not abs(S) > SIGMA_ZERO_REL * scale_s:
                raise RegularityBreakdown(n, "condition_a", S)
            margin.append(min(abs(D) / scale_d, abs(S) / scale_s))
            tau.append(T + gsum * D)
            if n == 0:
                b = D / S
            else:
                a = D / sigma_diag[n - 1]
                b = a * beta[-1] * S_prev / S
                alpha.append(a)
            beta.append(b)
            gsum += a + b
            q0 *= -b
            S_prev = S
            r, r_prev = (sx - b * isx) * r - a * r_prev, r
    return LPolySequence(beta=tuple(map(complex, beta)), alpha=tuple(map(complex, alpha)),
                         sigma_diag=tuple(map(complex, sigma_diag)),
                         sigma_minus=tuple(map(complex, sigma_minus)),
                         tau=tuple(map(complex, tau)), margin=tuple(margin))


def _moment_bootstrap(table: MomentTable, N: int) -> LPolySequence:
    """The sigma ladder from the mixed moments m_{n,k} = L[x^k Q_n] (Chebyshev algorithm).

    m_{0,k} = nu_k for k = -N-1..N, and the recurrence of Q_{n+1} gives
    m_{n+1,k} = m_{n,k+1} - beta_{n+1} m_{n,k} - alpha_{n+1} m_{n-1,k+1}
    for k = -N-1..N-n-1.  Level n reads sigma_{n,n} = m_{n,0},
    sigma_{n,-1} = m_{n,-n-1} and tau_n = m_{n,1}.
    """
    exact = table.exact
    m = [table.nu[k] for k in range(-N - 1, N + 1)]  # m[i] = m_{n,i-N-1}
    prev = [0] * len(m)                               # m_{n-1,k}; Q_{-1} = 0
    beta, alpha, sigma_diag, sigma_minus, tau = [], [], [], [], []
    log_scales = []

    def check(n, value, which):
        if exact:
            if value == 0:
                raise RegularityBreakdown(n, which, value)
            return
        mag = abs(complex(value))
        if mag <= _sigma_threshold(log_scales) or mag == 0.0:
            raise RegularityBreakdown(n, which, value)
        log_scales.append(math.log(mag))

    a = 0  # alpha_1
    for n in range(N + 1):
        s_diag, s_minus = m[N + 1], m[N - n]
        sigma_diag.append(s_diag)
        sigma_minus.append(s_minus)
        # Level N is not regularity-checked: it gates level N+1 only, and a
        # depth-N bootstrap of an N-point measure legitimately ends with
        # sigma_{N,N} = 0.
        if n == N:
            break
        check(n, s_diag, "condition_b")
        check(n, s_minus, "condition_a")
        tau.append(m[N + 2])
        if n and not exact:
            ratio = abs(complex(s_diag)) / abs(complex(sigma_diag[0]))
            if not (1e-120 < ratio < 1e120):
                warnings.warn(
                    f"sigma ratio {ratio:.3e} at level {n}: results beyond this "
                    "depth are likely garbage", RuntimeWarning, stacklevel=3)
        if n == 0:
            b = s_diag / s_minus
        else:
            a = s_diag / sigma_diag[n - 1]
            b = -a * sigma_minus[n - 1] / s_minus
            alpha.append(a)
        beta.append(b)
        prev, m = m, [u - b * v - a * w for v, u, w in zip(m, m[1:], prev[1:])]
    return LPolySequence(beta=tuple(beta), alpha=tuple(alpha),
                         sigma_diag=tuple(sigma_diag), sigma_minus=tuple(sigma_minus),
                         tau=tuple(tau))


def triangle_from_coeffs(beta, alpha):
    """Expand the recurrence into the monic coefficient triangle, rows 0..N.

    ``beta`` lists beta_1..beta_N and ``alpha`` lists alpha_2..alpha_N;
    Fraction coefficients give an exact triangle.  Row n+1 holds the
    coefficients of Q_{n+1} = (x - beta_{n+1}) Q_n - alpha_{n+1} x Q_{n-1}.
    """
    rows = [[Fraction(1) if isinstance(beta[0], Fraction) else 1.0 + 0.0j]]
    prev = []
    for n, b in enumerate(beta):
        a = alpha[n - 1] if n else 0
        cur = rows[-1]
        rows.append([s - b * c - a * p
                     for s, c, p in zip([0, *cur], [*cur, 0], [0, *prev, 0, 0])])
        prev = cur
    return rows
