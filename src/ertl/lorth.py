"""L-orthogonal polynomials and their recurrence coefficients from moments.

For a moment table of a regular functional, the monic polynomials Q_n defined
by  L[x^(-n+s) Q_n] = 0, s = 0..n-1,  satisfy

    Q_{n+1}(x) = (x - beta_{n+1}) Q_n(x) - alpha_{n+1} x Q_{n-1}(x),

with Q_0 = 1, Q_1 = x - beta_1.  Writing sigma_{n,n} = L[Q_n] and
sigma_{n,-1} = L[x^(-n-1) Q_n], the coefficients obey

    beta_1      = sigma_{0,0} / sigma_{0,-1},
    alpha_{n+1} = sigma_{n,n} / sigma_{n-1,n-1},
    beta_{n+1}  = -alpha_{n+1} * sigma_{n-1,-1} / sigma_{n,-1},

which is the production route used here: each level needs only two dot
products of the current coefficient row against the moment table, so the
bootstrap never forms a Hankel determinant.  All arithmetic is generic over
the scalar type; complex tables run in double precision and exact rational
tables run in fractions.Fraction, which serves as the conditioning oracle.

Conventions: beta_0 = 1, alpha_0 = -1, alpha_1 = 0 (recorded in metadata).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import IndexOutOfTable, MismatchBeyondTolerance, RegularityBreakdown
from .measures import MomentTable

#: relative threshold below which a sigma counts as a regularity failure
SIGMA_ZERO_REL = 1e-12
#: default depth cap in double precision; deeper runs need an explicit opt-in
MAX_DEPTH = 24


def kahan_dot(coeffs, values):
    """Compensated sum of coeffs[j] * values[j]; exact for Fraction inputs."""
    acc = None
    comp = None
    for c, v in zip(coeffs, values):
        term = c * v
        if acc is None:
            acc = term
            comp = term - term  # zero of the right type
            continue
        y = term - comp
        s = acc + y
        comp = (s - acc) - y
        acc = s
    return acc


@dataclass(frozen=True)
class RecurrenceCoeffs:
    """Recurrence coefficients beta_1..beta_N, alpha_2..alpha_N at one time.

    ``beta[i]`` holds beta_{i+1} and ``alpha[i]`` holds alpha_{i+2}; the
    index-shifted accessors below take the mathematical subscript and supply
    the boundary conventions beta_0 = 1, alpha_0 = -1, alpha_1 = 0.
    """

    t: float
    p: complex
    q: complex
    beta: tuple
    alpha: tuple
    meta: dict = field(default_factory=lambda: {"alpha_1": 0, "alpha_0": -1, "beta_0": 1})

    def __post_init__(self):
        object.__setattr__(self, "beta", tuple(self.beta))
        object.__setattr__(self, "alpha", tuple(self.alpha))
        if len(self.alpha) not in (0, len(self.beta) - 1):
            raise ValueError("need alpha_2..alpha_N alongside beta_1..beta_N")

    @property
    def N(self) -> int:
        return len(self.beta)

    def beta_at(self, n: int):
        if n == 0:
            return 1
        return self.beta[n - 1]

    def alpha_at(self, n: int):
        if n == 0:
            return -1
        if n == 1:
            return 0
        return self.alpha[n - 2]


@dataclass(frozen=True)
class LPolySequence:
    """Monic coefficient triangle a_{n,j} with the sigma and tau ladders.

    ``rows[n][j]`` is the coefficient of x^j in Q_n (so rows[n][n] == 1);
    sigma_diag[n] = L[Q_n], sigma_minus[n] = L[x^(-n-1) Q_n], and
    tau[n] = L[x Q_n] for n <= N-1.
    """

    t: float
    N: int
    rows: tuple
    sigma_diag: tuple
    sigma_minus: tuple
    tau: tuple


def _sigma_threshold(log_scales) -> float:
    if not log_scales:
        return 0.0
    mean = sum(log_scales) / len(log_scales)
    return SIGMA_ZERO_REL * math.exp(mean)


def bootstrap_recurrence(table: MomentTable, N: int, p=None, q=None,
                         max_depth: int = MAX_DEPTH):
    """Build (LPolySequence, RecurrenceCoeffs) to depth N from a moment table.

    Iterates the three-term recurrence, computing each new coefficient row
    from the previous two; sigma values are compensated dot products against
    the table.  Raises RegularityBreakdown(n) when |sigma_{n,n}| or
    |sigma_{n,-1}| falls below a threshold relative to the geometric mean of
    the sigma magnitudes seen so far.

    ``p``/``q`` are the modification coefficients recorded on the result (the
    coefficients themselves depend only on the table).
    """
    if N < 1:
        raise ValueError("depth N must be >= 1")
    if N > max_depth and not table.exact:
        raise ValueError(
            f"depth {N} exceeds the double-precision cap {max_depth}; "
            "pass max_depth explicitly to go deeper at your own risk")
    if not table.covers(-N - 1, N):
        raise IndexOutOfTable(f"bootstrap to depth {N} needs moments in [-{N + 1}, {N}]")

    exact = table.exact
    one = Fraction(1) if exact else 1.0 + 0.0j
    nu = table.nu

    rows = [[one]]
    sigma_diag = [nu[0] * one]
    sigma_minus = [nu[-1] * one]
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

    check(0, sigma_diag[0], "condition_b")
    check(0, sigma_minus[0], "condition_a")

    beta = [sigma_diag[0] / sigma_minus[0]]
    alpha = []

    for n in range(1, N):
        cur = _next_row(rows, beta[-1], alpha[-1] if alpha else 0)
        rows.append(cur)
        s_diag = kahan_dot(cur, [nu[j] for j in range(n + 1)])
        s_minus = kahan_dot(cur, [nu[j - n - 1] for j in range(n + 1)])
        check(n, s_diag, "condition_b")
        check(n, s_minus, "condition_a")
        sigma_diag.append(s_diag)
        sigma_minus.append(s_minus)
        if not exact:
            ratio = abs(complex(s_diag)) / abs(complex(sigma_diag[0]))
            if not (1e-120 < ratio < 1e120):
                warnings.warn(
                    f"sigma ratio {ratio:.3e} at level {n}: results beyond this "
                    "depth are likely garbage", RuntimeWarning, stacklevel=2)
        a_next = s_diag / sigma_diag[n - 1]
        b_next = -a_next * sigma_minus[n - 1] / s_minus
        alpha.append(a_next)
        beta.append(b_next)

    # Final row N plus its sigma pair.  These are *not* regularity-checked:
    # they gate level N+1 only, and a depth-N bootstrap of an N-point measure
    # legitimately ends with sigma_{N,N} = 0.
    rows.append(_next_row(rows, beta[-1], alpha[-1] if alpha else 0))
    s_diag = kahan_dot(rows[N], [nu[j] for j in range(N + 1)])
    s_minus = kahan_dot(rows[N], [nu[j - N - 1] for j in range(N + 1)])
    sigma_diag.append(s_diag)
    sigma_minus.append(s_minus)

    tau = tuple(kahan_dot(rows[n], [nu[j + 1] for j in range(n + 1)])
                for n in range(N))

    lp = LPolySequence(t=table.t, N=N, rows=tuple(tuple(r) for r in rows),
                       sigma_diag=tuple(sigma_diag), sigma_minus=tuple(sigma_minus),
                       tau=tau)
    rc = RecurrenceCoeffs(t=table.t, p=0j if p is None else complex(p),
                          q=0j if q is None else complex(q),
                          beta=tuple(beta), alpha=tuple(alpha))
    return lp, rc


def _next_row(rows, b_new, a_new):
    """Coefficients of Q_{n+1} = (x - b) Q_n - a x Q_{n-1} from rows n, n-1."""
    cur = rows[-1]
    prev = rows[-2] if len(rows) >= 2 else []
    n = len(cur) - 1
    out = []
    for j in range(n + 2):
        val = -b_new * (cur[j] if j <= n else 0)
        if j >= 1:
            val = val + cur[j - 1]
            if j - 1 <= len(prev) - 1:
                val = val - a_new * prev[j - 1]
        out.append(val)
    return out


def triangle_from_coeffs(beta, alpha, N=None):
    """Expand the recurrence into the monic coefficient triangle.

    ``beta`` lists beta_1.. and ``alpha`` lists alpha_2..; the independent
    route against a bootstrapped triangle in route-equivalence checks.
    """
    if N is None:
        N = len(beta)
    rows = [[1.0 + 0.0j]]
    for n in range(N):
        rows.append(_next_row(rows, beta[n], alpha[n - 1] if n >= 1 else 0))
    return rows


def eval_Q(rc: RecurrenceCoeffs, n: int, x):
    """Value of Q_n at x by the forward three-term recurrence."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    if n > rc.N:
        raise ValueError(f"rc holds coefficients to depth {rc.N} < {n}")
    if n == 0:
        return 1
    q_prev = 1
    q_cur = x - rc.beta[0]
    for k in range(1, n):
        q_next = (x - rc.beta[k]) * q_cur - rc.alpha[k - 1] * x * q_prev
        q_prev, q_cur = q_cur, q_next
    return q_cur


def q_at_zero(rc: RecurrenceCoeffs, n: int):
    """Q_n(0) = (-1)^n beta_n ... beta_1, the product form of the constant term."""
    if n < 1:
        raise ValueError("n must be >= 1")
    prod = 1
    for k in range(n):
        prod = prod * rc.beta[k]
    return prod if n % 2 == 0 else -prod


#: tolerance for the two tau routes to count as consistent
TAU_MATCH_RTOL = 1e-8


def tau(table: MomentTable, rc: RecurrenceCoeffs, lp: LPolySequence, n: int):
    """tau_n = L[x Q_n], computed two ways and cross-checked.

    Direct route: dot product of row n against shifted moments.  Closed form:
    sigma_{n,n} * sum_{k=1}^{n+1} gamma_k with gamma_k = alpha_{k+1} + beta_k,
    where alpha values beyond the rc depth come from sigma-diagonal ratios.
    Raises MismatchBeyondTolerance when the two routes disagree, which signals
    an inconsistent table/coefficient pair.
    """
    if n > lp.N - 1:
        raise ValueError(f"tau_{n} needs moments beyond the table depth {lp.N}")
    direct = lp.tau[n]

    gam_sum = None
    for k in range(1, n + 2):
        if k + 1 <= rc.N:
            a_k1 = rc.alpha_at(k + 1)
        else:
            a_k1 = lp.sigma_diag[k] / lp.sigma_diag[k - 1]
        g = a_k1 + rc.beta_at(k)
        gam_sum = g if gam_sum is None else gam_sum + g
    closed = lp.sigma_diag[n] * gam_sum

    scale = max(abs(complex(direct)), abs(complex(closed)), 1e-300)
    if abs(complex(direct) - complex(closed)) > TAU_MATCH_RTOL * scale:
        raise MismatchBeyondTolerance(
            f"tau_{n}: direct {direct!r} vs closed form {closed!r}")
    return direct


def orthogonality_residual(table: MomentTable, lp: LPolySequence, n: int) -> float:
    """Largest relative violation of L[x^(-n+s) Q_n] = 0 over s = 0..n-1.

    Each condition is normalized by the magnitude sum of its terms, so the
    residual measures achieved cancellation independently of moment scale.
    """
    if n < 1 or n > lp.N:
        raise ValueError("need 1 <= n <= depth of the sequence")
    row = lp.rows[n]
    worst = 0.0
    for s in range(n):
        moms = [table.nu_at(j - n + s) for j in range(n + 1)]
        num = abs(complex(kahan_dot(row, moms)))
        den = sum(abs(complex(c)) * abs(complex(m)) for c, m in zip(row, moms))
        worst = max(worst, num / max(den, 1e-300))
    return worst
