"""Lattice flows on recurrence-coefficient space and their time integration.

The two-parameter flow ("extended relativistic Toda lattice") evolves the
recurrence coefficients of L-orthogonal polynomials:

    beta_dot_n  = p beta_n (alpha_n - alpha_{n+1})
                  + q beta_n (alpha_{n+1}/(beta_{n+1} beta_n)
                              - alpha_n/(beta_n beta_{n-1})),
    alpha_dot_n = p alpha_n (alpha_{n-1} + beta_{n-1} - alpha_{n+1} - beta_n)
                  + q alpha_n (1/beta_{n-1} - 1/beta_n),

for n >= 1 with beta_0 = 1, alpha_0 = -1, alpha_1 = 0.  The combinations
gamma_n = alpha_{n+1} + beta_n obey

    gamma_dot_n = p (alpha_n gamma_n - alpha_{n+1} gamma_{n+1})
                  + q (alpha_{n+1}/beta_n - alpha_n/beta_{n-1}),

which is exactly alpha_dot_{n+1} + beta_dot_n.  Specializations: (p, q) =
(0, 1) and (1, 0) are the two classical relativistic Toda forms, and on the
symmetric manifold beta_n = sqrt(q) (p = 1) the alpha equation closes to the
Langmuir/Volterra lattice alpha_dot_n = alpha_n (alpha_{n-1} - alpha_{n+1}).

Finite truncation closes the system with alpha_{N+1} = 0.  For comparison
against semi-infinite measure-derived coefficients, ``integrate_buffered``
integrates extra sites and reports only a prefix.  Its windows have an open
top: the tail is continued past the last site at every evaluation
(alpha_{N+1} = 2 alpha_N - alpha_{N-1}, beta_{N+1} = beta_N^2 / beta_{N-1}),
in place of the wall alpha_{N+1} = 0.  The first window comes from a
measured law in the time span (``default_buffer``), and every window is
checked against one a quarter larger; a failed check becomes the next window
(more buffer is needed when coefficients grow with site index).

The right-hand sides divide by beta_n and beta_{n-1}; a beta crossing zero is
a genuine blow-up of the flow and is detected (SingularDenominator), never
regularized.  One breakdown rule serves every flow: the kernels are pure,
and only accepted states are checked (``integrate_core``'s ``validate``).
Integration uses the Dormand-Prince 8(5,3) pair (DOP853) with FSAL (f at the
new solution of an accepted step is the next step's first stage), and
accepts a step when its local error, scaled per component, is within the
tolerance (error per step, not per unit step).  The first step is sized
from the problem by one Euler probe (Hairer's HINIT), and a step cut short
to land on an output time leaves the next step's proposal as it was.
Steps run in the dtype of the unknowns: float64 for a real flow, complex
otherwise.

Each flow has one right-hand-side kernel on one buffer [1, beta_1..beta_N,
alpha_1 = 0, alpha_2..alpha_N, alpha_{N+1}], written as shifted slices of
its head b = (beta_0 = 1, beta_1..beta_N) and its tail a from beta_N's
slot: row n reads b[n-1..n+1] and a[n-1..n+1], so the boundary conventions
need no special case.  The one row that would read beta_N's slot as
alpha_0 is dalpha_1, the gap slot: the Volterra kernel does not compute
it, and the ertl kernel computes it with its whole alpha row and writes it
back to +0.  The ertl kernel forms two rows of one scratch array, s_n =
alpha_n (p - q / (beta_n beta_{n-1})) and G_m = p (beta_m + alpha_m +
alpha_{m+1}) + q / beta_m, and takes dbeta and dalpha from them with one
subtraction and one product over the (2, N) view [beta; alpha] of the
buffer's interior.  A kernel binds once to the buffer and allocates its own
output, the derivative of the buffer's interior, which each evaluation
writes in place and returns.  The ertl kernel's s_{N+1}, which would need
beta_{N+1}, is set at bind time from alpha_{N+1}: 0 when it is 0, NaN
otherwise; an open binding, a buffered run's, instead refills alpha_{N+1}
and s_{N+1} from the continued tail at each evaluation.  The public
``rhs_*`` bind a state's buffer as complex and
evaluate once; ``integrate`` binds it once per integration (real when p, q
and the state are real), and DOP853 steps its interior, alpha_1 a gap slot
(``integrate_core``).  The steppers build their snapshots with the private
``_unchecked`` constructors: ``integrate_core`` accepts only finite states
that passed ``validate``, so the public constructors' checks would find
nothing there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BufferTooSmall, NotSymmetricState, SingularDenominator, StepUnderflow
from .measures import finite_array, require_count, require_finite

#: |beta_n| below this is treated as a blow-up of the flow
EPS_SING = 1e-12

_NAN = complex(float("nan"), float("nan"))


# ---------------------------------------------------------------------------
# State containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeState:
    """Phase point: beta_1..beta_N and alpha_1..alpha_{N+1} at time t.

    ``closure == "finite"`` means alpha_{N+1} = 0 exactly (self-contained
    truncation; every right-hand side is defined at every site).  A
    ``"buffered"`` state is a reported prefix of a longer integration and may
    carry the true nonzero alpha_{N+1}; top-site derivatives that would need
    beta_{N+1} are then NaN.  p, q, t and the entries are read by the one
    rule of ``measures.finite_array``: every value a finite number, bool
    excluded, and t a real one, and N >= 1 (ValueError otherwise).  p, q and
    the entries are stored as Python complex numbers.
    """

    p: complex
    q: complex
    t: float
    beta: tuple
    alpha: tuple
    closure: str = "finite"

    def __post_init__(self):
        beta, alpha = tuple(self.beta), tuple(self.alpha)
        if self.closure not in ("finite", "buffered"):
            raise ValueError(f"unknown closure {self.closure!r}")
        if not beta:
            raise ValueError("depth N must be >= 1")
        if len(alpha) != len(beta) + 1:
            raise ValueError("need alpha_1..alpha_{N+1} alongside beta_1..beta_N")
        require_finite("t", self.t, real=True)
        y = finite_array("p, q, beta and alpha", (self.p, self.q, *beta, *alpha))
        N = len(beta)
        p, q, *entries = y.tolist()
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "beta", tuple(entries[:N]))
        object.__setattr__(self, "alpha", tuple(entries[N:]))
        if self.alpha[0] != 0:
            raise ValueError("alpha_1 must be 0")
        if self.closure == "finite" and self.alpha[-1] != 0:
            raise ValueError("finite closure requires alpha_{N+1} = 0")
        _check_betas(y[2:2 + N], self.t)

    @classmethod
    def _unchecked(cls, p: complex, q: complex, t: float, beta: tuple, alpha: tuple,
                   closure: str):
        """A stepper's snapshot, built without ``__post_init__``'s checks.

        Only ``integrate`` calls it, with what those checks would return:
        Python complex p, q and entries, alpha_1 = 0, alpha_{N+1} = 0 for a
        finite closure and a finite t.  Every entry is finite with |beta_n|
        >= EPS_SING, as ``integrate_core`` accepts only finite steps that
        passed ``validate``.
        """
        state = object.__new__(cls)
        for name, value in (("p", p), ("q", q), ("t", t), ("beta", beta), ("alpha", alpha),
                            ("closure", closure)):
            object.__setattr__(state, name, value)
        return state

    @property
    def N(self) -> int:
        return len(self.beta)

    def prefix(self, n: int) -> "LatticeState":
        """First n sites with the true alpha_{n+1}; closure becomes buffered.

        ValueError unless n is an integer (bool excluded) and n >= 1.
        """
        require_count("prefix length n", n)
        if n >= self.N:
            return self
        return LatticeState(self.p, self.q, self.t, self.beta[:n],
                            self.alpha[:n + 1], closure="buffered")


def state_from_coeffs(p, q, t, beta, alpha_free):
    """Assemble a finite-closure state from beta_1..beta_N and the free alpha_2..alpha_N.

    ValueError unless alpha_free has N - 1 entries, and where ``LatticeState`` (N >= 1) raises.
    """
    beta, alpha_free = tuple(beta), tuple(alpha_free)
    if beta and len(alpha_free) != len(beta) - 1:
        raise ValueError(f"alpha_2..alpha_N needs N - 1 = {len(beta) - 1} entries, "
                         f"got {len(alpha_free)}")
    return LatticeState(p=p, q=q, t=t, beta=beta, alpha=(0,) + alpha_free + (0,))


@dataclass(frozen=True)
class Trajectory:
    """Snapshots at requested output times plus step statistics."""

    times: tuple
    states: tuple
    step_stats: dict

    def __post_init__(self):
        ts = self.times
        if any(ts[i + 1] <= ts[i] for i in range(len(ts) - 1)):
            raise ValueError("output times must be strictly increasing")

    @property
    def final(self) -> LatticeState:
        return self.states[-1]


# ---------------------------------------------------------------------------
# Right-hand sides: one shifted-slice kernel per flow on its one buffer
# ---------------------------------------------------------------------------

def _check_betas(beta, t=None):
    """SingularDenominator at the first n with |beta_n| < EPS_SING (beta_1..beta_N).

    NaN entries are skipped, as by the comparison that locates n.
    """
    mods = np.abs(beta)
    if np.fmin.reduce(mods, initial=np.inf) < EPS_SING:
        n = int(np.argmax(mods < EPS_SING))
        raise SingularDenominator(n + 1, complex(beta[n]), t=t)


def _ertl_kernel(p, q, buf, open_top=False):
    """Bind the two-parameter flow to its buffer (module docstring); returns evaluate().

    Each call of evaluate() reads ``buf`` and returns the kernel's own output
    array in ``buf``'s dtype, the derivative [dbeta_1..N, dalpha_1 = 0,
    dalpha_2..N] of buf[1:-1].  With u_m = q / beta_m, two rows of one
    (2, N + 1) scratch array hold

        s_n = alpha_n (p - u_n / beta_{n-1}),                n = 1..N+1,
        G_m = p (beta_m + alpha_m + alpha_{m+1}) + u_m,      m = 0..N,

    and one subtraction and one product by the (2, N) view [beta; alpha] of
    buf[1:-1] give both rows of the output:

        dbeta_n  = beta_n (s_n - s_{n+1}),
        dalpha_n = alpha_n (G_{n-1} - G_n).

    s_{N+1} would need beta_{N+1}: its slot is set here, once, to 0 when the
    bound alpha_{N+1} is 0 and to NaN (so dbeta_N is NaN) otherwise, so a
    binding must hold alpha_{N+1} fixed, as every closed one does.  An open
    binding (``open_top``, N >= 2) continues the tail instead: each
    evaluation first writes alpha_{N+1} = 2 alpha_N - alpha_{N-1} into
    buf[-1] and s_{N+1} = alpha_{N+1} (p - q beta_{N-1} / beta_N^3), which
    is s_{N+1} at the geometric beta_{N+1} = beta_N^2 / beta_{N-1}, nonzero
    while beta_N is.  G_0 reads beta_N's slot as alpha_0 and feeds only
    dalpha_1, the gap slot, which is written back to +0 after each
    evaluation (also when a stage holds NaN).  dalpha_{N+1} is the caller's.
    That is ten ufunc calls and the gap write per evaluation; p and q are
    bound as 0-d arrays, which numpy dispatches faster than Python scalars,
    with the same bits.
    """
    N = len(buf) // 2 - 1
    p_top, q_top = p, q  # the open top's scalar arithmetic is faster on Python scalars
    p, q = np.array(p), np.array(q)
    b, a = buf[:N + 1], buf[N:]
    out = np.zeros(2 * N, dtype=buf.dtype)
    rows = np.empty((2, N + 1), dtype=buf.dtype)  # s_1..N+1; G_0..N, first u_0..N
    s, G = rows
    s[-1] = 0.0 if a[-1] == 0 else np.nan
    w = np.empty(N + 1, dtype=buf.dtype)
    s_lo, un, bm, an, a_m, a_m1 = s[:-1], G[1:], b[:-1], a[1:-1], a[:-1], a[1:]
    lo, hi, BA, D = rows[:, :-1], rows[:, 1:], buf[1:-1].reshape(2, N), out.reshape(2, N)
    gap = out[N:N + 1]

    def evaluate(t=None):
        np.divide(q, b, out=G)  # u
        np.divide(un, bm, out=s_lo)
        np.subtract(p, s_lo, out=s_lo)
        np.multiply(an, s_lo, out=s_lo)
        np.add(b, a_m, out=w)
        np.add(w, a_m1, out=w)
        np.multiply(p, w, out=w)
        np.add(w, G, out=G)  # u becomes G
        np.subtract(lo, hi, out=D)
        np.multiply(BA, D, out=D)
        gap.fill(0)
        return out
    if not open_top:
        return evaluate

    def evaluate_open(t=None):
        top = buf[-1] = 2 * a[-2] - a[-3]
        s[-1] = top * (p_top - q_top * b[-2] / b[-1] ** 3)
        return evaluate()
    return evaluate_open


def rhs_ertl(state: LatticeState):
    """Two-parameter flow; returns (dbeta_1..N, dalpha_1..N+1), dalpha_1 = 0."""
    N = len(state.beta)
    buf = np.array([1, *state.beta, *state.alpha], dtype=complex)
    _check_betas(buf[1:N + 1], state.t)
    out = _ertl_kernel(state.p, state.q, buf)().tolist()
    return out[:N], out[N:] + [0j if buf[-1] == 0 else _NAN]


#: tolerance for the frozen-beta check of the symmetric reduction
SYMMETRY_TOL = 1e-8


def _volterra_kernel(buf, open_top=False):
    """Bind alpha_dot_n = alpha_n (alpha_{n-1} - alpha_{n+1}) to the ertl buffer.

    Returns evaluate(); each call reads ``buf`` and returns the kernel's own
    output array, the derivative of buf[1:-1] with beta frozen: 0 but at
    dalpha_2..N.  dalpha_{N+1} is the caller's.  An open binding
    (``open_top``, N >= 2) first writes alpha_{N+1} = 2 alpha_N -
    alpha_{N-1} into buf[-1], as the ertl kernel's does.
    """
    N = len(buf) // 2 - 1
    a, out = buf[N:], np.zeros(2 * N, dtype=buf.dtype)
    dalpha, an, a_lo, a_hi = out[N + 1:], a[2:-1], a[1:-2], a[3:]

    def evaluate(t=None):
        if open_top:
            buf[-1] = 2 * a[-2] - a[-3]
        np.multiply(an, a_lo - a_hi, out=dalpha)
        return out
    return evaluate


def rhs_langmuir(state: LatticeState):
    """Volterra flow alpha_dot_n = alpha_n (alpha_{n-1} - alpha_{n+1}).

    Requires the symmetric manifold beta_n = sqrt(q) (q real positive) and
    p = 1, the only p that leaves it invariant; also verifies that the
    generic beta equation vanishes there.  Returns dalpha_1..N+1, dalpha_1 = 0.
    """
    q = state.q
    if state.p != 1:
        raise NotSymmetricState(f"symmetric reduction needs p = 1, got p = {state.p}")
    if abs(q.imag) > 1e-12 or q.real <= 0:
        raise NotSymmetricState("symmetric reduction needs real positive q")
    N = len(state.beta)
    buf = np.array([1, *state.beta, *state.alpha], dtype=complex)
    dev = float(np.abs(buf[1:N + 1] - math.sqrt(q.real)).max(initial=0.0))
    if dev > SYMMETRY_TOL:
        raise NotSymmetricState(f"max |beta_n - sqrt(q)| = {dev:.3e}")

    _check_betas(buf[1:N + 1], state.t)
    scale = 1.0 + float(np.abs(buf[N + 1:]).max())
    dbeta = _ertl_kernel(state.p, q, buf)()[:N]  # the kernel leaves buf as it was
    bad = float(np.fmax.reduce(np.abs(dbeta), initial=0.0))  # NaN skipped
    if bad > 1e-12 * scale:
        raise NotSymmetricState(f"beta equation does not vanish: {bad:.3e}")

    return _volterra_kernel(buf)()[N:].tolist() + [0j if buf[-1] == 0 else _NAN]


#: system id -> the (p, q) it forces on the flow, or None to keep the state's
SYSTEMS = {"ertl": None, "rtl1": (0j, 1 + 0j), "rtl2": (1 + 0j, 0j), "langmuir": None}


# ---------------------------------------------------------------------------
# Time integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepControl:
    """Step-size policy of ``integrate_core``.

    Adaptive steps use the Dormand-Prince 8(5,3) pair (DOP853) and propagate
    its 8th-order solution.  Acceptance is error per step, each component
    scaled by its own size sc_i = abs_tol + rel_tol * max(|y_i|, |y_new_i|)
    (floored at the estimate's rounding level, ``_ROUNDING_FLOOR`` times
    max |y|).  With e5 and e3 the embedded 5th- and 3rd-order error
    estimates, their norms E5 = max_i |e5_i| / sc_i and E3 = max_i |e3_i| / sc_i
    are combined as in Hairer's DOP853, and a step is accepted when

        E5^2 / hypot(E5, 0.1 E3) <= 1.

    The norms are combined, not the components: a component whose e3 passes
    near zero would otherwise be judged by its raw 5th-order estimate.  So
    ``rel_tol`` bounds the local error of one step, not the error per unit
    time.  The tolerances also size the first step, through the scale
    abs_tol + rel_tol |y0| of the automatic start (``_start_step``).  Both
    must be finite real numbers (``measures.require_finite``) and > 0
    (ValueError otherwise).
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        require_finite("rel_tol", self.rel_tol, real=True)
        require_finite("abs_tol", self.abs_tol, real=True)
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError(f"tolerances must be finite and > 0, got rel_tol = "
                             f"{self.rel_tol}, abs_tol = {self.abs_tol}")


# Dormand-Prince 8(5,3) tableau (Hairer, Norsett and Wanner, Solving ODEs I,
# Section II.10, the coefficients of their code DOP853).  Row 12 of A is the
# 8th-order weight vector b, so f at the new solution (c = 1) is the next
# step's k1 (FSAL), evaluated when that step starts.  Columns of A and rows of
# _DOP_E weigh stages 1..12: E5 = b minus a 5th-order rule, E3 = b minus a 3rd-order rule.
_DOP_C = (0.0, 0.526001519587677318785587544488e-1, 0.789002279381515978178381316732e-1,
          0.118350341907227396726757197510, 0.281649658092772603273242802490,
          1 / 3, 0.25, 4 / 13, 127 / 195, 0.6, 6 / 7, 1.0, 1.0)
_DOP_A = np.zeros((13, 12))
for _i, _row in enumerate((
        (),
        (5.26001519587677318785587544488e-2,),
        (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
        (2.95875854768068491816892993775e-2, 0, 8.87627564304205475450678981324e-2),
        (2.41365134159266685502369798665e-1, 0, -8.84549479328286085344864962717e-1,
         9.24834003261792003115737966543e-1),
        (3.7037037037037037037037037037e-2, 0, 0, 1.70828608729473871279604482173e-1,
         1.25467687566822425016691814123e-1),
        (3.7109375e-2, 0, 0, 1.70252211019544039314978060272e-1,
         6.02165389804559606850219397283e-2, -1.7578125e-2),
        (3.70920001185047927108779319836e-2, 0, 0, 1.70383925712239993810214054705e-1,
         1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
         8.27378916381402288758473766002e-3),
        (6.24110958716075717114429577812e-1, 0, 0, -3.36089262944694129406857109825,
         -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
         2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
        (4.77662536438264365890433908527e-1, 0, 0, -2.48811461997166764192642586468,
         -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
         1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
         -2.03312017085086261358222928593e-2),
        (-9.3714243008598732571704021658e-1, 0, 0, 5.18637242884406370830023853209,
         1.09143734899672957818500254654, -8.14978701074692612513997267357,
         -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
         2.49360555267965238987089396762, -3.0467644718982195003823669022),
        (2.27331014751653820792359768449, 0, 0, -1.05344954667372501984066689879e1,
         -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
         2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
         -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
         6.43392746015763530355970484046e-1),
        (5.42937341165687622380535766363e-2, 0, 0, 0, 0, 4.45031289275240888144113950566,
         1.89151789931450038304281599044, -5.8012039600105847814672114227,
         3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
         2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2))):
    _DOP_A[_i, :len(_row)] = _row
del _i, _row
_DOP_E = np.array([
    [0.1312004499419488073250102996e-1, 0, 0, 0, 0, -0.1225156446376204440720569753e1,
     -0.4957589496572501915214079952, 0.1664377182454986536961530415e1,
     -0.3503288487499736816886487290, 0.3341791187130174790297318841,
     0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1],
    _DOP_A[12, :12]])
_DOP_E[1, [0, 8, 11]] -= (0.244094488188976377952755905512, 0.733846688281611857341361741547,
                          0.220588235294117647058823529412e-1)

#: error-scale floor relative to max |y|.  Adding the update h (b @ K) to y
#: rounds by about eps |y| every step, which the estimate cannot see, so a
#: smaller scale buys nothing.  The estimate's own rounding is twelve summed
#: terms h E_j k_j plus stage-argument rounding eps |y| amplified by
#: h |df/dy|: sum|E| (12 h |k| / |y| + h |df/dy|) eps |y|.  At the step
#: limit (h |k| <= |y| and DOP853's real stability bound h |df/dy| <= 6.39;
#: DP5(4)'s was 3.31) that is 4.19 (12 + 6.39) = 77 eps |y| in e5 and
#: 13.13 (12 + 6.39) = 241 eps |y| in e3 (sum|E5| = 4.19, sum|E3| = 13.13),
#: and E5^2 / hypot(E5, 0.1 E3) never exceeds E5.  But both terms
#: shrink with h, and an 8th-order step that meets a tolerance near eps is
#: far inside the stability region: on truncated example2 (N = 40) a step
#: with h |df/dy| = 0.035 has an estimate of 0.16 eps |y|.  A step rejected
#: for noise is retried shorter, with less noise, so 2 eps |y| never drives
#: the step to StepUnderflow.
_ROUNDING_FLOOR = 2 * float(np.finfo(float).eps)
#: floor under hypot(E5, 0.1 E3), so that a step with e5 = e3 = 0 reads 0
_TINY = float(np.finfo(float).tiny)
#: first step when the probe of the automatic start leaves the flow's domain
_H_FALLBACK = 1e-2
#: smallest adaptive step before StepUnderflow
_H_MIN = 1e-14
#: attempted steps (accepted plus rejected) before StepUnderflow
_MAX_STEPS = 2_000_000


class _StageTable:
    """DOP853 steps on n unknowns of one dtype, kept in one stage table.

    Row 0 of the (13, n) ``Y`` holds y and rows 1..12 the stages k1..k12.
    Row i of ``W`` is (1, h a_i1, ..., h a_i,12), so W[i, :i+1] @ Y[:i+1] is
    the argument of stage i and W[12] @ Y is y_new.  ``E`` is ``_DOP_E`` in
    Y's dtype, which no product then converts.
    """

    def __init__(self, n, dtype):
        self.Y = np.empty((13, n), dtype=dtype)
        self.W = np.ones((13, 13), dtype=dtype)  # column 0 stays 1
        self.E = _DOP_E.astype(dtype)
        self._hA, self._K = self.W[:, 1:], self.Y[1:]
        self._stages = [(self.W[i, :i + 1], self.Y[:i + 1], self.Y[i + 1], _DOP_C[i])
                        for i in range(1, 12)]

    def step(self, stage, evaluate, t, h):
        """Step h from (t, Y[0]), f(t, y) in Y[1]: y_new into ``stage``, (e5, e3) returned."""
        np.multiply(_DOP_A, h, out=self._hA)
        for w, ys, k, c in self._stages:
            np.dot(w, ys, out=stage)
            k[...] = evaluate(t + c * h)
        np.dot(self.W[12], self.Y, out=stage)
        return h * (self.E @ self._K)


def _start_step(stage, evaluate, t0, y0, f0, span, ctrl):
    """First step proposal from the problem (the HINIT of Hairer's DOP853).

    With sc = abs_tol + rel_tol |y0|, d0 = max |y0| / sc and d1 = max |f0| /
    sc, an explicit Euler probe of length h0 = 0.01 d0 / d1 (1e-6 when d0 or
    d1 is below 1e-5) gives d2 = max |f(t0 + h0, y0 + h0 f0) - f0| / sc / h0,
    and the proposal is min(100 h0, (0.01 / max(d1, d2))^(1/8), span).  A
    flat start (max(d1, d2) <= 1e-15) takes the whole span.  The probe point,
    in ``stage``, is off the trajectory and, like a stage argument, is not
    checked: where it leaves the flow's domain the kernel returns large or
    non-finite values, and a non-finite d2 gives the proposal ``_H_FALLBACK``.
    """
    sc = ctrl.abs_tol + ctrl.rel_tol * np.abs(y0)
    d0 = float((np.abs(y0) / sc).max())
    d1 = float((np.abs(f0) / sc).max())
    h0 = min(0.01 * d0 / d1 if d0 >= 1e-5 and 1e-5 <= d1 < math.inf else 1e-6, span)
    np.add(y0, h0 * f0, out=stage)
    d2 = float((np.abs(evaluate(t0 + h0) - f0) / sc).max()) / h0
    if not math.isfinite(d2):
        return _H_FALLBACK
    d = max(d1, d2)
    return span if d <= 1e-15 else min(100.0 * h0, (0.01 / d) ** 0.125, span)


def _span(t0, t_end):
    """(t0, t_end) as floats; ValueError unless t_end is above t0."""
    t0, t_end = float(t0), float(t_end)
    if not t0 < t_end:
        raise ValueError(f"t_end must exceed the start time {t0}, got {t_end}")
    return t0, t_end


def integrate_core(stage, evaluate, t0, t_end, t_out, ctrl: StepControl | None, validate):
    """Drive y' = f(t, y) from t0 to t_end, snapshotting at t0 and the times ``t_out``.

    The one owner of output-grid semantics for every flow: t_end must be a
    finite real number above t0, and ``t_out`` defaults to
    [t_end], is read once by ``measures.finite_array`` (finite real numbers),
    sorted, must lie in (t0, t_end] without repeats and gains t_end when
    missing (ValueError otherwise).  Steps land exactly on every output time
    (no interpolation).
    The flow is the pair (``stage``, ``evaluate``): ``stage`` is a writable,
    contiguous 1-D float64 or complex128 view of the flow's padded state, the
    array its kernel reads, holding y0 on entry (the unknowns are stepped in
    its dtype), and ``evaluate(t)`` returns f(t, stage) as the kernel's bound
    output array (the flows ignore t).  Each point f is wanted at is written
    into ``stage`` by one numpy call, and each value of f is copied before the
    next call.  A gap slot (padding inside ``stage``) holds 0 with derivative
    0, so it stays exactly 0 and adds nothing to the error norms or max |y|;
    ``validate`` and the snapshots' readers skip it.  The one breakdown rule:
    the kernel is a pure array function, and ``validate(t, y)`` alone decides a
    breakdown (singularity / positivity loss).  It runs on every step that
    passes the error test, before it is accepted, and may raise to abort; a
    SingularDenominator from it is re-raised with ``t_bracket``, the start and
    end time of the step.  Where an off-trajectory f (the start probe, a stage
    argument) leaves the flow's domain its values are large or non-finite, and
    the error test rejects them, as it does a y_new that is not finite (an
    overflowed y_new makes every sc inf, so its error would read 0): every
    state ``validate`` sees, and so every snapshot, is finite.  The stepping
    runs under ``np.errstate(all="ignore")``, so they raise no warning.  y0
    is the caller's to check.  ``ctrl`` None means ``StepControl()``.  Returns (times,
    snapshots, stats): times are t0 followed by the output times, and the first
    snapshot is y0.

    The first step comes from ``_start_step``: f(t0, y0), which is also the
    first step's first stage, and one probe call of f.  Each attempt is
    clipped to land on the next output time, and a step accepted after such
    a clip leaves the proposal at least where it was before, so landing
    costs no extra steps later.

    ``stats`` holds ``accepted`` and ``rejected`` step counts, ``rhs_calls``
    (calls of f: 11 per attempt, plus f(t, y) once at each point an attempt
    starts from, which is one per accepted step, plus the probe),
    ``h_start``, the first attempted step, ``h_min`` and ``h_max`` over
    accepted steps (steps clipped to land on an output time included), and
    ``max_err_est``, the largest error E5^2 / hypot(E5, 0.1 E3) of an
    accepted step, with E5 = max_i |e5_i| / sc_i and E3 = max_i |e3_i| / sc_i
    the scaled norms of ``StepControl`` (at most 1).
    """
    require_finite("t_end", t_end, real=True)
    t0, t_end = _span(t0, t_end)
    slack = 1e-15 * max(1.0, abs(t_end))
    times = [t_end] if t_out is None else sorted(
        finite_array("output times", t_out, real=True).tolist())
    if not (times and all(t0 < x <= t_end + slack for x in times)):
        raise ValueError("output times must lie in (t0, t_end]")
    if not all(a < b for a, b in zip(times, times[1:])):
        raise ValueError("output times must not repeat")
    if t_end - times[-1] > slack:
        times.append(t_end)
    ctrl = ctrl or StepControl()

    table = _StageTable(stage.size, stage.dtype)
    y, k1 = table.Y[:2]
    y[...] = stage
    t = t0
    accepted = rejected = 0
    k1_due = False  # k1 = f(t, y) is still to evaluate at this y
    max_err = 0.0
    h_min, h_max = math.inf, 0.0
    snaps = [y.copy()]

    with np.errstate(all="ignore"):
        k1[...] = evaluate(t0)
        h = _start_step(stage, evaluate, t0, y, k1, t_end - t0, ctrl)
        h_start = min(h, times[0] - t0)
        for target in times:
            while target - t > 1e-15 * max(abs(target), 1.0):
                if accepted + rejected > _MAX_STEPS:
                    raise StepUnderflow(f"step budget exhausted at t={t}")
                h_try = min(h, target - t)
                if k1_due:  # stage still holds y, the last accepted y_new
                    k1[...] = evaluate(t)
                    k1_due = False
                e = table.step(stage, evaluate, t, h_try)
                scale = np.maximum(np.abs(y), np.abs(stage))
                smax = float(scale.max())
                sc = np.maximum(ctrl.abs_tol + ctrl.rel_tol * scale, _ROUNDING_FLOOR * smax)
                e5, e3 = (np.abs(e) / sc).max(axis=1).tolist()
                # a y_new that overflowed makes every sc inf, and its err would read 0
                err = (e5 * e5 / max(math.hypot(e5, 0.1 * e3), _TINY) if smax < math.inf
                       else math.inf)

                factor = 0.9 * err ** -0.125 if 0.0 < err < math.inf else \
                    (5.0 if err == 0.0 else 0.1)
                if not err <= 1.0:  # also catches NaN
                    rejected += 1
                    h = h_try * max(0.1, factor)
                    if h < _H_MIN:
                        raise StepUnderflow(f"h = {h:.3e} below floor at t = {t}")
                    continue
                try:
                    validate(t + h_try, stage)
                except SingularDenominator as exc:
                    raise SingularDenominator(exc.n, exc.value,
                                              t_bracket=(t, t + h_try)) from None
                max_err = max(max_err, err)
                h_next = max(h_try * min(5.0, max(0.2, factor)), _H_MIN)
                h = max(h_next, h) if h_try < h else h_next  # landing keeps the proposal
                k1_due = True
                accepted += 1
                h_min, h_max = min(h_min, h_try), max(h_max, h_try)
                t = t + h_try
                y[...] = stage
            t = target
            snaps.append(y.copy())
    stats = {"accepted": accepted, "rejected": rejected, "max_err_est": max_err,
             "h_start": h_start, "h_min": h_min, "h_max": h_max,
             "rhs_calls": 11 * (accepted + rejected) + accepted + 1}
    return [t0] + times, snaps, stats


def integrate(state: LatticeState, t_end: float, rhs_id: str = "ertl",
              ctrl: StepControl | None = None, t_out=None, _open=False,
              _validate=None) -> Trajectory:
    """Integrate a finite-closure state to t_end, snapshotting at t_out.

    The evolving unknowns are beta_1..beta_N and alpha_2..alpha_N; alpha_1
    and alpha_{N+1} stay pinned at 0.  ``rhs_id`` selects a system of
    ``SYSTEMS``: "rtl1" and "rtl2" run the generic flow at their forced
    (p, q), and their returned states carry it; "langmuir" checks the
    symmetric manifold once, here, then freezes beta and steps the Volterra
    flow.  When p, q and the state are real the unknowns are stepped as
    float64; the returned states are complex either way.  The output grid
    follows ``integrate_core``, so the returned times and states start at
    the state's own time.

    ``_open`` is ``integrate_buffered``'s (N >= 2): the kernel is bound with
    an open top, so alpha_{N+1} continues the tail instead of staying 0,
    and the returned states are buffered ones that carry it.
    ``_validate(t, beta, alpha)`` is ``integrate_cd``'s check of each
    accepted step, after the beta check: beta_1..N and alpha_1 = 0,
    alpha_2..N are views of the stepped vector, in its dtype.
    """
    if state.closure != "finite":
        raise ValueError("integration needs a finite-closure state")
    if rhs_id not in SYSTEMS:
        raise ValueError(f"unknown system {rhs_id!r}")
    N = state.N
    p, q = forced = SYSTEMS[rhs_id] or (state.p, state.q)

    buf = np.array([1, *state.beta, *state.alpha], dtype=complex)
    if p.imag == q.imag == 0.0 and not buf.imag.any():
        p, q, buf = p.real, q.real, buf.real.copy()  # step in float64

    if rhs_id == "langmuir":
        rhs_langmuir(state)  # raises NotSymmetricState off the symmetric manifold
        evaluate = _volterra_kernel(buf, _open)
    else:
        evaluate = _ertl_kernel(p, q, buf, _open)

    def validate(t, y):
        _check_betas(y[:N], t)
        if _validate is not None:
            _validate(t, y[:N], y[N:])

    times, snaps, stats = integrate_core(buf[1:-1], evaluate, state.t, t_end, t_out, ctrl,
                                         validate)
    states = []
    for tt, y in zip(times, snaps):
        v = y.astype(complex, copy=False).tolist()  # states stay complex
        top = 2 * v[-1] - v[-2] if _open else 0j
        states.append(LatticeState._unchecked(*forced, tt, tuple(v[:N]), (0j, *v[N + 1:], top),
                                              "buffered" if _open else "finite"))
    return Trajectory(times=tuple(times), states=tuple(states), step_stats=stats)


# ---------------------------------------------------------------------------
# Buffered truncation of semi-infinite systems
# ---------------------------------------------------------------------------

#: the reported sites of a run must agree with a larger window's to within this
BUFFER_VALIDATION_TOL = 1e-9
#: doublings of the first window that bound the check ladder: no check exceeds
#: n_buf 2^(BUFFER_ESCALATIONS + 1) sites, and BufferTooSmall once a check of
#: that size fails
BUFFER_ESCALATIONS = 3


def default_buffer(n_report: int, t_span: float) -> int:
    """Sites of a buffered run by default: n_report + 12 + ceil(24 t_span).

    The law was measured with the wall alpha_{N+1} = 0 closing each window.
    On example1 and example2 (delta = 1, q_w = 2) under ertl, rtl1, rtl2
    and langmuir (example1 only), at rel_tol 1e-8 with outputs at t_span/2
    and t_span, the smallest window whose 6-site head is within 1e-10 of a
    120-site run (a decade under BUFFER_VALIDATION_TOL) was 14-18 sites at
    t_span = 0.1, 18-24 at 0.25, 20-30 at 0.5, 28-42 at 1 and 38-64 at 2
    (rtl1 at the low end, ertl and langmuir at the high end).  For
    n_report = 6 the law gives 21, 24, 30, 42 and 66.  With the open top of
    ``integrate_buffered``'s windows these runs pass their first check, and
    slower-decaying data (delta = 0.3, q_w = 1, p = q = 1, t_span = 0.25,
    0.5 and 1), which the wall needed 34-96 sites for, pass it or need one
    more check.
    """
    return n_report + 12 + math.ceil(24.0 * max(t_span, 0.0))


def _head_gap(run, check, n_report):
    """Largest |run - check| over beta_1..beta_n and alpha_1..alpha_{n+1} (n = n_report).

    Every output time is compared.
    """
    def head(s):
        return np.array(s.beta[:n_report] + s.alpha[:n_report + 1])

    return max(float(np.abs(head(a) - head(b)).max())
               for a, b in zip(run.states, check.states))


def integrate_buffered(make_state, n_report: int, t_end: float,
                       rhs_id: str = "ertl", ctrl: StepControl | None = None,
                       t_out=None, n_buf: int | None = None) -> Trajectory:
    """Integrate a semi-infinite system by truncating past a buffer zone.

    ``make_state(M)`` must return a finite-closure state with M sites (the
    truncated initial data).  The first ``n_report`` sites of a buffered run
    are reported, with the true alpha_{n_report+1} taken from the buffer.
    The first run has n_buf sites, ``default_buffer``'s window unless
    given.  Each run of m sites is checked against a window of
    m + ceil(m / 4) sites, capped at n_buf 2^(BUFFER_ESCALATIONS + 1), and
    is reported when the two agree on the reported sites to
    BUFFER_VALIDATION_TOL.  On disagreement the check run becomes the run
    and the next check follows by the same rule.  BufferTooSmall is raised
    once a check of the capped size has failed.  Every run, check runs
    included, has an open top (``integrate``'s _open) and steps at
    ``ctrl``: the window is closed by continuing its tail, not by the wall
    alpha_{M+1} = 0, whose error would set every step.  What is left of
    the truncation still travels inward at a speed set by the local
    coefficient size, so systems whose coefficients grow with the site
    index need more buffer than the default.  ValueError is raised, before
    ``make_state`` is called, unless n_report and n_buf are integers (bool
    excluded), n_report >= 1, n_buf > n_report and t_end is a finite real
    number; and after the one probe call ``make_state(n_report)``, before any
    run, unless t_end exceeds the probe's start time.

    ``step_stats`` is the reported run's, plus ``n_buf`` (its window),
    ``windows`` (the sites of every run, in order) and ``deviation`` (the
    head deviation of the pair that agreed).
    """
    require_count("n_report", n_report)
    if n_buf is not None:
        require_count("n_buf", n_buf, least=n_report + 1)  # more sites than reported
    require_finite("t_end", t_end, real=True)
    state0 = make_state(n_report)  # cheap sanity probe of the callback
    _span(state0.t, t_end)
    if n_buf is None:
        n_buf = default_buffer(n_report, t_end - state0.t)

    def run(m):
        st = make_state(m)
        if st.N != m or st.closure != "finite":
            raise ValueError("make_state(M) must return a finite-closure state with M sites")
        return integrate(st, t_end, rhs_id=rhs_id, ctrl=ctrl, t_out=t_out, _open=True)

    largest = n_buf * 2 ** (BUFFER_ESCALATIONS + 1)
    windows = [n_buf]
    traj = run(n_buf)
    while True:
        m = windows[-1]
        windows.append(min(m + math.ceil(m / 4), largest))
        check = run(windows[-1])
        dev = _head_gap(traj, check, n_report)
        if dev < BUFFER_VALIDATION_TOL:
            break
        if windows[-1] == largest:
            raise BufferTooSmall(f"buffer {m} failed validation against {largest} sites, "
                                 f"and no larger check is tried (deviation {dev:.3e})")
        traj = check

    states = tuple(s.prefix(n_report) for s in traj.states)
    stats = dict(traj.step_stats, n_buf=windows[-2], windows=windows, deviation=dev)
    return Trajectory(times=traj.times, states=states, step_stats=stats)
