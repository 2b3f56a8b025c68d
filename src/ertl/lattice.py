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
integrates extra sites with finite closure at the far end and reports only a
prefix, validating the buffer by doubling (and escalating it when the
validation fails, which happens when coefficients grow with site index).

The right-hand sides divide by beta_n and beta_{n-1}; a beta crossing zero is
a genuine blow-up of the flow and is detected (SingularDenominator), never
regularized.  Integration uses the embedded Dormand-Prince 5(4) pair with
FSAL (the last stage of an accepted step is the next step's first), and
accepts a step when its local error, scaled per component, is within the
tolerance (error per step, not per unit step).

Each flow has one right-hand-side kernel, written as shifted slices of
padded complex arrays b = (beta_0 = 1, beta_1..beta_N) and a = (alpha_0 =
-1, alpha_1..alpha_{N+1}): row n reads b[n-1..n+1] and a[n-1..n+1], so the
boundary conventions need no special case.  The public ``rhs_*`` functions
pad a state and return lists; ``integrate`` refills one pair of padded
arrays in place from its packed unknowns (beta_1..beta_N, alpha_2..alpha_N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BufferTooSmall, NotSymmetricState, PositivityLost,
                     SingularDenominator, StepUnderflow)

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
    beta_{N+1} are then NaN.
    """

    p: complex
    q: complex
    t: float
    beta: tuple
    alpha: tuple
    closure: str = "finite"

    def __post_init__(self):
        object.__setattr__(self, "beta", tuple(self.beta))
        object.__setattr__(self, "alpha", tuple(self.alpha))
        object.__setattr__(self, "p", complex(self.p))
        object.__setattr__(self, "q", complex(self.q))
        if self.closure not in ("finite", "buffered"):
            raise ValueError(f"unknown closure {self.closure!r}")
        if len(self.alpha) != len(self.beta) + 1:
            raise ValueError("need alpha_1..alpha_{N+1} alongside beta_1..beta_N")
        if self.alpha[0] != 0:
            raise ValueError("alpha_1 must be 0")
        if self.closure == "finite" and self.alpha[-1] != 0:
            raise ValueError("finite closure requires alpha_{N+1} = 0")
        _check_betas(self.beta, self.t)

    @property
    def N(self) -> int:
        return len(self.beta)

    def prefix(self, n: int) -> "LatticeState":
        """First n sites with the true alpha_{n+1}; closure becomes buffered."""
        if n >= self.N:
            return self
        return LatticeState(self.p, self.q, self.t, self.beta[:n],
                            self.alpha[:n + 1], closure="buffered")


def state_from_coeffs(p, q, t, beta, alpha_free, closure="finite", alpha_top=0):
    """Assemble a state from beta_1..beta_N and the free alpha_2..alpha_N."""
    alpha = (0,) + tuple(alpha_free) + (alpha_top,)
    return LatticeState(p=p, q=q, t=t, beta=tuple(beta), alpha=alpha, closure=closure)


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
# Right-hand sides: one shifted-slice kernel per flow on padded arrays
# ---------------------------------------------------------------------------

def _padded(beta, alpha):
    """b = (1, beta_1..beta_N) and a = (-1, alpha_1..alpha_{N+1}) as complex arrays."""
    return np.array([1, *beta], dtype=complex), np.array([-1, *alpha], dtype=complex)


def _check_betas(beta, t=None):
    """SingularDenominator at the first n with |beta_n| < EPS_SING (beta_1..beta_N)."""
    small = np.abs(beta) < EPS_SING
    if small.any():
        n = int(small.argmax())
        raise SingularDenominator(n + 1, complex(beta[n]), t=t)


def _ertl_kernel(p, q, b, a, t=None):
    """dbeta (length N) and dalpha (length N+1) on the padded b, a.

    Row n reads b[n-1..n+1] and a[n-1..n+1] (b[0] = beta_0 = 1, a[0] =
    alpha_0 = -1).  Entries that would require beta_{N+1} are 0 when
    alpha_{N+1} = 0 (the factor multiplies everything) and NaN otherwise.
    """
    _check_betas(b[1:], t)
    bn, bm = b[1:], b[:-1]                # beta_n, beta_{n-1}
    an, am, ap = a[1:-1], a[:-2], a[2:]   # alpha_n, alpha_{n-1}, alpha_{n+1}
    drag_out = np.zeros(bn.shape, dtype=complex)
    drag_out[:-1] = ap[:-1] / (bn[1:] * bn[:-1])
    dbeta = p * bn * (an - ap) + q * bn * (drag_out - an / (bn * bm))
    dalpha = np.zeros(an.size + 1, dtype=complex)
    dalpha[:-1] = p * an * (am + bm - ap - bn) + q * an * (1 / bm - 1 / bn)
    if a[-1] != 0:
        dbeta[-1] = dalpha[-1] = _NAN
    return dbeta, dalpha


def rhs_ertl(state: LatticeState):
    """Two-parameter flow; returns (dbeta_1..N, dalpha_1..N+1)."""
    b, a = _padded(state.beta, state.alpha)
    dbeta, dalpha = _ertl_kernel(state.p, state.q, b, a, state.t)
    return dbeta.tolist(), dalpha.tolist()


def rhs_gamma(state: LatticeState):
    """gamma_dot_1..gamma_dot_N; equals dalpha shifted by one plus dbeta."""
    b, a = _padded(state.beta, state.alpha)
    _check_betas(b[1:], state.t)
    ag = a[1:-1] * (a[2:] + b[1:])  # alpha_n gamma_n
    head = ag - np.append(ag[1:], 0)
    out = state.p * head + state.q * (a[2:] / b[1:] - a[1:-1] / b[:-1])
    if a[-1] != 0:
        out[-1] = _NAN
    return out.tolist()


#: tolerance for the frozen-beta check of the symmetric reduction
SYMMETRY_TOL = 1e-8


def _volterra_kernel(a):
    """dalpha_1..N+1 of alpha_dot_n = alpha_n (alpha_{n-1} - alpha_{n+1}), a padded."""
    out = np.empty_like(a[1:])
    out[:-1] = a[1:-1] * (a[:-2] - a[2:])
    out[-1] = 0 if a[-1] == 0 else _NAN
    return out


def rhs_langmuir(state: LatticeState):
    """Volterra flow alpha_dot_n = alpha_n (alpha_{n-1} - alpha_{n+1}).

    Requires the symmetric manifold beta_n = sqrt(q) (q real positive, p
    absorbed to 1); also verifies that the generic beta equation vanishes
    there, since the manifold must be invariant.  Returns dalpha_1..N+1.
    """
    q = state.q
    if abs(q.imag) > 1e-12 or q.real <= 0:
        raise NotSymmetricState("symmetric reduction needs real positive q")
    b, a = _padded(state.beta, state.alpha)
    dev = float(np.abs(b[1:] - math.sqrt(q.real)).max())
    if dev > SYMMETRY_TOL:
        raise NotSymmetricState(f"max |beta_n - sqrt(q)| = {dev:.3e}")

    dbeta, _ = _ertl_kernel(1, q, b, a, state.t)
    scale = 1.0 + float(np.abs(a[1:]).max())
    bad = float(np.abs(dbeta[~np.isnan(dbeta)]).max(initial=0.0))
    if bad > 1e-12 * scale:
        raise NotSymmetricState(f"beta equation does not vanish: {bad:.3e}")

    return _volterra_kernel(a).tolist()


#: system id -> the (p, q) it forces on the flow, or None to keep the state's
SYSTEMS = {"ertl": None, "rtl1": (0j, 1 + 0j), "rtl2": (1 + 0j, 0j), "langmuir": None}


# ---------------------------------------------------------------------------
# Time integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepControl:
    """Step-size policy of ``integrate_core``.

    Adaptive steps use the Dormand-Prince 5(4) pair and propagate its 5th-order
    solution.  Acceptance is error per step, each component scaled by its own
    size: a step from y to y_new is accepted when its embedded error estimate
    e satisfies |e_i| <= abs_tol + rel_tol * max(|y_i|, |y_new_i|) for every
    component i (with that scale floored at the estimate's rounding level,
    ``_ROUNDING_FLOOR`` times max |y|).  So ``rel_tol`` bounds the local error
    of one step, not the error per unit time.  ``fixed=True`` disables control
    and takes classical RK4 steps of size ``h_init`` (used for order
    measurements and as an independent reference).
    """

    h_init: float = 1e-2
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    fixed: bool = False
    enforce_positive: bool = False

    def __post_init__(self):
        if self.h_init <= 0 or self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances and h_init must be > 0")


# Dormand-Prince 5(4) tableau (Hairer, Norsett and Wanner, Solving ODEs I,
# Table II.5.2).  Row 6 of A is the 5th-order weight vector, so stage 7 is
# evaluated at the new solution and serves as the next step's k1 (FSAL);
# _DP_E holds the 5th- minus the 4th-order weights.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = np.array([
    [0, 0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0],
], dtype=complex)
_DP_E = np.array([71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200,
                  22 / 525, -1 / 40], dtype=complex)

#: error-scale floor relative to max |y|.  Adding the update h (b @ K) to y
#: rounds by about eps |y| every step, which the estimate e = h (E @ K) cannot
#: see, and e itself carries at most sum|E_j| (7 + 3.3) eps |y| = 1.65 eps |y|
#: of rounding: seven summed terms with h |k| <= |y|, plus stage-argument
#: rounding amplified by h |df/dy| <= 3.3, DP5's real stability bound.  A
#: scale of 2 eps |y| sits above both, so no step is rejected for noise.
_ROUNDING_FLOOR = 2 * float(np.finfo(float).eps)
#: smallest adaptive step before StepUnderflow
_H_MIN = 1e-14
#: attempted steps (accepted plus rejected) before StepUnderflow
_MAX_STEPS = 2_000_000


def _rk4(f, t, y, h, k1):
    """One classical RK4 step of size h from (t, y), given k1 = f(t, y)."""
    k2 = f(t + 0.5 * h, y + (0.5 * h) * k1)
    k3 = f(t + 0.5 * h, y + (0.5 * h) * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _dp54(f, t, y, h, K):
    """One Dormand-Prince 5(4) step of size h from (t, y).

    ``K`` is a (7, n) complex array whose row 0 holds f(t, y); rows 1..6 are
    filled with the later stages, row 6 being f(t + h, y_new).  Returns the
    5th-order y_new and the embedded error estimate h (E @ K).
    """
    for i in range(1, 7):
        y_stage = y + h * (_DP_A[i, :i] @ K[:i])
        K[i] = f(t + _DP_C[i] * h, y_stage)
    return y_stage, h * (_DP_E @ K)


def integrate_core(f, t0, y0, t_end, t_out, ctrl: StepControl, validate):
    """Drive y' = f(t, y) from t0 to t_end, snapshotting at the times ``t_out``.

    The one owner of output-grid semantics for every flow: ``t_out`` defaults
    to [t_end], is sorted, must lie in (t0, t_end] without repeats (ValueError
    otherwise, as for t_end <= t0) and gains t_end when missing.  Steps land
    exactly on every output time (no interpolation).  ``validate(t, y)`` runs
    after every accepted step and may raise to abort (singularity / positivity
    loss); the offending step is bracketed.  Returns (times, snapshots, stats)
    for the output times, t0 excluded.

    ``stats`` holds ``accepted`` and ``rejected`` step counts, ``rhs_calls``
    (calls of f: 1 + 6 per adaptive attempt, since an accepted step's last
    stage is the next one's first; 4 per fixed step), ``h_min`` and ``h_max``
    over accepted steps (steps clipped to land on an output time included),
    and ``max_err_est``, the largest weighted error ratio max_i |e_i| / sc_i
    of an accepted step (at most 1; 0.0 for fixed steps).
    """
    t0, t_end = float(t0), float(t_end)
    if t_end <= t0:
        raise ValueError("t_end must exceed the start time")
    slack = 1e-15 * max(1.0, abs(t_end))
    times = sorted(float(x) for x in ([t_end] if t_out is None else t_out))
    if not times or times[0] <= t0 or times[-1] > t_end + slack:
        raise ValueError("output times must lie in (t0, t_end]")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("output times must not repeat")
    if t_end - times[-1] > slack:
        times.append(t_end)

    rhs_calls = 0

    def counted(t, y):
        nonlocal rhs_calls
        rhs_calls += 1
        return f(t, y)

    y = np.array(y0, dtype=complex)
    K = np.empty((7, y.size), dtype=complex)
    t = t0
    h = ctrl.h_init
    accepted = rejected = 0
    max_err = 0.0
    h_min, h_max = math.inf, 0.0
    snaps = []

    for target in times:
        while target - t > 1e-15 * max(abs(target), 1.0):
            if accepted + rejected > _MAX_STEPS:
                raise StepUnderflow(f"step budget exhausted at t={t}")
            h_try = min(h, target - t)
            try:
                if ctrl.fixed:
                    y_new = _rk4(counted, t, y, h_try, counted(t, y))
                else:
                    if accepted + rejected == 0:  # later, K[0] = f(t, y) by FSAL
                        K[0] = counted(t, y)
                    y_new, e = _dp54(counted, t, y, h_try, K)
            except SingularDenominator as exc:
                raise SingularDenominator(exc.n, exc.value,
                                          t_bracket=(t, t + h_try)) from None

            if not ctrl.fixed:
                scale = np.maximum(np.abs(y), np.abs(y_new))
                sc = np.maximum(ctrl.abs_tol + ctrl.rel_tol * scale,
                                _ROUNDING_FLOOR * float(scale.max()))
                err = float(np.max(np.abs(e) / sc))
                factor = 0.9 * err ** -0.2 if 0.0 < err < math.inf else \
                    (5.0 if err == 0.0 else 0.1)
                if not err <= 1.0:  # also catches NaN
                    rejected += 1
                    h = h_try * max(0.1, factor)
                    if h < _H_MIN:
                        raise StepUnderflow(f"h = {h:.3e} below floor at t = {t}")
                    continue
                max_err = max(max_err, err)
                h = max(h_try * min(5.0, max(0.2, factor)), _H_MIN)
                K[0] = K[6]
            accepted += 1
            h_min, h_max = min(h_min, h_try), max(h_max, h_try)
            t = t + h_try
            y = y_new
            try:
                validate(t, y)
            except SingularDenominator as exc:
                raise SingularDenominator(exc.n, exc.value,
                                          t_bracket=(t - h_try, t)) from None
        t = target
        snaps.append(y.copy())
    stats = {"accepted": accepted, "rejected": rejected, "max_err_est": max_err,
             "h_min": h_min, "h_max": h_max, "rhs_calls": rhs_calls}
    return times, snaps, stats


def integrate(state: LatticeState, t_end: float, rhs_id: str = "ertl",
              ctrl: StepControl | None = None, t_out=None) -> Trajectory:
    """Integrate a finite-closure state to t_end, snapshotting at t_out.

    The evolving unknowns are beta_1..beta_N and alpha_2..alpha_N; alpha_1
    and alpha_{N+1} stay pinned at 0.  ``rhs_id`` selects a system of
    ``SYSTEMS``: "rtl1" and "rtl2" run the generic flow at their forced
    (p, q); "langmuir" checks the symmetric manifold once, here, then freezes
    beta and steps the Volterra flow.  The output grid follows
    ``integrate_core``; the returned times start at the state's own time.
    """
    if state.closure != "finite":
        raise ValueError("integration needs a finite-closure state")
    if rhs_id not in SYSTEMS:
        raise ValueError(f"unknown system {rhs_id!r}")
    ctrl = ctrl or StepControl()
    N = state.N
    p, q = SYSTEMS[rhs_id] or (state.p, state.q)

    b, a = _padded(state.beta, state.alpha)  # f refills the unknowns in place

    if rhs_id == "langmuir":
        rhs_langmuir(state)  # raises NotSymmetricState off the symmetric manifold

        def f(t, y):
            a[2:-1] = y[N:]
            return np.concatenate((np.zeros(N), _volterra_kernel(a)[1:-1]))
    else:
        def f(t, y):
            b[1:] = y[:N]
            a[2:-1] = y[N:]
            dbeta, dalpha = _ertl_kernel(p, q, b, a, t)
            return np.concatenate((dbeta, dalpha[1:-1]))

    def validate(t, y):
        _check_betas(y[:N], t)
        if ctrl.enforce_positive:
            if np.any(y.real <= 0.0) or np.any(np.abs(y.imag) > 1e-8 * (1 + np.abs(y.real))):
                raise PositivityLost(f"coefficient left the positive cone at t={t}", t=t)

    y0 = np.concatenate((b[1:], a[2:-1]))  # beta_1..beta_N, alpha_2..alpha_N
    times, snaps, stats = integrate_core(f, state.t, y0, t_end, t_out, ctrl, validate)
    states = [state] + [LatticeState(state.p, state.q, tt, y[:N].tolist(),
                                     [0j] + y[N:].tolist() + [0j]) for tt, y in zip(times, snaps)]
    return Trajectory(times=(state.t,) + tuple(times), states=tuple(states),
                      step_stats=stats)


# ---------------------------------------------------------------------------
# Buffered truncation of semi-infinite systems
# ---------------------------------------------------------------------------

#: reported sites must move less than this under buffer doubling
BUFFER_VALIDATION_TOL = 1e-9
#: buffer doublings tried before BufferTooSmall
BUFFER_ESCALATIONS = 3


def default_buffer(n_report: int, t_span: float) -> int:
    return n_report + max(10, math.ceil(10.0 * t_span))


def integrate_buffered(make_state, n_report: int, t_end: float,
                       rhs_id: str = "ertl", ctrl: StepControl | None = None,
                       t_out=None, n_buf: int | None = None) -> Trajectory:
    """Integrate a semi-infinite system by truncating past a buffer zone.

    ``make_state(M)`` must return a finite-closure state with M sites (the
    truncated initial data).  The first ``n_report`` sites of the buffered run
    are reported, with the true alpha_{n_report+1} taken from the buffer.
    The run is checked against one with twice the buffer, which must agree on
    the reported sites to BUFFER_VALIDATION_TOL; on disagreement the check run
    becomes the run and the buffer doubles, up to BUFFER_ESCALATIONS times,
    before BufferTooSmall is raised.  The perturbation from the artificial
    far-end closure travels inward at a speed set by the local coefficient
    size, so systems whose coefficients grow with the site index need more
    buffer than the default.
    """
    state0 = make_state(n_report)  # cheap sanity probe of the callback
    if n_buf is None:
        n_buf = default_buffer(n_report, t_end - state0.t)

    def run(m):
        st = make_state(m)
        if st.N != m or st.closure != "finite":
            raise ValueError("make_state(M) must return a finite-closure state with M sites")
        return integrate(st, t_end, rhs_id=rhs_id, ctrl=ctrl, t_out=t_out)

    traj = run(n_buf)
    for escalation in range(BUFFER_ESCALATIONS + 1):
        check = run(2 * n_buf)
        dev = 0.0
        for a, b in zip(traj.states, check.states):
            pa, pb = a.prefix(n_report), b.prefix(n_report)
            dev = max(dev, max(abs(x - y) for x, y in zip(pa.beta, pb.beta)))
            dev = max(dev, max(abs(x - y) for x, y in zip(pa.alpha, pb.alpha)))
        if dev < BUFFER_VALIDATION_TOL:
            break
        if escalation == BUFFER_ESCALATIONS:
            raise BufferTooSmall(
                f"buffer {n_buf} failed doubling validation (deviation {dev:.3e})")
        traj, n_buf = check, 2 * n_buf

    states = tuple(s.prefix(n_report) for s in traj.states)
    stats = dict(traj.step_stats, n_buf=n_buf)
    return Trajectory(times=traj.times, states=states, step_stats=stats)
