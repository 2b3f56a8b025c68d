import math

import numpy as np
import pytest
from hypothesis import settings

# reproducible property tests with no per-example deadline on a loaded machine
settings.register_profile("ertl", derandomize=True, deadline=None)
settings.load_profile("ertl")

from ertl import (SYSTEMS, LatticeState, Trajectory, compute_moments, discrete_spec,
                  example1_spec, example2_spec, rhs_ertl, stieltjes)
from ertl import lattice, lorth, measures


def beta_at(rc, n):
    """beta_n of RecurrenceCoeffs ``rc`` by its subscript, with beta_0 = 1."""
    return 1 if n == 0 else rc.beta[n - 1]


def alpha_at(rc, n):
    """alpha_n of ``rc`` by its subscript, with alpha_0 = -1 and alpha_1 = 0."""
    return (-1, 0)[n] if n < 2 else rc.alpha[n - 2]


def eval_Q(rc, n, x):
    """Q_n(x) by the forward three-term recurrence of ``rc`` (n <= rc.N)."""
    if not 0 <= n <= rc.N:
        raise ValueError(f"degree {n} outside 0..{rc.N}")
    q_prev, q_cur = 0, 1
    for k in range(n):
        q_prev, q_cur = q_cur, (x - rc.beta[k]) * q_cur - alpha_at(rc, k + 1) * x * q_prev
    return q_cur


def q_at_zero(rc, n):
    """Q_n(0) = (-1)^n beta_n ... beta_1, the product form of the constant term."""
    return (-1) ** n * math.prod(rc.beta[:n])


def direct_power_sums(x, w, K):
    """sum_j w_j x_j^k for k = -K..K, one k at a time: the direct route to a node set's moments."""
    x, w = np.asarray(x), np.asarray(w)
    return np.array([np.sum(w * x ** k) for k in range(-K, K + 1)])


def two_pass_stieltjes(table, N):
    """(lp, m): whole Stieltjes runs on a real-line table's m/2, m, 2m, ... rules,
    until every coefficient moves by at most QUAD_SETTLE_REL of its rounding scale.

    The second route to the rule ``lorth.bootstrap_recurrence`` settles at:
    the discretization test on the coefficients of two runs (Gautschi 2004,
    sec. 2.2.3) rather than on the sums of one.  The scale of beta_{n+1} and
    alpha_{n+1} is |c| / margin, the margin being the smallest of levels <= n.
    The m/2 rule is read off the table's m rule (even nodes, doubled weights),
    and each finer rule comes from ``finer``, which raises NonConvergentIntegral
    past the doubling budget.
    """
    rule = table.nodes
    prev = stieltjes(rule.x[0::2], 2.0 * rule.w[0::2], N)
    while True:
        cur = stieltjes(rule.x, rule.w, N)
        rho = np.minimum.accumulate(cur.margin)
        old = np.array(prev.beta + prev.alpha)
        new = np.array(cur.beta + cur.alpha)
        scale = np.maximum(np.abs(old), np.abs(new)) / np.concatenate([rho, rho[1:]])
        if np.all(np.abs(new - old) <= measures.QUAD_SETTLE_REL * scale):
            return cur, rule.m
        prev, rule = cur, rule.finer()


@pytest.fixture
def stieltjes_sweeps(monkeypatch):
    """The interval count (nodes - 1) of each ``lorth._stieltjes`` sweep, in call order."""
    sweeps, sweep = [], lorth._stieltjes

    def counted(x, w, N, nested=False):
        sweeps.append(len(x) - 1)
        return sweep(x, w, N, nested)

    monkeypatch.setattr(lorth, "_stieltjes", counted)
    return sweeps


@pytest.fixture
def lattice_runs(monkeypatch):
    """One dict per ``lattice.integrate_core`` call of a lattice flow, in call order.

    Each holds the window's ``N`` and its ``rhs_calls``.
    """
    runs, core = [], lattice.integrate_core

    def noted_core(stage, evaluate, t0, t_end, t_out, ctrl, validate):
        times, snaps, stats = core(stage, evaluate, t0, t_end, t_out, ctrl, validate)
        runs.append({"N": stage.size // 2, "rhs_calls": stats["rhs_calls"]})
        return times, snaps, stats

    monkeypatch.setattr(lattice, "integrate_core", noted_core)
    return runs


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


def orthogonality_residual(table, lp, n):
    """Largest relative violation of L[x^(-n+s) Q_n] = 0 over s = 0..n-1.

    Reads Q_n from the coefficient triangle ``lp.rows``; each condition is
    normalized by the magnitude sum of its terms, so the residual measures
    the achieved cancellation whatever the moment scale.
    """
    row = lp.rows[n]
    worst = 0.0
    for s in range(n):
        moms = [table.nu_at(j - n + s) for j in range(n + 1)]
        num = abs(complex(kahan_dot(row, moms)))
        den = sum(abs(complex(c)) * abs(complex(m)) for c, m in zip(row, moms))
        worst = max(worst, num / max(den, 1e-300))
    return worst


def rk4_reference(state, t_end, h, t_out=None, rhs_id="ertl"):
    """Classical RK4 on the public ``rhs_ertl``: the fixed-step reference for ``integrate``.

    It shares neither ``integrate``'s packing of the unknowns nor its float64
    stepping: every stage is a complex LatticeState.  Each stretch between
    output times (``t_out`` plus t_end) is cut into equal steps of at most h.
    ``rhs_id`` names a system of ``SYSTEMS`` stepped by the generic flow
    ("ertl", "rtl1", "rtl2"): a parameter it fixes takes the fixed value, and
    the state keeps the others.
    """
    if rhs_id not in ("ertl", "rtl1", "rtl2"):
        raise ValueError(f"no generic-flow reference for {rhs_id!r}")
    fixed = SYSTEMS[rhs_id]
    p, q = fixed.get("p", state.p), fixed.get("q", state.q)
    N = state.N

    def f(t, y):
        db, da = rhs_ertl(LatticeState(p, q, t, y[:N], [0j, *y[N:], 0j]))
        return np.array(db + da[1:-1])

    t, y = state.t, np.array(state.beta + state.alpha[1:-1], dtype=complex)
    times = sorted({*(t_out or ()), t_end})
    states = [state]
    for target in times:
        n = math.ceil((target - t) / h - 1e-9)
        dt = (target - t) / n
        for i in range(n):
            s = t + i * dt
            k1 = f(s, y)
            k2 = f(s + dt / 2, y + dt / 2 * k1)
            k3 = f(s + dt / 2, y + dt / 2 * k2)
            k4 = f(s + dt, y + dt * k3)
            y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t = target
        states.append(LatticeState(state.p, state.q, t, y[:N], [0j, *y[N:], 0j]))
    return Trajectory((state.t, *times), tuple(states), {})


def bound_flow(f, y0):
    """(stage, evaluate) of a plain f(t, y): the flow contract of ``integrate_core``.

    ``stage`` holds y0, as float64 when it is real and complex128 otherwise,
    and evaluate(t) returns f(t, stage).  The generic stepper tests state
    their problems as f(t, y) and bind them here.
    """
    stage = np.array(y0, dtype=complex if np.iscomplexobj(y0) else float)
    return stage, lambda t: f(t, stage)


def copying_step(table, stage, evaluate, t, h):
    """One DOP853 step in the stage form before the stage table: the second route to its ``step``.

    Each stage argument y + h A[i, :i] @ K[:i] is built as a new array and
    then copied into ``stage``, as an f(t, y) that refilled the kernel's
    arrays did; y_new = y + h (b @ K) is left in ``stage`` and h (E @ K)
    returned, as by ``lattice._StageTable.step``.
    """
    hA = h * lattice._DOP_A.astype(table.Y.dtype)
    y, K = table.Y[0], table.Y[1:]
    for i in range(1, 12):
        stage[...] = y + hA[i, :i] @ K[:i]
        K[i] = evaluate(t + lattice._DOP_C[i] * h)
    stage[...] = y + hA[12] @ K
    return h * (table.E @ K)


def cd_edge_rates(c, d, q):
    """(dc_1..M, dd_2..M) of the (c, d) flow from its edge terms: the second route to ``rhs_cd``.

    ``d`` lists d_1..d_M with d_1 = 0; c_0 = 1 and d_{M+1} = c_{M+1} = 0 pad
    the window.  With den_k = |z_k|^2 = 1 + c_k^2, P_n = Im(q z_n z_{n-1}),
    R_k = Re(q z_k) / den_k and G_n = (c_{n-1} - c_n) P_n / (den_n den_{n-1}),

        dc_n = 4 (d_n P_n / den_{n-1} - d_{n+1} P_{n+1} / den_{n+1}),
        dd_n = 4 d_n (d_{n-1} R_{n-2} - d_{n+1} R_{n+1} + (1 - d_n) G_n),

    the flow derived over the reals, where ``rhs_cd`` transports ``rhs_ertl``
    through the coefficient map.
    """
    qr, qi = q.real, q.imag
    C, D = np.array([1.0, *c, 0.0]), np.array([0.0, *d, 0.0])
    cn, cm = C[1:], C[:-1]
    den = 1.0 + C * C
    P = qr * (cn + cm) + qi * (1.0 - cn * cm)  # n = 1..M+1
    dP = D[1:] * P
    dc = 4.0 * (dP[:-1] / den[:-2] - dP[1:] / den[2:])
    R = (qr - qi * C) / den
    G = (cm - cn) * P / (den[1:] * den[:-1])
    dn = D[2:-1]
    dd = 4.0 * dn * (D[1:-2] * R[:-3] - D[3:] * R[3:] + (1.0 - dn) * G[1:-1])
    return dc, dd


def ertl_drag_rates(p, q, beta, alpha):
    """dbeta_1..N and dalpha_1..N+1 of the two-parameter flow: the second route to ``rhs_ertl``.

    The drag is q / (beta_n beta_{n-1}) in one quotient, and dbeta_n =
    beta_n s_n - beta_n s_{n+1} is formed in three steps, with dbeta_N set
    to NaN afterwards when alpha_{N+1} != 0 (s_{N+1} would need beta_{N+1});
    s_n = alpha_n (p - q / (beta_n beta_{n-1})) and v_n = p beta_n + q / beta_n.
    """
    b = np.array([1, *beta], dtype=complex)
    a = np.array([-1, *alpha], dtype=complex)
    bn, an = b[1:], a[1:-1]
    s = an * (p - q / (bn * b[:-1]))
    dbeta = bn * s
    dbeta[:-1] -= bn[:-1] * s[1:]
    if a[-1] != 0:
        dbeta[-1] = np.nan
    v = p * b + q / b
    dalpha = an * (p * (a[:-2] - a[2:]) + (v[:-1] - v[1:]))
    return dbeta, np.append(dalpha, 0j if a[-1] == 0 else complex(np.nan, np.nan))


def tau_closed_form(lp, n):
    """tau_n = L[x Q_n] as sigma_{n,n} * sum_{k=1}^{n+1} gamma_k, gamma_k = alpha_{k+1} + beta_k.

    The second route to ``lp.tau[n]`` (n <= N-1): alpha_{N+1}, past the
    sequence's coefficients, is the sigma ratio sigma_{N,N} / sigma_{N-1,N-1}.
    """
    alpha = lp.alpha + (lp.sigma_diag[lp.N] / lp.sigma_diag[lp.N - 1],)  # alpha_2..alpha_{N+1}
    return lp.sigma_diag[n] * sum(a + b for a, b in zip(alpha[:n + 1], lp.beta[:n + 1]))


@pytest.fixture(scope="session")
def ex1_spec():
    return example1_spec(1.0, 2.0)


@pytest.fixture(scope="session")
def ex1_table_t0(ex1_spec):
    return compute_moments(ex1_spec, 0.0, 10)


@pytest.fixture(scope="session")
def ex2_spec():
    return example2_spec(1.0, 2.0)


@pytest.fixture(scope="session")
def ten_node_spec():
    """Well-spread positive discrete measure, regular to depth ~10."""
    nodes = [0.31, 0.55, 0.83, 1.12, 1.55, 2.1, 2.9, 4.0, 5.6, 7.9]
    weights = [1.0, 0.7, 1.3, 0.9, 1.1, 0.8, 1.2, 0.6, 1.0, 0.5]
    return discrete_spec(nodes, weights, p=1.0, q=2.0)


@pytest.fixture
def rng():
    """A fresh generator per test: its draws do not depend on which tests ran before."""
    return np.random.default_rng(20240817)
