"""Closed-form coefficient families and their analytic time derivatives."""

import math

import numpy as np
import pytest

from ertl import (ClosedFormExample, example1_coeffs, example2_coeffs, rhs_ertl,
                  state_from_coeffs)


def example2_coeff_derivatives(ex, t, N):
    """Analytic (beta_dot_1..N, alpha_dot_2..N) of the second family.

    Differentiating l_n = 1 + c_n/(l_{n-1}+1), c_n = n/(2 sqrt(q) (t+delta)),
    gives the forward chain-rule recursion (no finite differences)

        ldot_n = cdot_n/(l_{n-1}+1) - c_n ldot_{n-1}/(l_{n-1}+1)^2,

    and beta_n = sqrt(q) l_{n-1}/l_n, alpha_{n+1} = beta_n (l_n^2 - 1) give

        beta_dot_n      = sqrt(q) (ldot_{n-1} l_n - l_{n-1} ldot_n) / l_n^2,
        alpha_dot_{n+1} = beta_dot_n (l_n^2 - 1) + 2 beta_n l_n ldot_n.
    """
    s, sq = t + ex.delta, math.sqrt(ex.q)
    l, ldot = [1.0], [0.0]
    for n in range(1, N + 1):
        c, cdot = n / (2.0 * sq * s), -n / (2.0 * sq * s * s)
        denom = l[n - 1] + 1.0
        l.append(1.0 + c / denom)
        ldot.append(cdot / denom - c * ldot[n - 1] / (denom * denom))
    beta_dot = [sq * (ldot[n - 1] * l[n] - l[n - 1] * ldot[n]) / l[n] ** 2
                for n in range(1, N + 1)]
    alpha_dot = [beta_dot[n - 1] * (l[n] ** 2 - 1.0) + 2.0 * (sq * l[n - 1] / l[n]) * l[n] * ldot[n]
                 for n in range(1, N)]
    return beta_dot, alpha_dot


def test_example1_values_at_zero():
    ex = ClosedFormExample("example1", 1.0, 2.0)
    rc = example1_coeffs(ex, 0.0, 4)
    assert rc.beta == tuple([pytest.approx(np.sqrt(2.0))] * 4)
    assert rc.alpha == (pytest.approx(0.5), pytest.approx(1.0), pytest.approx(1.5))


def test_example1_values_at_one():
    ex = ClosedFormExample("example1", 1.0, 2.0)
    rc = example1_coeffs(ex, 1.0, 5)
    for n in range(1, 5):
        assert rc.alpha[n - 1] == pytest.approx(n / 4.0)  # alpha_{n+1}


def test_example2_hand_values():
    ex = ClosedFormExample("example2", 1.0, 1.0)
    rc = example2_coeffs(ex, 0.0, 3)
    assert rc.beta[0] == pytest.approx(4.0 / 5.0)
    assert rc.alpha[0] == pytest.approx(9.0 / 20.0)


@pytest.mark.parametrize("coeffs, own, other", [(example1_coeffs, "example1", "example2"),
                                                (example2_coeffs, "example2", "example1")])
def test_family_mismatch_rejected(coeffs, own, other):
    with pytest.raises(ValueError, match=f"{own}.*{other}"):
        coeffs(ClosedFormExample(other, 1.0, 2.0), 0.0, 3)


def test_example2_l_monotone_and_positive():
    ex = ClosedFormExample("example2", 0.7, 3.0)
    rc = example2_coeffs(ex, 0.2, 10)
    # l_n increasing above 1 forces beta in (0, sqrt(q)) and positive alpha
    assert all(0.0 < b.real < np.sqrt(3.0) for b in rc.beta)
    assert all(a.real > 0.0 for a in rc.alpha)


def test_example1_is_exact_flow_solution():
    # rhs on the closed-form state equals the analytic derivative pointwise
    ex = ClosedFormExample("example1", 1.0, 2.0)
    for t in (0.0, 0.7):
        rc = example1_coeffs(ex, t, 14)
        state = state_from_coeffs(1.0, 2.0, t, rc.beta, rc.alpha)
        db, da = rhs_ertl(state)
        for n in range(1, 10):
            assert abs(db[n - 1]) < 1e-12
            ref = -(n - 1) / (2.0 * (t + 1.0) ** 2)
            assert abs(da[n - 1] - ref) < 1e-12


def test_example2_satisfies_both_flow_equations():
    # closed form + analytic l-dot derivatives inserted into both lattice
    # equations; not finite-difference limited
    ex = ClosedFormExample("example2", 1.0, 2.0)
    t, N = 0.3, 12
    rc = example2_coeffs(ex, t, N)
    bdot, adot = example2_coeff_derivatives(ex, t, N)
    state = state_from_coeffs(1.0, 2.0, t, rc.beta, rc.alpha)
    db, da = rhs_ertl(state)
    for n in range(1, 9):
        assert abs(db[n - 1] - bdot[n - 1]) < 1e-10
        if n >= 2:
            assert abs(da[n - 1] - adot[n - 2]) < 1e-10


def test_bad_family_rejected():
    with pytest.raises(ValueError):
        ClosedFormExample("example3", 1.0, 1.0)
    with pytest.raises(ValueError):
        ClosedFormExample("example1", -1.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_parameters_rejected(bad):
    for delta, q in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(ValueError, match="finite"):
            ClosedFormExample("example1", delta, q)


@pytest.mark.parametrize("t", [math.nan, -math.inf, -1.0])
@pytest.mark.parametrize("family", ["example1", "example2"])
def test_time_outside_family_rejected(family, t):
    # t + delta must be > 0; a NaN t must not give rows of NaN
    coeffs = example1_coeffs if family == "example1" else example2_coeffs
    with pytest.raises(ValueError, match="t \\+ delta > 0"):
        coeffs(ClosedFormExample(family, 1.0, 2.0), t, 3)


@pytest.mark.parametrize("N", [0, -1])
@pytest.mark.parametrize("family", ["example1", "example2"])
def test_depth_below_1_rejected(family, N):
    # an empty family was returned before
    coeffs = example1_coeffs if family == "example1" else example2_coeffs
    with pytest.raises(ValueError, match="depth N must be >= 1"):
        coeffs(ClosedFormExample(family, 1.0, 2.0), 0.0, N)
