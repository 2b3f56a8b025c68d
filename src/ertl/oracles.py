"""Closed-form recurrence coefficients and finite-difference references.

Two weight families on the positive axis admit explicit recurrence
coefficients for the time-modified functionals (weight parameter delta is
simply shifted to delta + t):

* ``example1`` (weight x^(-1/2) exp(-delta(x + q/x))):
      beta_n(t) = sqrt(q),   alpha_{n+1}(t) = n / (2 (t + delta)),   n >= 1.

* ``example2`` (weight (x + sqrt(q)) x^(-3/2) exp(-delta(x + q/x))):
      beta_n(t) = sqrt(q) l_{n-1}/l_n,  alpha_{n+1}(t) = beta_n(t) (l_n^2 - 1),
  with the continued-fraction-like forward recursion
      l_0 = 1,   l_n = 1 + (n / (2 sqrt(q) (t + delta))) / (l_{n-1} + 1).
  (The l-ratio alone is the q = 1 normalized form; beta scales like sqrt(q)
  under x -> sqrt(q) x, which the quadrature bootstrap confirms.)

These serve as independent references for the quadrature + bootstrap pipeline
and for the lattice right-hand sides (their analytic time derivatives are
available in closed form, so the checks are not finite-difference limited).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lorth import RecurrenceCoeffs


@dataclass(frozen=True)
class ClosedFormExample:
    """Parameters of a closed-form weight family: id in {example1, example2}."""

    id: str
    delta: float
    q: float

    def __post_init__(self):
        if self.id not in ("example1", "example2"):
            raise ValueError(f"unknown closed-form family {self.id!r}")
        if not self.delta > 0:
            raise ValueError("delta must be > 0")
        if not self.q > 0:
            raise ValueError("q must be > 0")


def example1_coeffs(ex: ClosedFormExample, t: float, N: int) -> RecurrenceCoeffs:
    """beta_n = sqrt(q), alpha_{n+1} = n/(2(t+delta)) for the first family."""
    if t + ex.delta <= 0:
        raise ValueError("need t + delta > 0")
    s = t + ex.delta
    beta = [math.sqrt(ex.q)] * N
    alpha = [n / (2.0 * s) for n in range(1, N)]  # alpha_2..alpha_N
    return RecurrenceCoeffs(t=t, p=1.0 + 0j, q=complex(ex.q), beta=beta, alpha=alpha)


def _l_sequence(ex: ClosedFormExample, t: float, N: int):
    """l_0..l_N and their analytic time derivatives ldot_0..ldot_N.

    Differentiating  l_n = 1 + c_n(t)/(l_{n-1}+1)  with
    c_n(t) = n/(2 sqrt(q) (t+delta))  gives

        ldot_n = cdot_n/(l_{n-1}+1) - c_n ldot_{n-1}/(l_{n-1}+1)^2,

    a forward chain-rule recursion (no finite differences involved).
    """
    s = t + ex.delta
    sq = math.sqrt(ex.q)
    l = [1.0]
    ldot = [0.0]
    for n in range(1, N + 1):
        c = n / (2.0 * sq * s)
        cdot = -n / (2.0 * sq * s * s)
        denom = l[n - 1] + 1.0
        l.append(1.0 + c / denom)
        ldot.append(cdot / denom - c * ldot[n - 1] / (denom * denom))
    return l, ldot


def example2_coeffs(ex: ClosedFormExample, t: float, N: int) -> RecurrenceCoeffs:
    """Coefficients of the second family via the l_n forward recursion."""
    if t + ex.delta <= 0:
        raise ValueError("need t + delta > 0")
    l, _ = _l_sequence(ex, t, N)
    sq = math.sqrt(ex.q)
    beta = [sq * l[n - 1] / l[n] for n in range(1, N + 1)]
    # alpha_{n+1} = beta_n (l_n^2 - 1) for n = 1..N-1 fills alpha_2..alpha_N
    alpha = [beta[n - 1] * (l[n] ** 2 - 1.0) for n in range(1, N)]
    return RecurrenceCoeffs(t=t, p=1.0 + 0j, q=complex(ex.q), beta=beta, alpha=alpha)


def example2_coeff_derivatives(ex: ClosedFormExample, t: float, N: int):
    """Analytic (beta_dot_1..N, alpha_dot_2..N) for the second family.

    beta_n = sqrt(q) l_{n-1}/l_n  and  alpha_{n+1} = beta_n (l_n^2 - 1), so

        beta_dot_n  = (ldot_{n-1} l_n - l_{n-1} ldot_n) / l_n^2
        alpha_dot_{n+1} = beta_dot_n (l_n^2 - 1) + 2 beta_n l_n ldot_n.
    """
    l, ldot = _l_sequence(ex, t, N)
    sq = math.sqrt(ex.q)
    beta_dot = []
    alpha_dot = []
    for n in range(1, N + 1):
        bd = sq * (ldot[n - 1] * l[n] - l[n - 1] * ldot[n]) / (l[n] ** 2)
        beta_dot.append(bd)
    for n in range(1, N):
        b_n = sq * l[n - 1] / l[n]
        ad = beta_dot[n - 1] * (l[n] ** 2 - 1.0) + 2.0 * b_n * l[n] * ldot[n]
        alpha_dot.append(ad)
    return beta_dot, alpha_dot


def fd_derivative(f, t: float, h: float = 1e-4, richardson: bool = False):
    """Central difference (f(t+h) - f(t-h)) / (2h), vector valued.

    With ``richardson`` the h and h/2 stencils are combined to cancel the
    leading O(h^2) term; the pair is also the standard smoothness check
    (the two stencils should agree to ~h^2/4).
    """
    if h <= 0:
        raise ValueError("h must be > 0")
    d1 = (np.asarray(f(t + h)) - np.asarray(f(t - h))) / (2.0 * h)
    if not richardson:
        return d1
    d2 = (np.asarray(f(t + h / 2)) - np.asarray(f(t - h / 2))) / h
    return (4.0 * d2 - d1) / 3.0
