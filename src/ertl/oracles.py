"""Closed-form recurrence coefficients of two weight families.

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
and, as exact solutions of the flow, for the lattice integrators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lorth import RecurrenceCoeffs
from .measures import require_count, require_finite, require_number


@dataclass(frozen=True)
class ClosedFormExample:
    """Parameters of a closed-form weight family: id in {example1, example2}, delta, q > 0."""

    id: str
    delta: float
    q: float

    def __post_init__(self):
        if self.id not in ("example1", "example2"):
            raise ValueError(f"unknown closed-form family {self.id!r}")
        for name, value in (("delta", self.delta), ("q", self.q)):
            require_finite(name, value, real=True)
            if not value > 0:
                raise ValueError(f"{name} must be finite and > 0")


def _check_call(ex: ClosedFormExample, family: str, t: float, N: int):
    """ValueError unless ``ex`` is of ``family``, t a finite real with t + delta > 0 and N >= 1."""
    if ex.id != family:
        raise ValueError(f"{family}_coeffs given a {ex.id} example; "
                         f"the {ex.id} family needs {ex.id}_coeffs")
    require_number("t", t, real=True)
    if not t > -ex.delta:  # t + delta > 0, also false for NaN; exact for any integer t
        raise ValueError("need t + delta > 0")
    require_finite("t", t, real=True)
    require_count("depth N", N)


def example1_coeffs(ex: ClosedFormExample, t: float, N: int) -> RecurrenceCoeffs:
    """beta_n = sqrt(q), alpha_{n+1} = n/(2(t+delta)) for the first family."""
    _check_call(ex, "example1", t, N)
    s = t + ex.delta
    beta = [math.sqrt(ex.q)] * N
    alpha = [n / (2.0 * s) for n in range(1, N)]  # alpha_2..alpha_N
    return RecurrenceCoeffs(t=t, p=1.0 + 0j, q=complex(ex.q), beta=beta, alpha=alpha)


def _l_sequence(ex: ClosedFormExample, t: float, N: int):
    """l_0..l_N: l_0 = 1, l_n = 1 + c_n/(l_{n-1}+1) with c_n = n/(2 sqrt(q) (t+delta))."""
    s = t + ex.delta
    sq = math.sqrt(ex.q)
    l = [1.0]
    for n in range(1, N + 1):
        l.append(1.0 + n / (2.0 * sq * s) / (l[n - 1] + 1.0))
    return l


def example2_coeffs(ex: ClosedFormExample, t: float, N: int) -> RecurrenceCoeffs:
    """Coefficients of the second family via the l_n forward recursion."""
    _check_call(ex, "example2", t, N)
    l = _l_sequence(ex, t, N)
    sq = math.sqrt(ex.q)
    beta = [sq * l[n - 1] / l[n] for n in range(1, N + 1)]
    # alpha_{n+1} = beta_n (l_n^2 - 1) for n = 1..N-1 fills alpha_2..alpha_N
    alpha = [beta[n - 1] * (l[n] ** 2 - 1.0) for n in range(1, N)]
    return RecurrenceCoeffs(t=t, p=1.0 + 0j, q=complex(ex.q), beta=beta, alpha=alpha)

