"""Output checks shared by the workloads.

Each check takes a program output and a reference computed by another route
and returns an ``Outcome``.  A check fails on non-finite output, on a shape
mismatch and on an error above its tolerance; it never trusts a summary value
(such as a drift) that the program derived from its own output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: error floor for the digit count; an exact match scores 16 digits
DIGITS_CAP = 16.0


@dataclass(frozen=True)
class Outcome:
    ok: bool
    digits: float  # -log10 of the norm-wise relative error; 0 for a failure
    detail: str = ""


def fail(detail: str) -> Outcome:
    return Outcome(False, 0.0, detail)


def digits_of(rel_err: float) -> float:
    return min(DIGITS_CAP, -math.log10(max(rel_err, 10.0 ** -DIGITS_CAP)))


def as_array(values) -> np.ndarray:
    return np.asarray([complex(v) for v in values], dtype=complex)


def compare(values, ref, tol: float, relative: bool = False) -> Outcome:
    """Element-wise comparison of ``values`` against ``ref``.

    Passes when max|x - ref| <= tol * min(1, max|ref|), i.e. the error is
    within tol both absolutely and relative to the reference's size; with
    ``relative`` the bound is tol * max|ref| alone (for quantities such as a
    determinant whose size carries no meaning).
    """
    x, r = as_array(values), as_array(ref)
    if x.shape != r.shape:
        return fail(f"shape {x.shape} != reference {r.shape}")
    if not np.all(np.isfinite(x)):
        return fail("non-finite output")
    scale = float(np.max(np.abs(r))) if r.size else 0.0
    err = float(np.max(np.abs(x - r))) if r.size else 0.0
    bound = tol * (scale if relative else min(1.0, scale))
    rel = err / scale if scale > 0 else err
    if err > bound:
        return fail(f"error {err:.3e} > {bound:.3e}")
    return Outcome(True, digits_of(rel))


def compare_sets(values, ref, tol: float) -> Outcome:
    """Compare two point sets by Hausdorff distance (used for spectra, whose
    order is not part of the result); the sizes must agree."""
    x, r = as_array(values), as_array(ref)
    if x.shape != r.shape:
        return fail(f"{x.size} points, reference has {r.size}")
    if not np.all(np.isfinite(x)):
        return fail("non-finite output")
    dist = np.abs(x[:, None] - r[None, :])
    err = max(float(dist.min(axis=0).max()), float(dist.min(axis=1).max()))
    scale = float(np.max(np.abs(r)))
    if err > tol * min(1.0, scale):
        return fail(f"Hausdorff distance {err:.3e} > {tol * min(1.0, scale):.3e}")
    return Outcome(True, digits_of(err / scale))


def worst(outcomes) -> Outcome:
    """Combine the outcomes of the parts of one task: all must pass."""
    outcomes = list(outcomes)
    for o in outcomes:
        if not o.ok:
            return o
    return Outcome(True, min(o.digits for o in outcomes))


def bounded(value, tol: float) -> Outcome:
    """A non-negative residual the program reports must be finite and <= tol."""
    v = float(value)
    if not math.isfinite(v):
        return fail("non-finite residual")
    if v > tol:
        return fail(f"residual {v:.3e} > {tol:.3e}")
    return Outcome(True, digits_of(v))


def hessenberg(beta, alpha) -> np.ndarray:
    """H of a finite-closure state, built here independently of ``ertl.lax``.

    ``beta`` lists beta_1..beta_N and ``alpha`` alpha_1..alpha_{N+1}:
    H[i, j] = gamma_{j+1} = alpha_{j+2} + beta_{j+1} for j >= i, first
    subdiagonal alpha_2..alpha_N.
    """
    b, a = as_array(beta), as_array(alpha)
    n = b.size
    gamma = a[1:] + b
    h = np.triu(np.broadcast_to(gamma, (n, n)))
    h[np.arange(1, n), np.arange(n - 1)] = a[1:n]
    return h


def invariants(beta, alpha) -> np.ndarray:
    """(tr H, det H) = (sum gamma_n, prod beta_n), conserved by the flow."""
    b, a = as_array(beta), as_array(alpha)
    return np.array([np.sum(a[1:] + b), np.prod(b)])
