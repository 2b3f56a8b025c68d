"""Moment functionals, their exponential time modification, and moment tables.

A moment functional L acts on Laurent polynomials and is characterized by its
two-sided moment sequence ``nu_k = L[x^k]``, k in Z.  The time-modified family
is

    nu_k(t) = L[exp(-t*(p*x + q/x)) * x^k],

with complex modification coefficients ``p`` and ``q``.  Four kinds of
functionals are supported:

* ``real_line_weighted`` -- L[f] = integral of f over (0, inf) against a named
  strong positive weight (families ``example1`` and ``example2`` below),
* ``unit_circle_weighted`` -- L[f] = integral over |z| = 1 of f(z) * z dmu(z)
  (``circle_lebesgue``) or f(z) * (z - w) dmu(z) (``circle_kernel``), where
  mu is the normalized arc measure plus optional point masses and the
  modification requires p = conj(q),
* ``discrete`` -- finite positive point masses on (0, inf); moments are
  finite sums (exact in rational arithmetic by ``compute_moments_exact``),
* ``explicit_table`` -- moments supplied directly.

Every kind but ``explicit_table`` is evaluated as one weighted node set
(x_j, w_j): the moments are its power sums nu_k = sum_j w_j x_j^k, formed by
one kernel.  Discrete nodes are summed once in plain floating point; the
real-line and circle kinds are equispaced trapezoid rules whose node count
one loop doubles until every nu_k has settled to its rounding scale
sum_j |w_j x_j^k|.

Weight families on the positive axis:

    example1:  dpsi(x)  = x**(-1/2) * exp(-delta*(x + q/x)) dx
    example2:  dpsi(x)  = (x + sqrt(q)) * x**(-3/2) * exp(-delta*(x + q/x)) dx

both with delta > 0, q > 0, and modification defaults p = 1, same q, so that
the modified weight is the base weight with delta replaced by delta + t.

Hankel determinants H_n^(m) built from a table serve as existence diagnostics
only; they are exponentially ill-conditioned and are never the production
route to recurrence coefficients.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import IndexOutOfTable, InvalidSupport, NonConvergentIntegral

REAL_LINE_FAMILIES = ("example1", "example2")
CIRCLE_FAMILIES = ("circle_lebesgue", "circle_kernel")

#: default relative tolerance of the quadrature backends
QUAD_RTOL = 1e-12
#: internal doubling target, one order tighter than the advertised tolerance
_QUAD_INTERNAL = 1e-13
#: integrand values below this fraction of the peak are treated as tail
_TAIL_FLOOR = 1e-18


# ---------------------------------------------------------------------------
# MomentSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentSpec:
    """Declarative description of a moment functional and its modification.

    Immutable after construction; all invariants are checked in
    ``__post_init__`` so that an instance in hand is always usable.
    """

    kind: str
    weight_id: str = ""
    params: dict = field(default_factory=dict)
    p: complex = 0j
    q: complex = 0j
    support: tuple = (0.0, math.inf)
    nodes: tuple = ()
    weights: tuple = ()

    def __post_init__(self):
        if self.kind not in ("real_line_weighted", "unit_circle_weighted",
                             "discrete", "explicit_table"):
            raise ValueError(f"unknown kind {self.kind!r}")
        object.__setattr__(self, "p", complex(self.p))
        object.__setattr__(self, "q", complex(self.q))
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "weights", tuple(self.weights))
        object.__setattr__(self, "support", tuple(self.support))

        if self.kind == "discrete":
            if not self.nodes:
                raise ValueError("discrete spec needs at least one node")
            if len(self.nodes) != len(self.weights):
                raise ValueError("nodes and weights must have equal length")
            if any(not (float(x) > 0.0) for x in self.nodes):
                raise ValueError("discrete nodes must be strictly positive")
            if len({float(x) for x in self.nodes}) != len(self.nodes):
                raise ValueError("discrete nodes must be distinct")
            if any(not (float(w) > 0.0) for w in self.weights):
                raise ValueError("discrete weights must be strictly positive")

        elif self.kind == "real_line_weighted":
            if self.weight_id not in REAL_LINE_FAMILIES:
                raise ValueError(f"unknown real-line weight family {self.weight_id!r}")
            a, b = self.support
            if not (0.0 <= a < b):
                raise ValueError("support must satisfy 0 <= a < b")
            delta = self.params.get("delta")
            qw = self.params.get("q")
            if delta is None or not delta > 0:
                raise ValueError("weight parameter delta must be > 0")
            if qw is None or not qw > 0:
                raise ValueError("weight parameter q must be > 0")
            if math.isinf(b) or a == 0.0:
                # unbounded support: both exponential directions must damp
                if not (self.p.real > 0.0 and self.q.real > 0.0):
                    raise InvalidSupport(
                        "unbounded support requires Re(p) > 0 and Re(q) > 0; "
                        "refusing a divergent modification")

        elif self.kind == "unit_circle_weighted":
            if self.weight_id not in CIRCLE_FAMILIES:
                raise ValueError(f"unknown circle weight family {self.weight_id!r}")
            if abs(self.p - self.q.conjugate()) > 1e-15 * (1.0 + abs(self.q)):
                raise ValueError("circle kinds require p = conj(q)")
            if self.weight_id == "circle_kernel":
                w = complex(self.params.get("w", 1.0))
                if abs(abs(w) - 1.0) > 1e-12:
                    raise ValueError("kernel point w must have |w| = 1")
            for theta, mass in self.params.get("atoms", ()):
                if not mass > 0:
                    raise ValueError("atom masses must be positive")

        elif self.kind == "explicit_table":
            if "nu" not in self.params:
                raise ValueError("explicit_table spec needs params['nu']")

    # -- JSON (external interface) ------------------------------------------------

    def to_json_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "weight_id": self.weight_id,
            "params": _params_to_json(self.params),
            "p": [self.p.real, self.p.imag],
            "q": [self.q.real, self.q.imag],
            "nodes": [float(x) for x in self.nodes],
            "weights": [float(w) for w in self.weights],
        }
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json_dict(d: dict) -> "MomentSpec":
        p = complex(*d.get("p", (0.0, 0.0)))
        q = complex(*d.get("q", (0.0, 0.0)))
        return MomentSpec(
            kind=d["kind"],
            weight_id=d.get("weight_id", ""),
            params=_params_from_json(d.get("params", {})),
            p=p,
            q=q,
            nodes=tuple(d.get("nodes", ())),
            weights=tuple(d.get("weights", ())),
        )

    @staticmethod
    def from_json(text: str) -> "MomentSpec":
        return MomentSpec.from_json_dict(json.loads(text))


def _params_to_json(params: dict) -> dict:
    out = {}
    for key, val in params.items():
        if key == "w":
            z = complex(val)
            out[key] = [z.real, z.imag]
        elif key == "atoms":
            out[key] = [[float(th), float(m)] for th, m in val]
        elif key == "nu":
            out[key] = {str(k): [complex(v).real, complex(v).imag] for k, v in val.items()}
        else:
            out[key] = val
    return out


def _params_from_json(params: dict) -> dict:
    out = {}
    for key, val in params.items():
        if key == "w":
            out[key] = complex(*val)
        elif key == "atoms":
            out[key] = [(th, m) for th, m in val]
        elif key == "nu":
            out[key] = {int(k): complex(*v) for k, v in val.items()}
        else:
            out[key] = val
    return out


# -- convenience factories ------------------------------------------------------

def example1_spec(delta: float, q: float) -> MomentSpec:
    """Weight x^(-1/2) exp(-delta(x + q/x)) on (0, inf), modification p=1, same q."""
    return MomentSpec(kind="real_line_weighted", weight_id="example1",
                      params={"delta": float(delta), "q": float(q)},
                      p=1.0, q=float(q))


def example2_spec(delta: float, q: float) -> MomentSpec:
    """Weight (x + sqrt(q)) x^(-3/2) exp(-delta(x + q/x)) on (0, inf)."""
    return MomentSpec(kind="real_line_weighted", weight_id="example2",
                      params={"delta": float(delta), "q": float(q)},
                      p=1.0, q=float(q))


def discrete_spec(nodes, weights, p=0.0, q=0.0) -> MomentSpec:
    return MomentSpec(kind="discrete", nodes=tuple(nodes), weights=tuple(weights),
                      p=p, q=q)


def circle_lebesgue_spec(q, atoms=()) -> MomentSpec:
    """Functional f |-> int f(z) z dmu^(t)(z) over mu = arc measure + atoms."""
    qc = complex(q)
    return MomentSpec(kind="unit_circle_weighted", weight_id="circle_lebesgue",
                      params={"atoms": tuple(atoms)} if atoms else {},
                      p=qc.conjugate(), q=qc)


def circle_kernel_spec(q, w=1.0, atoms=()) -> MomentSpec:
    """Functional f |-> int f(z) (z - w) dmu^(t)(z), |w| = 1."""
    qc = complex(q)
    params = {"w": complex(w)}
    if atoms:
        params["atoms"] = tuple(atoms)
    return MomentSpec(kind="unit_circle_weighted", weight_id="circle_kernel",
                      params=params, p=qc.conjugate(), q=qc)


def explicit_table_spec(nu: dict, t0: float = 0.0) -> MomentSpec:
    return MomentSpec(kind="explicit_table", params={"nu": dict(nu), "t0": float(t0)})


# ---------------------------------------------------------------------------
# MomentTable
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentTable:
    """Immutable snapshot of moments nu_k(t) for |k| <= K at one time.

    ``positive`` marks tables arising from a positive measure on the positive
    real axis (strong positivity of Hankel determinants is then expected).
    Entries are complex scalars, or ``fractions.Fraction`` when the provenance
    is ``exact_rational``.
    """

    t: float
    K: int
    nu: dict
    provenance: str
    positive: bool = False
    kind: str = ""
    weight_id: str = ""

    def __post_init__(self):
        for k, v in self.nu.items():
            if isinstance(v, Fraction):
                continue
            z = complex(v)
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ValueError(f"non-finite moment nu_{k} = {v!r}")

    def nu_at(self, k: int):
        try:
            return self.nu[k]
        except KeyError:
            raise IndexOutOfTable(f"moment nu_{k} not in table (|k| <= {self.K})") from None

    def covers(self, kmin: int, kmax: int) -> bool:
        return all(k in self.nu for k in range(kmin, kmax + 1))

    @property
    def exact(self) -> bool:
        return self.provenance == "exact_rational"


# ---------------------------------------------------------------------------
# Weighted node sets and their power sums
# ---------------------------------------------------------------------------

#: node-count doublings allowed to the quadrature kinds before giving up
_MAX_DOUBLINGS = 16
#: nodes per slab of the power-sum kernel, bounding its array at (2K+1) x _SLAB
_SLAB = 4096


def _power_sums(x, w, K: int):
    """(nu_k, s_k) = (sum_j w_j x_j^k, sum_j |w_j x_j^k|) for k = -K..K.

    Every kind's moments are the power sums of one weighted node set; s_k is
    the rounding scale of nu_k.  The (2K+1) x m terms are formed a slab of
    nodes at a time, so memory stays bounded at the doubling budget.
    """
    ks = np.arange(-K, K + 1)[:, None]
    nu = np.zeros(2 * K + 1, dtype=complex)
    scale = np.zeros(2 * K + 1)
    for s in range(0, len(x), _SLAB):
        terms = w[s:s + _SLAB] * x[s:s + _SLAB] ** ks
        nu += terms.sum(axis=1)
        scale += np.abs(terms).sum(axis=1)
    if not np.isfinite(nu).all():
        raise NonConvergentIntegral(f"moment sums overflow double precision at |k| <= {K}")
    return nu, scale


def _refine(node_set, K: int):
    """Power sums of ``node_set(m)``, doubling m from 256 until they settle.

    Converged when every |nu_k(2m) - nu_k(m)| is within _QUAD_INTERNAL of the
    rounding scale sum_j |w_j x_j^k| (for positive node sets, the relative
    change of nu_k).
    """
    m = 256
    prev, _ = _power_sums(*node_set(m), K)
    for _ in range(_MAX_DOUBLINGS):
        m *= 2
        nu, scale = _power_sums(*node_set(m), K)
        if np.all(np.abs(nu - prev) <= _QUAD_INTERNAL * scale):
            return nu
        prev = nu
    raise NonConvergentIntegral(
        f"trapezoid rule did not converge to {_QUAD_INTERNAL} within {_MAX_DOUBLINGS} doublings")


def _real_line_node_set(spec: MomentSpec, t: float, K: int):
    """The u-trapezoid on (0, inf) as a node set with m intervals.

    The substitution x = sqrt(q) e^u symmetrizes x <-> q/x and gives dx = x du,
    so node x_j carries h w(x_j) exp(-t(p x_j + q/x_j)) x_j.  One window
    |u| <= U serves the whole table: it is widened until every k's integrand
    tails are below _TAIL_FLOOR of that k's peak, which also makes the
    trapezoid rule's end corrections negligible.
    """
    delta, qw = spec.params["delta"], spec.params["q"]
    sq = math.sqrt(qw)
    ks = np.arange(-K, K + 1)[:, None]

    def integrand(u):
        x = sq * np.exp(u)
        shape = x ** -0.5 if spec.weight_id == "example1" else (x + sq) * x ** -1.5
        return x, (shape * np.exp(-delta * (x + qw / x))
                   * np.exp(-t * (spec.p * x + spec.q / x)) * x)

    U = 8.0
    for _ in range(200):
        x, g = integrand(np.linspace(-U, U, 129))
        g = np.abs(g * x ** ks)
        if not np.isfinite(g).all():
            raise NonConvergentIntegral(
                f"integrand x^k w(x) overflows double precision on |u| <= {U:.3g} "
                f"at |k| <= {K}")
        if np.all(np.maximum(g[:, 0], g[:, -1]) <= _TAIL_FLOOR * g.max(axis=1)):
            break
        U *= 1.4
    else:
        raise NonConvergentIntegral("integrand tails never became negligible")

    def node_set(m):
        u, h = np.linspace(-U, U, m + 1, retstep=True)
        x, g = integrand(u)
        return x, h * g
    return node_set


def _moments_circle(spec: MomentSpec, t: float, K: int):
    """m equispaced z_j with weights (z_j - w) damp_j / m, then the atoms once.

    On |z| = 1 with p = conj(q) the modification is the real damping
    exp(-2t Re(q conj z)); ``circle_lebesgue`` is the kernel case w = 0.
    """
    qr, qi = spec.q.real, spec.q.imag
    w = complex(spec.params["w"]) if spec.weight_id == "circle_kernel" else 0j

    def node_set(m):
        theta = 2.0 * np.pi * np.arange(m) / m
        z = np.exp(1j * theta)
        damp = np.exp(-2.0 * t * (qr * np.cos(theta) + qi * np.sin(theta)))
        return z, (z - w) * damp / m

    nu = _refine(node_set, K)
    atoms = spec.params.get("atoms", ())
    if atoms:
        theta, mass = np.array(atoms, dtype=float).T
        z = np.exp(1j * theta)
        nu = nu + _power_sums(z, mass * (z - w) * np.exp(-t * (spec.p * z + spec.q / z)), K)[0]
    return nu


def _moments_discrete(spec: MomentSpec, t: float, K: int):
    """The spec's nodes with weights w_j exp(-t(p x_j + q/x_j)), summed once."""
    x = np.array(spec.nodes, dtype=float)
    w = np.array(spec.weights, dtype=float) * np.exp(-t * (spec.p * x + spec.q / x))
    return _power_sums(x, w, K)[0]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def compute_moments(spec: MomentSpec, t: float, K: int) -> MomentTable:
    """Moments nu_k(t) of the modified functional for |k| <= K.

    Every kind but ``explicit_table`` is a weighted node set (x_j, w_j) whose
    power sums sum_j w_j x_j^k are the moments: the discrete kind's own nodes
    (plain floating-point sums), or equispaced trapezoid rules on the
    real-line and circle kinds, refined by doubling to relative accuracy
    ~1e-12.  Raises NonConvergentIntegral when a quadrature budget is
    exhausted or the sums overflow, and InvalidSupport for divergent
    modifications.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if spec.kind in ("real_line_weighted", "discrete") and t < 0:
        raise ValueError("t must be >= 0 for positive-axis functionals")

    positive = False
    provenance = "quadrature"
    if spec.kind == "explicit_table":
        stored = spec.params["nu"]
        t0 = spec.params.get("t0", 0.0)
        if t != t0:
            raise ValueError(f"explicit table is a snapshot at t={t0}, not t={t}")
        if not all(k in stored for k in range(-K, K + 1)):
            raise IndexOutOfTable(f"stored table does not cover |k| <= {K}")
        nu = {k: complex(stored[k]) for k in range(-K, K + 1)}
        provenance = "exact"
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            if spec.kind == "real_line_weighted":
                sums = _refine(_real_line_node_set(spec, t, K), K)
                positive = True
            elif spec.kind == "unit_circle_weighted":
                sums = _moments_circle(spec, t, K)
            else:
                sums = _moments_discrete(spec, t, K)
                provenance = "exact"
                positive = spec.p.imag == 0.0 and spec.q.imag == 0.0
        nu = dict(zip(range(-K, K + 1), sums.tolist()))

    return MomentTable(t=float(t), K=K, nu=nu, provenance=provenance,
                       positive=positive, kind=spec.kind, weight_id=spec.weight_id)


def compute_moments_exact(spec: MomentSpec, t: float, K: int) -> MomentTable:
    """Exact rational moment table for discrete specs (conditioning oracle).

    Only available when the exponential factor is identically 1, i.e. when
    p = q = 0 or t = 0; nodes and weights are converted to Fractions exactly.
    """
    if spec.kind != "discrete":
        raise ValueError("exact tables exist only for discrete specs")
    if not ((spec.p == 0 and spec.q == 0) or t == 0):
        raise ValueError("exact rational evaluation needs p = q = 0 or t = 0")
    nodes = [Fraction(x) for x in spec.nodes]
    weights = [Fraction(w) for w in spec.weights]
    nu = {}
    for k in range(-K, K + 1):
        nu[k] = sum((w * x ** k for x, w in zip(nodes, weights)), Fraction(0))
    return MomentTable(t=float(t), K=K, nu=nu, provenance="exact_rational",
                       positive=True, kind="discrete")


def hankel_determinant(table: MomentTable, m: int, n: int):
    """Hankel determinant H_n^(m) with entries nu_{m+i+j}, H_0^(m) = 1.

    Computed by Gaussian elimination with partial pivoting; works on complex
    tables and exactly on rational ones.  Diagnostics only: useful for
    n <= ~12 in double precision.
    """
    if n < 0:
        raise ValueError("order n must be >= 0")
    if n == 0:
        return Fraction(1) if table.exact else 1.0 + 0.0j
    if not table.covers(m, m + 2 * n - 2):
        raise IndexOutOfTable(
            f"H_{n}^({m}) needs moments {m}..{m + 2 * n - 2}, table has |k| <= {table.K}")
    return _hankel_with_rank(table, m, n)[0]


def _det_pivoted(rows, exact=False):
    """(determinant, smallest scaled pivot) by elimination with partial pivoting.

    The second value is min_k |pivot_k| / |A|_max, the standard numerical-rank
    indicator: a rank-deficient matrix collapses a pivot to rounding level,
    while a well-defined (if ill-conditioned) determinant keeps every pivot
    well above it.  For exact (Fraction) input the indicator is 1.0 whenever
    the determinant is nonzero and 0.0 otherwise.
    """
    n = len(rows)
    a = [list(r) for r in rows]
    sign = 1
    det_one = Fraction(1) if exact else 1.0 + 0.0j
    amax = max((abs(complex(v)) for r in rows for v in r), default=0.0)
    if amax == 0.0:
        return det_one * 0, 0.0
    min_ratio = math.inf
    for col in range(n):
        piv, piv_val = -1, -1.0
        for r in range(col, n):
            v = abs(a[r][col])
            if v > piv_val:
                piv, piv_val = r, v
        if piv_val == 0:
            return det_one * 0, 0.0
        min_ratio = min(min_ratio, float(piv_val) / amax)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            if factor != 0:
                for c in range(col, n):
                    a[r][c] = a[r][c] - factor * a[col][c]
    det = det_one * sign
    for i in range(n):
        det *= a[i][i]
    if exact:
        return det, 1.0 if det != 0 else 0.0
    return det, min_ratio


def _hankel_with_rank(table: MomentTable, m: int, n: int):
    """(H_n^(m), smallest scaled pivot) for the regularity diagnostics."""
    if n == 0:
        return (Fraction(1) if table.exact else 1.0 + 0.0j), 1.0
    rows = [[table.nu[m + i + j] for j in range(n)] for i in range(n)]
    return _det_pivoted(rows, exact=table.exact)


@dataclass(frozen=True)
class LevelStatus:
    n: int
    det_existence: complex       # H_n^(-n)
    det_at_zero: complex         # H_{n+1}^(-n)
    ok_existence: bool
    ok_at_zero: bool
    positive_existence: Optional[bool] = None
    positive_at_zero: Optional[bool] = None


@dataclass(frozen=True)
class RegularityReport:
    depth: int
    levels: tuple

    @property
    def all_ok(self) -> bool:
        return all(s.ok_existence and s.ok_at_zero for s in self.levels)

    @property
    def all_positive(self) -> bool:
        return all(bool(s.positive_existence) and bool(s.positive_at_zero)
                   for s in self.levels)

    def first_failure(self):
        for s in self.levels:
            if not (s.ok_existence and s.ok_at_zero):
                return s
        return None


#: smallest scaled elimination pivot that still counts as "nonzero"
HANKEL_ZERO_REL = 1e-10


def check_regularity(table: MomentTable, N: int) -> RegularityReport:
    """Check both determinant conditions H_n^(-n) != 0, H_{n+1}^(-n) != 0 for n <= N.

    The nonzero test is the numerical-rank criterion: the smallest pivot of
    the pivoted elimination, scaled by the largest matrix entry, must exceed
    HANKEL_ZERO_REL.  (The determinant itself shrinks super-exponentially
    relative to any power of the row norms even for perfectly regular
    positive functionals, so a threshold on |H| alone cannot work beyond a
    few levels.)  For positive real-line tables the sign of the determinant
    is reported as well.  Never raises on failure; the report carries
    per-level status.
    """
    if not table.covers(-N - 1, N):
        raise IndexOutOfTable(f"regularity to depth {N} needs moments in [-{N + 1}, {N}]")
    levels = []
    for n in range(N + 1):
        det_a, rank_a = _hankel_with_rank(table, -n, n)
        det_b, rank_b = _hankel_with_rank(table, -n, n + 1)
        if table.exact:
            ok_a, ok_b = det_a != 0, det_b != 0
        else:
            ok_a, ok_b = rank_a > HANKEL_ZERO_REL, rank_b > HANKEL_ZERO_REL
        pos_a = pos_b = None
        if table.positive:
            if table.exact:
                pos_a, pos_b = det_a > 0, det_b > 0
            else:
                pos_a = complex(det_a).real > 0 and ok_a
                pos_b = complex(det_b).real > 0 and ok_b
        levels.append(LevelStatus(n, det_a, det_b, ok_a, ok_b, pos_a, pos_b))
    return RegularityReport(depth=N, levels=tuple(levels))
