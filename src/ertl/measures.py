"""Moment functionals, their exponential time modification, and moment tables.

A moment functional L acts on Laurent polynomials and is characterized by its
two-sided moment sequence ``nu_k = L[x^k]``, k in Z.  The time-modified family
is

    nu_k(t) = L[exp(-t*(p*x + q/x)) * x^k],

with complex modification coefficients ``p`` and ``q``.  There are four kinds
of functionals:

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
(x_j, w_j), a ``_Rule`` with read-only arrays: the moments are its power sums
nu_k = sum_j w_j x_j^k.  Discrete nodes (a rule with m = 0) are summed once
in plain floating point.  The real-line and circle kinds are equispaced
trapezoid rules with m intervals, and ``_Rule.finer`` doubles m until every
nu_k has settled to QUAD_SETTLE_REL of its rounding scale sum_j |w_j x_j^k|.
The rules nest (Trefethen and Weideman, "The exponentially convergent
trapezoidal rule", SIAM Review 56, 2014): the even nodes of the 2m rule are
the m rule's nodes, bitwise, with halved weights.  So ``finer`` evaluates the
weight at its m new odd nodes only, and a table evaluates each node once.  On
the real line the sums follow suit, nu_k(2m) = nu_k(m) / 2 + sum over the
odd nodes.  On the circle the nodes are the m-th roots of unity, so the
rule's power sums are one DFT of its weights (one FFT per node count, the
scale sum_j |w_j| for every k); every other node set (atoms, the real-line
rule, discrete nodes) goes through one power-sum kernel.  When p and q are
real the positive-axis weights exp(-t(p x + q/x)) are formed, and summed, in
float64.  A ``MomentTable`` holds t, K and the moments; one on the positive
axis (real-line and discrete kinds) also holds the rule its moments were
summed from, so ``lorth.bootstrap_recurrence`` runs the discretized
Stieltjes procedure on the nodes themselves instead of on the moments, and
evaluates no weight for the rule the table holds.

Weight families on the positive axis:

    example1:  dpsi(x)  = x**(-1/2) * exp(-delta*(x + q/x)) dx
    example2:  dpsi(x)  = (x + sqrt(q)) * x**(-3/2) * exp(-delta*(x + q/x)) dx

both with delta > 0, q > 0, and modification defaults p = 1, same q, so that
the modified weight is the base weight with delta replaced by delta + t.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .errors import IndexOutOfTable, InvalidSupport, NonConvergentIntegral

REAL_LINE_FAMILIES = ("example1", "example2")
CIRCLE_FAMILIES = ("circle_lebesgue", "circle_kernel")

#: doubling target of every trapezoid refinement: successive results must agree
#: to this fraction of their rounding scale
QUAD_SETTLE_REL = 1e-13
#: integrand values below this fraction of the peak are treated as tail
_TAIL_FLOOR = 1e-18


# ---------------------------------------------------------------------------
# MomentSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentSpec:
    """Declarative description of a moment functional and its modification.

    Immutable after construction; all invariants are checked in
    ``__post_init__`` so that an instance in hand is always usable.  Every
    number it carries (p, q, weight parameters, nodes, weights, atoms, the
    kernel point, stored moments) must be a finite number, and a real one
    where the field is real: ValueError naming the field otherwise.
    """

    kind: str
    weight_id: str = ""
    params: dict = field(default_factory=dict)
    p: complex = 0j
    q: complex = 0j
    nodes: tuple = ()
    weights: tuple = ()

    def __post_init__(self):
        if self.kind not in ("real_line_weighted", "unit_circle_weighted",
                             "discrete", "explicit_table"):
            raise ValueError(f"unknown kind {self.kind!r}")
        require_finite("p", self.p)
        require_finite("q", self.q)
        object.__setattr__(self, "p", complex(self.p))
        object.__setattr__(self, "q", complex(self.q))
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "weights", tuple(self.weights))
        if not isinstance(self.params, dict):
            raise ValueError(f"params must be a dict, got {self.params!r}")

        if self.kind == "discrete":
            if not self.nodes:
                raise ValueError("discrete spec needs at least one node")
            if len(self.nodes) != len(self.weights):
                raise ValueError("nodes and weights must have equal length")
            x = finite_array("discrete nodes", self.nodes, real=True)
            w = finite_array("discrete weights", self.weights, real=True)
            if not (x > 0).all():
                raise ValueError("discrete nodes must be finite and > 0")
            if len(set(x.tolist())) != len(x):
                raise ValueError("discrete nodes must be distinct")
            if not (w > 0).all():
                raise ValueError("discrete weights must be finite and > 0")

        elif self.kind == "real_line_weighted":
            if self.weight_id not in REAL_LINE_FAMILIES:
                raise ValueError(f"unknown real-line weight family {self.weight_id!r}")
            for key in ("delta", "q"):
                if key not in self.params:
                    raise ValueError(f"weight parameter {key} is missing")
                require_finite(f"weight parameter {key}", self.params[key], real=True)
                if not self.params[key] > 0:
                    raise ValueError(f"weight parameter {key} must be > 0")
            # the base weight damps both ends, so Re(p), Re(q) >= 0 converge for t >= 0
            if not (self.p.real >= 0.0 and self.q.real >= 0.0):
                raise InvalidSupport(
                    "a weight on (0, inf) requires Re(p) >= 0 and Re(q) >= 0; "
                    "refusing a divergent modification")

        elif self.kind == "unit_circle_weighted":
            if self.weight_id not in CIRCLE_FAMILIES:
                raise ValueError(f"unknown circle weight family {self.weight_id!r}")
            if abs(self.p - self.q.conjugate()) > 1e-15 * (1.0 + abs(self.q)):
                raise ValueError("circle kinds require p = conj(q)")
            if self.weight_id == "circle_kernel":
                if "w" not in self.params:
                    raise ValueError("circle_kernel spec needs params['w'] with |w| = 1")
                require_finite("kernel point w", self.params["w"])
                if abs(abs(complex(self.params["w"])) - 1.0) > 1e-12:
                    raise ValueError("kernel point w must have |w| = 1")
            atoms = self.params.get("atoms", ())
            if not isinstance(atoms, (tuple, list)):
                raise ValueError(f"atoms must be a sequence of (angle, mass), got {atoms!r}")
            for atom in atoms:
                try:
                    theta, mass = atom
                except (TypeError, ValueError):
                    raise ValueError(f"an atom must be a pair (angle, mass), got {atom!r}") from None
                require_finite("atom angle", theta, real=True)
                require_finite("atom mass", mass, real=True)
                if not mass > 0:
                    raise ValueError("atom masses must be finite and > 0")

        elif self.kind == "explicit_table":
            if not isinstance(self.params.get("nu"), dict):
                raise ValueError("explicit_table spec needs params['nu'], a dict k -> nu_k")
            for k, v in self.params["nu"].items():
                require_number(f"moment nu_{k}", v)  # MomentTable rejects non-finite entries
            if "t0" in self.params:
                require_finite("t0", self.params["t0"], real=True)

        family = self.weight_id if self.kind == "unit_circle_weighted" else self.kind
        unknown = sorted(set(self.params) - _PARAM_KEYS[family])
        if unknown:
            raise ValueError(f"unknown params keys {unknown} for {family}; expected a "
                             f"subset of {sorted(_PARAM_KEYS[family])}")

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
        if not isinstance(d, dict):
            raise ValueError(f"a moment spec must be a JSON object, got {type(d).__name__}")
        unknown = sorted(set(d) - _JSON_KEYS)
        if unknown:
            raise ValueError(f"unknown moment-spec keys {unknown}; expected a subset of "
                             f"{sorted(_JSON_KEYS)}")
        return MomentSpec(
            kind=d["kind"],
            weight_id=d.get("weight_id", ""),
            params=_params_from_json(d.get("params", {})),
            p=complex_from_json("p", d.get("p", (0.0, 0.0))),
            q=complex_from_json("q", d.get("q", (0.0, 0.0))),
            nodes=tuple(json_list("nodes", d.get("nodes", ()))),
            weights=tuple(json_list("weights", d.get("weights", ()))),
        )

    @staticmethod
    def from_json(text: str) -> "MomentSpec":
        return MomentSpec.from_json_dict(json.loads(text))


# -- checked readers of numbers and JSON values: the one rule of what a number is,
# -- shared with lattice, circle, lorth, oracles and the CLI ---------------------

def require_number(name: str, value, real: bool = False):
    """ValueError naming ``name`` unless ``value`` is a number (a real one if ``real``)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real if real else numbers.Number):
        raise ValueError(f"{name} must be a {'real ' if real else ''}number, got {value!r}")


def require_finite(name: str, value, real: bool = False):
    """ValueError naming ``name`` unless ``value`` is a finite number (a real one if ``real``).

    An integer too large for a double is not finite.
    """
    require_number(name, value, real)
    try:
        finite = cmath.isfinite(complex(value))
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")


def finite_array(name: str, values, real: bool = False) -> np.ndarray:
    """``values`` as a new float64 (``real``) or complex128 array, by ``require_finite``'s rule.

    Every entry must be a finite number, a real one if ``real``; bool is not
    a number.  ``values`` is a list, a tuple or any other iterable, read
    once.  ValueError naming ``name`` and the first bad entry otherwise.
    Only bad input is read entry by entry: good input takes one type test per
    distinct entry type, one conversion and one finiteness count.
    """
    if not isinstance(values, (list, tuple)):
        try:
            values = list(values)
        except TypeError:
            raise ValueError(f"{name} must be a sequence of numbers, got {values!r}") from None
    types = set(map(type, values))
    kind = numbers.Real if real else numbers.Number
    x = None
    if bool not in types and all(map(kind.__subclasscheck__, types)):
        try:
            x = np.array(values, dtype=float if real else complex)
        except OverflowError:  # an integer too large for a double
            pass
    if x is None or np.count_nonzero(np.isfinite(x)) < len(x):
        for v in values:
            try:
                require_finite(name, v, real)
            except ValueError:
                raise ValueError(f"{name} must be finite {'real ' if real else ''}numbers, "
                                 f"got {v!r}") from None
    return x


def require_count(name: str, n, least: int = 1, most: int | None = None):
    """ValueError naming ``name`` unless ``n`` is an integer (bool excluded) in least..most."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if n < least or (most is not None and n > most):
        bound = f">= {least}" if most is None else f"in {least}..{most}"
        raise ValueError(f"{name} must be {bound}, got {n!r}")


def json_list(name: str, value):
    """``value`` if it is a JSON array (a list or tuple), else ValueError naming ``name``."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be an array, got {value!r}")
    return value


def complex_from_json(name: str, value) -> complex:
    """complex(re, im) from a JSON pair [re, im] of real numbers, else ValueError."""
    if len(json_list(name, value)) != 2:
        raise ValueError(f"{name} must be a pair [re, im], got {value!r}")
    for part in value:
        require_number(name, part, real=True)
    return complex(*value)


#: the top-level keys of a spec's JSON form, as ``to_json_dict`` writes them
_JSON_KEYS = frozenset(("kind", "weight_id", "params", "p", "q", "nodes", "weights"))
#: the ``params`` keys each kind accepts (circle kinds: each weight family)
_PARAM_KEYS = {
    "real_line_weighted": frozenset(("delta", "q")),
    "circle_lebesgue": frozenset(("atoms",)),
    "circle_kernel": frozenset(("w", "atoms")),
    "explicit_table": frozenset(("nu", "t0")),
    "discrete": frozenset(),
}


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
        else:  # delta, q or t0: a real number, of any numeric type
            out[key] = float(val)
    return out


def _params_from_json(params: dict) -> dict:
    if not isinstance(params, dict):
        raise ValueError(f"params must be an object, got {params!r}")
    out = {}
    for key, val in params.items():
        if key == "w":
            out[key] = complex_from_json("kernel point w", val)
        elif key == "atoms":
            out[key] = tuple(tuple(json_list("atom", a)) for a in json_list("atoms", val))
        elif key == "nu" and isinstance(val, dict):
            out[key] = {int(k): complex_from_json(f"moment nu_{k}", v) for k, v in val.items()}
        else:
            out[key] = val
    return out


# -- convenience factories ------------------------------------------------------

def example1_spec(delta: float, q: float) -> MomentSpec:
    """Weight x^(-1/2) exp(-delta(x + q/x)) on (0, inf), modification p=1, same q."""
    return MomentSpec(kind="real_line_weighted", weight_id="example1",
                      params={"delta": delta, "q": q}, p=1.0, q=q)


def example2_spec(delta: float, q: float) -> MomentSpec:
    """Weight (x + sqrt(q)) x^(-3/2) exp(-delta(x + q/x)) on (0, inf)."""
    return MomentSpec(kind="real_line_weighted", weight_id="example2",
                      params={"delta": delta, "q": q}, p=1.0, q=q)


def discrete_spec(nodes, weights, p=0.0, q=0.0) -> MomentSpec:
    """Functional f |-> sum_j w_j f(x_j) over point masses at nodes x_j > 0."""
    return MomentSpec(kind="discrete", nodes=tuple(nodes), weights=tuple(weights),
                      p=p, q=q)


def circle_lebesgue_spec(q, atoms=()) -> MomentSpec:
    """Functional f |-> int f(z) z dmu^(t)(z) over mu = arc measure + atoms."""
    require_finite("q", q)
    return MomentSpec(kind="unit_circle_weighted", weight_id="circle_lebesgue",
                      params={"atoms": tuple(atoms)} if atoms else {},
                      p=complex(q).conjugate(), q=q)


def circle_kernel_spec(q, w=1.0, atoms=()) -> MomentSpec:
    """Functional f |-> int f(z) (z - w) dmu^(t)(z), |w| = 1."""
    require_finite("q", q)
    params = {"w": w, "atoms": tuple(atoms)} if atoms else {"w": w}
    return MomentSpec(kind="unit_circle_weighted", weight_id="circle_kernel",
                      params=params, p=complex(q).conjugate(), q=q)


def explicit_table_spec(nu: dict, t0: float = 0.0) -> MomentSpec:
    """Functional given by its moments ``nu`` (k -> nu_k), a snapshot at time t0."""
    return MomentSpec(kind="explicit_table", params={"nu": dict(nu), "t0": t0})


# ---------------------------------------------------------------------------
# MomentTable
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentTable:
    """Immutable snapshot of moments nu_k(t) for |k| <= K at one time.

    Entries are complex scalars, or all ``fractions.Fraction`` in a table from
    ``compute_moments_exact``; ``exact`` (derived, not settable) says which.

    ``nodes`` is the ``_Rule`` the moments were summed from, when they came
    from one on the positive axis: the discrete kind's fixed nodes (m = 0),
    or the real-line trapezoid rule with the m intervals the moments settled
    at.  ``lorth.bootstrap_recurrence`` starts its Stieltjes ladder there,
    so it evaluates no weight for that rule, and builds any finer rule it
    needs with ``finer`` without changing the table.  It is None for
    explicit, circle and exact tables.
    """

    t: float
    K: int
    nu: dict
    nodes: Optional[_Rule] = field(default=None, compare=False, repr=False)
    exact: bool = field(init=False)

    def __post_init__(self):
        # one subclass test per entry type: isinstance against Fraction is slow
        fraction = [issubclass(c, Fraction) for c in set(map(type, self.nu.values()))]
        object.__setattr__(self, "exact", all(fraction))
        floating = ({k: v for k, v in self.nu.items() if not isinstance(v, Fraction)}
                    if any(fraction) else self.nu)
        finite = np.isfinite(np.fromiter(floating.values(), complex, len(floating)))
        if not finite.all():
            k = list(floating)[finite.argmin()]
            raise ValueError(f"non-finite moment nu_{k} = {floating[k]!r}")

    def nu_at(self, k: int):
        try:
            return self.nu[k]
        except KeyError:
            raise IndexOutOfTable(f"moment nu_{k} not in table (|k| <= {self.K})") from None

    def covers(self, kmin: int, kmax: int) -> bool:
        return all(k in self.nu for k in range(kmin, kmax + 1))


# ---------------------------------------------------------------------------
# Weighted node sets and their power sums
# ---------------------------------------------------------------------------

#: node count every refinement starts from
_M0 = 256
#: doublings of _M0 allowed before giving up; bounds every refinement's node count
_MAX_DOUBLINGS = 16
#: nodes per slab of the power-sum kernel, bounding its array at (2K+1) x _SLAB
_SLAB = 4096


def _power_sums(x, w, K: int, half=None):
    """(nu_k, s_k) = (sum_j w_j x_j^k, sum_j |w_j x_j^k|) for k = -K..K.

    The moments of an arbitrary node set (atoms, the real-line rule, discrete
    nodes) are its power sums; s_k is the rounding scale of nu_k.  The terms
    take the dtype of x and w, so a real modification sums float64 terms.
    The (2K+1) x m terms are formed a slab of nodes at a time, so memory
    stays bounded at the doubling budget.

    ``half`` is the (nu_k, s_k) of the m/2 rule when (x, w) is the m rule
    ``_Rule.finer`` built from it: its even nodes carry those terms halved, so
    only the odd nodes are summed, nu_k(m) = nu_k(m/2) / 2 + sum_{j odd}
    w_j x_j^k, and likewise s_k.  Float64 terms that are all >= 0 (real
    x and w >= 0) have s_k = nu_k, bitwise, and skip the |terms| pass.
    """
    ks = np.arange(-K, K + 1)[:, None]
    dtype = np.result_type(x, w)
    # min() is NaN for a NaN weight, so a NaN keeps the |terms| pass too
    positive = dtype == np.float64 and w.min(initial=0.0) >= 0 and x.min(initial=0.0) >= 0
    if half is None:
        nu = np.zeros(2 * K + 1, dtype=dtype)
        scale = np.zeros(2 * K + 1)
    else:
        x, w = x[1::2], w[1::2]
        nu, scale = 0.5 * half[0], 0.5 * half[1]
    for s in range(0, len(x), _SLAB):
        terms = w[s:s + _SLAB] * x[s:s + _SLAB] ** ks
        nu += terms.sum(axis=1)
        if not positive:
            scale += np.abs(terms).sum(axis=1)
    _check_finite(nu, K)
    return nu, nu.copy() if positive else scale


def _dft_sums(w, K: int):
    """(nu_k, s) = (sum_j w_j z_j^k, sum_j |w_j|) for k = -K..K on z_j = e^(2 pi i j/m).

    The power sums of the m-th roots of unity are one DFT of the weights:
    fft(w)[n] = sum_j w_j z_j^(-n), so nu_k sits at index (-k) mod m, and
    |k| >= m wraps as the direct sums do.  Since |z_j| = 1, every k has the
    rounding scale sum_j |w_j|.
    """
    ks = np.arange(-K, K + 1)
    nu = np.fft.fft(w)[-ks % len(w)]
    _check_finite(nu, K)
    return nu, np.full(2 * K + 1, np.abs(w).sum())


def _check_finite(nu, K: int):
    if not np.isfinite(nu).all():
        raise NonConvergentIntegral(f"moment sums overflow double precision at |k| <= {K}")


@dataclass(frozen=True, eq=False)
class _Rule:
    """A weighted node set (x_j, w_j) on read-only arrays.

    With m = 0 it is fixed (the discrete kind's nodes).  Otherwise it is the
    equispaced trapezoid rule with m intervals, and ``build(m, odd)``
    evaluates the weight on the m rule's nodes: all of them, or with ``odd``
    only those of odd index.  Equispaced rules nest: node 2i of the 2m rule
    is node i of the m rule, bitwise, and its weight is that node's weight
    halved, exactly since m is a power of two (only subnormal tail weights
    can round differently).  So ``finer`` takes the even nodes and halved
    weights from this rule and evaluates the weight at the m new odd nodes
    only: a ladder 256, 512, ..., m evaluates each of its m (+ 1) nodes once.
    """

    x: np.ndarray
    w: np.ndarray
    m: int = 0
    build: Optional[Callable] = None

    def __post_init__(self):
        self.x.flags.writeable = self.w.flags.writeable = False

    def finer(self) -> "_Rule":
        """The 2m rule; NonConvergentIntegral past the shared doubling budget.

        Every refinement, of the moments and of the Stieltjes ladder of
        ``lorth.bootstrap_recurrence``, stops at _M0 doubled _MAX_DOUBLINGS
        times.
        """
        m = 2 * self.m
        if m > _M0 << _MAX_DOUBLINGS:
            raise NonConvergentIntegral(
                f"trapezoid rule did not converge to {QUAD_SETTLE_REL} within "
                f"{_M0 << _MAX_DOUBLINGS} intervals")
        xo, wo = self.build(m, True)
        x = np.empty(len(self.x) + len(xo), dtype=xo.dtype)
        w = np.empty(len(x), dtype=wo.dtype)
        x[0::2], x[1::2] = self.x, xo
        w[0::2], w[1::2] = 0.5 * self.w, wo
        return _Rule(x, w, m, self.build)


def _refine_moments(rule, sums):
    """``sums(rule, previous)`` on the rule where the moments settle, and that rule.

    ``rule`` is the _M0 trapezoid rule; each ``finer`` evaluates the weight
    at the new odd nodes only.  ``sums`` returns (nu_k, s_k) as
    ``_power_sums`` does, and also receives its own result on the m/2 rule
    (None at _M0), which it may halve and complete with the odd nodes.
    Converged when every |nu_k(2m) - nu_k(m)| is within QUAD_SETTLE_REL of
    the rounding scale s_k (for positive node sets, the relative change of
    nu_k).
    """
    cur = sums(rule, None)
    while True:
        prev, rule = cur, rule.finer()
        cur = sums(rule, prev)
        if np.all(np.abs(cur[0] - prev[0]) <= QUAD_SETTLE_REL * cur[1]):
            return cur[0], rule


def _real_line_weight(spec: MomentSpec, t: float, u):
    """(x, g) at the u-nodes: x = sqrt(q) e^u and g = w(x) exp(-t(p x + q/x)) x.

    The substitution x = sqrt(q) e^u symmetrizes x <-> q/x and gives dx = x du,
    so g is the u-integrand.  Real p and q give float64 values.
    """
    delta, qw = spec.params["delta"], spec.params["q"]
    sq = math.sqrt(qw)
    p, q = _real_if_real(spec.p, spec.q)
    x = sq * np.exp(u)
    shape = x ** -0.5 if spec.weight_id == "example1" else (x + sq) * x ** -1.5
    return x, shape * np.exp(-delta * (x + qw / x)) * np.exp(-t * (p * x + q / x)) * x


def _real_line_node_set(spec: MomentSpec, t: float, K: int):
    """The _M0 u-trapezoid ``_Rule`` on (0, inf): node x_j carries h g(u_j).

    One window |u| <= U serves the whole table: it is widened until every
    k's integrand tails are below _TAIL_FLOOR of that k's peak, which also
    makes the trapezoid rule's end corrections negligible.  The m rule's
    nodes are u_j = j (2U/m) - U, as ``np.linspace`` places them.
    """
    ks = np.arange(-K, K + 1)[:, None]
    U = 8.0
    for _ in range(200):
        x, g = _real_line_weight(spec, t, np.linspace(-U, U, 129))
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

    def build(m, odd):
        if odd:
            h = 2.0 * U / m
            u = np.arange(1, m, 2) * h - U
        else:
            u, h = np.linspace(-U, U, m + 1, retstep=True)
        x, g = _real_line_weight(spec, t, u)
        return x, h * g
    return _Rule(*build(_M0, False), _M0, build)


def _circle_node_set(spec: MomentSpec, t: float):
    """The m equispaced z_j = e^(2 pi i j/m) with weights (z_j - w) damp_j / m.

    The _M0 rule as a ``_Rule``: the 2m rule's even nodes are the m rule's.  On
    |z| = 1 with p = conj(q) the modification is the real damping
    exp(-2t Re(q conj z)); ``circle_lebesgue`` is the kernel case w = 0.
    """
    qr, qi = spec.q.real, spec.q.imag
    w = _kernel_point(spec)

    def build(m, odd):
        theta = 2.0 * np.pi * (np.arange(1, m, 2) if odd else np.arange(m)) / m
        z = np.exp(1j * theta)
        damp = np.exp(-2.0 * t * (qr * np.cos(theta) + qi * np.sin(theta)))
        return z, (z - w) * damp / m
    return _Rule(*build(_M0, False), _M0, build)


def _kernel_point(spec: MomentSpec) -> complex:
    return complex(spec.params["w"]) if spec.weight_id == "circle_kernel" else 0j


def _moments_circle(spec: MomentSpec, t: float, K: int):
    """The equispaced rule's sums, one FFT per node count, then the atoms once."""
    nu = _refine_moments(_circle_node_set(spec, t), lambda rule, _: _dft_sums(rule.w, K))[0]
    atoms = spec.params.get("atoms", ())
    if atoms:
        w = _kernel_point(spec)
        theta, mass = np.array(atoms, dtype=float).T
        z = np.exp(1j * theta)
        nu = nu + _power_sums(z, mass * (z - w) * np.exp(-t * (spec.p * z + spec.q / z)), K)[0]
    return nu


def _discrete_node_set(spec: MomentSpec, t: float):
    """The fixed ``_Rule`` of the spec's nodes with weights w_j exp(-t(p x_j + q/x_j)).

    The weights are float64 for real p and q.
    """
    x = np.array(spec.nodes, dtype=float)
    p, q = _real_if_real(spec.p, spec.q)
    return _Rule(x, np.array(spec.weights, dtype=float) * np.exp(-t * (p * x + q / x)))


def _real_if_real(p: complex, q: complex):
    """(p, q) as floats when both are real, so the weights they modify stay float64."""
    return (p.real, q.real) if p.imag == q.imag == 0.0 else (p, q)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def compute_moments(spec: MomentSpec, t: float, K: int) -> MomentTable:
    """Moments nu_k(t) of the modified functional for |k| <= K.

    Every kind but ``explicit_table`` is a weighted node set (x_j, w_j) whose
    power sums sum_j w_j x_j^k are the moments: the discrete kind's own nodes
    (plain floating-point sums), or equispaced trapezoid rules on the
    real-line and circle kinds, refined by doubling until every
    |nu_k(2m) - nu_k(m)| <= QUAD_SETTLE_REL s_k, s_k = sum_j |w_j x_j^k|
    being the rounding scale of nu_k.  Positive weights on the positive axis
    have s_k = |nu_k|, so there the criterion is relative.  On the circle
    s_k = sum_j |w_j| for every k, so it is absolute, and a small circle
    moment carries no relative accuracy.  The rules nest, so each node is
    evaluated once per table: a doubling evaluates the weight at its m new
    odd nodes, and on the real line sums only those, halving the previous
    nu_k and s_k.  The circle rule's sums are one FFT of its weights per
    node count (a DFT, since its nodes are roots of unity); real p and q
    keep the positive-axis weights and sums in float64.  A real-line or
    discrete table holds its ``_Rule`` in ``nodes``: the discrete nodes, or
    the trapezoid rule the moments settled at.  The Stieltjes route of
    ``lorth.bootstrap_recurrence`` starts from that rule instead of
    rebuilding it, and certifies it in the same pass.
    Raises ValueError for a non-finite t, NonConvergentIntegral when a
    quadrature budget is exhausted or the sums overflow, and InvalidSupport
    for divergent modifications.
    """
    require_count("K", K)
    require_finite("t", t, real=True)
    if spec.kind in ("real_line_weighted", "discrete") and t < 0:
        raise ValueError("t must be >= 0 for positive-axis functionals")

    nodes = None
    if spec.kind == "explicit_table":
        stored = spec.params["nu"]
        t0 = spec.params.get("t0", 0.0)
        if t != t0:
            raise ValueError(f"explicit table is a snapshot at t={t0}, not t={t}")
        if not all(k in stored for k in range(-K, K + 1)):
            raise IndexOutOfTable(f"stored table does not cover |k| <= {K}")
        nu = {k: complex(stored[k]) for k in range(-K, K + 1)}
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            if spec.kind == "real_line_weighted":
                sums, nodes = _refine_moments(
                    _real_line_node_set(spec, t, K),
                    lambda rule, half: _power_sums(rule.x, rule.w, K, half))
            elif spec.kind == "unit_circle_weighted":
                sums = _moments_circle(spec, t, K)
            else:
                nodes = _discrete_node_set(spec, t)
                sums = _power_sums(nodes.x, nodes.w, K)[0]
        nu = dict(zip(range(-K, K + 1), sums.astype(complex).tolist()))

    return MomentTable(t=float(t), K=K, nu=nu, nodes=nodes)


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
    return MomentTable(t=float(t), K=K, nu=nu)
