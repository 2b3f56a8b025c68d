"""Boundary reads: every value type and entry point takes numbers by one rule.

``measures.require_finite`` decides what a number is, and
``measures.finite_array`` applies it to each entry of a sequence: a finite
number (a real one where the field is real), bool excluded.  Every call
below names the argument it rejects in a ValueError; before the one rule,
each of them accepted the value, or raised TypeError, OverflowError or a
numpy message.
"""

import numbers
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from ertl import (CircleState, ClosedFormExample, LatticeState, MomentSpec, RecurrenceCoeffs,
                  StepControl, VerblunskySeq, bootstrap_recurrence, circle_kernel_spec,
                  circle_lebesgue_spec, compute_moments, compute_moments_exact, discrete_spec,
                  example1_coeffs, example1_spec, explicit_table_spec, integrate,
                  integrate_buffered, integrate_schur, kernel_coeffs, map_beta_alpha_cd,
                  map_cd_beta_alpha, state_from_coeffs, stieltjes, szego_values)
from ertl.measures import finite_array

HUGE = 10 ** 400  # an integer beyond a double
STATE = state_from_coeffs(1.0, 2.0, 0.0, [1.0, 1.0], [0.5])
SEQ = VerblunskySeq(0.0, (0.2, 0.1))
EX1 = ClosedFormExample("example1", 1.0, 2.0)
LATTICE = "p, q, beta and alpha must be finite numbers"

BAD_CALLS = {
    "state-strings": (lambda: LatticeState("1", 2, 0.0, ("1",), (0, 0)), LATTICE),
    "state-bool-beta": (lambda: LatticeState(1, 2, 0.0, (True,), (0, 0)), LATTICE),
    "state-from-coeffs-string": (lambda: state_from_coeffs(1, 1, 0, ["1.5"], []), LATTICE),
    "state-huge-t": (lambda: LatticeState(1, 1, HUGE, (1,), (0, 0)), "t must be finite"),
    "state-huge-beta": (lambda: LatticeState(1, 1, 0, (HUGE,), (0, 0)), LATTICE),
    "verblunsky-string": (lambda: VerblunskySeq(0.0, ("0.1",)),
                          "the reflection coefficients must be finite numbers"),
    "verblunsky-bool": (lambda: VerblunskySeq(0.0, (False,)),
                        "the reflection coefficients must be finite numbers"),
    "verblunsky-pair": (lambda: VerblunskySeq(0.0, ((0.1, 0.2),)),
                        "the reflection coefficients must be finite numbers"),
    "circle-state-complex-c": (lambda: CircleState(0.0, (0.5,), (1j,)),
                               "g and c must be finite real numbers"),
    "circle-state-string-g": (lambda: CircleState(0.0, ("0.5",), (0.1,)),
                              "g and c must be finite real numbers"),
    "circle-state-bool-c": (lambda: CircleState(0.0, (0.5,), (True,)),
                            "g and c must be finite real numbers"),
    "map-cd-bool": (lambda: map_beta_alpha_cd([True], [0.0]),
                    "c and d must be finite real numbers"),
    "map-back-bool": (lambda: map_cd_beta_alpha([False], [0]),
                      "beta and alpha must be finite numbers"),
    "stieltjes-string-nodes": (lambda: stieltjes(["1", "2"], [1.0, 1.0], 1),
                               "Stieltjes nodes and weights must be finite real numbers"),
    "stieltjes-bool-weights": (lambda: stieltjes([1.0, 2.0], [True, True], 1),
                               "Stieltjes nodes and weights must be finite numbers"),
    "stieltjes-zero-node": (lambda: stieltjes([0.0, 2.0], [1.0, 1.0], 1),
                            "Stieltjes nodes must be positive"),
    "integrate-string-t-end": (lambda: integrate(STATE, "0.5"), "t_end must be a real number"),
    "integrate-bool-t-end": (lambda: integrate(STATE, True), "t_end must be a real number"),
    "integrate-string-t-out": (lambda: integrate(STATE, 1.0, t_out=["0.5"]),
                               "output times must be finite real numbers"),
    "integrate-scalar-t-out": (lambda: integrate(STATE, 1.0, t_out=0.5),
                               "output times must be a sequence of numbers"),
    "schur-string-t-end": (lambda: integrate_schur(SEQ, 0.5, "0.5"),
                           "t_end must be a real number"),
    "moments-bool-t": (lambda: compute_moments(example1_spec(1.0, 2.0), True, 3),
                       "t must be a real number"),
    "moments-string-t": (lambda: compute_moments(example1_spec(1.0, 2.0), "0.5", 3),
                         "t must be a real number"),
    "oracle-bool-delta": (lambda: ClosedFormExample("example1", True, 1.0),
                          "delta must be a real number"),
    "oracle-bool-q": (lambda: ClosedFormExample("example1", 1.0, True),
                      "q must be a real number"),
    "oracle-string-delta": (lambda: ClosedFormExample("example1", "1", 1.0),
                            "delta must be a real number"),
    "oracle-string-t": (lambda: example1_coeffs(EX1, "0.5", 3), "t must be a real number"),
    "oracle-huge-t": (lambda: example1_coeffs(EX1, HUGE, 3), "t must be finite"),
    "kernel-string-w": (lambda: kernel_coeffs(SEQ, "1"), "kernel point w must be a number"),
    "kernel-bool-w": (lambda: kernel_coeffs(SEQ, True), "kernel point w must be a number"),
    "bootstrap-string-p": (lambda: bootstrap_recurrence(
        compute_moments(example1_spec(1.0, 2.0), 0.0, 3), 2, p="1"), "p must be a number"),
    "bootstrap-nan-q": (lambda: bootstrap_recurrence(
        compute_moments(example1_spec(1.0, 2.0), 0.0, 3), 2, q=np.nan), "q must be finite"),
    "discrete-huge-node": (lambda: discrete_spec([HUGE], [1.0]),
                           "discrete nodes must be finite real numbers"),
    "step-control-huge-tol": (lambda: StepControl(rel_tol=HUGE), "rel_tol must be finite"),
    # the spec factories converted with float()/complex() before MomentSpec read them
    "example1-spec-bool-delta": (lambda: example1_spec(True, 2.0),
                                 "weight parameter delta must be a real number"),
    "example1-spec-string-delta": (lambda: example1_spec("1", 2.0),
                                   "weight parameter delta must be a real number"),
    "lebesgue-spec-string-q": (lambda: circle_lebesgue_spec("0.5"), "q must be a number"),
    "kernel-spec-string-w": (lambda: circle_kernel_spec(0.5, w="1"),
                             "kernel point w must be a number"),
    "table-spec-string-t0": (lambda: explicit_table_spec({0: 1.0}, t0="0"),
                             "t0 must be a real number"),
    # RecurrenceCoeffs took any entry; szego_values raised TypeError
    "recurrence-string-beta": (lambda: RecurrenceCoeffs(0.0, 1, 1, ("x",), ()),
                               "beta and alpha entries must be a number"),
    "recurrence-bool-t": (lambda: RecurrenceCoeffs(True, 1, 1, (1.0,), ()),
                          "t must be a real number"),
    "recurrence-string-q": (lambda: RecurrenceCoeffs(0.0, 1, "1", (1.0,), ()),
                            "q must be a number"),
    "szego-string-w": (lambda: szego_values(SEQ, "1"), "kernel point w must be a number"),
}


@pytest.mark.parametrize("case", BAD_CALLS)
def test_bad_number_is_a_value_error_naming_the_argument(case):
    call, message = BAD_CALLS[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


EX1_SPEC = MomentSpec(kind="real_line_weighted", weight_id="example1",
                      params={"delta": 1.0, "q": 2.0}, p=1.0, q=2.0)
#: id -> (call, message): a guard on what a value means, past the number rule,
#: each reached from real input
VALUE_GUARDS = {
    "state-closure": (lambda: LatticeState(1, 2, 0.0, (1.0,), (0, 0), closure="open"),
                      "unknown closure 'open'"),
    "state-alpha-count": (lambda: LatticeState(1, 2, 0.0, (1.0, 1.0), (0, 0)),
                          "need alpha_1..alpha_{N+1} alongside beta_1..beta_N"),
    "recurrence-alpha-count": (lambda: RecurrenceCoeffs(0.0, 1, 2, (1.0, 1.0, 1.0), (0.5,)),
                               "need alpha_2..alpha_N alongside beta_1..beta_N"),
    "spec-kind": (lambda: MomentSpec(kind="gaussian"), "unknown kind 'gaussian'"),
    "spec-params-list": (lambda: MomentSpec(kind="discrete", params=[1], nodes=(1.0,),
                                            weights=(1.0,)),
                         "params must be a dict, got [1]"),
    "spec-json-params-list": (
        lambda: MomentSpec.from_json_dict({"kind": "discrete", "params": [1],
                                           "nodes": [1.0], "weights": [1.0]}),
        "params must be an object, got [1]"),
    "discrete-no-nodes": (lambda: discrete_spec([], []), "discrete spec needs at least one node"),
    "discrete-unequal": (lambda: discrete_spec([1.0, 2.0], [1.0]),
                         "nodes and weights must have equal length"),
    "real-line-family": (lambda: replace(EX1_SPEC, weight_id="example3"),
                         "unknown real-line weight family 'example3'"),
    "circle-family": (lambda: replace(circle_lebesgue_spec(0.5), weight_id="circle_arc"),
                      "unknown circle weight family 'circle_arc'"),
    "weight-parameter-zero": (lambda: example1_spec(0.0, 2.0),
                              "weight parameter delta must be > 0"),
    "kernel-off-circle": (lambda: circle_kernel_spec(0.5, w=2.0),
                          "kernel point w must have |w| = 1"),
    "atoms-not-sequence": (lambda: replace(circle_lebesgue_spec(0.5), params={"atoms": 3}),
                           "atoms must be a sequence of (angle, mass), got 3"),
    "atom-mass-zero": (lambda: circle_lebesgue_spec(0.5, atoms=((0.4, 0.0),)),
                       "atom masses must be finite and > 0"),
    "table-no-nu": (lambda: MomentSpec(kind="explicit_table", params={"t0": 0.0}),
                    "explicit_table spec needs params['nu']"),
    "moments-negative-t": (lambda: compute_moments(EX1_SPEC, -0.5, 3),
                           "t must be >= 0 for positive-axis functionals"),
    "exact-not-discrete": (lambda: compute_moments_exact(EX1_SPEC, 0.0, 2),
                           "exact tables exist only for discrete specs"),
}


@pytest.mark.parametrize("case", VALUE_GUARDS)
def test_value_guard_is_a_value_error_naming_what_it_rejects(case):
    call, message = VALUE_GUARDS[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("t_end, message", [
    (np.nan, "t_end must be finite"), (np.inf, "t_end must be finite"),
    ("0.5", "t_end must be a real number"), (HUGE, "t_end must be finite")])
def test_integrate_buffered_checks_t_end_before_the_probe(t_end, message):
    # NaN failed in default_buffer's ceil, inf overflowed there, and '0.5'
    # raised TypeError, each after make_state(n_report) had run
    built = []

    def make_state(M):
        built.append(M)
        return state_from_coeffs(1.0, 2.0, 0.0, [1.0] * M, [0.0] * (M - 1))

    with pytest.raises(ValueError, match=re.escape(message)):
        integrate_buffered(make_state, 4, t_end)
    assert built == []


def test_integrate_buffered_rejects_a_backward_span_after_the_probe_only():
    # t_end = -1 built a 14-site window before integrate_core rejected the span
    built = []

    def make_state(M):
        built.append(M)
        return state_from_coeffs(1.0, 2.0, 0.5, [1.0] * M, [0.0] * (M - 1))

    for t_end in (-1.0, 0.5):
        with pytest.raises(ValueError, match="t_end must exceed the start time"):
            integrate_buffered(make_state, 2, t_end)
    assert built == [2, 2]


# -- the reader itself ------------------------------------------------------------

def test_finite_array_names_the_first_bad_entry():
    with pytest.raises(ValueError, match=re.escape("x must be finite numbers, got nan")):
        finite_array("x", (1.0, np.nan, "2"))
    with pytest.raises(ValueError, match=re.escape("x must be finite real numbers, got '2'")):
        finite_array("x", (1.0, "2", np.nan), real=True)
    with pytest.raises(ValueError, match=re.escape("x must be finite real numbers, got 1j")):
        finite_array("x", [0.5, 1j], real=True)


@pytest.mark.parametrize("values", [
    np.array([True, False]), np.array(["1", "2"]), np.array([[1.0, 2.0]]), np.array(1.0),
    np.array([1.0, np.inf]), np.array([1, None], dtype=object), np.array([1j]), (np.bool_(1),)],
    ids=["bool", "str", "2-d", "0-d", "inf", "object", "complex", "numpy-bool"])
def test_finite_array_reads_arrays_by_the_same_rule(values):
    with pytest.raises(ValueError, match="^x must be"):
        finite_array("x", values, real=True)


def test_finite_array_reads_any_iterable_once():
    got = finite_array("x", (v for v in (3, 0.5, np.float32(0.25))), real=True)
    assert got.dtype == np.float64 and got.tolist() == [3.0, 0.5, 0.25]
    assert finite_array("x", np.array([1, 2], dtype=np.int8)).tolist() == [1 + 0j, 2 + 0j]
    assert finite_array("x", ()).shape == (0,)


def test_finite_array_keeps_the_largest_doubles():
    big = float(np.finfo(float).max)
    assert finite_array("x", [big, -big, big], real=True).tolist() == [big, -big, big]
    assert finite_array("x", [complex(big, big), 2 ** 1023]).tolist() == [complex(big, big),
                                                                         2.0 ** 1023]


def test_finite_array_copies_an_array():
    x = np.array([1.0, 2.0])
    got = finite_array("x", x, real=True)
    x[0] = 5.0
    assert got.tolist() == [1.0, 2.0]


# -- a lattice state has a site ---------------------------------------------------

@pytest.mark.parametrize("call", [
    lambda: LatticeState(1, 1, 0.0, (), (0,)),
    lambda: LatticeState(1, 1, 0.0, (), ()),  # before the alpha count
    lambda: state_from_coeffs(1, 1, 0.0, [], [0.5]),  # before the free-alpha count
], ids=["state", "state-no-alpha", "from-coeffs-one-alpha"])
def test_empty_lattice_state_is_rejected_by_lattice_state(call):
    with pytest.raises(ValueError, match=re.escape("depth N must be >= 1")):
        call()


# -- values are stored as read -----------------------------------------------------

def test_circle_state_stores_g_and_c_as_floats():
    # g and c given as arrays were kept as arrays: == raised, hash failed, d held numpy scalars
    from_arrays = CircleState(0.0, np.array([0.5, 0.4]), np.array([0.1, 0.2]))
    from_tuples = CircleState(0.0, (0.5, 0.4), (0.1, 0.2))
    assert from_arrays == from_tuples and hash(from_arrays) == hash(from_tuples)
    from_ints = CircleState(0.0, [0.5, np.float32(0.25)], [0, np.int64(2)])
    assert from_ints.c == (0.0, 2.0) and from_ints.g == (0.5, 0.25)
    for s in (from_arrays, from_ints):
        assert all(type(x) is float for x in (*s.g, *s.c, *s.d))


def test_kernel_point_is_read_once_as_a_python_complex():
    # a numpy w made every rho_n, beta_n and alpha_n a numpy complex128
    w = np.exp(0.3j)
    got = kernel_coeffs(SEQ, w)
    assert all(type(z) is complex for part in got for z in part)
    assert got == kernel_coeffs(SEQ, complex(w))


# -- valid input is stored as before ----------------------------------------------

FINITE = dict(allow_nan=False, allow_infinity=False)
#: finite complex numbers whose modulus is a finite double too
COMPLEX = st.complex_numbers(max_magnitude=1e300, **FINITE)
#: valid entries: Python int, float and complex, and numpy scalars
ENTRY = st.one_of(
    st.integers(-2 ** 70, 2 ** 70), st.floats(**FINITE), COMPLEX,
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.floats(**FINITE).map(np.float64),
    st.floats(width=32, **FINITE).map(np.float32), COMPLEX.map(np.complex128))
#: sequences of valid entries: tuples, lists and numeric numpy arrays
SIZE = st.integers(0, 8)
SEQUENCE = st.one_of(
    st.lists(ENTRY, max_size=8), st.lists(ENTRY, max_size=8).map(tuple),
    arrays(np.int64, SIZE), arrays(np.float32, SIZE, elements=st.floats(width=32, **FINITE)),
    arrays(np.float64, SIZE, elements=st.floats(**FINITE)),
    arrays(np.complex128, SIZE, elements=COMPLEX))


def stored_as_before(values, stored):
    """``stored`` holds, bit for bit, np.array(values, complex).tolist() as Python complex."""
    want = np.array(values, dtype=complex)
    return (all(type(z) is complex for z in stored)
            and np.array(stored, dtype=complex).tobytes() == want.tobytes())


@given(SEQUENCE, SEQUENCE)
def test_lattice_state_stores_valid_entries_as_before(beta, alpha_free):
    n = min(len(beta), len(alpha_free) + 1)
    beta, alpha_free = beta[:n], alpha_free[:n - 1]
    if not n or min(abs(complex(b)) for b in beta) < 1e-12:
        return  # no state, or a singular one (SingularDenominator, not the reader)
    s = state_from_coeffs(1, 2.0, 0, beta, alpha_free)
    assert stored_as_before(beta, s.beta)
    assert stored_as_before(alpha_free, s.alpha[1:-1])
    assert (s.p, s.q) == (1 + 0j, 2 + 0j)


@given(SEQUENCE)
def test_verblunsky_seq_stores_valid_entries_as_before(a):
    a = [x for x in a if abs(complex(x)) < 1]
    assert stored_as_before(a, VerblunskySeq(0.0, a).a)


@given(SEQUENCE)
def test_finite_array_converts_as_numpy_does(values):
    assert finite_array("x", values).tobytes() == np.array(values, dtype=complex).tobytes()
    if (not np.iscomplexobj(values) if isinstance(values, np.ndarray)
            else all(isinstance(v, numbers.Real) for v in values)):
        assert (finite_array("x", values, real=True).tobytes()
                == np.array(values, dtype=float).tobytes())
