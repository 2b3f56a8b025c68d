"""End-to-end CLI runs: golden outputs, determinism, exit codes."""

import argparse
import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import iv

import ertl
import ertl.cli as cli
from ertl.cli import main
from ertl.lattice import state_from_coeffs
from ertl.lorth import RecurrenceCoeffs, bootstrap_recurrence
from ertl.measures import MomentSpec, compute_moments_exact
from tests.conftest import eval_Q, rk4_reference

GOLDEN = Path(__file__).parent / "golden"

DISCRETE = '{"kind":"discrete","nodes":[1.0,2.0],"weights":[1.0,1.0],"p":[0,0],"q":[0,0]}'
DISCRETE_PQ = ('{"kind":"discrete","nodes":[0.4,0.9,1.5,2.3,3.4,5.0],'
               '"weights":[1.0,0.8,1.2,0.9,1.1,0.7],"p":[1,0],"q":[2,0]}')


def body(path):
    return [ln for ln in Path(path).read_text().splitlines()
            if not ln.startswith("#")]


def cells(path):
    """Body rows below the header, split into cells."""
    return [ln.split(",") for ln in body(path)[1:]]


def run_cli(args, capsys=None):
    code = main(args)
    return code


def test_oracle_example1_golden(tmp_path):
    out = tmp_path / "o.csv"
    assert main(["oracle", "example1", "--delta", "1", "--q", "2",
                 "--t", "0", "--N", "4", "--out", str(out)]) == 0
    assert body(out) == body(GOLDEN / "oracle_example1.csv")
    # beta column is sqrt(2) everywhere and alpha_{n+1} = n/2 (t = 0, delta = 1)
    for row in cells(out):
        assert row[1] == "1.4142135623730951"
        assert float(row[3]) == (int(row[0]) - 1) / 2


def test_oracle_example2_runs(tmp_path):
    out = tmp_path / "o2.csv"
    assert main(["oracle", "example2", "--delta", "1", "--q", "1",
                 "--t", "0", "--N", "3", "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in body(out)[1:]]
    assert float(rows[0][1]) == pytest.approx(0.8)
    assert float(rows[1][3]) == pytest.approx(0.45)


def test_moments_golden(tmp_path):
    out = tmp_path / "m.csv"
    assert main(["moments", "--measure", DISCRETE, "--t", "0", "--K", "2",
                 "--out", str(out)]) == 0
    assert body(out) == body(GOLDEN / "moments_discrete.csv")
    # nodes 1 and 2 with unit weights: nu_k = 1 + 2^k
    assert [(int(k), float(re), float(im)) for k, re, im in cells(out)] == \
        [(k, 1.0 + 2.0 ** k, 0.0) for k in range(-2, 3)]


def test_from_measure_golden(tmp_path):
    out = tmp_path / "fm.csv"
    assert main(["from-measure", "--measure", DISCRETE_PQ, "--t", "0.0",
                 "--N", "4", "--out", str(out)]) == 0
    assert body(out) == body(GOLDEN / "from_measure_discrete.csv")
    # exact-Fraction bootstrap: the modification is identically 1 at t = 0
    spec = MomentSpec.from_json_dict(json.loads(DISCRETE_PQ))
    _, rc = bootstrap_recurrence(compute_moments_exact(spec, 0, 5), 4)
    ref_alpha = [0] + list(rc.alpha)
    for n, re_b, im_b, re_a, im_a in cells(out):
        n = int(n)
        for got, ref in ((complex(float(re_b), float(im_b)), rc.beta[n - 1]),
                         (complex(float(re_a), float(im_a)), ref_alpha[n - 1])):
            assert abs(got - float(ref)) <= 1e-12 * abs(float(ref))
    # the Q_n built from the written coefficients are L-orthogonal over the
    # nodes: sum_j w_j x_j^(s-n) Q_n(x_j) = 0 for s = 0..n-1
    rows = cells(out)
    rc_out = RecurrenceCoeffs(t=0.0, p=1, q=2, beta=[float(r[1]) for r in rows],
                              alpha=[float(r[3]) for r in rows[1:]])
    for n in range(1, len(rows) + 1):
        for s in range(n):
            terms = [w * x ** (s - n) * eval_Q(rc_out, n, x)
                     for x, w in zip(spec.nodes, spec.weights)]
            assert abs(sum(terms)) <= 1e-12 * sum(abs(v) for v in terms)


def test_from_measure_rejects_repeated_times(tmp_path, capsys):
    # every row was written twice, and the dump kept one entry, with exit 0 before
    out, dump = tmp_path / "fm.csv", tmp_path / "poly.json"
    for times in ("0,0", "0.5,0.25,0.50"):
        assert main(["from-measure", "--measure", DISCRETE_PQ, "--t", times, "--N", "3",
                     "--out", str(out), "--dump-poly", str(dump)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "message": f"--t times must not repeat, got {times}"}
        assert not out.exists() and not dump.exists()


EXAMPLE1 = ('{"kind":"real_line_weighted","weight_id":"example1",'
            '"params":{"delta":1.0,"q":2.0},"p":[1,0],"q":[2,0]}')


def test_from_measure_at_several_times_matches_the_oracle(tmp_path):
    # one t,n,... row per time and site; example1's modification shifts delta to delta + t
    out = tmp_path / "fm.csv"
    assert main(["from-measure", "--measure", EXAMPLE1, "--t", "0,0.5", "--N", "4",
                 "--out", str(out)]) == 0
    assert body(out)[0] == "t,n,re_beta,im_beta,re_alpha,im_alpha"
    got = cells(out)
    assert [row[:2] for row in got] == [[t, str(n)] for t in ("0", "0.5") for n in range(1, 5)]
    for i, t in enumerate(("0", "0.5")):
        want = tmp_path / f"oracle{i}.csv"
        assert main(["oracle", "example1", "--delta", "1", "--q", "2", "--t", t, "--N", "4",
                     "--out", str(want)]) == 0
        for row, ref in zip(got[4 * i:4 * i + 4], cells(want)):
            assert row[1] == ref[0]
            assert np.allclose([float(x) for x in row[2:]], [float(x) for x in ref[1:]],
                               rtol=1e-13, atol=1e-13)


def test_measure_given_as_a_file_path(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(DISCRETE)
    inline, from_file = tmp_path / "inline.csv", tmp_path / "file.csv"
    for measure, out in ((DISCRETE, inline), (str(spec), from_file)):
        assert main(["moments", "--measure", measure, "--K", "2", "--out", str(out)]) == 0
    assert body(from_file) == body(inline) == body(GOLDEN / "moments_discrete.csv")


def test_from_measure_dump_poly(tmp_path):
    out = tmp_path / "fm.csv"
    dump = tmp_path / "poly.json"
    assert main(["from-measure", "--measure", DISCRETE_PQ, "--t", "0.0",
                 "--N", "3", "--out", str(out), "--dump-poly", str(dump)]) == 0
    data = json.loads(dump.read_text())
    entry = data[next(iter(data))]
    assert entry["N"] == 3
    assert entry["rows"][2][2] == [1.0, 0.0]  # monic leading coefficient
    assert entry["conventions"]["alpha_1"] == 0


def test_simulate_stationary_single_site(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["simulate", "--system", "ertl", "--p", "1,0", "--q", "2,0",
                 "--t-end", "1", "--init", '{"beta":[[1,0]],"alpha":[]}',
                 "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in body(out)[1:]]
    assert rows[0][2] == rows[-1][2] == "1"


def step_counts(monkeypatch):
    """(accepted, rejected) of each integration ``main`` runs, in order."""
    counts = []
    for name in ("integrate", "integrate_cd", "integrate_schur"):
        def counted(*args, _run=getattr(cli, name), _lattice=name == "integrate", **kwargs):
            result = _run(*args, **kwargs)
            stats = result.step_stats if _lattice else result[-1]
            counts.append((stats["accepted"], stats["rejected"]))
            return result
        monkeypatch.setattr(cli, name, counted)
    return counts


def test_simulate_golden_and_determinism(tmp_path, monkeypatch):
    args = ["simulate", "--system", "rtl2", "--t-end", "0.5", "--t-out", "0.25,0.5",
            "--init", '{"beta":[[1,0],[2,0],[1.5,0]],"alpha":[[0.5,0],[0.25,0]]}']
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    counts = step_counts(monkeypatch)
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert body(out1) == body(out2)
    assert body(out1) == body(GOLDEN / "simulate_rtl2.csv")
    assert counts == [(5, 1)] * 2  # the golden's steps: a regeneration that moves one shows
    by_t = {}
    for row in cells(out1):
        by_t.setdefault(float(row[0]), []).append(row)
    # conserved tr H = sum gamma_n = 5.25 and det H = prod beta_n = 3
    for rows in by_t.values():
        beta = [complex(float(r[2]), float(r[3])) for r in rows]
        alpha = [complex(float(r[4]), float(r[5])) for r in rows]
        assert abs(sum(beta) + sum(alpha) - 5.25) <= 1e-12 * 5.25
        assert abs(math.prod(beta) - 3.0) <= 1e-9 * 3.0
    # fixed-step RK4 reference, converged to ~1e-13 at h = 1e-3
    ref = rk4_reference(state_from_coeffs(1, 0, 0.0, [1, 2, 1.5], [0.5, 0.25]), 0.5,
                        1e-3, t_out=[0.25, 0.5], rhs_id="rtl2")
    for t, s in zip(ref.times, ref.states):
        rows = by_t[t]
        for r, b, a in zip(rows, s.beta, s.alpha):
            assert abs(complex(float(r[2]), float(r[3])) - b) <= 1e-9
            assert abs(complex(float(r[4]), float(r[5])) - a) <= 1e-9


SQRT2 = "[1.4142135623730951,0]"
#: golden file -> simulate arguments; each file is a bitwise record of its flow's steps
#: (their accepted and rejected counts are in FLOW_GOLDEN_STEPS)
FLOW_GOLDENS = {
    "simulate_ertl_complex.csv": [
        "--system", "ertl", "--p", "1,0.5", "--q", "0.8,-0.3", "--init",
        '{"beta":[[1,0.2],[1.2,-0.1],[0.9,0.1],[1.1,0]],'
        '"alpha":[[0.5,0.1],[0.3,-0.2],[0.4,0]]}'],
    "simulate_langmuir.csv": [
        "--system", "langmuir", "--q", "2,0", "--init",
        '{"beta":[' + ",".join([SQRT2] * 5) + '],"alpha":[[0.5,0],[0.3,0],[0.8,0],[0.2,0]]}'],
    "simulate_schur.csv": [
        "--system", "schur", "--q", "0.5,0.3", "--init",
        '{"a":[[0.2,0.1],[-0.1,0.05],[0.05,-0.02],[0.01,0]]}'],
    "simulate_cd.csv": [
        "--system", "cd", "--q", "0.5,0.2", "--init",
        '{"c":[0.1,-0.2,0.3,0],"d":[0,0.25,0.3,0.2]}'],
}
#: golden file -> (accepted, rejected) steps of its run.  A golden regenerated
#: for rounding only (the stage arithmetic changed) must keep these counts
FLOW_GOLDEN_STEPS = {"simulate_ertl_complex.csv": (5, 0), "simulate_langmuir.csv": (4, 0),
                     "simulate_schur.csv": (5, 0), "simulate_cd.csv": (5, 1)}


def golden_mismatch(got, want):
    """How two CSV bodies differ: the count of differing cells and the largest numeric change."""
    cells = [(a, b) for g, w in zip(got, want)
             for a, b in zip(g.split(","), w.split(",")) if a != b]
    numeric = []
    for a, b in cells:
        try:
            numeric.append(abs(float(a) - float(b)))
        except ValueError:
            pass
    return (f"{len(cells)} cells differ (largest numeric difference "
            f"{max(numeric, default=0.0):.3g}); {len(got)} rows against {len(want)}")


@pytest.mark.parametrize("name", FLOW_GOLDENS, ids=lambda n: n[9:-4])
def test_simulate_flow_golden(tmp_path, monkeypatch, name):
    # text-equal: a change to a flow's kernel or to the stepper that moves
    # any step by one rounding shows here
    out = tmp_path / name
    counts = step_counts(monkeypatch)
    assert main(["simulate", *FLOW_GOLDENS[name], "--t-end", "0.5", "--t-out", "0.25,0.5",
                 "--out", str(out)]) == 0
    got, want = body(out), body(GOLDEN / name)
    assert got == want, golden_mismatch(got, want)
    assert counts == [FLOW_GOLDEN_STEPS[name]]
    by_t = {}
    for row in cells(out):
        by_t.setdefault(row[0], []).append([float(x) for x in row[2:]])
    assert list(by_t) == ["0", "0.25", "0.5"]
    first = by_t["0"]
    for rows in by_t.values():
        if name == "simulate_ertl_complex.csv":  # tr H and det H are conserved
            beta = [complex(r[0], r[1]) for r in rows]
            alpha = [complex(r[2], r[3]) for r in rows]
            assert abs(sum(beta) + sum(alpha) - (5.4 + 0.1j)) <= 1e-15
            assert abs(math.prod(beta) - (1.1924 + 0.2728j)) <= 1e-12
        elif name == "simulate_langmuir.csv":  # beta frozen, sum alpha_n conserved
            assert [r[:2] for r in rows] == [r[:2] for r in first]
            assert abs(sum(r[2] for r in rows) - 1.8) <= 1e-15
        elif name == "simulate_schur.csv":
            assert max(math.hypot(*r) for r in rows) < 1.0
        else:
            assert all(0.0 < r[1] < 1.0 for r in rows[1:]) and rows[0][1] == 0.0


def test_simulate_cd_and_schur(tmp_path):
    out = tmp_path / "cd.csv"
    assert main(["simulate", "--system", "cd", "--q", "0.5,0", "--t-end", "0.3",
                 "--init", '{"c":[0,0,0,0],"d":[0,0.25,0.25,0.25]}',
                 "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in body(out)[1:]]
    assert rows[0][2] == "0"  # c stays 0 under real q from symmetric start
    out2 = tmp_path / "schur.csv"
    assert main(["simulate", "--system", "schur", "--q", "0.5,0", "--t-end", "0.3",
                 "--init", '{"a":[[0.2,0],[0.1,0],[0.05,0]]}',
                 "--out", str(out2)]) == 0
    rows2 = [ln.split(",") for ln in body(out2)[1:]]
    assert max(abs(float(r[2])) for r in rows2) < 1.0


def test_verify_lax_report(capsys):
    assert main(["verify-lax", "--N", "8", "--p", "1,0", "--q", "2,0",
                 "--seed", "7"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert report["residual"] < 1e-12


def test_verify_lax_sweep_with_threads(capsys):
    assert main(["verify-lax", "--N", "5", "--p", "0.7,0.3", "--q", "1.1,-0.4",
                 "--seed", "11", "--count", "6"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["count"] == 6
    assert all(r < 1e-12 for r in report["residuals"])


def test_spectrum_from_trajectory(tmp_path):
    traj = tmp_path / "traj.csv"
    assert main(["simulate", "--system", "ertl", "--p", "1,0", "--q", "1,0",
                 "--t-end", "0.5", "--t-out", "0.25,0.5",
                 "--init", '{"beta":[[1,0],[2,0]],"alpha":[[1,0]]}',
                 "--out", str(traj)]) == 0
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--traj", str(traj), "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in body(out)[1:]]
    assert len(rows) == 6  # 3 times x 2 eigenvalues
    by_t = {}
    for r in rows:
        by_t.setdefault(r[0], []).append(complex(float(r[2]), float(r[3])))
    specs = list(by_t.values())
    for s in specs[1:]:  # isospectral within integration tolerance
        assert max(abs(a - b) for a, b in zip(s, specs[0])) < 1e-7


@pytest.mark.parametrize("edit, needle", [
    # the row 0.5,2,... dropped: two eigenvalues at t = 0.5, exit 0, before
    ("drop 7", "t = 0.5 (line 6) lacks site 2 of 1..3"),
    ("repeat 6 at 7", "line 7 gives site '1' at t = 0.5, but each time needs the sites 1..3 once"),
    ("drop 8", "t = 0.5 (line 6) lacks site 3 of 1..3"),  # N falls to 2
    ("drop 5", "line 7 gives site '3' at t = 0.5, but each time needs the sites 1..2 once"),
    ("add 4", "line 9 gives site '4' at t = 0.5, but each time needs the sites 1..3 once"),
])
def test_spectrum_needs_every_site_once_at_every_time(tmp_path, capsys, edit, needle):
    traj = tmp_path / "traj.csv"
    assert main(["simulate", "--system", "ertl", "--p", "1,0", "--q", "1,0", "--N", "3",
                 "--t-end", "0.5", "--out", str(traj)]) == 0
    lines = traj.read_text().splitlines()  # lines 3..5 at t = 0, lines 6..8 at t = 0.5
    assert [ln.split(",")[:2] for ln in lines[2:]] == [
        [t, n] for t in ("0", "0.5") for n in ("1", "2", "3")]
    verb, *where = edit.split()
    if verb == "drop":
        del lines[int(where[0]) - 1]
    elif verb == "repeat":
        lines[int(where[2]) - 1] = lines[int(where[0]) - 1]
    else:
        lines.append("0.5," + where[0] + "," + lines[-1].split(",", 2)[2])
    traj.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["spectrum", "--traj", str(traj)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err) == {
        "error": "ValueError", "message": f"{traj} is no lattice trajectory: {needle}"}


@pytest.mark.parametrize("line, col, cell, needle", [
    # before, "could not convert string to float: 'x'" and "p, q, t, beta and
    # alpha must be finite", with no file or line; a bad t read as site 2
    # missing at t = 0.5
    (7, "re_beta", "x", "line 7 has re_beta = 'x', not a finite number"),
    (7, "re_beta", "nan", "line 7 has re_beta = 'nan', not a finite number"),
    (7, "t", "x", "line 7 has t = 'x', not a finite number"),
    (7, "t", "nan", "line 7 has t = 'nan', not a finite number"),
    (8, "im_alpha", "inf", "line 8 has im_alpha = 'inf', not a finite number"),
    (6, "re_alpha", "0.5", "t = 0.5 (line 6): alpha_1 must be 0"),
])
def test_spectrum_names_the_line_of_a_bad_cell(tmp_path, capsys, line, col, cell, needle):
    traj = tmp_path / "traj.csv"
    assert main(["simulate", "--system", "ertl", "--p", "1,0", "--q", "1,0", "--N", "3",
                 "--t-end", "0.5", "--out", str(traj)]) == 0
    lines = traj.read_text().splitlines()  # lines 3..5 at t = 0, lines 6..8 at t = 0.5
    row = lines[line - 1].split(",")
    row[lines[1].split(",").index(col)] = cell
    lines[line - 1] = ",".join(row)
    traj.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["spectrum", "--traj", str(traj)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err) == {
        "error": "ValueError", "message": f"{traj} is no lattice trajectory: {needle}"}


def test_trajectory_cells_are_read_and_the_first_bad_one_named():
    assert cli._finite_floats("bad: line 3 has", ("a", "b"), ("1e308", "-2")) == [1e308, -2.0]
    with pytest.raises(ValueError, match="bad: line 3 has b = 'x', not a finite number"):
        cli._finite_floats("bad: line 3 has", ("a", "b", "c"), ("1", "x", "nan"))


@pytest.mark.parametrize("system", ["cd", "schur", "short-row", "no-header"])
def test_spectrum_rejects_a_csv_that_is_no_lattice_trajectory(tmp_path, capsys, system):
    # an IndexError traceback answered a cd or schur CSV, or a short row, before
    traj = tmp_path / "traj.csv"
    header = "its header must be 't,site,re_beta,im_beta,re_alpha,im_alpha', but "
    if system == "cd":
        argv = CD + ["--init", '{"c":[0.1,0.2],"d":[0,0.25]}']
        needle = header + "line 2 reads 't,site,c,d'"
    elif system == "schur":
        argv = SCHUR + ["--init", '{"a":[[0.2,0],[0.1,0]]}']
        needle = header + "line 2 reads 't,site,re_a,im_a'"
    else:
        argv = ERTL + ["--N", "2"]
        needle = "line 4 has 5 cells, not 6"
    assert main(argv + ["--out", str(traj)]) == 0
    if system == "short-row":
        lines = traj.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0]
        traj.write_text("\n".join(lines) + "\n")
    elif system == "no-header":
        traj.write_text("# ertl\n")
        needle = header + "it has no header"
    capsys.readouterr()
    assert main(["spectrum", "--traj", str(traj)]) == 1
    out, err = capsys.readouterr()
    report = json.loads(err)
    assert out == "" and report["error"] == "ValueError"
    assert report["message"] == f"{traj} is no lattice trajectory: {needle}"


def test_circle_subcommands(tmp_path, capsys):
    out = tmp_path / "v.csv"
    assert main(["circle", "verblunsky", "--q", "0.5,0", "--N", "6",
                 "--t", "0.3", "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in body(out)[1:]]
    assert len(rows) == 6 and float(rows[0][1]) < 0

    out2 = tmp_path / "cd.csv"
    assert main(["circle", "cd", "--q", "0.5,0", "--N", "6", "--t", "0.2",
                 "--out", str(out2)]) == 0
    assert body(out2) == body(GOLDEN / "circle_cd.csv")
    # exp(-0.2 cos theta) has moments mu_m = (-1)^m I_m(0.2); the monic
    # Phi_n solves the Toeplitz system and a_{n-1} = -conj(Phi_n(0))
    mu = {m: (-1) ** m * iv(abs(m), 0.2) for m in range(-6, 7)}
    a = []
    for n in range(1, 7):
        T = np.array([[mu[j - k] for j in range(n)] for k in range(n)])
        phi = np.linalg.solve(T, [-mu[n - k] for k in range(n)])
        a.append(-phi[0])
    # real a_n give rho_n = 1 and g_n = (1 - a_{n-1})/2 at w = 1 in the
    # formulas of cd_from_verblunsky, hence d_{n+1} = (1 + a_{n-1})(1 - a_n)/4
    d_ref = [0.0] + [(1 + a[n - 1]) * (1 - a[n]) / 4 for n in range(1, 6)]
    for (n, c, d), dn in zip(cells(out2), d_ref):
        assert abs(float(d) - dn) <= 1e-15
        assert abs(float(c)) <= 1e-15  # c_n = 0 exactly for real q

    out3 = tmp_path / "k.csv"
    assert main(["circle", "kernel", "--q", "0.5,0", "--N", "5", "--t", "0.2",
                 "--w", "1,0", "--out", str(out3)]) == 0
    rows3 = [ln.split(",") for ln in body(out3)[1:]]
    assert len(rows3) == 5

    assert main(["circle", "schur-check", "--q", "0.5,0", "--N", "8",
                 "--t", "0.25"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert report["max_err_n_ge_1"] < 1e-5


def test_schur_check_n3_judges_row_1(capsys):
    # N = 3 is the smallest window with a row n >= 1 (a_dot_1 reads a_2): its
    # error alone decides "pass", and the boundary row n = 0 is only reported
    argv = ["circle", "schur-check", "--q", "0.5,0", "--N", "3", "--t", "0.25"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    err = report["max_err_n_ge_1"]
    assert report["pass"] is True and 0.0 < err < 1e-5
    assert main(argv + ["--tol", repr(err / 2)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is False and report["max_err_n_ge_1"] == err


def test_exit_code_validation_error(capsys):
    assert main(["simulate", "--system", "cd", "--q", "1,0", "--t-end", "1"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "error" in err


def test_exit_code_circle_q_with_measure(capsys):
    # --q sets only the default Lebesgue measure; a spec carries its own q, so
    # the two together are bad input (1), not a silently ignored flag
    spec = '{"kind":"unit_circle_weighted","weight_id":"circle_lebesgue","p":[0.5,0],"q":[0.5,0]}'
    assert main(["circle", "verblunsky", "--measure", spec, "--q", "0.3,0.4", "--N", "4"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
    assert main(["circle", "verblunsky", "--measure", spec, "--N", "4"]) == 0


def unread_flag(capsys, argv, flag):
    """main(argv) exits 1 with a ValueError report that names ``flag``."""
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and err["message"].startswith(f"{flag} is not read")


@pytest.mark.parametrize("mode", ["verblunsky", "cd", "schur-check"])
def test_exit_code_w_outside_kernel(capsys, mode):
    unread_flag(capsys, ["circle", mode, "--N", "3", "--w", "0,1"], "--w")


@pytest.mark.parametrize("mode", ["verblunsky", "kernel", "cd"])
@pytest.mark.parametrize("flag,value", [("--h", "5"), ("--tol", "1e9")])
def test_exit_code_fd_flags_outside_schur_check(capsys, mode, flag, value):
    unread_flag(capsys, ["circle", mode, "--N", "3", flag, value], flag)


@pytest.mark.parametrize("system", ["rtl1", "rtl2"])
@pytest.mark.parametrize("flag", ["--p", "--q"])
def test_exit_code_p_q_with_forced_system(capsys, system, flag):
    # rtl1 and rtl2 force (p, q); a given value would be silently replaced
    unread_flag(capsys, ["simulate", "--system", system, flag, "5", "--N", "2",
                         "--t-end", "0.1"], flag)


@pytest.mark.parametrize("system", list(ertl.SYSTEMS))
@pytest.mark.parametrize("flag", ["--p", "--q"])
def test_p_q_are_unread_exactly_where_the_system_forces_them(capsys, system, flag):
    # SYSTEMS alone decides, per parameter, which lattice systems read --p and
    # --q: a system reads each one it does not fix.  q = 1 keeps langmuir's
    # default beta_n = 1 on its symmetric manifold
    argv = ["simulate", "--system", system, flag, "1,0", "--N", "2", "--t-end", "0.1"]
    if flag[2:] in ertl.SYSTEMS[system]:
        unread_flag(capsys, argv, flag)
    else:
        assert main(argv) == 0


def test_langmuir_fixes_p_1(capsys):
    # p = 1 is the only p of the Langmuir reduction: its golden run needs no
    # --p, and the --p 1,0 that run was once written with is an unread flag
    assert ertl.SYSTEMS["langmuir"] == {"p": 1 + 0j}
    unread_flag(capsys, ["simulate", *FLOW_GOLDENS["simulate_langmuir.csv"], "--t-end", "0.5",
                         "--p", "1,0"], "--p")


def option_help(command):
    """{flag: help} of the parser's ``command`` subcommand, flags without their dashes."""
    subs = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    return {opt.lstrip("-"): action.help for action in subs.choices[command]._actions
            for opt in action.option_strings}


def test_mode_flag_help_ends_with_its_readers_and_default():
    # the lattice systems that read --p and --q are those SYSTEMS leaves the
    # parameter free, and each mode flag's help ends with _MODE_FLAGS' entry
    for param in ("p", "q"):
        free = [s for s, fixed in ertl.SYSTEMS.items() if param not in fixed]
        circle = ["cd", "schur"] if param == "q" else []
        assert list(cli._MODE_FLAGS["simulate", param][1]) == free + circle
    assert cli._MODE_FLAGS["simulate", "N"][1] == tuple(ertl.SYSTEMS)
    for (command, flag), (default, readers) in cli._MODE_FLAGS.items():
        tail = "read by " + ", ".join(readers)
        if default is not None:
            assert complex(default).imag == 0
            tail += f"; default {complex(default).real:g}"
        assert option_help(command)[flag].endswith(f" ({tail})")


def test_no_help_string_names_a_lattice_system():
    # which system reads which flag is said once, by SYSTEMS and _MODE_FLAGS
    tree = ast.parse(Path(cli.__file__).read_text())
    texts = [node.value for kw in ast.walk(tree) if isinstance(kw, ast.keyword)
             and kw.arg == "help" for node in ast.walk(kw.value)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert len(texts) > 20
    named = {word for text in texts for word in re.findall(r"\w+", text)}
    assert named.isdisjoint(ertl.SYSTEMS)


def test_tolerance_defaults_are_step_controls():
    args, ctrl = cli.build_parser().parse_args(ERTL), ertl.StepControl()
    assert (args.rel_tol, args.abs_tol) == (ctrl.rel_tol, ctrl.abs_tol)


@pytest.mark.parametrize("system", ["schur", "cd"])
def test_exit_code_p_with_circle_flow(capsys, system):
    init = '{"a":[[0.2,0],[0.1,0]]}' if system == "schur" else '{"c":[0,0],"d":[0,0.25]}'
    unread_flag(capsys, ["simulate", "--system", system, "--p", "1,0", "--q", "0.5,0",
                         "--t-end", "0.1", "--init", init], "--p")


def test_exit_code_bad_initial_chain(capsys):
    # d_2 outside (0, 1) at the start is bad input (1), not a breakdown of the flow (2)
    assert main(["simulate", "--system", "cd", "--q", "0,0", "--t-end", "0.1",
                 "--init", '{"c":[0.1,0.2,0.3],"d":[0,-0.5,0.2]}']) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"


@pytest.mark.parametrize("flag,value", [("--rel-tol", "nan"), ("--rel-tol", "inf"),
                                        ("--abs-tol", "nan"), ("--abs-tol", "0")])
def test_exit_code_bad_tolerance(capsys, flag, value):
    # a tolerance that is not finite and positive is bad input (1), not a breakdown (2)
    assert main(["simulate", "--system", "rtl2", "--N", "3", "--t-end", "0.1",
                 flag, value]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"


@pytest.mark.parametrize("measure,t", [
    ('{"kind":"discrete","nodes":[1,2],"weights":[1,Infinity]}', "0"),
    ('{"kind":"discrete","nodes":[1,Infinity],"weights":[1,1]}', "0"),
    ('{"kind":"real_line_weighted","weight_id":"example1",'
     '"params":{"delta":Infinity,"q":2.0},"p":[1,0],"q":[2,0]}', "0.5"),
    ('{"kind":"unit_circle_weighted","weight_id":"circle_lebesgue",'
     '"p":[NaN,0],"q":[NaN,0]}', "0.5"),
    ('{"kind":"unit_circle_weighted","weight_id":"circle_lebesgue",'
     '"params":{"atoms":[[NaN,0.2]]},"p":[0.5,0],"q":[0.5,0]}', "0.5"),
    ('{"kind":"unit_circle_weighted","weight_id":"circle_kernel",'
     '"params":{"w":[NaN,0]},"p":[0.5,0],"q":[0.5,0]}', "0.5"),
    (DISCRETE, "inf"),
    (DISCRETE, "nan"),
], ids=["weight", "node", "delta", "circle-q", "atom-angle", "kernel-w", "t-inf", "t-nan"])
def test_exit_code_non_finite_moment_input(capsys, measure, t):
    # a non-finite spec entry or time is bad input (1), not a numerical breakdown (2)
    assert main(["moments", "--measure", measure, "--t", t, "--K", "3"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"


def test_exit_code_output_time_before_start(capsys):
    # the circle flows share the lattice's output-grid validation
    assert main(["simulate", "--system", "schur", "--q", "0.5,0", "--t-end", "1",
                 "--t-out", "-1", "--init", '{"a":[[0.2,0],[0.1,0]]}']) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"


def test_exit_code_numerical_breakdown(capsys):
    # blow-up of the flow: detected singular denominator maps to exit 2
    code = main(["simulate", "--system", "rtl1", "--t-end", "2",
                 "--init", '{"beta":[[0.5,0],[1,0]],"alpha":[[-1,0]]}'])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SingularDenominator"
    # the error's fields ride along as plain JSON numbers
    assert err["n"] == 1
    lo, hi = err["t_bracket"]
    assert isinstance(lo, float) and isinstance(hi, float) and 0.0 < lo < hi < 2.0
    assert len(err["value"]) == 2 and abs(complex(*err["value"])) < 1e-12
    assert "np.float64" not in err["message"]


def test_exit_code_schur_breakdown(capsys):
    # a step that passes the error test takes |a_1| past 1: a breakdown (exit 2), not bad input
    code = main(["simulate", "--system", "schur", "--q", "50,0", "--t-end", "1",
                 "--init", '{"a": [[0.99,0],[0.5,0]]}'])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PositivityLost"
    assert err["n"] == 1
    assert isinstance(err["modulus"], float) and err["modulus"] >= 1.0
    assert isinstance(err["t"], float) and 0.0 < err["t"] < 1.0


def test_console_script_installed():
    # the child imports the ertl under test, installed or from the source tree
    src = str(Path(ertl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "ertl.cli", "oracle", "example1",
                           "--delta", "1", "--q", "2", "--t", "1", "--N", "2"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "1.4142135623730951" in proc.stdout


def test_library_imports_leave_scipy_out():
    # scipy costs ~0.5 s and ~40 MiB at import; nothing outside the tests needs it
    src = str(Path(ertl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, ertl.cli, ertl.lattice, ertl.circle, ertl.lax; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


TWO_SITES = '{"beta":[[1,0],[1,0]],"alpha":[[0.5,0]]}'
ERTL = ["simulate", "--system", "ertl", "--t-end", "1"]
SCHUR = ["simulate", "--system", "schur", "--q", "0.5,0", "--t-end", "0.1"]
CD = ["simulate", "--system", "cd", "--q", "0.5,0", "--t-end", "0.1"]
SCHUR_CHECK = ["circle", "schur-check", "--q", "0.5,0", "--N", "4", "--t", "0.25"]
ORACLE = ["oracle", "example1", "--delta", "1", "--q", "2", "--N", "3"]
#: id -> (command line, a substring of the error message); each exits 1
BAD_COMMAND_LINES = {
    # --N and --init are alternatives; schur and cd read --init only
    "verify-lax-N-and-init": (["verify-lax", "--N", "2", "--init", TWO_SITES], "--N and --init"),
    "verify-lax-neither": (["verify-lax"], "--N and --init"),
    "ertl-N-and-init": (ERTL + ["--N", "9", "--init", '{"beta":[[1,0]],"alpha":[]}'],
                        "--N and --init"),
    "ertl-neither": (ERTL, "--N and --init"),
    "schur-N": (SCHUR + ["--N", "7", "--init", '{"a":[[0.2,0]]}'], "--N is not read"),
    "cd-N": (CD + ["--N", "2", "--init", '{"c":[0,0],"d":[0,0.25]}'], "--N is not read"),
    "schur-no-init": (SCHUR, "requires --init"),
    # usage errors
    "unknown-system": (["simulate", "--system", "foo"], "invalid choice: 'foo'"),
    "missing-t-end": (["simulate", "--system", "ertl", "--N", "2"], "required: --t-end"),
    "delta-not-a-number": (ORACLE + ["--delta", "x"], "invalid float value: 'x'"),
    "no-command": ([], "required: command"),
    # a moment spec that is a JSON array: a TypeError traceback, or "unknown
    # moment-spec keys [1]", before
    "measure-array": (["moments", "--measure", '["kind"]', "--K", "2"],
                      "a moment spec must be a JSON object, got list"),
    "measure-array-number": (["moments", "--measure", "[1]", "--K", "2"],
                             "a moment spec must be a JSON object, got list"),
    # a KeyError report of "'kind'" before
    "measure-no-kind": (["moments", "--measure", "{}", "--K", "2"],
                        "moment spec is missing the key 'kind'"),
    # malformed --init
    "init-array": (ERTL + ["--init", "[1,2]"], "JSON object"),
    "init-number-for-array": (ERTL + ["--init", '{"beta":5,"alpha":[]}'], "beta must be an array"),
    "init-triple": (ERTL + ["--init", '{"beta":[[1,0,3]],"alpha":[]}'], "beta[0] must be a pair"),
    "init-string": (SCHUR + ["--init", '{"a":[["a",0]]}'], "a[0] must be a real number"),
    "init-single": (SCHUR + ["--init", '{"a":[[0.1]]}'], "a[0] must be a pair"),
    "init-bool": (SCHUR + ["--init", '{"a":[[true,0]]}'], "a[0] must be a real number"),
    "init-cd-pair": (CD + ["--init", '{"c":[[0,0]],"d":[0]}'], "c[0] must be a real number"),
    "init-unknown-key": (CD + ["--init", '{"c":[0],"d":[0],"e":1}'], "exactly the keys"),
    # an integer beyond a double escaped as an OverflowError traceback
    "moments-huge-node": (["moments", "--K", "1", "--measure",
                           '{"kind":"discrete","nodes":[1' + "0" * 400 + '],"weights":[1]}'],
                          "discrete nodes must be finite real numbers"),
    "simulate-p-triple": (ERTL + ["--N", "2", "--p", "1,2,3"], "expected re or re,im"),
    "init-missing-key": (ERTL + ["--init", '{"beta":[[1,0]]}'], "exactly the keys"),
    "init-nan-beta": (ERTL + ["--init", '{"beta":[[NaN,0]],"alpha":[]}'], "must be finite"),
    "init-inf-a": (SCHUR + ["--init", '{"a":[[0.1,Infinity]]}'], "must be finite"),
    "init-nan-c": (CD + ["--init", '{"c":[NaN,0],"d":[0,0.25]}'], "must be finite"),
    "init-alpha-count": (ERTL + ["--init", '{"beta":[[1,0]],"alpha":[[1,0]]}'], "N - 1 = 0"),
    "init-full-alpha": (ERTL + ["--init", '{"beta":[[1,0]],"alpha":[[0,0],[0,0]]}'],
                        "N - 1 = 0"),
    "verify-lax-init": (["verify-lax", "--init", '{"beta":[[1,0]],"alpha":[["x",0]]}'],
                        "alpha[0] must be a real number"),
    # NaN for each numeric flag
    "simulate-N": (ERTL + ["--N", "nan"], "invalid int value"),
    "simulate-p": (ERTL + ["--N", "2", "--p", "nan"], "must be finite"),
    "simulate-q": (ERTL + ["--N", "2", "--q", "nan"], "must be finite"),
    "simulate-schur-q": (SCHUR + ["--q", "nan", "--init", '{"a":[[0.2,0]]}'], "must be finite"),
    "simulate-cd-q": (CD + ["--q", "nan", "--init", '{"c":[0,0],"d":[0,0.25]}'],
                      "must be finite"),
    "simulate-t0": (ERTL + ["--N", "2", "--t0", "nan"], "must be finite"),
    "simulate-schur-t0": (SCHUR + ["--t0", "nan", "--init", '{"a":[[0.2,0]]}'], "must be finite"),
    "simulate-cd-t0": (CD + ["--t0", "nan", "--init", '{"c":[0,0],"d":[0,0.25]}'],
                       "t must be finite"),
    "simulate-t-end": (ERTL + ["--N", "2", "--t-end", "nan"], "t_end must be finite"),
    "simulate-t-out": (ERTL + ["--N", "2", "--t-out", "nan"], "output times"),
    "simulate-t-out-last": (ERTL + ["--N", "2", "--t-out", "0.5,nan"], "output times"),
    # a bare float() answered "could not convert string to float: 'abc'"
    "simulate-t-out-word": (ERTL + ["--N", "2", "--t-out", "0.5,abc"],
                            "--t-out (output times) has entry 2 = 'abc', not a finite number"),
    "from-measure-t-word": (["from-measure", "--measure", DISCRETE, "--N", "2", "--t", "abc"],
                            "--t (time points) has entry 1 = 'abc', not a finite number"),
    "simulate-rel-tol": (ERTL + ["--N", "2", "--rel-tol", "nan"], "rel_tol must be finite"),
    "simulate-abs-tol": (ERTL + ["--N", "2", "--abs-tol", "nan"], "abs_tol must be finite"),
    "verify-lax-N": (["verify-lax", "--N", "nan"], "invalid int value"),
    "verify-lax-p": (["verify-lax", "--N", "2", "--p", "nan"], "must be finite"),
    "verify-lax-q": (["verify-lax", "--N", "2", "--q", "nan"], "must be finite"),
    "verify-lax-t": (["verify-lax", "--N", "2", "--t", "nan"], "must be finite"),
    "verify-lax-init-t": (["verify-lax", "--init", TWO_SITES, "--t", "nan"], "must be finite"),
    "verify-lax-seed": (["verify-lax", "--N", "2", "--seed", "nan"], "invalid int value"),
    "verify-lax-count": (["verify-lax", "--N", "2", "--count", "nan"], "invalid int value"),
    "verify-lax-count-0": (["verify-lax", "--N", "2", "--count", "0"], "--count >= 1"),
    "verify-lax-tol": (["verify-lax", "--N", "2", "--tol", "nan"], "--tol must be > 0"),
    # --init gives the one state, so the random draw's flags are not read
    "verify-lax-init-count": (["verify-lax", "--init", TWO_SITES, "--count", "5"], "--count"),
    "verify-lax-init-seed": (["verify-lax", "--init", TWO_SITES, "--seed", "3"], "--seed"),
    "verify-lax-init-count-1": (["verify-lax", "--init", TWO_SITES, "--count", "1"], "--count"),
    "circle-q": (["circle", "verblunsky", "--N", "3", "--q", "nan"], "must be finite"),
    "circle-N": (["circle", "verblunsky", "--N", "nan"], "invalid int value"),
    "circle-t": (["circle", "verblunsky", "--N", "3", "--t", "nan"], "must be finite"),
    "circle-w": (["circle", "kernel", "--N", "3", "--w", "nan"], "kernel point"),
    "circle-h": (SCHUR_CHECK + ["--h", "nan"], "--h and --tol must be > 0"),
    "circle-h-0": (SCHUR_CHECK + ["--h", "0"], "--h and --tol must be > 0"),
    "circle-tol": (SCHUR_CHECK + ["--tol", "nan"], "--h and --tol must be > 0"),
    # rhs_schur has no row for N = 1: an IndexError traceback answered before
    "schur-check-N-1": (["circle", "schur-check", "--N", "1", "--t", "0.1"],
                        "circle schur-check needs --N >= 3"),
    # at N = 2 only the boundary row n = 0 exists: "pass" with nothing compared before
    "schur-check-N-2": (["circle", "schur-check", "--N", "2", "--t", "0.1"],
                        "circle schur-check needs --N >= 3, got 2"),
    # empty circle windows: numpy's "negative dimensions" and "n_report = 0" before
    "cd-empty": (CD + ["--init", '{"c":[],"d":[]}'], "the (c, d) window is empty"),
    "schur-empty": (SCHUR + ["--init", '{"a":[]}'], "the Schur window is empty"),
    "oracle-delta": (ORACLE + ["--delta", "nan"], "delta must be finite"),
    "oracle-q": (ORACLE + ["--q", "nan"], "q must be finite"),
    "oracle-t": (ORACLE + ["--t", "nan"], "t + delta > 0"),
    # alpha = 0 rows with exit 0 answered before
    "oracle-t-inf": (ORACLE + ["--t", "inf"], "t must be finite"),
    "oracle-N": (ORACLE + ["--N", "nan"], "invalid int value"),
}


@pytest.mark.parametrize("case", BAD_COMMAND_LINES)
def test_bad_command_line_exits_1_with_report(capsys, case):
    # bad input of any kind is exit 1 with one JSON report on stderr: never a
    # traceback, argparse's exit 2 (the breakdown code) or a NaN row with exit 0
    argv, needle = BAD_COMMAND_LINES[case]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    report = json.loads(err)
    assert report["error"] == "ValueError" and needle in report["message"]


SINGULAR = '{"beta":[[0,0],[1,0]],"alpha":[[0.5,0]]}'  # beta_1 = 0
SINGULAR_REPORT = {"error": "SingularDenominator", "n": 1, "value": [0.0, 0.0], "t": 0.0,
                   "message": "singular denominator: |beta_1| too small at t=0.0"}
#: id -> (command line, its report); input the library rejects with an ErtlError
#: of its own, before any step.  Each exited 2, the breakdown code, before
REJECTED_INPUT = {
    "simulate-singular-init": (["simulate", "--system", "ertl", "--t-end", "0.1",
                                "--init", SINGULAR], SINGULAR_REPORT),
    "verify-lax-singular-init": (["verify-lax", "--init", SINGULAR], SINGULAR_REPORT),
    "langmuir-off-manifold": (
        ["simulate", "--system", "langmuir", "--q", "2,0", "--t-end", "0.1",
         "--init", TWO_SITES],
        {"error": "NotSymmetricState", "message": "max |beta_n - sqrt(q)| = 4.142e-01"}),
    "moments-divergent": (
        ["moments", "--K", "2", "--measure",
         '{"kind":"real_line_weighted","weight_id":"example1",'
         '"params":{"delta":1,"q":2},"p":[-1,0],"q":[1,0]}'],
        {"error": "InvalidSupport", "message": "a weight on (0, inf) requires Re(p) >= 0 "
         "and Re(q) >= 0; refusing a divergent modification"}),
    "moments-short-table": (
        ["moments", "--K", "2", "--measure",
         '{"kind":"explicit_table","params":{"nu":{"-1":[1,0],"0":[1,0],"1":[1,0]}}}'],
        {"error": "IndexOutOfTable", "message": "stored table does not cover |k| <= 2"}),
}


@pytest.mark.parametrize("case", REJECTED_INPUT)
def test_input_rejected_by_the_library_exits_1(capsys, case):
    # bad input is exit 1 also where the library's own error type rejects it;
    # the report keeps that type and its fields
    argv, want = REJECTED_INPUT[case]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err) == want


#: command lines that take the depth N last; each needs N >= 1
DEPTH_COMMANDS = {
    "simulate": ERTL + ["--N"],
    "verify-lax": ["verify-lax", "--N"],
    "from-measure": ["from-measure", "--measure", DISCRETE, "--N"],
    "circle-verblunsky": ["circle", "verblunsky", "--N"],
    "circle-kernel": ["circle", "kernel", "--N"],
    "circle-cd": ["circle", "cd", "--N"],
    "circle-schur-check": ["circle", "schur-check", "--N"],
    "oracle-example1": ORACLE[:-1],
    "oracle-example2": ["oracle", "example2"] + ORACLE[2:-1],
}


@pytest.mark.parametrize("N", ["0", "-1"])
@pytest.mark.parametrize("case", DEPTH_COMMANDS)
def test_depth_below_1_exits_1(capsys, case, N):
    # one rule for every depth: an empty table with exit 0, or a message about
    # alpha counts or numpy dimensions, was the answer to --N 0 before
    assert main(DEPTH_COMMANDS[case] + [N]) == 1
    out, err = capsys.readouterr()
    report = json.loads(err)
    assert out == "" and report == {"error": "ValueError", "message": "depth N must be >= 1"}


def test_verify_lax_init_reports_no_seed(capsys):
    assert main(["verify-lax", "--init", TWO_SITES]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] is None and report["count"] == 1
    assert main(["verify-lax", "--N", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 0 and report["count"] == 1


def test_verify_lax_checks_init_state_at_its_t(capsys):
    assert main(["verify-lax", "--init", TWO_SITES, "--p", "0.7,0.3", "--t", "0.5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["N"] == 2 and report["count"] == 1 and report["pass"] is True


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--help"])
    assert exc.value.code == 0
    assert "--init" in capsys.readouterr().out
