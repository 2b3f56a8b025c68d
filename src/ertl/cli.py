"""Command-line entry point: reproducible CSV/JSON runs of every subsystem.

Subcommands
-----------
moments       moments of a (modified) functional         -> k,re_nu,im_nu
from-measure  recurrence coefficients of a measure       -> n,re_beta,im_beta,re_alpha,im_alpha
simulate      integrate a lattice/circle flow            -> t,site,... per system
verify-lax    commutator-identity residual report        -> JSON on stdout
spectrum      eigenvalues along a lattice trajectory CSV -> t,i,re_lambda,im_lambda
              (each time warm-started from the previous one's zeros)
circle        verblunsky | kernel | cd | schur-check
oracle        closed-form families example1 | example2   -> same schema as from-measure

Complex numbers are `re,im` pairs on the command line and `[re, im]` arrays
in JSON files.  Every CSV starts with one header comment line
(`# ertl=<version> config=<sha256 prefix>`); bodies are deterministic for
a fixed config, with floats printed to 17 significant digits (round-trip
exact).

Initial data (`simulate --init`, `verify-lax --init`) is a JSON object,
inline or in a file, whose keys are exactly those of its system:

  ertl, rtl1, rtl2, langmuir   {"beta": [[re, im], ...], "alpha": [[re, im], ...]}
  (and verify-lax)             beta_1..beta_N and the free alpha_2..alpha_N
  schur                        {"a": [[re, im], ...]}, a_0..a_{N-1}, |a_n| < 1
  cd                           {"c": [c_1, ...], "d": [0, d_2, ...]}, real,
                               d_1 = 0 and d_n in (0, 1)

Every entry must be a finite number.  `--init` sets N, so it and `--N` are
alternatives for the lattice systems and verify-lax; schur and cd take
`--init` only.  verify-lax draws `--count` random states from `--seed`
(defaults 1 and 0) only without `--init`.  A depth `--N` must be >= 1
(>= 3 for `circle schur-check`, which judges the rows n >= 1).

Exit codes: 0 ok, 1 invalid configuration (usage errors included), 2
numerical breakdown.  Every nonzero exit writes one JSON error report,
{"error": <type>, "message": ...}, to stderr.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import numbers
import sys

import numpy as np

from . import __version__
from .errors import ErtlError
from .measures import (MomentSpec, circle_lebesgue_spec, complex_from_json, compute_moments,
                       json_list, require_number)
from .lorth import bootstrap_recurrence
from .lattice import SYSTEMS, LatticeState, StepControl, integrate, state_from_coeffs
from .lax import lax_residual, spectra as lax_spectra
from .circle import (cd_from_verblunsky, integrate_cd, integrate_schur,
                     kernel_coeffs, rhs_schur, verblunsky_from_moments,
                     VerblunskySeq)
from .oracles import ClosedFormExample, example1_coeffs, example2_coeffs


def _f(x: float) -> str:
    return format(float(x), ".17g")


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise argparse.ArgumentTypeError(f"expected re or re,im, got {text!r}")


def _load_json_arg(text: str):
    if text.lstrip().startswith(("{", "[")):
        return json.loads(text)
    with open(text) as fh:
        return json.load(fh)


def _load_spec(text: str) -> MomentSpec:
    return MomentSpec.from_json_dict(_load_json_arg(text))


def _config_hash(args: argparse.Namespace) -> str:
    blob = json.dumps({k: repr(v) for k, v in sorted(vars(args).items())
                       if k not in ("out", "func")}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _open_out(args):
    path = getattr(args, "out", None)
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w"), True


def _emit(args, header: str, rows):
    fh, close = _open_out(args)
    try:
        fh.write(f"# ertl={__version__} config={_config_hash(args)}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    finally:
        if close:
            fh.close()


def _cx_cells(z) -> list:
    z = complex(z)
    return [_f(z.real), _f(z.imag)]


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_moments(args):
    spec = _load_spec(args.measure)
    table = compute_moments(spec, args.t, args.K)
    rows = [[str(k)] + _cx_cells(table.nu_at(k)) for k in range(-args.K, args.K + 1)]
    _emit(args, "k,re_nu,im_nu", rows)
    return 0


def _coeff_rows(beta, alpha_with_a1):
    """Rows n,re_beta,im_beta,re_alpha,im_alpha; alpha_with_a1[0] is alpha_1."""
    rows = []
    for n, b in enumerate(beta, start=1):
        a = alpha_with_a1[n - 1]
        rows.append([str(n)] + _cx_cells(b) + _cx_cells(a))
    return rows


def _cmd_from_measure(args):
    spec = _load_spec(args.measure)
    times = _finite_floats("--t (time points) has entry", itertools.count(1), args.t.split(","))
    if len(set(times)) < len(times):
        raise ValueError(f"--t times must not repeat, got {args.t}")
    all_rows = []
    dump = {}
    for t in times:
        table = compute_moments(spec, t, args.N + 1)
        lp, rc = bootstrap_recurrence(table, args.N, p=spec.p, q=spec.q)
        alpha = [0j] + list(rc.alpha)
        if len(times) == 1:
            all_rows += _coeff_rows(rc.beta, alpha)
            header = "n,re_beta,im_beta,re_alpha,im_alpha"
        else:
            for row in _coeff_rows(rc.beta, alpha):
                all_rows.append([_f(t)] + row)
            header = "t,n,re_beta,im_beta,re_alpha,im_alpha"
        if args.dump_poly:
            dump[_f(t)] = {
                "N": lp.N,
                "rows": [[[complex(c).real, complex(c).imag] for c in r] for r in lp.rows],
                "sigma_diag": [[complex(s).real, complex(s).imag] for s in lp.sigma_diag],
                "sigma_minus": [[complex(s).real, complex(s).imag] for s in lp.sigma_minus],
                "tau": [[complex(s).real, complex(s).imag] for s in lp.tau],
                "conventions": {"beta_0": 1, "alpha_0": -1, "alpha_1": 0},
            }
    _emit(args, header, all_rows)
    if args.dump_poly:
        with open(args.dump_poly, "w") as fh:
            json.dump(dump, fh, indent=1, sort_keys=True)
    return 0


#: system -> the keys of its --init object
_INIT_KEYS = {**dict.fromkeys(SYSTEMS, ("beta", "alpha")), "cd": ("c", "d"), "schur": ("a",)}
_TRAJ_HEADER = "t,site,re_beta,im_beta,re_alpha,im_alpha"  # simulate writes, spectrum reads


def _initial_data(args, system: str, t: float):
    """The --init data of ``system`` at time t, read and checked in one place.

    Returns a LatticeState (with ``args.p``, ``args.q``) for the lattice
    systems, a VerblunskySeq for schur and the lists (c, d) for cd.
    ValueError unless ``--init`` is a JSON object with exactly the system's
    keys, each an array of [re, im] pairs (of real numbers for cd).
    """
    keys = _INIT_KEYS[system]
    if args.init is None:
        raise ValueError(f"--system {system} requires --init, a JSON object with keys {keys}")
    data = _load_json_arg(args.init)
    if not isinstance(data, dict) or set(data) != set(keys):
        got = sorted(data) if isinstance(data, dict) else type(data).__name__
        raise ValueError(f"--init must be a JSON object with exactly the keys {keys}; got {got}")
    if system == "cd":
        for key in keys:
            for i, x in enumerate(json_list(key, data[key])):
                require_number(f"{key}[{i}]", x, real=True)
        return data["c"], data["d"]
    entry = {key: [complex_from_json(f"{key}[{i}]", x)
                   for i, x in enumerate(json_list(key, data[key]))] for key in keys}
    if system == "schur":
        return VerblunskySeq(t, entry["a"])
    return state_from_coeffs(args.p, args.q, t, entry["beta"], entry["alpha"])


def _uses_init(args) -> bool:
    """True for a lattice state from --init, False for one of --N sites; ValueError unless one."""
    if (args.init is None) == (args.N is None):
        raise ValueError("--N and --init (which sets N) are alternatives: give exactly one")
    return args.init is not None


def _cmd_simulate(args):
    ctrl = StepControl(rel_tol=args.rel_tol, abs_tol=args.abs_tol)
    t_out = (_finite_floats("--t-out (output times) has entry", itertools.count(1),
                            args.t_out.split(",")) if args.t_out else None)

    if args.system in SYSTEMS:
        if _uses_init(args):
            state = _initial_data(args, args.system, args.t0)
        else:
            state = state_from_coeffs(args.p, args.q, args.t0, [1.0] * args.N,
                                      [0.25] * (args.N - 1))
        traj = integrate(state, args.t_end, rhs_id=args.system, ctrl=ctrl, t_out=t_out)
        rows = []
        for t, s in zip(traj.times, traj.states):
            for n in range(1, s.N + 1):
                rows.append([_f(t), str(n)] + _cx_cells(s.beta[n - 1])
                            + _cx_cells(s.alpha[n - 1]))
        _emit(args, _TRAJ_HEADER, rows)
        return 0

    if args.system == "cd":
        c, d = _initial_data(args, "cd", args.t0)
        times, cs, ds, _ = integrate_cd(c, d, args.q, args.t0, args.t_end,
                                        ctrl=ctrl, t_out=t_out)
        rows = []
        for t, cc, dd in zip(times, cs, ds):
            for n in range(1, len(cc) + 1):
                rows.append([_f(t), str(n), _f(cc[n - 1]), _f(dd[n - 1])])
        _emit(args, "t,site,c,d", rows)
        return 0

    # "schur", the last of the --system choices
    times, seqs, _ = integrate_schur(_initial_data(args, "schur", args.t0), args.q,
                                     args.t_end, ctrl=ctrl, t_out=t_out)
    rows = []
    for t, v in zip(times, seqs):
        for n, an in enumerate(v.a):
            rows.append([_f(t), str(n)] + _cx_cells(an))
    _emit(args, "t,site,re_a,im_a", rows)
    return 0


def _random_state(rng, N, p, q, t):
    beta = rng.uniform(0.5, 1.5, N) * np.exp(1j * rng.uniform(-0.5, 0.5, N))
    alpha = rng.uniform(0.2, 1.0, N - 1) * np.exp(1j * rng.uniform(-0.5, 0.5, N - 1))
    return state_from_coeffs(p, q, t, beta, alpha)


def _cmd_verify_lax(args):
    if not args.tol > 0:
        raise ValueError(f"--tol must be > 0, got {args.tol}")
    if _uses_init(args):
        for flag in ("count", "seed"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} draws random states; not with --init")
        seed, states = None, [_initial_data(args, "ertl", args.t)]
    else:
        seed = 0 if args.seed is None else args.seed
        count = 1 if args.count is None else args.count
        if count < 1:
            raise ValueError(f"need --count >= 1, got {count}")
        rng = np.random.default_rng(seed)
        states = [_random_state(rng, args.N, args.p, args.q, args.t) for _ in range(count)]
    cases = [lax_residual(s) for s in states]
    report = {
        "N": states[0].N,
        "count": len(cases),
        "seed": seed,
        "residual": max(cases),
        "residuals": cases,
        "norms": {"normalization": "max(1, |H|_max * |F|_max)"},
        "pass": max(cases) < args.tol,
    }
    print(json.dumps(report, indent=1, sort_keys=True))
    return 0 if report["pass"] else 2


def _finite_floats(where: str, names, cells) -> list:
    """The cells as floats, or ValueError "<where> <name> = <cell>, not a finite number"."""
    xs = []
    for name, cell in zip(names, cells):
        try:
            x = float(cell)
        except ValueError:
            x = math.nan
        if not math.isfinite(x):
            raise ValueError(f"{where} {name} = {cell!r}, not a finite number")
        xs.append(x)
    return xs


def _cmd_spectrum(args):
    # group the trajectory CSV by time and rebuild finite-closure states: the
    # sites 1..N once at every time, N set by the first time
    with open(args.traj) as fh:
        lines = [(num, ln) for num, ln in enumerate(map(str.strip, fh), start=1)
                 if ln and not ln.startswith("#")]
    bad = f"{args.traj} is no lattice trajectory"
    if not lines or lines[0][1] != _TRAJ_HEADER:  # a cd or schur trajectory, say
        got = f"line {lines[0][0]} reads {lines[0][1]!r}" if lines else "it has no header"
        raise ValueError(f"{bad}: its header must be {_TRAJ_HEADER!r}, but {got}")
    by_t: dict = {}
    for num, line in lines[1:]:
        row = line.split(",")
        if len(row) != 6:
            raise ValueError(f"{bad}: line {num} has {len(row)} cells, not 6")
        by_t.setdefault(row[0], []).append((num, row))
    N = len(next(iter(by_t.values()), ()))
    # every time first: a bad t cell starts a group of its own, which would
    # otherwise read as a site missing from its true time
    times = [_finite_floats(f"{bad}: line {numbered[0][0]} has", ("t",), (tkey,))[0]
             for tkey, numbered in by_t.items()]
    cols = _TRAJ_HEADER.split(",")[2:]
    states = []
    for t, (tkey, numbered) in zip(times, by_t.items()):
        sites = {}
        for num, row in numbered:  # each line once, in file order: the first bad one is named
            site = int(row[1]) if row[1].isdecimal() else 0
            if not 1 <= site <= N or site in sites:
                raise ValueError(f"{bad}: line {num} gives site {row[1]!r} at t = {tkey}, "
                                 f"but each time needs the sites 1..{N} once")
            sites[site] = _finite_floats(f"{bad}: line {num} has", cols, row[2:])
        if len(sites) < N:
            raise ValueError(f"{bad}: t = {tkey} (line {numbered[0][0]}) lacks site "
                             f"{min(set(range(1, N + 1)) - set(sites))} of 1..{N}")
        grp = [sites[n] for n in range(1, N + 1)]
        beta = [complex(b, bi) for b, bi, _, _ in grp]
        alpha = [complex(a, ai) for _, _, a, ai in grp] + [0j]
        try:
            states.append(LatticeState(p=0, q=0, t=t, beta=beta, alpha=alpha))
        except ValueError as exc:
            raise ValueError(f"{bad}: t = {tkey} (line {numbered[0][0]}): {exc}") from None
    out = []
    for tkey, zeros in zip(by_t, lax_spectra(states)):
        for i, lam in enumerate(zeros):
            out.append([tkey, str(i)] + _cx_cells(lam))
    _emit(args, "t,i,re_lambda,im_lambda", out)
    return 0


def _circle_spec(args) -> MomentSpec:
    if args.measure:
        if args.q is not None:
            raise ValueError("--q applies only without --measure; the spec carries its q")
        return _load_spec(args.measure)
    return circle_lebesgue_spec(0.5 if args.q is None else args.q)


def _cmd_circle(args):
    if args.mode == "schur-check" and args.N < 3:  # rows n >= 1 of the Schur flow read a_{n+1}
        raise ValueError(f"circle schur-check needs --N >= 3, got {args.N}")
    spec = _circle_spec(args)
    K = max(args.N + 3, 4)
    table = compute_moments(spec, args.t, K)
    v = verblunsky_from_moments(table, args.N)

    if args.mode == "verblunsky":
        rows = [[str(n)] + _cx_cells(a) for n, a in enumerate(v.a)]
        _emit(args, "n,re_a,im_a", rows)
        return 0

    if args.mode == "kernel":
        beta, alpha, _ = kernel_coeffs(v, args.w)
        rows = _coeff_rows(beta, [0j] + list(alpha))
        _emit(args, "n,re_beta,im_beta,re_alpha,im_alpha", rows)
        return 0

    if args.mode == "cd":
        cs = cd_from_verblunsky(v, args.t)
        rows = []
        d_full = [0.0] + list(cs.d)
        for n in range(1, cs.N + 1):
            rows.append([str(n), _f(cs.c[n - 1]), _f(d_full[n - 1])])
        _emit(args, "n,c,d", rows)
        return 0

    # "schur-check", the last of the circle modes
    h = args.h
    if not (h > 0 and args.tol > 0):
        raise ValueError(f"--h and --tol must be > 0, got {h} and {args.tol}")
    vp = verblunsky_from_moments(compute_moments(spec, args.t + h, K), args.N)
    vm = verblunsky_from_moments(compute_moments(spec, args.t - h, K), args.N)
    fd = [(ap - am) / (2.0 * h) for ap, am in zip(vp.a, vm.a)]
    rhs = rhs_schur(v, spec.q)
    errs = [abs(f - r) for f, r in zip(fd, rhs)]
    report = {
        "N": args.N,
        "t": args.t,
        "h": h,
        "max_err_n_ge_1": max(errs[1:]),
        "err_n0_with_boundary": errs[0],
        "pass": max(errs[1:]) < args.tol,
    }
    print(json.dumps(report, indent=1, sort_keys=True))
    return 0 if report["pass"] else 2


def _cmd_oracle(args):
    ex = ClosedFormExample(args.family, args.delta, args.q)
    fn = example1_coeffs if args.family == "example1" else example2_coeffs
    rc = fn(ex, args.t, args.N)
    rows = _coeff_rows(rc.beta, [0j] + list(rc.alpha))
    _emit(args, "n,re_beta,im_beta,re_alpha,im_alpha", rows)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValueError, reported by ``main`` (exit 1)."""

    def error(self, message):
        raise ValueError(message)


@functools.lru_cache(maxsize=None)  # built on first use, shared by every main() call
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="ertl", description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    m = sub.add_parser("moments", help="moment table of a modified functional")
    m.add_argument("--measure", required=True, help="JSON spec (inline or path)")
    m.add_argument("--t", type=float, default=0.0)
    m.add_argument("--K", type=int, required=True)
    m.add_argument("--out", default="-")
    m.set_defaults(func=_cmd_moments)

    fm = sub.add_parser("from-measure",
                        help="recurrence coefficients of a measure: discretized Stieltjes "
                             "on its nodes, or the moment bootstrap for moment-only tables")
    fm.add_argument("--measure", required=True)
    fm.add_argument("--t", default="0.0", help="comma-separated time points")
    fm.add_argument("--N", type=int, required=True)
    fm.add_argument("--out", default="-")
    fm.add_argument("--dump-poly", default=None,
                    help="JSON dump of the full sequence, with the monomial triangle")
    fm.set_defaults(func=_cmd_from_measure)

    sim = sub.add_parser("simulate", help="integrate a lattice or circle flow")
    sim.add_argument("--system", required=True,
                     choices=[*SYSTEMS, "cd", "schur"])
    sim.add_argument("--N", type=int, default=None,
                     help="sites of the default lattice state; not with --init")
    sim.add_argument("--p", type=_parse_complex, default=None,
                     help="ertl and langmuir only (default 0)")
    sim.add_argument("--q", type=_parse_complex, default=None,
                     help="not with rtl1 or rtl2, which force (p, q) (default 0)")
    sim.add_argument("--t0", type=float, default=0.0)
    sim.add_argument("--t-end", type=float, required=True)
    sim.add_argument("--t-out", default=None, help="comma-separated output times")
    sim.add_argument("--init", default=None, help="initial data JSON (inline or path)")
    sim.add_argument("--rel-tol", type=float, default=StepControl.rel_tol,
                     help="local error allowed per step, relative to each component")
    sim.add_argument("--abs-tol", type=float, default=StepControl.abs_tol,
                     help="local error allowed per step and component, added to rel-tol |y_i|")
    sim.add_argument("--out", default="-")
    sim.set_defaults(func=_cmd_simulate)

    vl = sub.add_parser("verify-lax", help="commutator identity residual report")
    vl.add_argument("--N", type=int, default=None, help="size of random states; not with --init")
    vl.add_argument("--p", type=_parse_complex, default=1 + 0j)
    vl.add_argument("--q", type=_parse_complex, default=1 + 0j)
    vl.add_argument("--t", type=float, default=0.0)
    vl.add_argument("--seed", type=int, default=None,
                    help="seed of the random states (default 0); not with --init")
    vl.add_argument("--count", type=int, default=None,
                    help="number of random states (default 1); not with --init")
    vl.add_argument("--init", default=None)
    vl.add_argument("--tol", type=float, default=1e-12)
    vl.set_defaults(func=_cmd_verify_lax)

    sp = sub.add_parser("spectrum", help="eigenvalues along a trajectory CSV")
    sp.add_argument("--traj", required=True)
    sp.add_argument("--out", default="-")
    sp.set_defaults(func=_cmd_spectrum)

    ci = sub.add_parser("circle", help="unit-circle pipelines")
    ci.add_argument("mode", choices=["verblunsky", "kernel", "cd", "schur-check"])
    ci.add_argument("--measure", default=None, help="JSON circle spec; default Lebesgue")
    ci.add_argument("--q", type=_parse_complex, default=None,
                    help="q of the default Lebesgue measure (0.5); not with --measure")
    ci.add_argument("--N", type=int, required=True)
    ci.add_argument("--t", type=float, default=0.0)
    ci.add_argument("--w", type=_parse_complex, default=None,
                    help="kernel point, kernel mode only (default 1)")
    ci.add_argument("--h", type=float, default=None,
                    help="FD step, schur-check only (default 1e-4)")
    ci.add_argument("--tol", type=float, default=None,
                    help="pass threshold, schur-check only (default 1e-5)")
    ci.add_argument("--out", default="-")
    ci.set_defaults(func=_cmd_circle)

    orc = sub.add_parser("oracle", help="closed-form coefficient families")
    orc.add_argument("family", choices=["example1", "example2"])
    orc.add_argument("--delta", type=float, required=True)
    orc.add_argument("--q", type=float, required=True)
    orc.add_argument("--t", type=float, default=0.0)
    orc.add_argument("--N", type=int, required=True)
    orc.add_argument("--out", default="-")
    orc.set_defaults(func=_cmd_oracle)

    return ap


#: error attributes copied into the stderr JSON report when they are set
_ERROR_FIELDS = ("n", "which", "value", "t", "t_bracket", "modulus")


def _json_field(v):
    """Plain JSON form of an error attribute: reals as numbers, complex as [re, im]."""
    if isinstance(v, (tuple, list)):
        return [_json_field(x) for x in v]
    if isinstance(v, numbers.Real):
        return int(v) if isinstance(v, numbers.Integral) else float(v)
    if isinstance(v, numbers.Complex):
        return [float(v.real), float(v.imag)]
    return str(v)


_FREE_PQ = tuple(s for s, forced in SYSTEMS.items() if forced is None)  # read --p and --q
#: (subcommand, flag) -> (default, the modes or systems that read the flag)
_MODE_FLAGS = {
    ("circle", "w"): (1 + 0j, ("kernel",)),
    ("circle", "h"): (1e-4, ("schur-check",)),
    ("circle", "tol"): (1e-5, ("schur-check",)),
    ("simulate", "p"): (0j, _FREE_PQ),
    ("simulate", "q"): (0j, (*_FREE_PQ, "cd", "schur")),
    ("simulate", "N"): (None, tuple(SYSTEMS)),
}


def _check_mode_flags(args):
    """ValueError for a flag given to a mode that does not read it; sets the others' defaults."""
    for (command, flag), (default, readers) in _MODE_FLAGS.items():
        if command != args.command:
            continue
        mode = args.mode if command == "circle" else args.system
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        elif mode not in readers:
            where = f"circle {mode}" if command == "circle" else f"simulate --system {mode}"
            raise ValueError(f"--{flag} is not read by {where}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_mode_flags(args)
        if getattr(args, "N", None) is not None and args.N < 1:  # every command's one rule
            raise ValueError("depth N must be >= 1")
        return args.func(args)
    except (ErtlError, ValueError, KeyError, OSError) as exc:
        report = {"error": type(exc).__name__, "message": str(exc)}
        report.update((key, _json_field(getattr(exc, key))) for key in _ERROR_FIELDS
                      if getattr(exc, key, None) is not None)
        json.dump(report, sys.stderr)
        sys.stderr.write("\n")
        return 2 if isinstance(exc, ErtlError) else 1


if __name__ == "__main__":
    sys.exit(main())
