"""Seeded job streams for the liesym benchmark: generation, execution, checks.

A workload is a stream of jobs: a short fixed prefix, then rounds.  Every
round holds the same job kinds in the same order; the seed changes only
the values inside them (coefficients, initial states, changes of basis,
paths), so the cost of a round barely moves between seeds while the inputs
do.  A job is a JSON-serialisable dict {"kind": ..., "args": {...}}.

Each kind has three steps:

  prepare  writes the job's input files and argv (not timed);
  run      drives liesym through public entry points only: liesym.cli.main
           and names the liesym package exports (timed);
  check    compares the output with a reference written here or with frozen
           catalog data, never with the code path that produced it (not
           timed).

Expected-failure controls pass only when they fail with their documented
exit code.  Job generation needs no liesym import at all.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

WORKLOADS = ("build", "numeric", "multitime")

# exit codes documented in the liesym CLI
EXIT_OK, EXIT_CHECK, EXIT_POLE = 0, 1, 3

# -- seeded values ------------------------------------------------------------


def _rat(rng: random.Random, lo: int = -3, hi: int = 3,
         dens: Sequence[int] = (1, 2, 3, 4)) -> str:
    """A nonzero rational p/q as text."""
    while True:
        v = Fraction(rng.randint(lo, hi), rng.choice(dens))
        if v:
            return str(v)


def _pos(rng: random.Random, lo: float, hi: float) -> str:
    """A positive rational in [lo, hi] on a grid of quarters, as text."""
    return str(Fraction(rng.randint(int(4 * lo), int(4 * hi)), 4))


def _float(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _poly(rng: random.Random, degree: int = 2) -> List[str]:
    return [_rat(rng, -2, 2) for _ in range(degree + 1)]


def _poly_text(coeffs: Sequence[str], var: str = "t") -> str:
    terms = []
    for i, c in enumerate(coeffs):
        terms.append(f"({c})" if i == 0 else
                     f"({c})*{var}" if i == 1 else f"({c})*{var}^{i}")
    return " + ".join(terms)


def _poly_eval(coeffs: Sequence[str], x):
    """Horner evaluation; exact for Fraction x, float for float x."""
    acc = 0 * x
    for c in reversed(coeffs):
        acc = acc * x + (Fraction(c) if isinstance(x, Fraction) else float(Fraction(c)))
    return acc


def _poly_diff(coeffs: Sequence[str]) -> List[str]:
    return [str(i * Fraction(c)) for i, c in enumerate(coeffs)][1:] or ["0"]


def _invertible(rng: random.Random, r: int) -> List[List[str]]:
    while True:
        m = [[str(Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
              for _ in range(r)] for _ in range(r)]
        if _inverse([[Fraction(v) for v in row] for row in m]) is not None:
            return m


# -- exact linear algebra for the references ------------------------------------
# Written out here rather than taken from liesym.rlinalg or
# liesym.transform_tensor, so that no reference reuses the code it checks.


def _inverse(a: List[List[Fraction]]):
    """Gauss-Jordan inverse over Fraction, or None when singular."""
    n = len(a)
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            return None
        m[c], m[p] = m[p], m[c]
        lead = m[c][c]
        m[c] = [v / lead for v in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


def _tensor_from_triples(triples) -> Dict[Tuple[int, int, int], Fraction]:
    """Dense antisymmetric c[a][b][g] (0-based) from 1-based a < b triples."""
    c = {}
    for a, b, g, v in triples:
        c[(a - 1, b - 1, g - 1)] = Fraction(v)
        c[(b - 1, a - 1, g - 1)] = -Fraction(v)
    return c


def _transformed_triples(r: int, triples, matrix) -> List[list]:
    """Triples in the basis new_i = sum_j A[i][j] old_j."""
    a = [[Fraction(v) for v in row] for row in matrix]
    inv = _inverse(a)
    c = _tensor_from_triples(triples)
    out = []
    for al in range(r):
        for be in range(al + 1, r):
            for mu in range(r):
                total = sum((a[al][g] * a[be][d] * v * inv[e][mu]
                             for (g, d, e), v in c.items()), Fraction(0))
                if total:
                    out.append([al + 1, be + 1, mu + 1, str(total)])
    return out


# -- bases written out independently of the catalog ------------------------------

# name -> (catalog entry whose frozen tensor the basis must reproduce,
#          coordinates, fields)
BASES = {
    "line": ("riccati", ("x",), (("1",), ("x",), ("x^2",))),
    "quaternionic": ("quaternionic", ("q0", "q1", "q2", "q3"), (
        ("1", "0", "0", "0"),
        ("q0", "q1", "q2", "q3"),
        ("q0^2 - q1^2 - q2^2 - q3^2", "2*q0*q1", "2*q0*q2", "2*q0*q3"))),
    "kummer_schwarz": ("kummer_schwarz", ("x", "v"), (
        ("0", "2*x"), ("x", "2*v"), ("v", "(3/2)*v^2/x - 2*x^3"))),
}


def _basis(base: str, iota2: str):
    if base == "cayley_klein":
        return ("cayley_klein", ("x", "y"), (
            ("1", "0"), ("x", "y"), (f"x^2 + ({iota2})*y^2", "2*x*y")))
    return BASES[base]


# -- job generation ----------------------------------------------------------------


def _job(kind: str, **args) -> dict:
    return {"kind": kind, "args": args}


def _prefix(workload: str, rng: random.Random) -> List[dict]:
    if workload != "build":
        return []
    # the rank-8 build, then the same system again through symmetrize: a
    # memoising change gains on the repeat.  The start vector combines the
    # two constant families (drift rescaling and the commuting X6).
    drift, shift = _rat(rng), _rat(rng)
    return [
        _job("build", name="painleve_ince", params={},
             coeffs=[["1"]] + [["0"]] * 7, gauge=["0"],
             points=[[_rat(rng) for _ in range(10)]]),
        _job("symmetrize_constant",
             f_init=[drift, drift, "0", "0", "0", "0", shift, "0", "0"]),
    ]


def _round_build(rng: random.Random) -> List[dict]:
    jobs = []
    iota2 = str(rng.choice((-1, 0, 1)))
    for name, params in (("riccati", {}), ("dbh", {}), ("kummer_schwarz", {}),
                         ("quaternionic", {}), ("cayley_klein", {"iota2": iota2}),
                         ("buchdahl", {}), ("painleve_ince", {})):
        jobs.append(_job("check_catalog", name=name, params=params))
    for name, family in (("dbh", "b0_zero"), ("quaternionic", "drift_rescaling"),
                         ("kummer_schwarz", "drift_rescaling"),
                         ("buchdahl", "drift_rescaling"),
                         ("painleve_ince", "commuting_generator")):
        jobs.append(_job("verify_family", name=name, family=family))

    def points(r):
        return [[_rat(rng)] + [_rat(rng) for _ in range(r + 1)] for _ in range(2)]

    alpha = [_rat(rng, 1, 4) for _ in range(3)]
    jobs.append(_job("build", name="dbh", params={"alpha": alpha},
                     coeffs=[["0"], ["0"], ["-1"]], gauge=["0"], points=points(3)))
    eta, c0 = _poly(rng), _rat(rng, 1, 3)
    jobs.append(_job("build", name="kummer_schwarz",
                     params={"c0": c0, "eta": _poly_text(eta)},
                     coeffs=[eta, ["0"], ["1"]], gauge=["0"], points=points(3)))
    bs = [_poly(rng) for _ in range(3)]
    jobs.append(_job("build", name="quaternionic",
                     params={f"b{i + 1}": _poly_text(b) for i, b in enumerate(bs)},
                     coeffs=bs, gauge=["0"], points=points(3)))
    a2 = _poly(rng)
    jobs.append(_job("build", name="buchdahl", params={"a2": _poly_text(a2)},
                     coeffs=[["1"], [str(-Fraction(c)) for c in a2]], gauge=["0"],
                     points=points(2)))
    bs = [_poly(rng) for _ in range(3)]
    params = {f"b{i + 1}": _poly_text(b) for i, b in enumerate(bs)}
    params["iota2"] = iota2
    jobs.append(_job("build", name="cayley_klein", params=params, coeffs=bs,
                     gauge=["0"], points=points(3)))
    # the classical triple system, identical in every round
    jobs.append(_job("build", name="dbh", params={},
                     coeffs=[["0"], ["0"], ["-1"]], gauge=["0"],
                     points=[["1/2", "1", "2", "-1", "1/3"]]))
    for base in ("line", "quaternionic", "kummer_schwarz"):
        jobs.append(_job("check_input", base=base,
                         matrix=_invertible(rng, 3)))
    jobs.append(_job("check_input", base="cayley_klein", iota2=iota2,
                     matrix=_invertible(rng, 3)))
    jobs.append(_job("control_not_closed", power=rng.choice((3, 4)),
                     scale=_rat(rng)))
    return jobs


def _round_numeric(rng: random.Random) -> List[dict]:
    span = "0:0.3"
    jobs = [
        _job("integrate", name="riccati", params={"eta": ["0", "1"]},
             x0=[_float(rng, -0.5, 0.5)], t_span=span),
        _job("integrate", name="cayley_klein",
             params={"iota2": str(rng.choice((-1, 0, 1))),
                     **{f"b{i}": _poly(rng) for i in (1, 2, 3)}},
             x0=[_float(rng, -0.5, 0.5) for _ in range(2)], t_span=span),
        _job("integrate", name="quaternionic",
             params={f"b{i}": _poly(rng) for i in (1, 2, 3)},
             x0=[_float(rng, -0.4, 0.4) for _ in range(4)], t_span=span),
        _job("integrate", name="kummer_schwarz",
             params={"c0": _pos(rng, 0.5, 1.5), "eta": _poly(rng)},
             x0=[_float(rng, 0.9, 1.2), _float(rng, -0.3, 0.3)], t_span=span),
        _job("f0_zero", name="riccati", params={"eta": ["0", "1"]},
             t_span=[0.0, 0.1], step=1e-3, seed=rng.randint(0, 999)),
        _job("f0_zero", name="quaternionic",
             params={f"b{i}": _poly(rng) for i in (1, 2, 3)},
             t_span=[0.0, 0.05], step=1e-3, seed=rng.randint(0, 999)),
        _job("f0_zero", name="painleve_ince", params={},
             t_span=[0.0, 0.1], step=1e-2, seed=rng.randint(0, 999)),
    ]
    for row, k in (("rational_pole", "1"), ("linear", _pos(rng, 1, 3))):
        jobs.append(_job("table1", row=row, a=_pos(rng, 1, 2),
                         b=_pos(rng, 0.5, 1), k=k,
                         c=[_rat(rng, -2, 2) for _ in range(3)],
                         t_span=[0.1, 0.3]))
    mode = rng.choice(("b0_zero", "b0_const", "b0_linear"))
    jobs.append(_job("symmetrize_dbh", mode=mode,
                     lam=[_rat(rng) for _ in range(3)], t0=_rat(rng),
                     c0=_rat(rng), t_span="0:0.3"))
    for _ in range(2):
        jobs.append(_job("aff", a=_poly(rng), b=_poly(rng),
                         k=rng.choice(("-2", "-1", "1", "2")), c1=str(rng.randint(-2, 2)),
                         c2=str(rng.randint(-2, 2)), seed=rng.randint(0, 999)))
    lam = [_rat(rng, 1, 3) for _ in range(3)]
    x0 = sorted(_float(rng, 1.0, 2.0) for _ in range(3))
    for corrupt in (False, True):
        jobs.append(_job("transport", lam=lam, t0=_rat(rng), x0=x0,
                         corrupt=corrupt))
    jobs.append(_job("control_pole", x0=_float(rng, 0.0, 0.5)))
    return jobs


def _flat_rows(rng: random.Random, s: int):
    """k_a lam_l: proportional columns, bounded Riccati flows for x0 >= 0."""
    k = [_pos(rng, 0.5, 2), _rat(rng, -1, 1), "-" + _pos(rng, 0.5, 2)]
    lam = [_pos(rng, 0.5, 2) for _ in range(s)]
    return k, lam


def _round_multitime(rng: random.Random) -> List[dict]:
    jobs = [_job("pde_default", x0=_float(rng, 0.0, 0.5))]
    mid = [_float(rng, 0.1, 0.9), _float(rng, 0.1, 0.9)]
    end = [_float(rng, 0.6, 1.0), _float(rng, 0.6, 1.0)]
    jobs.append(_job("pde_path", x0=_float(rng, 0.0, 0.5),
                     waypoints=[[0.0, 0.0], mid, end], steps=100))
    k, lam = _flat_rows(rng, 2)
    jobs.append(_job("pde_flat_input", k=k, lam=lam, mu=_pos(rng, 0.25, 1),
                     p=[_pos(rng, 0.5, 1), _pos(rng, 0.25, 1), _pos(rng, 0.25, 1)],
                     x0=_float(rng, 0.0, 0.5), waypoints=[[0.0, 0.0], mid, [1.0, 1.0]],
                     steps=60))
    k, lam = _flat_rows(rng, 3)
    orders = rng.sample([[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0],
                         [2, 0, 1], [2, 1, 0]], 2)
    jobs.append(_job("pde_three_times", k=k, lam=lam, orders=orders, steps=60,
                     x0=_float(rng, 0.0, 0.5)))
    for s, f in ((2, [_rat(rng), "0", f"({_rat(rng)})*t1"]),
                 (2, ["0", f"({_rat(rng)})*t2", _rat(rng)]),
                 (3, [_rat(rng), "0", f"({_rat(rng)})*t1"])):
        k, lam = _flat_rows(rng, s)
        jobs.append(_job("pde_non_symmetry", k=k, lam=lam, f=f,
                         seed=rng.randint(0, 999)))
    k, lam = _flat_rows(rng, 2)
    jobs.append(_job("pde_sampled", k=k, lam=lam,
                     f_init=[_float(rng, -1, 1) for _ in range(3)],
                     waypoints=[[0.0, 0.0], mid, [1.0, 1.0]], steps=50,
                     seed=rng.randint(0, 999)))
    jobs.append(_job("verify_family", name="partial_riccati",
                     family="proportional_direction"))
    k1, _ = _flat_rows(rng, 1)
    while True:  # columns that are not proportional: curvature is nonzero
        k2, _ = _flat_rows(rng, 1)
        if any(Fraction(k1[0]) * Fraction(b) != Fraction(k2[0]) * Fraction(a)
               for a, b in zip(k1, k2)):
            break
    jobs.append(_job("control_not_integrable", columns=[k1, k2],
                     x0=_float(rng, 0.0, 0.5), waypoints=[[0.0, 0.0], mid, [1.0, 1.0]],
                     steps=60))
    return jobs


_ROUNDS = {"build": _round_build, "numeric": _round_numeric,
           "multitime": _round_multitime}


def round_jobs(workload: str, seed: int, k: int) -> List[dict]:
    """Round k of the workload for this seed."""
    return _ROUNDS[workload](random.Random(f"{workload}:{seed}:{k}"))


def job_stream(workload: str, seed: int) -> Iterator[dict]:
    """The workload's jobs for this seed, without end.

    Each job carries its slot: "p<j>" for the prefix, "r<i>" for position i
    of a round.  Jobs in one round slot are the same kind of work.
    """
    if workload not in _ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; known: "
                         f"{', '.join(WORKLOADS)}")
    prefix = _prefix(workload, random.Random(f"{workload}:{seed}:prefix"))
    for j, job in enumerate(prefix):
        yield dict(job, slot=f"p{j}")
    k = 0
    while True:
        for i, job in enumerate(round_jobs(workload, seed, k)):
            yield dict(job, slot=f"r{i}")
        k += 1


def job_list(workload: str, seed: int, n: int) -> List[dict]:
    stream = job_stream(workload, seed)
    return [next(stream) for _ in range(n)]


# -- running ----------------------------------------------------------------------


def _cli(argv: List[str]) -> dict:
    import liesym.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = liesym.cli.main(argv, stdout=out)
        except SystemExit as exc:  # argparse rejects usage this way
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _write_json(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _read_csv(path: str) -> List[List[float]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return [[float(v) for v in line.split(",")] for line in lines[2:]]


def _param_argv(params: Dict[str, object]) -> List[str]:
    argv = []
    for key, value in params.items():
        text = _poly_text(value) if isinstance(value, list) else str(value)
        argv += ["--param", f"{key}={text}"]
    return argv


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _lib_params(params: Dict[str, object]) -> dict:
    return {k: (tuple(v) if k == "alpha" else
                _poly_text(v) if isinstance(v, list) else v)
            for k, v in params.items()}


def _riccati_rows(k: Sequence[str], lam: Sequence[str], factor: str = ""):
    return [[f"({ka})*({lv}){factor}" for lv in lam] for ka in k]


def _staircase(s: int, order: Sequence[int]):
    point = [0.0] * s
    waypoints = [tuple(point)]
    for ax in order:
        point[ax] = 1.0
        waypoints.append(tuple(point))
    return tuple(waypoints)


def _cli_run(args, prep):
    return _cli(prep["argv"])


def _no_files(args, files):
    return {}


# kind -> (prepare: untimed, run: timed, check: untimed)
KINDS: Dict[str, Tuple[Callable, Callable, Callable]] = {}


def _kind(name: str, prepare: Callable, check: Callable,
          run: Callable = _cli_run) -> None:
    KINDS[name] = (prepare, run, check)


# check-algebra on a catalog entry: the triples must equal the frozen data


@functools.lru_cache(maxsize=None)
def _frozen(name: str, params: Tuple[Tuple[str, str], ...]):
    import liesym

    return liesym.make(name, **dict(params)).expected.to_triples()


def _frozen_triples(name: str, params: dict):
    return _frozen(name, tuple(sorted(params.items())))


def _parse_check_algebra(stdout: str):
    lines = stdout.splitlines()
    head = lines[0] if lines else ""
    triples = []
    for line in lines[2:]:
        lhs, value = line.strip().split(" = ")
        a, b, g = (int(ch) for ch in lhs[1:])
        triples.append([a, b, g, value])
    return head, triples


def _check_triples(out: dict, r: int, want) -> Tuple[bool, str]:
    if out["code"] != EXIT_OK:
        return False, f"exit {out['code']}: {out['stderr'].strip()}"
    head, got = _parse_check_algebra(out["stdout"])
    if not head.startswith(f"closed, r={r}, jacobi=0,"):
        return False, f"unexpected header {head!r}"
    if got != want:
        return False, f"triples {got} != reference {want}"
    return True, "triples match"


def _prep_check_catalog(args, files):
    return {"argv": ["check-algebra", "--catalog", args["name"]]
            + _param_argv(args["params"])}


def _check_check_catalog(args, prep, out):
    want = _frozen_triples(args["name"], args["params"])
    r = {"buchdahl": 2, "painleve_ince": 8}.get(args["name"], 3)
    return _check_triples(out, r, want)


_kind("check_catalog", _prep_check_catalog, _check_check_catalog)


# check-algebra --input on a seeded rational change of basis


def _basis_doc(base: str, iota2: str, matrix):
    _, coords, fields = _basis(base, iota2)
    rows = []
    for row in matrix:
        comps = []
        for i in range(len(coords)):
            terms = [f"({a})*({f[i]})" for a, f in zip(row, fields)
                     if Fraction(a) and f[i] != "0"]
            comps.append(" + ".join(terms) or "0")
        rows.append(comps)
    return {"vars": list(coords), "basis": rows, "coeffs": ["1"] * len(rows)}


def _prep_check_input(args, files):
    doc = _basis_doc(args["base"], args.get("iota2", "-1"), args["matrix"])
    return {"argv": ["check-algebra", "--input",
                     _write_json(files("system.json"), doc)]}


def _check_check_input(args, prep, out):
    entry = _basis(args["base"], "")[0]
    params = {"iota2": args["iota2"]} if entry == "cayley_klein" else {}
    r = len(args["matrix"])
    want = _transformed_triples(r, _frozen_triples(entry, params), args["matrix"])
    return _check_triples(out, r, want)


_kind("check_input", _prep_check_input, _check_check_input)


def _prep_not_closed(args, files):
    doc = {"vars": ["x"], "coeffs": ["1", "1", "1"],
           "basis": [["1"], ["x"], [f"({args['scale']})*x^{args['power']}"]]}
    return {"argv": ["check-algebra", "--input",
                     _write_json(files("system.json"), doc)]}


def _check_control(code: int):
    def check(args, prep, out):
        if out["code"] != code:
            return False, f"control exited {out['code']}, documented {code}"
        return True, f"control exited {code} as documented"
    return check


_kind("control_not_closed", _prep_not_closed, _check_control(EXIT_CHECK))


def _prep_verify_family(args, files):
    return {"argv": ["verify", "--catalog", args["name"],
                     "--family", args["family"]]}


def _check_verdict(out: dict) -> Tuple[bool, str]:
    if out["code"] != EXIT_OK:
        return False, f"exit {out['code']}: {out['stderr'].strip()}"
    verdicts = [line for line in out["stdout"].splitlines() if "residual" in line]
    if not verdicts or not all(line.endswith(": PASS") for line in verdicts):
        return False, f"verdict lines {verdicts}"
    return True, "PASS"


_kind("verify_family", _prep_verify_family,
      lambda args, prep, out: _check_verdict(out))


# build_symmetry_system through the library; the built right-hand side is
# compared at rational points with the paper's formula
#   df0/dt = b0,  dfa/dt = f0 b_a' + b0 b_a + sum_{b,g} b_b f_g c_{g b a}
# evaluated from the seeded coefficient polynomials and the frozen tensor.


def _run_build(args, prep):
    import liesym

    entry = liesym.make(args["name"], **_lib_params(args["params"]))
    built = liesym.build_symmetry_system(entry.system)
    return {"triples": entry.expected.to_triples(), "rhs": built.rhs_exprs,
            "vars": built.system.vars}


def _check_build(args, prep, out):
    r = len(args["coeffs"])
    c = _tensor_from_triples(out["triples"])
    rhs, names = out["rhs"], out["vars"]
    if len(rhs) != r + 1:
        return False, f"{len(rhs)} right-hand sides for r={r}"
    for point in args["points"]:
        tv = Fraction(point[0])
        f = [Fraction(v) for v in point[1:]]
        b = [_poly_eval(cs, tv) for cs in args["coeffs"]]
        db = [_poly_eval(_poly_diff(cs), tv) for cs in args["coeffs"]]
        b0 = _poly_eval(args["gauge"], tv)
        want = [b0] + [
            f[0] * db[a] + b0 * b[a]
            + sum((b[bb] * f[g + 1] * c.get((g, bb, a), 0)
                   for bb in range(r) for g in range(r)), Fraction(0))
            for a in range(r)]
        env = dict(zip(names, f))
        env["t"] = tv
        got = [e.eval_exact(env) for e in rhs]
        if got != want:
            return False, f"rhs at t={tv}: {got} != {want}"
    return True, "rhs matches the formula"


_kind("build", _no_files, _check_build, run=_run_build)


# symmetrize painleve_ince from a combination of its constant families


def _prep_symmetrize_constant(args, files):
    return {"argv": ["symmetrize", "--catalog", "painleve_ince", "--step", "1e-2",
                     "--f-init=" + _floats(Fraction(v) for v in args["f_init"]),
                     "--out", files("traj.csv")], "csv": files("traj.csv")}


def _check_symmetrize_constant(args, prep, out):
    ok, detail = _check_verdict(out)
    if not ok:
        return ok, detail
    want = [float(Fraction(v)) for v in args["f_init"]]
    worst = max(abs(row[1 + i] - w) for row in _read_csv(prep["csv"])
                for i, w in enumerate(want))
    if not worst <= 1e-12:
        return False, f"constant solution drifted by {worst:.3e}"
    return True, f"constant to {worst:.1e}"


_kind("symmetrize_constant", _prep_symmetrize_constant, _check_symmetrize_constant)


# integrate: compared with scipy's DOP853 at tight tolerance on right-hand
# sides written out here from the bases


def _ode(name: str, params: dict):
    def prof(key):
        cs = params.get(key, ["0"])
        return lambda t: _poly_eval(cs, float(t))

    if name == "riccati":
        eta = prof("eta")
        return lambda t, y: [eta(t) + y[0] ** 2]
    b1, b2, b3 = prof("b1"), prof("b2"), prof("b3")
    if name == "cayley_klein":
        i2 = float(Fraction(params["iota2"]))
        return lambda t, y: [b1(t) + b2(t) * y[0] + b3(t) * (y[0] ** 2 + i2 * y[1] ** 2),
                             b2(t) * y[1] + 2 * b3(t) * y[0] * y[1]]
    if name == "quaternionic":
        def f(t, q):
            p, s, w = b1(t), b2(t), b3(t)
            head = p + s * q[0] + w * (q[0] ** 2 - q[1] ** 2 - q[2] ** 2 - q[3] ** 2)
            return [head] + [s * q[i] + 2 * w * q[0] * q[i] for i in (1, 2, 3)]
        return f
    if name == "kummer_schwarz":
        eta, c0 = prof("eta"), float(Fraction(params["c0"]))
        return lambda t, y: [y[1], 2 * y[0] * eta(t) + 1.5 * y[1] ** 2 / y[0]
                             - 2 * c0 * y[0] ** 3]
    raise ValueError(name)


def _solve_ivp(f, span, y0, t_eval=None):
    from scipy.integrate import solve_ivp

    sol = solve_ivp(f, span, y0, method="DOP853", rtol=1e-12, atol=1e-12,
                    t_eval=t_eval)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol


def _prep_integrate(args, files):
    return {"argv": ["integrate", "--catalog", args["name"],
                     "--x0=" + _floats(args["x0"]), "--t-span", args["t_span"],
                     "--out", files("x.csv")] + _param_argv(args["params"]),
            "csv": files("x.csv")}


def _check_integrate(args, prep, out):
    if out["code"] != EXIT_OK:
        return False, f"exit {out['code']}: {out['stderr'].strip()}"
    rows = _read_csv(prep["csv"])
    ts = [row[0] for row in rows]
    sol = _solve_ivp(_ode(args["name"], args["params"]), (ts[0], ts[-1]),
                     args["x0"], t_eval=ts)
    # relative to the solution's size: near a pole fixed-step RK4 at 1e-3
    # is only good to about 1e-7 of the state
    worst = max(abs(row[1 + i] - sol.y[i][k]) / max(1.0, abs(sol.y[i][k]))
                for k, row in enumerate(rows) for i in range(len(args["x0"])))
    if not worst <= 1e-6:
        return False, f"trajectory differs from DOP853 by {worst:.3e} (relative)"
    return True, f"within {worst:.1e} (relative) of DOP853"


_kind("integrate", _prep_integrate, _check_integrate)


def _prep_pole(args, files):
    return {"argv": ["integrate", "--catalog", "riccati", "--param", "eta=1",
                     "--x0=" + repr(args["x0"]), "--t-span", "0:2",
                     "--out", files("x.csv")]}


_kind("control_pole", _prep_pole, _check_control(EXIT_POLE))


# symmetry_algebra_f0_zero: the closure residual must vanish to 1e-8


def _run_f0_zero(args, prep):
    import liesym

    entry = liesym.make(args["name"], **_lib_params(args["params"]))
    return liesym.symmetry_algebra_f0_zero(
        entry.system, t_span=tuple(args["t_span"]), step=args["step"],
        seed=args["seed"]).max_residual


def _check_f0_zero(args, prep, out):
    if not out <= 1e-8:
        return False, f"closure residual {out:.3e}"
    return True, f"closure residual {out:.1e}"


_kind("f0_zero", _no_files, _check_f0_zero, run=_run_f0_zero)


# Table-1 rows: integrate the built Riccati symmetry system from the
# worked closed form and compare along the way (criterion 5's bound)


def _run_table1(args, prep):
    import numpy as np

    import liesym

    c1, c2, c3 = args["c"]
    cand, eta = liesym.table1_candidate(args["row"], args["a"], args["b"],
                                        args["k"], c1, c2, c3)
    built = liesym.build_symmetry_system(liesym.make("riccati", eta=eta).system)
    t0, t1 = args["t_span"]
    v0, _ = cand.channels_at(np.array([t0]))
    traj = liesym.integrate(built.system, v0[0], (t0, t1), 1e-3)
    vals, _ = cand.channels_at(traj.ts)
    return float(np.max(np.abs(traj.states - vals)))


def _check_table1(args, prep, out):
    if not out <= 1e-5:
        return False, f"sup {out:.3e} above 1e-5"
    return True, f"sup {out:.1e}"


_kind("table1", _no_files, _check_table1, run=_run_table1)


# symmetrize dbh: the trajectory must follow the closed-form family


def _dbh_family(mode: str, lam, t0, c0, t: float) -> List[float]:
    l1, l2, l3 = (float(Fraction(v)) for v in lam)
    t0, c0 = float(Fraction(t0)), float(Fraction(c0))
    f1, f2 = l1, l2 - 2 * l1 * t
    if mode == "b0_zero":
        return [t0, f1, f2, l1 * t * t - l2 * t + l3]
    if mode == "b0_const":
        return [c0 * t + t0, f1, f2, l1 * t * t - (l2 + c0) * t + l3]
    return [t0 + 0.5 * c0 * t * t, f1, f2, (l1 - 0.5 * c0) * t * t - l2 * t + l3]


def _prep_symmetrize_dbh(args, files):
    argv = ["symmetrize", "--catalog", "dbh", "--t-span", args["t_span"],
            "--f-init=" + _floats(_dbh_family(args["mode"], args["lam"],
                                              args["t0"], args["c0"], 0.0)),
            "--out", files("traj.csv")]
    if args["mode"] == "b0_const":
        argv += ["--b0", f"({args['c0']})"]
    elif args["mode"] == "b0_linear":
        argv += ["--b0", f"({args['c0']})*t"]
    return {"argv": argv, "csv": files("traj.csv")}


def _check_symmetrize_dbh(args, prep, out):
    ok, detail = _check_verdict(out)
    if not ok:
        return ok, detail
    worst = 0.0
    for row in _read_csv(prep["csv"]):
        want = _dbh_family(args["mode"], args["lam"], args["t0"], args["c0"], row[0])
        worst = max(worst, max(abs(g - w) for g, w in zip(row[1:5], want)))
    if not worst <= 1e-9:
        return False, f"trajectory {worst:.3e} from the closed form"
    return True, f"within {worst:.1e} of the closed form"


_kind("symmetrize_dbh", _prep_symmetrize_dbh, _check_symmetrize_dbh)


# aff_closed_form, then the sampled bracket residual (criterion 7's bound)


def _run_aff(args, prep):
    import liesym

    a, b = _poly_text(args["a"]), _poly_text(args["b"])
    cand = liesym.aff_closed_form(liesym.parse(a, ["t"]), liesym.parse(b, ["t"]),
                                  int(args["k"]), int(args["c1"]), int(args["c2"]))
    sysm = liesym.make("aff_generic", a=a, b=b).system
    return liesym.symmetry_residual(cand, sysm, seed=args["seed"])


def _check_residual(bound: float):
    def check(args, prep, out):
        if not out.max_abs <= bound:
            return False, f"residual {out.max_abs:.3e} above {bound:g}"
        return True, f"residual {out.max_abs:.1e}"
    return check


_kind("aff", _no_files, _check_residual(1e-6), run=_run_aff)


# flow transport on the dbh family: genuine -> second order, corrupted -> first


def _run_transport(args, prep):
    import liesym

    sysm = liesym.make("dbh").system
    traj = liesym.integrate(sysm, args["x0"], (0.0, 0.5), 1e-2)
    l1, l2, l3 = args["lam"]
    cand = liesym.dbh_symmetry_family("b0_zero", lam1=l1, lam2=l2, lam3=l3,
                                      t0=args["t0"])
    if args["corrupt"]:
        f = list(cand.f_exprs)
        f[2] = f[2] + liesym.Expr.var("t") * liesym.Expr.const(Fraction(1, 2))
        cand = liesym.SymmetryCandidate.closed(f)
    return liesym.flow_transport_check(cand, sysm, traj, eps=1e-3)


def _check_transport(args, prep, out):
    want = "first_order" if args["corrupt"] else "second_order"
    if out.classification != want:
        return False, f"classified {out.classification} (ratio {out.ratio:.2f})"
    return True, f"{want}, ratio {out.ratio:.2f}"


_kind("transport", _no_files, _check_transport, run=_run_transport)


# multi-time: endpoints are compared with DOP853 along the chord, on the
# pulled-back ODE dx/du = sum_l d_l sum_a b_a^l(t(u)) X_a(x), X = (1, x, x^2)


def _chord_endpoint(columns, profile, start, end, x0: float) -> float:
    """columns[l] = (k1, k2, k3) per time; profile(t) scales all entries."""
    d = [e - s for s, e in zip(start, end)]
    cols = [[float(Fraction(v)) for v in col] for col in columns]

    def f(u, y):
        tp = [s + u * dl for s, dl in zip(start, d)]
        scale = profile(tp)
        x = y[0]
        return [scale * sum(dl * (c[0] + c[1] * x + c[2] * x * x)
                            for dl, c in zip(d, cols))]

    return float(_solve_ivp(f, (0.0, 1.0), [x0]).y[0][-1])


def _columns(k, lam):
    return [[str(Fraction(ka) * Fraction(lv)) for ka in k] for lv in lam]


DEFAULT_K, DEFAULT_LAM = ["1", "1/2", "-1/3"], ["1", "2"]


def _check_pde_report(args, prep, out, columns, profile, start, end):
    if out["code"] != EXIT_OK:
        return False, f"exit {out['code']}: {out['stderr'].strip()}"
    with open(prep["report"], encoding="utf-8") as fh:
        rep = json.load(fh)
    if not (rep["integrable"] and rep["endpoint_gap"] <= 1e-6):
        return False, f"report {rep}"
    want = _chord_endpoint(columns, profile, start, end, args["x0"])
    err = abs(rep["endpoint_a"][0] - want)
    if not err <= 1e-6:
        return False, f"endpoint {rep['endpoint_a'][0]} vs DOP853 {want}"
    return True, f"gap {rep['endpoint_gap']:.1e}, endpoint within {err:.1e}"


def _pde_argv(source: List[str], args, files) -> dict:
    return {"argv": ["pde"] + source + ["--x0=" + repr(args["x0"]),
                                        "--out", files("p.csv"),
                                        "--report", files("report.json")],
            "report": files("report.json")}


_kind("pde_default",
    lambda args, files: _pde_argv(["--catalog", "partial_riccati"], args, files),
    lambda args, prep, out: _check_pde_report(
        args, prep, out, _columns(DEFAULT_K, DEFAULT_LAM), lambda tp: 1.0,
        (0.0, 0.0), (1.0, 1.0)))


def _prep_pde_path(args, files):
    return _pde_argv(["--catalog", "partial_riccati"] + _path_argv(args, files),
                     args, files)


_kind("pde_path", _prep_pde_path, lambda args, prep, out: _check_pde_report(
    args, prep, out, _columns(DEFAULT_K, DEFAULT_LAM), lambda tp: 1.0,
    tuple(args["waypoints"][0]), tuple(args["waypoints"][-1])))


def _flat_profile(args):
    """P(mu (lam . t)) as text and as a float function of the time point."""
    s_text = "({}) * ({})".format(args["mu"], " + ".join(
        f"({lv})*t{i + 1}" for i, lv in enumerate(args["lam"])))
    text = _poly_text(args["p"], f"({s_text})")
    mu, lam = float(Fraction(args["mu"])), [float(Fraction(v)) for v in args["lam"]]

    def value(tp):
        return _poly_eval(args["p"], mu * sum(lv * tv for lv, tv in zip(lam, tp)))

    return text, value


def _path_argv(args, files) -> List[str]:
    path = _write_json(files("path.json"),
                       {"waypoints": args["waypoints"], "steps": args["steps"]})
    return ["--path", path]


def _prep_pde_flat_input(args, files):
    text, _ = _flat_profile(args)
    doc = {"vars": ["x"], "basis": [["1"], ["x"], ["x^2"]],
           "times": ["t1", "t2"],
           "coeffs": _riccati_rows(args["k"], args["lam"], f"*({text})")}
    return _pde_argv(["--input", _write_json(files("system.json"), doc)]
                     + _path_argv(args, files), args, files)


_kind("pde_flat_input", _prep_pde_flat_input, lambda args, prep, out: _check_pde_report(
    args, prep, out, _columns(args["k"], args["lam"]), _flat_profile(args)[1],
    (0.0, 0.0), (1.0, 1.0)))


def _prep_not_integrable(args, files):
    c1, c2 = args["columns"]
    doc = {"vars": ["x"], "basis": [["1"], ["x"], ["x^2"]],
           "times": ["t1", "t2"], "coeffs": [[a, b] for a, b in zip(c1, c2)]}
    return _pde_argv(["--input", _write_json(files("system.json"), doc)]
                     + _path_argv(args, files), args, files)


def _check_not_integrable(args, prep, out):
    ok, detail = _check_control(EXIT_CHECK)(args, prep, out)
    if not ok:
        return ok, detail
    with open(prep["report"], encoding="utf-8") as fh:
        rep = json.load(fh)
    if rep["integrable"] is not False:
        return False, f"report says integrable={rep['integrable']}"
    return True, "control exited 1 with integrable: false"


_kind("control_not_integrable", _prep_not_integrable, _check_not_integrable)


def _times(s: int) -> Tuple[str, ...]:
    return tuple(f"t{i + 1}" for i in range(s))


def _pde_system(k, lam):
    import liesym

    return liesym.make("partial_riccati", coeffs=_riccati_rows(k, lam),
                       times=_times(len(lam))).system


def _run_three_times(args, prep):
    import liesym

    sysm = _pde_system(args["k"], args["lam"])
    curv = liesym.curvature_residual(sysm)
    built = liesym.build_pde_symmetry_system(sysm)
    ends = [liesym.integrate_along_path(
        sysm, (args["x0"],), liesym.TimePath(_staircase(3, order),
                                             steps=args["steps"])).states[-1][0]
            for order in args["orders"]]
    return {"curvature": curv, "built_r": built.system.r,
            "ends": [float(e) for e in ends]}


def _check_three_times(args, prep, out):
    if not out["curvature"].exact:
        return False, f"curvature not exactly zero: {out['curvature']}"
    if out["built_r"] != 3:  # sl(2) has no center, so no generator folds away
        return False, f"built symmetry system has {out['built_r']} generators"
    a, b = out["ends"]
    want = _chord_endpoint(_columns(args["k"], args["lam"]), lambda tp: 1.0,
                           (0.0,) * 3, (1.0,) * 3, args["x0"])
    err = max(abs(a - want), abs(b - want))
    if not (abs(a - b) <= 1e-6 and err <= 1e-6):
        return False, f"endpoints {a}, {b} vs DOP853 {want}"
    return True, f"endpoints within {err:.1e} of DOP853"


_kind("pde_three_times", _no_files, _check_three_times, run=_run_three_times)


def _run_non_symmetry(args, prep):
    import liesym

    sysm = _pde_system(args["k"], args["lam"])
    cand = liesym.PDESymmetryCandidate.closed(
        [liesym.parse(e, sysm.times) for e in args["f"]], times=sysm.times)
    return liesym.pde_symmetry_residual(cand, sysm, nx=10, seed=args["seed"])


def _check_non_symmetry(args, prep, out):
    if out.oracle_gap is None or not out.oracle_gap <= 1e-9:
        return False, f"jet and bracket oracles differ by {out.oracle_gap}"
    if not out.max_abs > 1e-3:
        return False, f"non-symmetry residual only {out.max_abs:.3e}"
    return True, f"residual {out.max_abs:.2f}, oracle gap {out.oracle_gap:.1e}"


_kind("pde_non_symmetry", _no_files, _check_non_symmetry, run=_run_non_symmetry)


def _run_sampled(args, prep):
    import liesym

    sysm = _pde_system(args["k"], args["lam"])
    built = liesym.build_pde_symmetry_system(sysm)
    path = liesym.TimePath(tuple(tuple(w) for w in args["waypoints"]),
                           steps=args["steps"])
    traj = liesym.integrate_along_path(built.system, args["f_init"], path)
    cand = liesym.pde_candidate_from_path(built, traj, path)
    return liesym.pde_symmetry_residual(cand, sysm, seed=args["seed"])


_kind("pde_sampled", _no_files, _check_residual(1e-6), run=_run_sampled)


def prepare(job: dict, files: Callable[[str], str]) -> dict:
    return KINDS[job["kind"]][0](job["args"], files)


def run(job: dict, prep: dict):
    return KINDS[job["kind"]][1](job["args"], prep)


def check(job: dict, prep: dict, out) -> Tuple[bool, str]:
    if isinstance(out, Exception):
        return False, f"raised {out!r}"
    return KINDS[job["kind"]][2](job["args"], prep, out)
