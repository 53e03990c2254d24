"""Command-line front end: define or load systems, run checks, emit CSV.

Subcommands: list, show, check-algebra, symmetrize, verify, integrate,
pde.  Exit codes: 0 success, 1 failed check (algebra not closed,
residual above tolerance, non-integrable coefficients), 2 unreadable
input, 3 pole encountered, 64 usage error (also a run that needs the
value of a profile left opaque, or a derivative past the end of its
chain).  With a fixed seed (flag or LIESYM_SEED) every run is
byte-for-byte reproducible.

Input files are JSON.  A system document has "vars", "basis" (one list
of component expressions per field), "coeffs" and optional "gauge_b0"
and JSON strings "time" and "name"; coefficient strings may use
@fn(t) for opaque profiles, which get a formal derivative chain and no
evaluator.  A multi-time document replaces "time" with "times" and makes
"coeffs" a matrix with one row per basis field and one column per time.
A path document has "waypoints" and per-segment "steps"; a candidate
document has "f" and "time" (or "times").
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from typing import List, Optional, Sequence, Tuple, Union

from .catalog import make, names
from .errors import (
    BadParams,
    DependentBasis,
    DimensionMismatch,
    DivisionByZero,
    LiesymError,
    MissingDerivative,
    NotClosed,
    NotIntegrable,
    OpaqueNoDerivative,
    OpaqueNoEvaluator,
    ParseError,
    PoleEncountered,
    UnboundSymbol,
    UnknownName,
)
from .expr import parse
from .fixtures import _opaque_registry, _parse_profile
from .liealg import LieAlgebraBasis, center, jacobi_residual
from .liesys import (
    LieSystem,
    SymmetryCandidate,
    build_symmetry_system,
    candidate_from_trajectory,
    integrate,
    symmetry_residual,
)
from .pdesys import (
    PDELieSystem,
    PDESymmetryCandidate,
    TimePath,
    build_pde_symmetry_system,
    integrate_along_path,
    pde_symmetry_residual,
)
from .vectorfield import VectorField

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_PARSE = 2
EXIT_POLE = 3
EXIT_USAGE = 64

CSV_HEADER = "# liesym-csv v1"


class UsageError(LiesymError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """argparse maps usage problems to exit 2; the contract wants 64."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# -- input documents ------------------------------------------------------------

def _load_doc(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path} must hold a JSON object")
    return doc


def _array(value, key: str) -> list:
    """value if a JSON array, else ParseError (no string split into chars)."""
    if not isinstance(value, list):
        raise ParseError(f"{key} must be a JSON array, got {value!r}")
    return value


def _string(value, key: str) -> str:
    """value if a JSON string, else ParseError (no number read as a name)."""
    if not isinstance(value, str):
        raise ParseError(f"{key} must be a JSON string, got {value!r}")
    return value


def _system_from_doc(doc: dict) -> Union[LieSystem, PDELieSystem]:
    try:
        coords = tuple(_string(v, "each vars entry")
                       for v in _array(doc["vars"], "vars"))
        basis_rows = [_array(row, "each basis row")
                      for row in _array(doc["basis"], "basis")]
        coeff_rows = _array(doc["coeffs"], "coeffs")
        name = _string(doc.get("name", ""), "name")
        fields = tuple(
            VectorField(coords, [parse(str(c), coords) for c in row])
            for row in basis_rows)
        algebra = LieAlgebraBasis(fields)
        if "times" in doc:
            times = tuple(_string(v, "each times entry")
                          for v in _array(doc["times"], "times"))
            coeff_rows = [_array(row, "each coeffs row") for row in coeff_rows]
            flat = [str(e) for row in coeff_rows for e in row]
            registry = _opaque_registry(flat)
            coeffs = tuple(
                tuple(parse(str(e), times, registry=registry) for e in row)
                for row in coeff_rows)
            return PDELieSystem(algebra, coeffs=coeffs, times=times, name=name)
        time = _string(doc.get("time", "t"), "time")
        texts = [str(e) for e in coeff_rows] + [str(doc.get("gauge_b0", "0"))]
        registry = _opaque_registry(texts)
        coeffs = tuple(parse(t_, [time], registry=registry) for t_ in texts[:-1])
        gauge = parse(texts[-1], [time], registry=registry)
        return LieSystem(algebra, coeffs=coeffs, gauge=gauge, time=time,
                         name=name)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad system document: {exc}") from exc


def _resolve_system(args: argparse.Namespace):
    """Returns (system, entry-or-None) from --catalog or --input."""
    if args.catalog is not None:
        entry = make(args.catalog, **dict(args.param))
        return entry.system, entry
    if args.input is None:
        raise UsageError("give --catalog NAME or --input FILE")
    return _system_from_doc(_load_doc(args.input)), None


def _candidate_from_doc(doc: dict, pde: bool):
    try:
        rows = [str(e) for e in _array(doc["f"], "f")]
        if pde:
            times = tuple(_string(v, "each times entry") for v in
                          _array(doc.get("times", ["t1", "t2"]), "times"))
            registry = _opaque_registry(rows)
            return PDESymmetryCandidate.closed(
                [parse(e, times, registry=registry) for e in rows], times)
        time = _string(doc.get("time", "t"), "time")
        registry = _opaque_registry(rows)
        return SymmetryCandidate.closed(
            [parse(e, [time], registry=registry) for e in rows], time=time)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad candidate document: {exc}") from exc


def _path_from_doc(doc: dict) -> TimePath:
    try:
        waypoints = [tuple(float(v) for v in _array(w, "each waypoint"))
                     for w in _array(doc["waypoints"], "waypoints")]
        steps = doc.get("steps", 200)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad path document: {exc}") from exc
    if type(steps) is not int:  # a JSON true or 2.7 is no step count
        raise ParseError(f"steps must be a JSON integer, got {steps!r}")
    return TimePath(tuple(waypoints), steps=steps)


# -- output artifacts ------------------------------------------------------------

def _fmt(value: float) -> str:
    return repr(float(value))


def _write_csv(path: str, colnames: Sequence[str],
               rows: Sequence[Sequence[float]]) -> None:
    lines = [CSV_HEADER, ",".join(colnames)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_gnuplot(path, len(colnames))


def _write_gnuplot(csv_path: str, ncols: int) -> None:
    gp = csv_path + ".gp"
    base = os.path.basename(csv_path)
    text = "\n".join([
        "# companion plot script; run: gnuplot -p " + os.path.basename(gp),
        'set datafile separator ","',
        "set key autotitle columnhead",
        f'plot for [i=2:{ncols - 1}] "{base}" using 1:i with lines',
    ]) + "\n"
    with open(gp, "w", encoding="utf-8") as fh:
        fh.write(text)


def _trajectory_rows(traj) -> List[List[float]]:
    return [[t] + [float(v) for v in state] + [float(e)]
            for t, state, e in zip(traj.ts, traj.states, traj.err_est)]


def _report_payload(rep) -> dict:
    out = {"max_abs": float(rep.max_abs), "exact": bool(rep.exact)}
    if rep.npoints:
        out["npoints"] = int(rep.npoints)
    return out


# -- subcommands -----------------------------------------------------------------

def _cmd_list(args: argparse.Namespace, stdout) -> int:
    for n in names():
        entry = make(n)
        print(f"{n:16s} {entry.kind:4s} {entry.description}", file=stdout)
    return EXIT_OK


def _cmd_show(args: argparse.Namespace, stdout) -> int:
    entry = make(args.name, **dict(args.param))
    sysobj = entry.system
    print(f"name: {entry.name}", file=stdout)
    print(f"kind: {entry.kind}", file=stdout)
    print(f"description: {entry.description}", file=stdout)
    print(f"state vars: {', '.join(sysobj.vars)}", file=stdout)
    if entry.kind == "pde":
        print(f"times: {', '.join(sysobj.times)}", file=stdout)
    else:
        print(f"time: {sysobj.time}", file=stdout)
    print("basis:", file=stdout)
    for i, f in enumerate(sysobj.algebra.fields, start=1):
        comps = ", ".join(str(c) for c in f.components)
        print(f"  X{i} = [{comps}]", file=stdout)
    if entry.kind == "pde":
        for a, row in enumerate(sysobj.coeffs, start=1):
            print(f"coeff row {a}: " + ", ".join(str(e) for e in row),
                  file=stdout)
    else:
        print("coeffs: " + ", ".join(str(e) for e in sysobj.coeffs),
              file=stdout)
        print(f"gauge b0: {sysobj.gauge}", file=stdout)
    print(f"tensor: {entry.expected!r}", file=stdout)
    if entry.families:
        print("families:", file=stdout)
        for fam in entry.families:
            note = f"  ({fam.note})" if fam.note else ""
            print(f"  {fam.name}{note}", file=stdout)
    if entry.excluded_note:
        print(f"excluded: {entry.excluded_note}", file=stdout)
    return EXIT_OK


def _cmd_check_algebra(args: argparse.Namespace, stdout) -> int:
    sysobj, _ = _resolve_system(args)
    tensor, method = sysobj.algebra.tensor, sysobj.algebra.method
    jac = jacobi_residual(tensor)
    cdim = len(center(tensor))
    print(f"closed, r={tensor.r}, jacobi={jac}, center={cdim}", file=stdout)
    print(f"extraction: {method}", file=stdout)
    for a, b, g, v in tensor.to_triples():
        print(f"  c{a}{b}{g} = {v}", file=stdout)
    return EXIT_OK


def _cmd_symmetrize(args: argparse.Namespace, stdout) -> int:
    sysobj, _ = _resolve_system(args)
    if isinstance(sysobj, PDELieSystem):
        raise UsageError("multi-time systems go through the pde subcommand")
    if args.b0 is not None:
        gauge = _parse_profile(args.b0, [sysobj.time])
        sysobj = dataclasses.replace(sysobj, gauge=gauge)
    f_init = args.f_init if args.f_init is not None else (0.0,) * (sysobj.r + 1)
    if len(f_init) != sysobj.r + 1:
        raise UsageError(
            f"f-init needs {sysobj.r + 1} values (f0 .. f{sysobj.r}), "
            f"got {len(f_init)}")
    built = build_symmetry_system(sysobj)
    traj = integrate(built.system, f_init, args.t_span, args.step)
    out = args.out or "symmetrize.csv"
    _write_csv(out, (sysobj.time,) + built.system.vars + ("err_est",),
               _trajectory_rows(traj))
    cand = candidate_from_trajectory(built, traj)
    rep = symmetry_residual(cand, sysobj, seed=args.seed)
    verdict = "PASS" if float(rep) <= args.tol else "FAIL"
    print(f"wrote {out} ({len(traj.ts)} rows)", file=stdout)
    print(f"symmetry residual max {float(rep):.6e} "
          f"(exact={rep.exact}, tol {args.tol:g}): {verdict}", file=stdout)
    return EXIT_OK if verdict == "PASS" else EXIT_CHECK


def _cmd_verify(args: argparse.Namespace, stdout) -> int:
    sysobj, entry = _resolve_system(args)
    pde = isinstance(sysobj, PDELieSystem)
    if args.family is not None:
        if entry is None:
            raise UsageError("--family needs --catalog")
        match = [f for f in entry.families if f.name == args.family]
        if not match:
            known = ", ".join(f.name for f in entry.families) or "none"
            raise UsageError(f"no family {args.family!r}; known: {known}")
        cand = match[0].candidate
    elif args.candidate is not None:
        cand = _candidate_from_doc(_load_doc(args.candidate), pde)
    else:
        raise UsageError("give --family NAME or --candidate FILE")
    if pde:
        rep = pde_symmetry_residual(cand, sysobj, seed=args.seed)
    else:
        rep = symmetry_residual(cand, sysobj, seed=args.seed,
                                check_gauge=not args.no_gauge_check)
    verdict = "PASS" if float(rep) <= args.tol else "FAIL"
    print(f"symmetry residual max {float(rep):.6e} "
          f"(exact={rep.exact}, tol {args.tol:g}): {verdict}", file=stdout)
    return EXIT_OK if verdict == "PASS" else EXIT_CHECK


def _cmd_integrate(args: argparse.Namespace, stdout) -> int:
    sysobj, _ = _resolve_system(args)
    if isinstance(sysobj, PDELieSystem):
        raise UsageError("multi-time systems go through the pde subcommand")
    x0 = args.x0 if args.x0 is not None else (0.0,) * len(sysobj.vars)
    if len(x0) != len(sysobj.vars):
        raise UsageError(f"x0 needs {len(sysobj.vars)} values, got {len(x0)}")
    traj = integrate(sysobj, x0, args.t_span, args.step)
    out = args.out or "integrate.csv"
    _write_csv(out, (sysobj.time,) + sysobj.vars + ("err_est",),
               _trajectory_rows(traj))
    print(f"wrote {out} ({len(traj.ts)} rows)", file=stdout)
    return EXIT_OK


def _staircase(s: int, reverse: bool) -> TimePath:
    """Axis-by-axis corner path across the unit time box."""
    point = [0.0] * s
    waypoints = [tuple(point)]
    axes = range(s - 1, -1, -1) if reverse else range(s)
    for ax in axes:
        point[ax] = 1.0
        waypoints.append(tuple(point))
    return TimePath(tuple(waypoints), steps=200)


def _cmd_pde(args: argparse.Namespace, stdout) -> int:
    sysobj, _ = _resolve_system(args)
    if not isinstance(sysobj, PDELieSystem) or sysobj.s < 2:
        raise UsageError("the pde subcommand needs a system with at least "
                         "two time directions; use symmetrize/integrate "
                         "for a single time")
    x0 = args.x0 if args.x0 is not None else (0.0,) * len(sysobj.vars)
    if len(x0) != len(sysobj.vars):
        raise UsageError(f"x0 needs {len(sysobj.vars)} values, got {len(x0)}")
    if args.path is not None:
        path_a = _path_from_doc(_load_doc(args.path))
        path_b = TimePath((path_a.waypoints[0], path_a.waypoints[-1]),
                          steps=path_a.steps)
    else:
        path_a = _staircase(sysobj.s, reverse=False)
        path_b = _staircase(sysobj.s, reverse=True)

    # the builder reports the source curvature whether or not it succeeds
    integrable = True
    built_curv = None
    try:
        built = build_pde_symmetry_system(sysobj, tol=args.tol)
        curv, built_curv = built.source_curvature, built.curvature
    except NotIntegrable as exc:
        integrable = False
        curv = exc.source_curvature
    traj_a = integrate_along_path(sysobj, x0, path_a)
    traj_b = integrate_along_path(sysobj, x0, path_b)
    end_a = [float(v) for v in traj_a.states[-1]]
    end_b = [float(v) for v in traj_b.states[-1]]
    gap = max(abs(p - q) for p, q in zip(end_a, end_b))

    out = args.out or "pde.csv"
    _write_csv(out, ("u",) + sysobj.vars + ("err_est",),
               _trajectory_rows(traj_a))
    code = EXIT_OK if integrable and gap <= args.agree_tol else EXIT_CHECK
    payload = {
        "curvature": _report_payload(curv),
        "endpoint_a": end_a,
        "endpoint_b": end_b,
        "endpoint_gap": gap,
        "agree_tol": args.agree_tol,
        "integrable": integrable,
        "built_curvature": (_report_payload(built_curv)
                            if built_curv is not None else None),
        "exit": code,
    }
    report = args.report or "pde_report.json"
    with open(report, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out} ({len(traj_a.ts)} rows) and {report}", file=stdout)
    print(f"curvature max {float(curv):.6e} (exact={curv.exact})",
          file=stdout)
    print(f"endpoint gap {gap:.6e} (tol {args.agree_tol:g}); "
          f"integrable={integrable}", file=stdout)
    return code


_COMMANDS = {
    "list": _cmd_list,
    "show": _cmd_show,
    "check-algebra": _cmd_check_algebra,
    "symmetrize": _cmd_symmetrize,
    "verify": _cmd_verify,
    "integrate": _cmd_integrate,
    "pde": _cmd_pde,
}


# -- argument parsing ------------------------------------------------------------

def _finite(values: Tuple[float, ...]) -> Tuple[float, ...]:
    if not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(
            f"values must be finite, got {', '.join(map(str, values))}")
    return values


def _floats(text: str) -> Tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(",") if v != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return _finite(values)


def _span(text: str) -> Tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("t-span must look like A:B")
    try:
        values = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    a, b = _finite(values)
    if a == b:
        raise argparse.ArgumentTypeError("t-span must have nonzero length")
    return a, b


def _positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be finite and positive, got {text}")
    return value


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


def _kv(text: str) -> Tuple[str, str]:
    if "=" not in text:
        raise argparse.ArgumentTypeError("parameters must look like key=value")
    key, value = text.split("=", 1)
    return key, value


# options that several subcommands declare, each with its one default
_SHARED = {
    "--catalog": dict(help="built-in system name"),
    "--input": dict(help="system definition JSON file"),
    "--param": dict(action="append", type=_kv, default=[],
                    metavar="KEY=VALUE", help="catalog entry parameter"),
    "--t-span": dict(type=_span, default=(0.0, 1.0), metavar="A:B"),
    "--step": dict(type=_positive, default=1e-3),
    "--seed": dict(type=_seed, help="sampling seed; default env LIESYM_SEED or 0"),
    "--out": dict(help="CSV output path"),
    "--x0": dict(type=_floats, metavar="X1,X2,..."),
}
_SOURCE = ("--catalog", "--input", "--param")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """Built at first use and kept: a build costs ~25 parses, and
    parse_args leaves the parser unchanged."""
    top = _ArgumentParser(
        prog="liesym",
        description="Construct, integrate and verify the symmetry systems "
                    "of Lie systems.")
    sub = top.add_subparsers(dest="subcommand", required=True)

    def command(name, help, *shared, tol=None):
        """A subcommand with the given _SHARED options, plus --tol when
        tol is (default, help)."""
        p = sub.add_parser(name, help=help)
        for flag in shared:
            p.add_argument(flag, **_SHARED[flag])
        if tol is not None:
            p.add_argument("--tol", type=_positive, default=tol[0],
                           help=f"{tol[1]} (default {tol[0]:g})")
        return p

    residual = (1e-6, "residual tolerance")
    command("list", "enumerate built-in systems")
    command("show", "print one entry in full", "--param").add_argument("name")
    command("check-algebra", "closure, tensor, Jacobi, center", *_SOURCE)

    p = command("symmetrize", "build and integrate the symmetry system",
                *_SOURCE, "--t-span", "--step", "--seed", "--out",
                tol=residual)
    p.add_argument("--b0", help="gauge override, expression in t")
    p.add_argument("--f-init", type=_floats, metavar="F0,F1,...",
                   help="initial symmetry channels (default zeros)")

    p = command("verify", "residual check of a candidate", *_SOURCE, "--seed",
                tol=residual)
    p.add_argument("--candidate", help="candidate JSON file")
    p.add_argument("--family", help="bundled family name")
    p.add_argument("--no-gauge-check", action="store_true",
                   help="skip the f0' vs declared-gauge comparison")

    command("integrate", "integrate the system itself",
            *_SOURCE, "--t-span", "--step", "--out", "--x0")

    p = command("pde", "multi-time checks and path comparison",
                *_SOURCE, "--x0", "--out",
                tol=(1e-9, "curvature tolerance for the builder"))
    p.add_argument("--path", help="path JSON file (compared to the chord)")
    p.add_argument("--agree-tol", type=_positive, default=1e-6,
                   help="endpoint agreement tolerance (default 1e-6)")
    p.add_argument("--report", help="JSON report path")
    return top


def main(argv: Optional[Sequence[str]] = None, stdout=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    try:
        # --seed where the subcommand has it, else LIESYM_SEED, else 0
        if vars(args).get("seed") is None:
            try:
                args.seed = _seed(os.environ.get("LIESYM_SEED", "0"))
            except argparse.ArgumentTypeError:
                raise UsageError("LIESYM_SEED must be a non-negative integer")
        return _COMMANDS[args.subcommand](args, stdout)
    except (UsageError, UnknownName, BadParams, OpaqueNoEvaluator,
            OpaqueNoDerivative, MissingDerivative, UnboundSymbol,
            DimensionMismatch) as exc:
        print(f"liesym: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"liesym: error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (PoleEncountered, DivisionByZero) as exc:
        print(f"liesym: pole: {exc}", file=sys.stderr)
        return EXIT_POLE
    except (NotClosed, DependentBasis, NotIntegrable) as exc:
        print(f"liesym: check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
