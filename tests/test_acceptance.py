"""Acceptance checklist, one test per shipped guarantee.

Every test prints a single "criterion NN: PASS/FAIL" line (visible
under pytest -s) before asserting, so a run reads as a checklist.
Tolerances and time bounds are pinned here and nowhere else.
"""

import itertools
import math
import random
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from liesym import dbh_symmetry_family, make, table1_candidate, table1_power_aux
from liesym.errors import DependentBasis, NotIntegrable
from liesym.expr import Expr, ZeroStatus, parse
from liesym.integrate import rk4_solve
from liesym.liealg import (StructureTensor, center, jacobi_residual,
                           transform_tensor)
from liesym.liesys import (SymmetryCandidate, aff_closed_form,
                           build_symmetry_system, flow_transport_check,
                           integrate, riccati_f3_ode_residual,
                           symmetry_residual, symmetry_system_basis,
                           vertical_symmetry_dimension)
from liesym.pdesys import (PDESymmetryCandidate, TimePath,
                           build_pde_symmetry_system, curvature_residual,
                           integrate_along_path, pde_symmetry_residual)
from liesym.vectorfield import VectorField, lie_bracket

SL2_TRIPLES = [[1, 2, 1, "1"], [1, 3, 2, "2"], [2, 3, 3, "1"]]
SL2 = StructureTensor.from_triples(3, SL2_TRIPLES)
AFF = StructureTensor.from_triples(2, [[1, 2, 1, "1"]])


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def exactly_zero(e: Expr) -> bool:
    return e.is_zero() is ZeroStatus.ZERO


def fields_equal(got: VectorField, want: VectorField) -> bool:
    return got.vars == want.vars and all(
        exactly_zero(g - w) for g, w in zip(got.components, want.components))


def test_criterion_01_catalog_structure_constants():
    t0 = time.monotonic()
    sl2_entries = [make("riccati"), make("quaternionic"), make("dbh"),
                   make("dbh", alpha=(1, 2, 3)), make("kummer_schwarz"),
                   make("sl2_generic")]
    sl2_entries += [make("cayley_klein", iota2=i2) for i2 in (-1, 0, 1)]
    for e in sl2_entries:
        assert e.system.algebra.tensor == SL2, e.name
        assert e.system.algebra.method == "exact", e.name
        assert jacobi_residual(e.system.algebra.tensor) == 0, e.name
    for name in ("aff_generic", "buchdahl"):
        e = make(name)
        assert e.system.algebra.tensor == AFF, name
        assert e.system.algebra.method == "exact", name
    octet = make("painleve_ince").system.algebra
    assert octet.r == 8
    assert octet.method == "exact"
    assert jacobi_residual(octet.tensor) == 0
    commuting = lie_bracket(octet.fields[0], octet.fields[5])
    assert all(exactly_zero(c) for c in commuting.components)
    elapsed = time.monotonic() - t0
    verdict(1, elapsed < 5.0,
            f"12 catalog algebras extracted exactly in {elapsed:.2f}s")


def test_criterion_02_symmetry_system_shape():
    t0 = time.monotonic()
    f0, f1, f2, f3 = (Expr.var(f"f{i}") for i in range(4))

    sysm = make("sl2_generic", gauge_b0=None).system
    b0, (b1, b2, b3), t = sysm.gauge, sysm.coeffs, sysm.time
    built = build_symmetry_system(sysm)
    want = (
        b0,
        f0 * b1.diff(t) + f1 * b2 - f2 * b1 + b0 * b1,
        f0 * b2.diff(t) + 2 * f1 * b3 - 2 * f3 * b1 + b0 * b2,
        f0 * b3.diff(t) + f2 * b3 - f3 * b2 + b0 * b3,
    )
    assert len(built.rhs_exprs) == len(want)
    for got, ref in zip(built.rhs_exprs, want):
        assert exactly_zero(got - ref)

    sysm = make("riccati", gauge_b0=None).system
    b0, t = sysm.gauge, sysm.time
    eta = sysm.coeffs[0]
    built = build_symmetry_system(sysm)
    want = (
        b0,
        f0 * eta.diff(t) - eta * f2 + b0 * eta,
        2 * f1 - 2 * eta * f3,
        f2 + b0,
    )
    for got, ref in zip(built.rhs_exprs, want):
        assert exactly_zero(got - ref)

    sysm = make("aff_generic", gauge_b0=None).system
    b0, (a, b), t = sysm.gauge, sysm.coeffs, sysm.time
    built = build_symmetry_system(sysm)
    want = (
        b0,
        f0 * a.diff(t) + a * b0 + b * f1 - a * f2,
        f0 * b.diff(t) + b * b0,
    )
    for got, ref in zip(built.rhs_exprs, want):
        assert exactly_zero(got - ref)
    elapsed = time.monotonic() - t0
    verdict(2, elapsed < 1.0,
            f"built right-hand sides match the reference forms, {elapsed:.2f}s")


def test_criterion_03_symmetry_algebra_brackets():
    z, w, y = symmetry_system_basis(SL2)
    names = ("f0", "f1", "f2", "f3")
    f0, f1, f2, f3 = (Expr.var(n) for n in names)
    zero = VectorField(names, (0, 0, 0, 0))
    y1, y2, y3 = y
    # pinned component forms of the generators
    assert fields_equal(y1, VectorField(names, (0, -f2, -2 * f3, 0)))
    assert fields_equal(y2, VectorField(names, (0, f1, 0, -f3)))
    assert fields_equal(y3, VectorField(names, (0, 0, 2 * f1, f2)))
    for j in range(3):
        assert fields_equal(w[j], f0 * z[j + 1])

    cases = [
        (y1, y2, y1), (y1, y3, y2 * 2), (y2, y3, y3),
        (y1, z[0], zero), (y1, z[1], zero), (y1, z[2], z[1]),
        (y1, z[3], z[2] * 2),
        (y2, z[0], zero), (y2, z[1], z[1] * -1), (y2, z[2], zero),
        (y2, z[3], z[3]),
        (y3, z[0], zero), (y3, z[1], z[2] * -2), (y3, z[2], z[3] * -1),
        (y3, z[3], zero),
        (y1, w[0], zero), (y1, w[1], w[0]), (y1, w[2], w[1] * 2),
        (y2, w[0], w[0] * -1), (y2, w[1], zero), (y2, w[2], w[2]),
        (y3, w[0], w[1] * -2), (y3, w[1], w[2] * -1), (y3, w[2], zero),
    ]
    for j in range(3):
        cases.append((z[0], w[j], z[j + 1]))
        for i in range(3):
            cases.append((z[i + 1], w[j], zero))
    for i, j in itertools.combinations(range(3), 2):
        cases.append((w[i], w[j], zero))
    for a, b in itertools.combinations(range(4), 2):
        cases.append((z[a], z[b], zero))
    for left, right, want in cases:
        assert fields_equal(lie_bracket(left, right), want)

    az, aw, ay = symmetry_system_basis(AFF)
    anames = ("f0", "f1", "f2")
    g1, g2 = Expr.var("f1"), Expr.var("f2")
    azero = VectorField(anames, (0, 0, 0))
    ay1, ay2 = ay
    assert fields_equal(ay1, VectorField(anames, (0, -g2, 0)))
    assert fields_equal(ay2, VectorField(anames, (0, g1, 0)))
    acases = [
        (ay1, ay2, ay1),
        (az[0], aw[0], az[1]), (az[0], aw[1], az[2]),
        (ay1, aw[0], azero), (ay1, aw[1], aw[0]),
        (ay1, az[0], azero), (ay1, az[1], azero), (ay1, az[2], az[1]),
        (ay2, aw[0], aw[0] * -1), (ay2, aw[1], azero),
        (ay2, az[0], azero), (ay2, az[1], az[1] * -1), (ay2, az[2], azero),
        (aw[0], aw[1], azero),
    ]
    for i in range(2):
        for j in range(2):
            acases.append((az[i + 1], aw[j], azero))
    for a, b in itertools.combinations(range(3), 2):
        acases.append((az[a], az[b], azero))
    for left, right, want in acases:
        assert fields_equal(lie_bracket(left, right), want)

    # rank of the vertical generators equals r minus the center dimension,
    # checked on randomized changes of basis against the brute-force center
    bases = {
        "abelian": ([], 3),
        "heisenberg": ([[1, 2, 3, "1"]], 1),
        "simple_rank1": (SL2_TRIPLES, 0),
        "aff_plus_line": ([[1, 2, 1, "1"]], 1),
        "rotations": ([[1, 2, 3, "1"], [2, 3, 1, "1"], [1, 3, 2, "-1"]], 0),
    }
    rng = random.Random(42)
    for name, (triples, center_dim) in bases.items():
        base = StructureTensor.from_triples(3, triples)
        while True:
            mat = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    for _ in range(3)] for _ in range(3)]
            try:
                conj = transform_tensor(base, mat)
                break
            except DependentBasis:
                continue
        assert jacobi_residual(conj) == 0, name
        vdim = vertical_symmetry_dimension(conj)
        assert vdim == 3 - len(center(conj)) == 3 - center_dim, name
    verdict(3, True, "all generator brackets and vertical ranks check out")


def test_criterion_04_triple_system_families():
    t0 = time.monotonic()
    rng = random.Random(7)
    box = ((1.0, 2.0),) * 3
    worst = 0.0
    for i in range(10):
        lam1, lam2, lam3, tshift, c0 = (
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5))
        mode = ("b0_zero", "b0_const", "b0_linear")[i % 3]
        if mode == "b0_zero":
            gauge = "0"
            cand = dbh_symmetry_family(mode, lam1=lam1, lam2=lam2, lam3=lam3,
                                       t0=tshift)
        elif mode == "b0_const":
            gauge = f"({c0})"
            cand = dbh_symmetry_family(mode, lam1=lam1, lam2=lam2, lam3=lam3,
                                       t0=tshift, c0=c0)
        else:
            gauge = f"({c0})*t"
            cand = dbh_symmetry_family(mode, lam1=lam1, lam2=lam2, lam3=lam3,
                                       t0=tshift, c0=c0)
        entry = make("dbh", alpha=(1, 2, 3), gauge_b0=gauge)
        sysm = replace(entry.system, state_box=box)
        rep = symmetry_residual(cand, sysm, t_span=(0.0, 1.0),
                                nt=20, nx=20, seed=i)
        if mode == "b0_zero":
            assert rep.exact, (mode, i)
        assert rep.exact or rep.max_abs <= 1e-9, (mode, i, rep.max_abs)
        if not rep.exact:
            worst = max(worst, rep.max_abs)
    elapsed = time.monotonic() - t0
    verdict(4, elapsed < 10.0,
            f"10 random draws over 3 gauge modes, worst sampled residual "
            f"{worst:.1e}, {elapsed:.2f}s")


def test_criterion_05_third_order_profiles():
    k = Fraction(3, 16)
    f3, eta, aux = table1_power_aux(1, 1, k, 1, Fraction(1, 2),
                                    Fraction(-1, 3))
    rep = riccati_f3_ode_residual(Expr.const(k), f3, eta, 0, aux=aux)
    assert rep.exact and rep.max_abs == 0.0

    sups = {}
    for row, kval in (("rational_pole", Fraction(1)), ("linear", Fraction(2))):
        cand, row_eta = table1_candidate(row, 1, Fraction(1, 2), kval,
                                         1, Fraction(-1, 2), Fraction(1, 3))
        built = build_symmetry_system(make("riccati", eta=row_eta).system)
        v0, _ = cand.channels_at(np.array([0.1]))
        traj = integrate(built.system, v0[0], (0.1, 1.0), 1e-3)
        vals, _ = cand.channels_at(traj.ts)
        sups[row] = float(np.max(np.abs(traj.states - vals)))
        assert sups[row] <= 1e-5, row
    verdict(5, True,
            f"power profile cancels symbolically, numeric sups "
            f"{sups['rational_pole']:.1e} and {sups['linear']:.1e}")


def test_criterion_06_prolonged_time_reparameterization():
    # f0''' = -4 t f0' - 2 f0, the linear-coefficient constraint with the
    # multiplier channel taken from the candidate itself
    def rhs(tv, yv):
        return np.array([yv[1], yv[2], -4.0 * tv * yv[1] - 2.0 * yv[0]])

    traj = rk4_solve(rhs, (1.0, 0.0, 0.0), (0.0, 1.0), 1e-3)
    g, dg, ddg = traj.states.T
    dddg = -4.0 * traj.ts * dg - 2.0 * g
    values = np.column_stack([g, -ddg / 2.0, -dg, np.zeros_like(g)])
    dvalues = np.column_stack([dg, -dddg / 2.0, -ddg, np.zeros_like(g)])
    cand = SymmetryCandidate.sampled(traj.ts, values, dvalues)
    rep = symmetry_residual(cand, make("riccati", eta="t").system,
                            t_span=(0.0, 1.0), nt=20, nx=20, seed=3,
                            check_gauge=False)
    verdict(6, rep.max_abs <= 1e-6,
            f"time-reparameterizing candidate residual {rep.max_abs:.1e}")


def test_criterion_07_affine_quadrature():
    rng = random.Random(11)
    t = Expr.var("t")

    def poly():
        cs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
              for _ in range(3)]
        return Expr.const(cs[0]) + Expr.const(cs[1]) * t \
            + Expr.const(cs[2]) * t * t

    worst = 0.0
    for i in range(10):
        a, b = poly(), poly()
        k, c1, c2 = (Fraction(rng.randint(-2, 2)) for _ in range(3))
        cand = aff_closed_form(a, b, k, c1, c2, t_span=(0.0, 1.0), step=1e-3)
        sysm = make("aff_generic", a=a, b=b).system
        rep = symmetry_residual(cand, sysm, t_span=(0.0, 1.0),
                                nt=20, nx=20, seed=i)
        worst = max(worst, rep.max_abs)
    verdict(7, worst <= 1e-6,
            f"10 random polynomial coefficient pairs, worst residual "
            f"{worst:.1e}")


def test_criterion_08_multi_time_routes():
    flat = make("partial_riccati").system
    curv = curvature_residual(flat)
    assert curv.exact and curv.max_abs == 0.0

    paths = [TimePath(((0, 0), (1, 0), (1, 1)), steps=400),
             TimePath(((0, 0), (0, 1), (1, 1)), steps=400),
             TimePath(((0, 0), (1, 1)), steps=400)]
    ends = [integrate_along_path(flat, (0.2,), p).states[-1] for p in paths]
    spread = max(float(np.max(np.abs(e1 - e2)))
                 for e1, e2 in itertools.combinations(ends, 2))
    assert spread <= 1e-6

    built = build_pde_symmetry_system(flat)
    own = curvature_residual(built.system)
    assert own.exact and own.max_abs == 0.0

    # the bracket and jet-prolongation oracles must agree pointwise even
    # on candidates that are far from being symmetries
    rng = random.Random(5)
    worst_gap = 0.0
    t1 = parse("t1", ("t1", "t2"))
    for i in range(5):
        lam = [Fraction(rng.randint(1, 3), rng.randint(1, 2))
               for _ in range(2)]
        kv = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) or Fraction(1)
              for _ in range(3)]
        rows = tuple(tuple(str(ka * lv) for lv in lam) for ka in kv)
        sysm = make("partial_riccati", coeffs=rows).system
        assert curvature_residual(sysm).exact, i
        cand = PDESymmetryCandidate.closed((Expr.one(), Expr.zero(), t1),
                                           times=sysm.times)
        rep = pde_symmetry_residual(cand, sysm, nx=10, seed=i)
        assert rep.max_abs > 1.0  # deliberately a non-symmetry
        assert rep.oracle_gap is not None and rep.oracle_gap <= 1e-9, i
        worst_gap = max(worst_gap, rep.oracle_gap)

    bad = make("partial_riccati",
               coeffs=(("1", "2"), ("1/2", "1"), ("-1/3", "-1/6"))).system
    bad_curv = curvature_residual(bad)
    assert bad_curv.max_abs >= 1e-3
    with pytest.raises(NotIntegrable):
        build_pde_symmetry_system(bad)
    verdict(8, True,
            f"3-path spread {spread:.1e}, dual-oracle gap {worst_gap:.1e}, "
            f"control curvature {bad_curv.max_abs:.2f}")


def test_criterion_09_integrator_convergence():
    sysm = make("aff_generic", a="0", b="1").system  # dx/dt = x
    errs = []
    for step in (0.1, 0.05):
        traj = integrate(sysm, (1.0,), (0.0, 1.0), step)
        errs.append(abs(traj.states[-1, 0] - math.e))
    ratio = errs[0] / errs[1]
    verdict(9, 12.0 <= ratio <= 20.0,
            f"error ratio {ratio:.2f} under step halving")


def test_criterion_10_flow_transport():
    entry = make("dbh")
    sysm = replace(entry.system, state_box=((1.0, 2.0),) * 3)
    traj = integrate(sysm, (1.2, 1.6, 1.9), (0.0, 0.5), 1e-2)
    good = dbh_symmetry_family("b0_zero", lam1=1, lam2=1, lam3=1, t0=1)
    good_rep = flow_transport_check(good, sysm, traj, eps=1e-3)
    assert good_rep.classification == "second_order"
    assert 3.2 <= good_rep.ratio <= 4.8

    corrupted = list(good.f_exprs)
    corrupted[2] = corrupted[2] + Expr.var("t") * Expr.const(Fraction(1, 2))
    bad_rep = flow_transport_check(SymmetryCandidate.closed(corrupted),
                                   sysm, traj, eps=1e-3)
    assert bad_rep.ratio <= 2.6
    verdict(10, bad_rep.classification == "first_order",
            f"genuine family ratio {good_rep.ratio:.2f}, corrupted ratio "
            f"{bad_rep.ratio:.2f} flagged {bad_rep.classification}")


def _cli_suite(cwd, env):
    """Run every subcommand in `cwd`; return (blobs, failure).

    `failure` is None when every child exits 0, otherwise it names the
    first failing command with its return code and stderr, and `blobs`
    stops there.
    """
    cmds = [
        ["list"],
        ["show", "dbh"],
        ["check-algebra", "--catalog", "painleve_ince"],
        ["symmetrize", "--catalog", "dbh", "--f-init", "0,1,0,0",
         "--out", "s.csv"],
        ["verify", "--catalog", "dbh", "--family", "b0_zero"],
        ["integrate", "--catalog", "riccati", "--param", "eta=t",
         "--x0", "0.5", "--out", "x.csv"],
        ["pde", "--catalog", "partial_riccati", "--x0", "0.2",
         "--out", "p.csv", "--report", "p.json"],
    ]
    blobs = []
    for cmd in cmds:
        proc = subprocess.run([sys.executable, "-m", "liesym"] + cmd,
                              cwd=cwd, env=env, capture_output=True)
        if proc.returncode != 0:
            stderr = proc.stderr.decode(errors="replace").strip()
            return blobs, (f"`liesym {' '.join(cmd)}` exited "
                           f"{proc.returncode}: {stderr}")
        blobs.append(proc.stdout)
    for fname in ("s.csv", "s.csv.gp", "x.csv", "x.csv.gp",
                  "p.csv", "p.csv.gp", "p.json"):
        blobs.append((cwd / fname).read_bytes())
    return blobs, None


def test_criterion_11_seeded_cli_determinism(tmp_path, seeded_cli_env):
    runs = []
    for name in ("a", "b"):
        cwd = tmp_path / name
        cwd.mkdir()
        blobs, failure = _cli_suite(cwd, seeded_cli_env)
        if failure is not None:
            verdict(11, False, f"seeded run {name}: {failure}")
        runs.append(blobs)
    verdict(11, runs[0] == runs[1],
            "two seeded runs of all 7 subcommands are byte-identical")
