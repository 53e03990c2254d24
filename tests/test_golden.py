"""Frozen outputs of the numeric oracles and of seeded CLI runs.

The floats below were recorded before the oracles moved from numpy
arrays to float lists, and are compared with ==: a refactor of the
oracles must reproduce every bit.  The CLI golden pins the stdout, exit
code and sha256 of every artifact of seeded runs (LIESYM_SEED=42).
"""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from liesym import make
from liesym.catalog import dbh_symmetry_family
from liesym.expr import Expr
from liesym.liesys import (
    SymmetryCandidate,
    flow_transport_check,
    integrate,
    symmetry_algebra_f0_zero,
)
from liesym.pdesys import (
    TimePath,
    build_pde_symmetry_system,
    integrate_along_path,
    pde_candidate_from_path,
    pde_symmetry_residual,
)

CLI_GOLDEN = Path(__file__).with_name("cli_seeded_golden.json")


def _dbh_candidates():
    good = dbh_symmetry_family("b0_zero", lam1=1, lam2=Fraction(1, 2),
                               lam3=Fraction(1, 3), t0=Fraction(1, 5))
    f = good.f_exprs
    bad = SymmetryCandidate.closed(
        [f[0], f[1], f[2] + Fraction(1, 20) * Expr.var("t"), f[3]])
    return {"true": good, "corrupted": bad}


@pytest.mark.parametrize("which, want", [
    ("true", (4.0, 7.066577778047645e-06, 1.7666444445119112e-06)),
    ("corrupted", (2.079818313154396, 9.206657777793836e-05,
                   4.4266644444679315e-05)),
])
def test_dbh_flow_transport_is_frozen(which, want):
    sys_ = make("dbh").system
    traj = integrate(sys_, [1.3, 1.7, 1.1], (0.0, 1.0), 1e-3)
    rep = flow_transport_check(_dbh_candidates()[which], sys_, traj, eps=1e-3)
    assert (rep.ratio, rep.defect_eps, rep.defect_half) == want


def test_kummer_schwarz_flow_transport_is_frozen():
    entry = make("kummer_schwarz", eta="1 + t")
    traj = integrate(entry.system, [0.6, 0.3], (0.0, 0.5), 1e-3)
    rep = flow_transport_check(entry.families[0].candidate, entry.system,
                               traj, eps=1e-3)
    assert (rep.ratio, rep.defect_eps, rep.defect_half) == (
        3.9970697613209896, 3.380609918668398e-06, 8.457720581667161e-07)
    assert rep.classification == "second_order"


@pytest.mark.parametrize("name, params, want", [
    ("riccati", {"eta": "t"}, 7.936845625167166e-12),
    ("quaternionic", {"b1": "1", "b2": "t", "b3": "1 - t^2"},
     1.0632117408704289e-10),
    ("painleve_ince", {}, 1.2434497875801753e-14),
])
def test_f0_zero_closure_is_frozen(name, params, want):
    rep = symmetry_algebra_f0_zero(make(name, **params).system, (0.0, 0.5),
                                   step=1e-2, nx=6)
    assert rep.max_residual == want
    assert rep.sample_times == (0.0, 0.11999999999999998, 0.25000000000000006,
                                0.37000000000000016, 0.5)


def test_three_time_sampled_residual_is_frozen():
    sys3 = make("partial_riccati", times="t1,t2,t3").system
    built = build_pde_symmetry_system(sys3)
    path = TimePath(((0.0, 0.0, 0.0), (0.5, 0.25, 0.0), (1.0, 0.5, 0.75)),
                    steps=40)
    traj = integrate_along_path(built.system, [1.0, 0.5, -0.25], path)
    cand = pde_candidate_from_path(built, traj, path)
    rep = pde_symmetry_residual(cand, sys3, nt=10, nx=5)
    assert (rep.max_abs, rep.npoints) == (5.329070518200751e-15, 55)


# -- seeded CLI runs ------------------------------------------------------------

CLI_RUNS = [
    ["integrate", "--catalog", "riccati", "--param", "eta=t", "--x0", "0.5",
     "--out", "i.csv"],
    ["integrate", "--catalog", "kummer_schwarz", "--param", "eta=1+t",
     "--x0", "0.6,0.3", "--t-span", "0:0.5", "--out", "k.csv"],
    ["symmetrize", "--catalog", "dbh", "--f-init", "0,1,0,0",
     "--out", "s1.csv"],
    ["symmetrize", "--catalog", "dbh", "--b0", "t", "--f-init", "0,1,0,0",
     "--out", "s2.csv"],
    ["symmetrize", "--catalog", "painleve_ince", "--step", "1e-2",
     "--f-init", "1,0,1,0,0,0,1,0,0", "--out", "s3.csv"],
    ["symmetrize", "--catalog", "kummer_schwarz", "--param", "eta=1+t",
     "--f-init", "1,1,0,1", "--out", "s4.csv"],
    ["verify", "--catalog", "dbh", "--family", "b0_zero"],
    ["verify", "--catalog", "painleve_ince", "--family", "commuting_generator"],
    ["verify", "--catalog", "kummer_schwarz", "--param", "eta=1+t",
     "--family", "drift_rescaling"],
    ["pde", "--catalog", "partial_riccati", "--x0", "0.2",
     "--out", "p2.csv", "--report", "p2.json"],
    ["pde", "--catalog", "partial_riccati", "--param", "times=t1,t2,t3",
     "--x0", "0.2", "--out", "p3.csv", "--report", "p3.json"],
]


def run_seeded(argv, cwd, env) -> dict:
    """Exit code, stdout and the sha256 of each file a run writes in cwd."""
    before = set(cwd.iterdir())
    proc = subprocess.run([sys.executable, "-m", "liesym"] + argv, cwd=cwd,
                          env=env, capture_output=True, text=True)
    made = sorted(set(cwd.iterdir()) - before)
    return {"argv": argv, "exit": proc.returncode, "stdout": proc.stdout,
            "artifacts": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                          for p in made}}


def test_seeded_cli_runs_match_the_golden(tmp_path, seeded_cli_env):
    want = json.loads(CLI_GOLDEN.read_text(encoding="utf-8"))
    assert [w["argv"] for w in want] == CLI_RUNS
    for expected in want:
        assert run_seeded(expected["argv"], tmp_path,
                          seeded_cli_env) == expected
