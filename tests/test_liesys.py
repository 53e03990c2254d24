"""Symmetry-system construction checked against hand-derived right-hand
sides, closed-form symmetry families, and the bracket oracles."""

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liesym import make, names
from liesym.errors import (
    BadParams,
    DependentBasis,
    DimensionMismatch,
    GridEmpty,
    MissingDerivative,
    PoleEncountered,
    StepNotPositive,
)
from liesym.expr import Expr, OpaqueFunction, ZeroStatus
from liesym.liealg import (
    LieAlgebraBasis,
    StructureTensor,
    extract_structure_constants,
    match_in_span,
    transform_tensor,
)
from liesym.liesys import (
    LieSystem,
    SymmetryCandidate,
    _fold_coefficients,
    _fold_generators,
    _sample_states,
    _suspended_bracket,
    aff_closed_form,
    build_symmetry_system,
    candidate_bracket,
    candidate_from_trajectory,
    flow_transport_check,
    function_bracket,
    integrate,
    riccati_f3_ode_residual,
    symmetry_algebra_f0_zero,
    symmetry_residual,
    symmetry_system_basis,
    vertical_symmetry_dimension,
)
from liesym.pdesys import (
    PDELieSystem,
    build_pde_symmetry_system,
    pde_symmetry_basis,
)
from liesym.vectorfield import VectorField, lie_bracket


def opaque(name: str, depth: int = 1) -> OpaqueFunction:
    """An opaque function with a derivative chain of the given depth."""
    fn = OpaqueFunction(name + "'" * depth)
    for k in range(depth - 1, -1, -1):
        fn = OpaqueFunction(name + "'" * k, derivative=fn)
    return fn


X = ("x",)
F4 = ("f0", "f1", "f2", "f3")


def sl2_line_fields():
    x = Expr.var("x")
    return [VectorField(X, [1]), VectorField(X, [x]), VectorField(X, [x * x])]


def sl2_tensor():
    return StructureTensor.from_triples(
        3, [[1, 2, 1, "1"], [1, 3, 2, "2"], [2, 3, 3, "1"]])


def dbh_fields(a1sq=0, a2sq=0, a3sq=0):
    w = [Expr.var(n) for n in ("w1", "w2", "w3")]
    tau2 = (Expr.const(a1sq) * (w[0] - w[1]) * (w[2] - w[0])
            + Expr.const(a2sq) * (w[1] - w[2]) * (w[0] - w[1])
            + Expr.const(a3sq) * (w[2] - w[0]) * (w[1] - w[2]))
    names = ("w1", "w2", "w3")

    def third(i, j, k):
        return w[i] * (w[j] + w[k]) - w[j] * w[k] - tau2

    return [
        VectorField(names, [1, 1, 1]),
        VectorField(names, w),
        VectorField(names, [third(0, 1, 2), third(1, 2, 0), third(2, 0, 1)]),
    ]


def dbh_system(gauge=0, a1sq=0, a2sq=0, a3sq=0):
    algebra = LieAlgebraBasis(dbh_fields(a1sq, a2sq, a3sq))
    return LieSystem(algebra, (0, 0, -1), gauge=gauge,
                     state_box=((1.0, 2.0),) * 3, name="dbh")


def dbh_family(kind, t0, l1, l2, l3, c0=0):
    """The three closed-form symmetry families of the dbh system."""
    t = Expr.var("t")
    f1 = Expr.const(l1)
    f2 = -2 * l1 * t + l2
    if kind == "b0_zero":
        f0 = Expr.const(t0)
        f3 = l1 * t * t - l2 * t + l3
    elif kind == "b0_const":
        f0 = c0 * t + t0
        f3 = l1 * t * t - (l2 + c0) * t + l3
    elif kind == "b0_linear":
        f0 = t0 + Fraction(c0, 2) * t * t
        f3 = l1 * t * t - l2 * t - Fraction(c0, 2) * t * t + l3
    else:
        raise ValueError(kind)
    return SymmetryCandidate.closed([f0, f1, f2, f3])


# -- construction against hand-written right-hand sides ---------------------


def assert_expr_zero(e: Expr):
    assert e.is_zero() is ZeroStatus.ZERO, str(e)


def test_sl2_symmetry_system_generic_coefficients():
    # dx/dt = b1 X1 + b2 X2 + b3 X3 on the projective realization; the
    # coefficient system of its symmetries, written out by hand:
    #   f0' = b0
    #   f1' = f0 b1' + b1 b0 + b2 f1 - b1 f2
    #   f2' = f0 b2' + b2 b0 + 2 b3 f1 - 2 b1 f3
    #   f3' = f0 b3' + b3 b0 + b3 f2 - b2 f3
    b = [Expr.opaque(opaque(n), "t") for n in ("b1", "b2", "b3")]
    db = [e.diff("t") for e in b]
    b0 = Expr.opaque(opaque("b0", depth=0), "t")
    f = [Expr.var(n) for n in F4]

    algebra = LieAlgebraBasis(sl2_line_fields())
    sys = LieSystem(algebra, tuple(b), gauge=b0)
    built = build_symmetry_system(sys)
    got = built.system.drift_field().components

    expected = [
        b0,
        f[0] * db[0] + b[0] * b0 + b[1] * f[1] - b[0] * f[2],
        f[0] * db[1] + b[1] * b0 + 2 * b[2] * f[1] - 2 * b[0] * f[3],
        f[0] * db[2] + b[2] * b0 + b[2] * f[2] - b[1] * f[3],
    ]
    assert built.system.vars == F4
    for g, e in zip(got, expected):
        assert_expr_zero(g - e)


def test_riccati_symmetry_system():
    # dx/dt = eta(t) + x^2: coefficients (eta, 0, 1), so the symmetry
    # system collapses to
    #   f0' = b0, f1' = f0 eta' - eta f2 + b0 eta,
    #   f2' = 2 f1 - 2 eta f3, f3' = f2 + b0
    eta = Expr.opaque(opaque("eta"), "t")
    b0 = Expr.opaque(opaque("b0", depth=0), "t")
    f = [Expr.var(n) for n in F4]

    algebra = LieAlgebraBasis(sl2_line_fields())
    sys = LieSystem(algebra, (eta, 0, 1), gauge=b0)
    got = build_symmetry_system(sys).system.drift_field().components

    expected = [
        b0,
        f[0] * eta.diff("t") - eta * f[2] + b0 * eta,
        2 * f[1] - 2 * eta * f[3],
        f[2] + b0,
    ]
    for g, e in zip(got, expected):
        assert_expr_zero(g - e)


def test_affine_symmetry_system():
    # dx/dt = a(t) + b(t) x:  f0' = b0, f1' = f0 a' + a b0 + b f1 - a f2,
    # f2' = f0 b' + b b0
    x = Expr.var("x")
    a = Expr.opaque(opaque("a"), "t")
    b = Expr.opaque(opaque("b"), "t")
    b0 = Expr.opaque(opaque("b0", depth=0), "t")
    f = [Expr.var(n) for n in ("f0", "f1", "f2")]

    algebra = LieAlgebraBasis([VectorField(X, [1]), VectorField(X, [x])])
    sys = LieSystem(algebra, (a, b), gauge=b0)
    got = build_symmetry_system(sys).system.drift_field().components

    expected = [
        b0,
        f[0] * a.diff("t") + a * b0 + b * f[1] - a * f[2],
        f[0] * b.diff("t") + b * b0,
    ]
    for g, e in zip(got, expected):
        assert_expr_zero(g - e)


def test_symmetry_basis_bracket_table():
    # frozen commutators of the generating fields on (f0..f3) for the
    # sl(2) structure constants
    z, w, y = symmetry_system_basis(sl2_tensor())

    def is_(a, b):
        assert (a - b).is_zero() is ZeroStatus.ZERO

    zero = VectorField(F4, [0, 0, 0, 0])
    for i in range(4):
        for j in range(4):
            is_(lie_bracket(z[i], z[j]), zero)
    for i in range(3):
        for j in range(3):
            is_(lie_bracket(w[i], w[j]), zero)
    for j in range(3):
        is_(lie_bracket(z[0], w[j]), z[j + 1])
        for i in range(3):
            is_(lie_bracket(z[i + 1], w[j]), zero)

    table = {(0, 1): [(1, 0)], (0, 2): [(2, 1)], (1, 0): [(-1, 0)],
             (1, 2): [(1, 2)], (2, 0): [(-2, 1)], (2, 1): [(-1, 2)]}
    for (a, j), combo in table.items():
        expect_z = zero
        expect_w = zero
        for coef, k in combo:
            expect_z = expect_z + Expr.const(coef) * z[k + 1]
            expect_w = expect_w + Expr.const(coef) * w[k]
        is_(lie_bracket(y[a], z[j + 1]), expect_z)
        is_(lie_bracket(y[a], w[j]), expect_w)
    # the y fields close like the original algebra
    is_(lie_bracket(y[0], y[1]), y[0])
    is_(lie_bracket(y[0], y[2]), 2 * y[1])
    is_(lie_bracket(y[1], y[2]), y[2])


def test_built_algebra_dimension():
    # dim = (r + 1) + r + (r - dim center)
    eta = Expr.opaque(opaque("eta"), "t")
    algebra = LieAlgebraBasis(sl2_line_fields())
    sys = LieSystem(algebra, (eta, 0, 1))
    assert build_symmetry_system(sys).system.r == 10

    x = Expr.var("x")
    aff = LieAlgebraBasis([VectorField(X, [1]), VectorField(X, [x])])
    assert build_symmetry_system(LieSystem(aff, (eta, 1))).system.r == 7


def reference_fold(y_fields, rows):
    """Fold on the fields themselves: match each nonzero Y against the
    kept ones by exact monomial coefficients."""
    kept, kept_rows = [], []
    for y, row in zip(y_fields, rows):
        if y.is_zero() is ZeroStatus.ZERO:
            continue
        combo = match_in_span(kept, y) if kept else None
        if combo is None:
            kept.append(y)
            kept_rows.append(list(row))
            continue
        for j, c in enumerate(combo):
            if c:
                kept_rows[j] = [k + Expr.const(c) * e
                                for k, e in zip(kept_rows[j], row)]
    return kept, kept_rows


def fold_tensors():
    """Catalog tensors, Heisenberg, abelian, aff + line, and seeded
    rational conjugates of each small one."""
    tensors = {n: make(n).expected for n in names()}
    tensors["heisenberg"] = StructureTensor.from_triples(3, [[1, 2, 3, "1"]])
    tensors["abelian"] = StructureTensor(3, {})
    tensors["aff_plus_line"] = StructureTensor.from_triples(3, [[1, 2, 1, "1"]])
    rng = random.Random(11)
    for name in ("riccati", "heisenberg", "abelian", "aff_plus_line"):
        base = tensors[name]
        for k in range(3):
            while True:
                mat = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                        for _ in range(base.r)] for _ in range(base.r)]
                try:
                    tensors[f"{name}_conj{k}"] = transform_tensor(base, mat)
                    break
                except DependentBasis:
                    continue
    return tensors


def test_fold_on_coefficient_rows_matches_the_field_fold():
    t = Expr.var("t")
    folded = 0
    for name, tensor in fold_tensors().items():
        rows = [[t ** (a + 1), Expr.const(a + 2) * t] for a in range(tensor.r)]
        for y_fields in (symmetry_system_basis(tensor)[2],
                         pde_symmetry_basis(tensor)):
            want = reference_fold(y_fields, rows)
            combos = _fold_coefficients(tensor)
            assert _fold_generators(combos, y_fields, rows) == want, name
            # the kept fields of the reference fold span the Y fields
            assert len(want[0]) == vertical_symmetry_dimension(tensor), name
        folded += 0 < len(want[0]) < tensor.r
    assert folded >= 6  # the Heisenberg and aff + line families fold


def tensor_carrier(tensor: StructureTensor, method: str = "exact"):
    """A basis carrying the given tensor over r unit fields.  The builders
    read only its tensor, method, size and coordinates, never the
    brackets of its fields."""
    names = tuple(f"p{i}" for i in range(tensor.r))
    fields = [VectorField(names, [int(i == j) for i in range(tensor.r)])
              for j in range(tensor.r)]
    return LieAlgebraBasis._known(fields, tensor, method)


def built_algebras(algebra):
    """The symmetry-system bases both builders make from one algebra."""
    t = Expr.var("t")
    single = build_symmetry_system(LieSystem(algebra, [t] * algebra.r))
    multi = build_pde_symmetry_system(PDELieSystem(algebra, [[0, 0]] * algebra.r))
    return single.system.algebra, multi.system.algebra


def test_derived_tensors_equal_extraction():
    folded = 0
    for name, tensor in fold_tensors().items():
        single, multi = built_algebras(tensor_carrier(tensor))
        for built in (single, multi):
            want = extract_structure_constants(built.fields)
            assert (built.tensor, built.method) == want, name
        folded += multi.r < tensor.r
    assert folded >= 6  # the Heisenberg and aff + line families fold


def test_one_rref_per_extraction_and_per_fold(monkeypatch):
    from liesym import liealg, rlinalg

    rref_calls = []
    real_rref = rlinalg.rref

    def counting_rref(rows):
        rref_calls.append(len(rows))
        return real_rref(rows)

    def unused(*args):
        raise AssertionError("not on the one-reduction path")

    monkeypatch.setattr(rlinalg, "rref", counting_rref)
    for name in ("match_in_span", "field_rank"):
        monkeypatch.setattr(liealg, name, unused)
    monkeypatch.setattr(rlinalg, "solve", unused)
    entry = make("painleve_ince")
    rref_calls.clear()
    assert extract_structure_constants(entry.system.algebra.fields) == (
        entry.expected, "exact")
    assert len(rref_calls) == 1
    for name, tensor in fold_tensors().items():
        rref_calls.clear()
        _fold_coefficients(tensor)
        assert len(rref_calls) == 1, name


def test_numerical_source_gives_numerical_symmetry_systems():
    msin = OpaqueFunction("msinx", lambda v: -math.sin(v))
    cosf = OpaqueFunction("cosx", math.cos, msin)
    sinf = OpaqueFunction("sinx", math.sin, cosf)
    trig = LieAlgebraBasis([VectorField(X, [Expr.opaque(sinf, "x")]),
                            VectorField(X, [Expr.opaque(cosf, "x")]),
                            VectorField(X, [1])])
    assert trig.method == "numerical"
    for built in built_algebras(trig):
        assert built.method == "numerical"
        # the fields themselves are rational, so extraction calls it exact
        assert extract_structure_constants(built.fields) == (built.tensor, "exact")
    for built in built_algebras(LieAlgebraBasis(sl2_line_fields())):
        assert built.method == "exact"


def test_builders_do_not_extract(monkeypatch):
    import liesym.liealg

    single = make("painleve_ince").system
    multi = make("partial_riccati").system
    calls = []
    real = liesym.liealg.extract_structure_constants

    def counting(fields):
        calls.append(fields)
        return real(fields)

    monkeypatch.setattr(liesym.liealg, "extract_structure_constants", counting)
    assert build_symmetry_system(single).system.r == 2 * 8 + 1 + 8
    build_pde_symmetry_system(multi)
    assert calls == []
    LieAlgebraBasis(sl2_line_fields())  # the public constructor still extracts
    assert len(calls) == 1


def test_sample_states_are_seeded_and_inside_the_box():
    box = ((-2.0, 2.0), (0.5, 1.5), (3.0, 3.25))
    pts = _sample_states(box, 50, 7)
    assert pts == _sample_states(box, 50, 7)
    assert pts != _sample_states(box, 50, 8)
    assert len(pts) == 50 and all(len(p) == 3 for p in pts)
    assert all(lo <= v <= hi for p in pts for v, (lo, hi) in zip(p, box))


def test_vertical_symmetry_dimension():
    assert vertical_symmetry_dimension(sl2_tensor()) == 3
    heis = StructureTensor.from_triples(3, [[1, 2, 3, "1"]])
    assert vertical_symmetry_dimension(heis) == 2
    abelian = StructureTensor(3, {})
    assert vertical_symmetry_dimension(abelian) == 0
    aff = StructureTensor.from_triples(2, [[1, 2, 1, "1"]])
    assert vertical_symmetry_dimension(aff) == 2


def test_dependent_vertical_fields_are_folded():
    # a Heisenberg presentation whose central direction e1 + e3 is not a
    # basis vector: two of the three vertical generators coincide, and
    # the construction folds the duplicate without changing the drift
    tensor = StructureTensor.from_triples(
        3, [[1, 2, 1, "-1"], [1, 2, 3, "1"], [2, 3, 1, "1"], [2, 3, 3, "-1"]])
    p1 = Expr.var("p1")
    names = ("p1", "p2", "p3")
    fields = [
        VectorField(names, [1, 0, 0]),
        VectorField(names, [0, 1, p1]),
        VectorField(names, [1, 0, 1]),
    ]
    # check the presentation really has that tensor before using it
    algebra = LieAlgebraBasis(fields)
    assert algebra.tensor == tensor

    t = Expr.var("t")
    coeffs = (t, Expr.const(1), t * t)
    sys = LieSystem(algebra, coeffs, gauge=Expr.const(2))
    built = build_symmetry_system(sys)
    assert built.system.r == (3 + 1) + 3 + 2

    f = [Expr.var(n) for n in F4]
    got = built.system.drift_field().components
    for a in range(3):
        e = f[0] * coeffs[a].diff("t") + coeffs[a] * Expr.const(2)
        for be in range(3):
            for ga in range(3):
                c = tensor.c(ga, be, a)
                if c:
                    e = e + Expr.const(c) * coeffs[be] * f[ga + 1]
        assert_expr_zero(got[a + 1] - e)


def test_rhs_depends_only_on_tensor_and_coefficients():
    # two different realizations of the same algebra produce literally
    # identical symmetry systems
    t = Expr.var("t")
    coeffs = (t, 1 - t * t, Expr.const(1))
    sys_a = LieSystem(LieAlgebraBasis(sl2_line_fields()), coeffs)
    sys_b = LieSystem(LieAlgebraBasis(dbh_fields()), coeffs)
    assert sys_a.algebra.tensor == sys_b.algebra.tensor
    got_a = [str(e) for e in build_symmetry_system(sys_a).system.drift_field().components]
    got_b = [str(e) for e in build_symmetry_system(sys_b).system.drift_field().components]
    assert got_a == got_b


# -- closed-form families and the residual oracle ---------------------------


def test_dbh_families_exact():
    cases = [
        ("b0_zero", 0, dict(t0=Fraction(1, 5), l1=1, l2=Fraction(1, 2), l3=Fraction(1, 3))),
        ("b0_const", Expr.const(Fraction(2, 7)), dict(t0=1, l1=2, l2=3, l3=4, c0=Fraction(2, 7))),
        ("b0_linear", Fraction(3, 5) * Expr.var("t"), dict(t0=2, l1=1, l2=0, l3=5, c0=Fraction(3, 5))),
    ]
    for kind, gauge, params in cases:
        sys = dbh_system(gauge=gauge, a1sq=Fraction(1, 4), a2sq=0, a3sq=1)
        cand = dbh_family(kind, **params)
        report = symmetry_residual(cand, sys)
        assert report.exact and report.max_abs == 0.0, kind


def test_dbh_family_numeric_grid():
    sys = dbh_system()
    cand = dbh_family("b0_zero", t0=Fraction(1, 5), l1=1, l2=Fraction(1, 2), l3=2)
    ts = np.linspace(0.0, 1.0, 20)
    vals, dvals = cand.channels_at(ts)
    sampled = SymmetryCandidate.sampled(ts, vals, dvals)
    report = symmetry_residual(sampled, sys, nt=20, nx=20, seed=3)
    assert not report.exact
    assert report.max_abs <= 1e-9
    assert report.npoints == 400


def test_corrupted_candidate_is_flagged():
    sys = dbh_system()
    t = Expr.var("t")
    good = dbh_family("b0_zero", t0=0, l1=1, l2=0, l3=0)
    bad = SymmetryCandidate.closed([
        good.f_exprs[0], good.f_exprs[1],
        good.f_exprs[2] + Fraction(1, 20) * t, good.f_exprs[3]])
    report = symmetry_residual(bad, sys, nt=10, nx=10)
    assert not report.exact
    assert report.max_abs >= 1e-3


def test_gauge_mismatch_detected():
    sys = dbh_system(gauge=1)  # family below has f0' = 0
    cand = dbh_family("b0_zero", t0=1, l1=1, l2=0, l3=0)
    assert symmetry_residual(cand, sys).max_abs >= 0.9
    assert symmetry_residual(cand, sys, check_gauge=False).exact


def test_integrated_symmetry_matches_closed_family():
    # integrate the built symmetry system from the family's value at 0
    # and compare with the closed form at the far end
    l1, l2, l3, t0 = 1.0, 0.5, 1.0 / 3.0, 0.2
    sys = dbh_system()
    built = build_symmetry_system(sys)
    traj = integrate(built.system, [t0, l1, l2, l3], (0.0, 1.0), 1e-3)
    f_end = traj.states[-1]
    assert abs(f_end[0] - t0) < 1e-10
    assert abs(f_end[1] - l1) < 1e-10
    assert abs(f_end[2] - (-2 * l1 + l2)) < 1e-10
    assert abs(f_end[3] - (l1 - l2 + l3)) < 1e-10

    cand = candidate_from_trajectory(built, traj)
    report = symmetry_residual(cand, sys, nt=25, nx=10, seed=1)
    assert report.max_abs <= 1e-9


def test_candidate_bracket_of_symmetries_is_symmetry():
    tensor = sl2_tensor()
    ya = dbh_family("b0_zero", t0=0, l1=1, l2=0, l3=0)
    yb = dbh_family("b0_const", t0=0, l1=0, l2=1, l3=0, c0=1)
    yc = candidate_bracket(ya, yb, tensor)
    # hand computation: [ya, yb] reproduces ya itself
    for got, want in zip(yc.f_exprs, ya.f_exprs):
        assert_expr_zero(got - want)
    report = symmetry_residual(yc, dbh_system())
    assert report.exact


@pytest.mark.parametrize("other", [(1, 0, 0, 0, 1), (1, 0, 0)])
def test_candidate_bracket_rejects_candidates_of_wrong_shape(other):
    # unchecked, four and five channels bracket to zeros and four and
    # three raise IndexError
    ya = SymmetryCandidate.closed([1, 0, 0, 0])
    with pytest.raises(DimensionMismatch):
        candidate_bracket(ya, SymmetryCandidate.closed(other), sl2_tensor())


@pytest.mark.parametrize("sampled", [(0,), (1,), (0, 1)],
                         ids=["first", "second", "both"])
def test_candidate_bracket_with_a_sampled_operand_is_missing_derivative(sampled):
    # the new derivative channel needs second derivatives, which a
    # sampled candidate does not carry
    t = Expr.var("t")
    closed = SymmetryCandidate.closed([t, t * t, 1 + t, Expr.const(2)])
    ts = np.linspace(0.0, 1.0, 7)
    ops = [SymmetryCandidate.sampled(ts, *closed.channels_at(ts))
           if i in sampled else closed for i in range(2)]
    with pytest.raises(MissingDerivative):
        candidate_bracket(*ops, sl2_tensor())


def test_function_bracket():
    t = Expr.var("t")
    assert_expr_zero(function_bracket(t, t * t) - t * t)
    # antisymmetry and Jacobi on polynomials
    a, b, c = t, 1 + t * t, t * t * t - 2
    assert_expr_zero(function_bracket(a, b) + function_bracket(b, a))
    jac = (function_bracket(a, function_bracket(b, c))
           + function_bracket(b, function_bracket(c, a))
           + function_bracket(c, function_bracket(a, b)))
    assert_expr_zero(jac)


# -- flow transport -----------------------------------------------------------


def dbh_transport_setup():
    sys = dbh_system()
    cand = dbh_family("b0_zero", t0=Fraction(1, 5), l1=1, l2=Fraction(1, 2),
                      l3=Fraction(1, 3))
    traj = integrate(sys, [1.3, 1.7, 1.1], (0.0, 1.0), 1e-3)
    return sys, cand, traj


def test_flow_transport_true_symmetry():
    sys, cand, traj = dbh_transport_setup()
    report = flow_transport_check(cand, sys, traj, eps=1e-3)
    assert report.classification == "second_order"
    assert 3.2 <= report.ratio <= 4.8


def test_flow_transport_corrupted():
    sys, cand, traj = dbh_transport_setup()
    t = Expr.var("t")
    bad = SymmetryCandidate.closed([
        cand.f_exprs[0], cand.f_exprs[1],
        cand.f_exprs[2] + Fraction(1, 20) * t, cand.f_exprs[3]])
    report = flow_transport_check(bad, sys, traj, eps=1e-3)
    assert report.classification == "first_order"
    assert report.ratio <= 2.6


def test_flow_transport_zero_candidate():
    sys, _, traj = dbh_transport_setup()
    zero = SymmetryCandidate.closed([0, 0, 0, 0])
    report = flow_transport_check(zero, sys, traj)
    assert report.classification == "exact"


def test_flow_transport_nan_derivatives_are_never_exact():
    # a NaN that dropped out of the running max would leave both defects
    # at 0.0 and classify the candidate as exact
    sys, cand, traj = dbh_transport_setup()
    vals, _ = cand.channels_at(traj.ts)
    blind = SymmetryCandidate.sampled(traj.ts, vals, np.full_like(vals, np.nan))
    report = flow_transport_check(blind, sys, traj)
    assert report.defect_eps == report.defect_half == math.inf
    assert report.classification not in ("exact", "second_order")


def test_flow_transport_compiles_each_kernel_once(monkeypatch):
    import liesym.liesys

    sys, cand, traj = dbh_transport_setup()
    calls = []
    real = liesym.liesys.compile_numeric
    monkeypatch.setattr(liesym.liesys, "compile_numeric",
                        lambda es, order: calls.append(es) or real(es, order))
    flow_transport_check(cand, sys, traj)
    # the drift, the basis and the drift applied to the basis together,
    # the candidate values and derivatives together, then the drift alone
    # for the transported points
    assert len(calls) == 3


@pytest.mark.parametrize("time, var", [("t,u", "x"), ("t", "x y"),
                                       (" t", "x"), ("t", "")])
def test_system_names_must_be_identifiers(time, var):
    # a name with a comma or a space breaks the CSV header
    x = Expr.var("x")
    fields = [VectorField((var,), [c]) for c in (1, x, x * x)]
    with pytest.raises(BadParams, match="names must be identifiers"):
        LieSystem(LieAlgebraBasis(fields), (0, 0, 1), time=time)
    with pytest.raises(BadParams, match="names must be identifiers"):
        PDELieSystem(LieAlgebraBasis(sl2_line_fields()),
                     ((1, 1), (0, 0), (0, 0)), times=(time, var))
    with pytest.raises(BadParams, match="names must be identifiers"):
        make("partial_riccati", times=(time, var))


def test_candidates_in_another_time_symbol_are_refused():
    # the closed check read the s of a candidate in s as a constant, so
    # this non-symmetry (it FAILs when written in t) passed exactly
    sys = make("painleve_ince").system
    cand = SymmetryCandidate.closed([0] * 6 + [Expr.var("s"), 0, 0], time="s")
    other = re.escape("candidate over times ('s',), system has ('t',)")
    with pytest.raises(DimensionMismatch, match=other):
        symmetry_residual(cand, sys)
    traj = integrate(sys, [0.1, 0.2], (0.0, 0.1), 1e-2)
    with pytest.raises(DimensionMismatch, match=other):
        flow_transport_check(cand, sys, traj)
    zero = SymmetryCandidate.closed([0] * 9)
    with pytest.raises(DimensionMismatch, match=other):
        candidate_bracket(zero, cand, sys.algebra.tensor)


@pytest.mark.parametrize("channels", [(1, 0, 0, 0, 5), (1, 0, 0)])
def test_flow_transport_rejects_candidate_of_wrong_shape(channels):
    # unchecked, five channels on dbh read as exact and three raise IndexError
    sys, _, traj = dbh_transport_setup()
    with pytest.raises(DimensionMismatch):
        flow_transport_check(SymmetryCandidate.closed(channels), sys, traj)


@pytest.mark.parametrize("eps", [0.0, -1e-3, math.nan, math.inf])
def test_flow_transport_rejects_eps_that_is_not_finite_and_positive(eps):
    # with eps = 0 both defects vanish, so a non-symmetry would read as exact
    sys, cand, traj = dbh_transport_setup()
    f = list(cand.f_exprs)
    f[2] = f[2] + Fraction(1, 2) * Expr.var("t")
    bad = SymmetryCandidate.closed(f)
    assert symmetry_residual(bad, sys, nt=5, nx=5).max_abs > 1.0
    with pytest.raises(BadParams):
        flow_transport_check(bad, sys, traj, eps=eps)


# -- reduced flow with f0 = 0 -------------------------------------------------


def test_symmetry_algebra_f0_zero_riccati():
    t = Expr.var("t")
    algebra = LieAlgebraBasis(sl2_line_fields())
    sys = LieSystem(algebra, (t, 0, 1), state_box=((0.25, 1.75),))
    report = symmetry_algebra_f0_zero(sys, (0.0, 1.0), step=1e-3, nx=8)
    assert report.max_residual < 1e-8
    assert len(report.trajectories) == 3


def test_symmetry_algebra_f0_zero_starts_at_unit_vectors_and_samples_five_times():
    sys = LieSystem(LieAlgebraBasis(sl2_line_fields()), (Expr.var("t"), 0, 1))
    report = symmetry_algebra_f0_zero(sys, (0.0, 1.0), step=1e-2, nx=4)
    assert [traj.states[0].tolist() for traj in report.trajectories] == [
        [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    assert report.sample_times == pytest.approx((0.0, 0.25, 0.5, 0.75, 1.0))


def test_negative_sampling_seed_is_bad_params():
    zero = SymmetryCandidate.sampled(np.linspace(0.0, 1.0, 5), np.zeros((5, 4)),
                                     np.zeros((5, 4)))
    with pytest.raises(BadParams):
        symmetry_residual(zero, dbh_system(), nt=5, nx=5, seed=-1)


# -- affine quadrature ---------------------------------------------------------


def test_aff_closed_form_constant_coefficients():
    # a = 1, b = 0: f2 = c1, f1 = c2 - c1 t exactly
    cand = aff_closed_form(Expr.const(1), Expr.const(0), k=2, c1=3, c2=5,
                           t_span=(0.0, 1.0), step=1e-2)
    ts = cand.grid
    assert np.max(np.abs(cand.values[:, 0] - 2)) == 0
    assert np.max(np.abs(cand.values[:, 2] - 3)) < 1e-13
    assert np.max(np.abs(cand.values[:, 1] - (5 - 3 * ts))) < 1e-12


def test_aff_closed_form_is_symmetry():
    t = Expr.var("t")
    a, b = t, 2 * t
    x = Expr.var("x")
    algebra = LieAlgebraBasis([VectorField(X, [1]), VectorField(X, [x])])
    sys = LieSystem(algebra, (a, b))
    cand = aff_closed_form(a, b, k=Fraction(1, 2), c1=1, c2=Fraction(-1, 3),
                           t_span=(0.0, 1.0), step=1e-3)
    report = symmetry_residual(cand, sys, nt=25, nx=12, seed=2)
    assert report.max_abs <= 1e-6


def test_aff_closed_form_quadrature_oracle():
    # for a = t, b = 2t the integrating-factor integral collapses:
    # f1(t) = c2 e^{t^2} + k t + (c1/2)(1 - e^{t^2})
    t = Expr.var("t")
    k, c1, c2 = 0.5, 1.0, -1.0 / 3.0
    cand = aff_closed_form(t, 2 * t, k=Fraction(1, 2), c1=1,
                           c2=Fraction(-1, 3), t_span=(0.0, 1.0), step=1e-3)
    ts = cand.grid
    expected = c2 * np.exp(ts ** 2) + k * ts + (c1 / 2) * (1 - np.exp(ts ** 2))
    assert np.max(np.abs(cand.values[:, 1] - expected)) < 1e-7


@pytest.mark.parametrize("step, t_span, error", [
    (0.0, (0.0, 1.0), StepNotPositive),
    (-1e-3, (0.0, 1.0), StepNotPositive),
    (math.nan, (0.0, 1.0), BadParams),
    (math.inf, (0.0, 1.0), BadParams),
    (1e-3, (0.0, math.nan), BadParams),
    (1e-3, (math.inf, 1.0), BadParams),
])
def test_aff_closed_form_checks_step_and_span(step, t_span, error):
    t = Expr.var("t")
    with pytest.raises(error):
        aff_closed_form(t, 2 * t, k=1, c1=0, c2=0, t_span=t_span, step=step)


# -- third-order reduction ------------------------------------------------------


def test_riccati_reduction_power_law_exact():
    # eta = k / (t + 1)^2 with k = 3/16: after t = u^2 - 1 the general
    # solution of the reduced equation is polynomial in u
    u = Expr.var("u")
    t_of_u = u * u - 1
    k = Fraction(3, 16)
    c1, c2, c3 = Fraction(2), Fraction(-1, 3), Fraction(5, 7)
    eta = Expr.const(k) / (u * u * u * u)
    f3 = (Expr.const(-k) * t_of_u + c1 * u * u * u + c2 * u
          + c3 * u * u)
    report = riccati_f3_ode_residual(Expr.const(k), f3, eta, 0,
                                     aux=("u", t_of_u))
    assert report.exact and report.max_abs == 0.0


def test_riccati_reduction_detects_wrong_solution():
    u = Expr.var("u")
    t_of_u = u * u - 1
    k = Fraction(3, 16)
    eta = Expr.const(k) / (u * u * u * u)
    f3 = Expr.const(-k) * t_of_u + u * u * u + u + u * u + Fraction(1, 9)
    report = riccati_f3_ode_residual(Expr.const(k), f3, eta, 0,
                                     aux=("u", t_of_u))
    assert not report.exact
    assert report.max_abs > 1e-3


def test_riccati_reduction_direct_polynomial():
    # eta = t, f0 = f3 = t: f3''' = f0''' = 0 and b0 = 0 leave
    # r = -2 eta' f0 + 2 eta' f3 + 4 eta f3' = -2t + 2t + 4t = 4t,
    # so the maximum over the 19 samples of [0.1, 1] is 4, at t = 1
    t = Expr.var("t")
    report = riccati_f3_ode_residual(t, t, t, 0)
    assert not report.exact and report.npoints == 19
    assert abs(report.max_abs - 4.0) < 1e-12


def test_riccati_reduction_nan_sample_reads_inf():
    t = Expr.var("t")
    gauge = Expr.opaque(OpaqueFunction("nan_gauge", lambda v: math.nan), "t")
    report = riccati_f3_ode_residual(t, t, t, gauge)
    assert report.max_abs == math.inf


def test_riccati_reduction_takes_no_seed():
    # the residual is deterministic; a seed parameter would promise otherwise
    t = Expr.var("t")
    with pytest.raises(TypeError):
        riccati_f3_ode_residual(t, t, t, 0, seed=0)


# -- candidate plumbing ----------------------------------------------------------


def test_candidate_shape_checks():
    ts = np.linspace(0, 1, 5)
    vals = np.zeros((5, 4))
    with pytest.raises(DimensionMismatch):
        SymmetryCandidate.sampled(ts, vals, np.zeros((4, 4)))
    cand = SymmetryCandidate.sampled(ts, vals, np.zeros((5, 4)))
    with pytest.raises(DimensionMismatch):
        cand.channels_at(np.linspace(0, 2, 5))
    sys = dbh_system()
    short = SymmetryCandidate.closed([0, 0, 0])
    with pytest.raises(DimensionMismatch):
        symmetry_residual(short, sys)


def test_directly_built_candidate_checks_channel_shapes():
    with pytest.raises(DimensionMismatch):
        SymmetryCandidate(grid=np.linspace(0, 1, 5), values=np.zeros((2, 4)),
                          dvalues=np.zeros((7, 4)))
    with pytest.raises(DimensionMismatch):
        SymmetryCandidate(grid=np.linspace(0, 1, 5), values=np.zeros(5),
                          dvalues=np.zeros(5))


def test_closed_candidate_compiles_its_channels_once(monkeypatch):
    import liesym.liesys

    compiled = []
    real = liesym.liesys.compile_numeric

    def counting(*args, **kwargs):
        compiled.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(liesym.liesys, "compile_numeric", counting)
    t = Expr.var("t")
    cand = SymmetryCandidate.closed([t, t * t, 1 + t, Expr.const(2)])
    ts = np.linspace(0.0, 1.0, 7)
    vals, dvals = cand.channels_at(ts)
    again, dagain = cand.channels_at(ts[2:5])
    assert len(compiled) == 1
    assert np.array_equal(again, vals[2:5]) and np.array_equal(dagain, dvals[2:5])


@pytest.mark.parametrize("cls, coeffs, clash", [
    (LieSystem, (1, 0, 1), {"time": "x"}),
    (PDELieSystem, ((1, 1), (0, 0), (1, 1)), {"times": ("x", "t2")}),
])
def test_single_and_multi_time_systems_share_their_checks(cls, coeffs, clash):
    algebra = LieAlgebraBasis(sl2_line_fields())
    assert cls(algebra, coeffs).r == 3
    with pytest.raises(DimensionMismatch):
        cls(algebra, coeffs[:2])
    with pytest.raises(DimensionMismatch):
        cls(algebra, coeffs, **clash)
    with pytest.raises(DimensionMismatch):
        cls(algebra, coeffs, state_box=((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(TypeError):
        cls(algebra, coeffs, Expr.zero())


# -- sampling edge cases and input checks ----------------------------------------


def test_non_finite_sampled_candidate_reports_inf():
    sys = dbh_system()
    ts = np.linspace(0.0, 1.0, 20)
    nan = np.full((20, 4), np.nan)
    report = symmetry_residual(SymmetryCandidate.sampled(ts, nan, nan), sys,
                               nt=20, nx=5)
    assert report.max_abs == np.inf


def test_symmetry_algebra_f0_zero_rejects_empty_grids():
    sys = LieSystem(LieAlgebraBasis(sl2_line_fields()), (Expr.var("t"), 0, 1))
    with pytest.raises(GridEmpty):
        symmetry_algebra_f0_zero(sys, step=1e-2, nx=0)


def test_state_box_must_cover_every_state_coordinate():
    algebra = LieAlgebraBasis(sl2_line_fields())
    with pytest.raises(DimensionMismatch):
        LieSystem(algebra, (Expr.var("t"), 0, 1),
                  state_box=((0.0, 1.0), (0.0, 1.0)))


def _central_system():
    # X = (d/dx, d/dy, x d/dy): [X1, X3] = X2 spans the center
    x = Expr.var("x")
    fields = [VectorField(("x", "y"), (1, 0)), VectorField(("x", "y"), (0, 1)),
              VectorField(("x", "y"), (0, x))]
    t = Expr.var("t")
    return LieSystem(LieAlgebraBasis(fields), (1, t, t * t))


@pytest.mark.parametrize("source", ["riccati", "aff_generic", "central"])
def test_single_time_is_the_one_time_case(source):
    if source == "central":
        sys = _central_system()
    elif source == "riccati":
        sys = make("riccati", eta="t").system
    else:
        sys = make("aff_generic", a="t", b="t^2").system
    r = sys.r
    built = build_symmetry_system(sys).system
    one_time = PDELieSystem(sys.algebra, tuple((b,) for b in sys.coeffs),
                            times=(sys.time,))
    built_pde = build_pde_symmetry_system(one_time).system
    y_fields = built.algebra.fields[2 * r + 1:]
    y_coeffs = built.coeffs[2 * r + 1:]
    assert len(y_fields) == built_pde.r
    if source == "central":
        assert built_pde.r == 2
    for y, y_pde in zip(y_fields, built_pde.algebra.fields):
        assert y.components[0].is_zero() is ZeroStatus.ZERO
        assert VectorField(y.vars[1:], y.components[1:]) == y_pde
    assert tuple((c,) for c in y_coeffs) == built_pde.coeffs


def test_overflowing_power_reads_as_pole():
    # x^200 at x = 100 overflows a double; float64 gives inf, a pole at t0
    sys = LieSystem(LieAlgebraBasis([VectorField(("x",), [Expr.var("x") ** 200])]),
                    (1,))
    with pytest.raises(PoleEncountered) as info:
        integrate(sys, [100.0], (0.0, 1.0), 1e-3)
    assert info.value.t == 0.0


# -- the state-space bracket against the joint bracket on (times, x) ------------


def _joint_bracket(x, y, times, l):
    """[d/dt_l + X, Y] on (times, x), Y with zero time components."""
    head = [Expr.zero()] * len(times)
    suspension = VectorField(tuple(times) + x.vars,
                             head[:l] + [Expr.one()] + head[l + 1:]
                             + list(x.components))
    return lie_bracket(suspension,
                       VectorField(suspension.vars, head + list(y.components)))


_FLAT_U = "(t1 + 2*t2)"
_JOINT_SYSTEMS = {
    "riccati": lambda: make("riccati", eta="t").system,
    "dbh": lambda: make("dbh").system,
    "kummer_schwarz": lambda: make("kummer_schwarz", eta="t").system,
    "painleve_ince": lambda: make("painleve_ince").system,
    # time-dependent and flat: proportional columns in one profile of u
    "partial_riccati": lambda: make("partial_riccati", coeffs=[
        [_FLAT_U, f"2*{_FLAT_U}"], ["1/4", "1/2"],
        [f"-{_FLAT_U}^2/3", f"-2*{_FLAT_U}^2/3"]]).system,
}


@st.composite
def _joint_case(draw):
    """A system and r + 1 entries: polynomials of degree <= 2 in its time
    symbols, one of them maybe over a polynomial positive on [0, 1]."""
    sys = _JOINT_SYSTEMS[draw(st.sampled_from(sorted(_JOINT_SYSTEMS)))]()
    times = getattr(sys, "times", None) or (sys.time,)
    ts = [Expr.var(t) for t in times]
    monos = [Expr.one()] + ts + [ts[0] * t for t in ts]
    f = [sum((draw(st.integers(-2, 2)) * m for m in monos), Expr.zero())
         for _ in range(sys.r + 1)]
    k = draw(st.integers(-1, sys.r))
    if k >= 0:
        f[k] = f[k] / (1 + ts[0] * ts[0] + draw(st.integers(0, 2)) * ts[-1])
    return sys, times, f


@settings(max_examples=20, deadline=None)
@given(_joint_case())
def test_state_space_bracket_equals_the_joint_bracket(case):
    sys, times, f = case
    y = sys.algebra.combination(f[1:])
    drifts = ([sys.drift_field(l) for l in range(sys.s)]
              if isinstance(sys, PDELieSystem) else [sys.drift_field()])
    for l, (tv, x) in enumerate(zip(times, drifts)):
        joint = _joint_bracket(x, y, times, l)
        assert all(c == 0 for c in joint.components[:len(times)])
        assert _suspended_bracket(x, y, tv) == list(
            joint.components[len(times):])
    if isinstance(sys, PDELieSystem):
        return
    # Y = f0 (d/dt + X) is a symmetry for every f0, with b0 = f0': the
    # joint bracket says so, and so must the state-space check
    f0 = f[0]
    x = drifts[0]
    sym = SymmetryCandidate.closed([f0] + [f0 * b for b in sys.coeffs])
    yj = VectorField(("t",) + x.vars, [f0] + [f0 * c for c in x.components])
    xbar = VectorField(yj.vars, [Expr.one()] + list(x.components))
    assert ((lie_bracket(yj, xbar) + f0.diff("t") * xbar).is_zero()
            is ZeroStatus.ZERO)
    assert symmetry_residual(sym, sys, check_gauge=False).exact
