"""Structure constants, Jacobi residual, center, change of basis."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liesym import DependentBasis, Expr, NotClosed, OpaqueFunction, make, names
from liesym.errors import DimensionMismatch
from liesym.liealg import (
    LieAlgebraBasis,
    StructureTensor,
    center,
    extract_structure_constants,
    field_rank,
    jacobi_residual,
    match_in_span,
    transform_tensor,
)
from liesym.vectorfield import VectorField

x = Expr.var("x")


def riccati_fields():
    return [VectorField(["x"], [1]),
            VectorField(["x"], [x]),
            VectorField(["x"], [x ** 2])]


def sl2_tensor():
    t = StructureTensor(3)
    t.set(0, 1, 0, 1)
    t.set(0, 2, 1, 2)
    t.set(1, 2, 2, 1)
    return t


def test_extract_sl2_exact():
    tensor, method = extract_structure_constants(riccati_fields())
    assert method == "exact"
    assert tensor == sl2_tensor()
    assert tensor.c(1, 0, 0) == -1  # antisymmetry on access


def test_extract_affine_exact():
    tensor, method = extract_structure_constants(
        [VectorField(["x"], [1]), VectorField(["x"], [x])])
    expected = StructureTensor(2)
    expected.set(0, 1, 0, 1)
    assert (tensor, method) == (expected, "exact")


def test_not_closed():
    with pytest.raises(NotClosed):
        extract_structure_constants(
            [VectorField(["x"], [1]), VectorField(["x"], [x ** 3])])


def test_dependent_basis():
    with pytest.raises(DependentBasis):
        extract_structure_constants(
            [VectorField(["x"], [x]), VectorField(["x"], [2 * x])])


def test_match_in_span_and_rank():
    fields = riccati_fields()
    target = VectorField(["x"], [3 + Fraction(1, 2) * x ** 2])
    assert match_in_span(fields, target) == [3, 0, Fraction(1, 2)]
    assert match_in_span(fields, VectorField(["x"], [x ** 3])) is None
    assert field_rank(fields) == 3
    assert field_rank([fields[0], fields[0]]) == 1


def brute(tensor):
    """The Jacobi residual over every index quadruple, from tensor.c."""
    worst = Fraction(0)
    r = tensor.r
    for a in range(r):
        for b in range(r):
            for g in range(r):
                for tau in range(r):
                    s = sum((tensor.c(a, b, m) * tensor.c(m, g, tau)
                             + tensor.c(b, g, m) * tensor.c(m, a, tau)
                             + tensor.c(g, a, m) * tensor.c(m, b, tau)
                             for m in range(r)), Fraction(0))
                    worst = max(worst, abs(s))
    return worst


def test_jacobi_residual_against_brute_force():
    good = sl2_tensor()
    assert jacobi_residual(good) == 0
    assert brute(good) == 0
    bad = sl2_tensor()
    bad.set(1, 2, 2, 2)  # corrupt c233
    assert jacobi_residual(bad) == brute(bad) > 0


@st.composite
def antisymmetric_tensors(draw):
    """Random small-integer constants c_abg for a < b: mostly not Lie."""
    r = draw(st.integers(min_value=1, max_value=5))
    entries = st.integers(min_value=-2, max_value=2)
    return StructureTensor(r, {(a, b, g): draw(entries) for a in range(r)
                               for b in range(a + 1, r) for g in range(r)})


@settings(max_examples=40, deadline=None)
@given(antisymmetric_tensors())
def test_jacobi_residual_matches_brute_force(tensor):
    assert jacobi_residual(tensor) == brute(tensor)


def test_center_dimensions():
    assert len(center(StructureTensor(3))) == 3  # abelian
    assert len(center(sl2_tensor())) == 0
    heis = StructureTensor(3)
    heis.set(0, 1, 2, 1)
    basis = center(heis)
    assert len(basis) == 1
    assert basis[0] == [0, 0, 1]
    aff = StructureTensor(2)
    aff.set(0, 1, 0, 1)
    assert len(center(aff)) == 0


def test_change_of_basis_covariance():
    rng = random.Random(3)
    fields = riccati_fields()
    base_tensor, _ = extract_structure_constants(fields)
    done = 0
    while done < 5:
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        try:
            expected = transform_tensor(base_tensor, a)
        except DependentBasis:
            continue
        new_fields = []
        for i in range(3):
            f = VectorField(["x"], [0])
            for j in range(3):
                f = f + Expr.const(a[i][j]) * fields[j]
            new_fields.append(f)
        got, method = extract_structure_constants(new_fields)
        assert method == "exact"
        assert got == expected
        done += 1


def test_transform_tensor_singular_raises():
    with pytest.raises(DependentBasis):
        transform_tensor(sl2_tensor(), [[1, 0, 0], [0, 1, 0], [1, 1, 0]])


def test_numerical_fallback_trig_basis():
    msin = OpaqueFunction("msinx", lambda v: -math.sin(v))
    cosf = OpaqueFunction("cosx", math.cos, msin)
    sinf = OpaqueFunction("sinx", math.sin, cosf)
    fields = [VectorField(["x"], [Expr.opaque(sinf, "x")]),
              VectorField(["x"], [Expr.opaque(cosf, "x")]),
              VectorField(["x"], [1])]
    tensor, method = extract_structure_constants(fields)
    assert method == "numerical"
    expected = StructureTensor(3)
    expected.set(0, 1, 2, -1)  # [sin d, cos d] = -d
    expected.set(0, 2, 1, -1)  # [sin d, d] = -cos d
    expected.set(1, 2, 0, 1)   # [cos d, d] = sin d
    assert tensor == expected


def test_bracket_in_the_span_of_another_bracket_only():
    # [X1, X4] = [X1, X2] = -(sin^2 + cos^2) d/dx: outside the exact span
    # of the fields, though its column repeats the column of [X1, X2]
    msin = OpaqueFunction("msinx", lambda v: -math.sin(v))
    cosf = OpaqueFunction("cosx", math.cos, msin)
    sinf = OpaqueFunction("sinx", math.sin, cosf)
    sin_x, cos_x = Expr.opaque(sinf, "x"), Expr.opaque(cosf, "x")
    xy = ["x", "y"]
    fields = [VectorField(xy, [sin_x, 0]), VectorField(xy, [cos_x, 0]),
              VectorField(xy, [1, 0]), VectorField(xy, [cos_x, 1])]
    tensor, method = extract_structure_constants(fields)
    assert method == "numerical"
    assert tensor == StructureTensor.from_triples(
        4, [[1, 2, 3, "-1"], [1, 3, 2, "-1"], [1, 4, 3, "-1"],
            [2, 3, 1, "1"], [3, 4, 1, "-1"]])


def test_triples_round_trip():
    t = sl2_tensor()
    triples = t.to_triples()
    assert triples == [[1, 2, 1, "1"], [1, 3, 2, "2"], [2, 3, 3, "1"]]
    assert StructureTensor.from_triples(3, triples) == t


@pytest.mark.parametrize("triple", [
    [0, 2, 1, "1"],  # stored as the key (-1, 1, 0)
    [1, 4, 1, "1"],  # kept, and ignored by jacobi_residual
    [1.5, 2, 1, "1"],  # truncated to 1
    [1, True, 2, "1"],
    ["1", 2, 1, "1"],
])
def test_from_triples_needs_integer_indices_in_range(triple):
    with pytest.raises(DimensionMismatch, match="not an integer in 1..3"):
        StructureTensor.from_triples(3, [triple])


def test_basis_wrapper():
    basis = LieAlgebraBasis(riccati_fields())
    assert basis.r == 3
    assert basis.method == "exact"
    assert jacobi_residual(basis.tensor) == 0
    assert center(basis.tensor) == []
    assert basis.vars == ("x",)


# -- the bracket of coefficient vectors ---------------------------------------

CATALOG_TENSORS = {n: make(n).expected for n in names()}
_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def tensor_and_vectors(draw, count):
    """A catalog tensor, possibly in a random new basis, and rational vectors."""
    tensor = CATALOG_TENSORS[draw(st.sampled_from(sorted(CATALOG_TENSORS)))]
    r = tensor.r
    if draw(st.booleans()):
        row = st.lists(st.integers(min_value=-2, max_value=2),
                       min_size=r, max_size=r)
        try:
            tensor = transform_tensor(
                tensor, draw(st.lists(row, min_size=r, max_size=r)))
        except DependentBasis:
            assume(False)
    vectors = [draw(st.lists(_rationals, min_size=r, max_size=r))
               for _ in range(count)]
    return tensor, vectors


def brute_bracket(tensor, u, v):
    r = tensor.r
    return [sum((u[a] * v[b] * tensor.c(a, b, g)
                 for a in range(r) for b in range(r)), 0)
            for g in range(r)]


@settings(max_examples=80, deadline=None)
@given(tensor_and_vectors(2))
def test_bracket_matches_brute_force(case):
    tensor, (u, v) = case
    assert tensor.bracket(u, v) == brute_bracket(tensor, u, v)


@settings(max_examples=80, deadline=None)
@given(tensor_and_vectors(2))
def test_bracket_is_antisymmetric(case):
    tensor, (u, v) = case
    assert tensor.bracket(u, v) == [-w for w in tensor.bracket(v, u)]


@settings(max_examples=80, deadline=None)
@given(tensor_and_vectors(3))
def test_bracket_satisfies_jacobi(case):
    tensor, (u, v, w) = case
    br = tensor.bracket
    cyclic = zip(br(br(u, v), w), br(br(v, w), u), br(br(w, u), v))
    assert [x + y + z for x, y, z in cyclic] == [0] * tensor.r


def test_bracket_on_expr_and_float_entries():
    tensor = CATALOG_TENSORS["painleve_ince"]
    r = tensor.r
    u = [Expr.var(f"u{i}") for i in range(r)]
    v = [Expr.var(f"v{i}") for i in range(r)]
    assert tensor.bracket(u, v) == brute_bracket(tensor, u, v)
    rng = np.random.default_rng(5)
    uf, vf = rng.normal(size=r), rng.normal(size=r)
    assert tensor.bracket(uf, vf) == pytest.approx(
        brute_bracket(tensor, uf, vf), abs=1e-12)
