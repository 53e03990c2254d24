"""Vector fields, brackets, autonomization, jet prolongation."""

import random
from fractions import Fraction

import pytest

from liesym import DimensionMismatch, Expr, NotVertical, ZeroStatus
from liesym.rlinalg import invert, nullspace, rank, rref, solve
from liesym.vectorfield import (
    VectorField,
    autonomize,
    jet_var,
    lie_bracket,
    prolong_first,
)

x = Expr.var("x")
v = Expr.var("v")
t = Expr.var("t")


def test_bracket_translation_dilation():
    d_x = VectorField(["x"], [1])
    dil = VectorField(["x"], [x])
    assert lie_bracket(d_x, dil) == d_x


def test_bracket_riccati_pair():
    sq = VectorField(["x"], [x ** 2])
    dil = VectorField(["x"], [x])
    # hand computation: x^2*1 - x*2x = -x^2
    assert lie_bracket(sq, dil) == -sq


def test_bracket_jacobi_and_leibniz():
    rng = random.Random(5)

    def rand_field():
        comps = []
        for _ in range(2):
            e = Expr.zero()
            for _ in range(3):
                e = e + Expr.const(rng.randint(-3, 3)) * x ** rng.randint(0, 2) * v ** rng.randint(0, 2)
            comps.append(e)
        return VectorField(["x", "v"], comps)

    for _ in range(8):
        a, b, c = rand_field(), rand_field(), rand_field()
        jac = (lie_bracket(lie_bracket(a, b), c)
               + lie_bracket(lie_bracket(b, c), a)
               + lie_bracket(lie_bracket(c, a), b))
        assert jac.is_zero() is ZeroStatus.ZERO
        f = x * v + 3
        lhs = lie_bracket(a, f * b)
        rhs = a.apply(f) * b + f * lie_bracket(a, b)
        assert (lhs - rhs).is_zero() is ZeroStatus.ZERO


def test_bracket_antisymmetry():
    a = VectorField(["x"], [x ** 2 + 1])
    b = VectorField(["x"], [3 * x])
    assert lie_bracket(a, b) == -lie_bracket(b, a)


def test_dimension_mismatch():
    a = VectorField(["x"], [x])
    b = VectorField(["x", "v"], [x, v])
    with pytest.raises(DimensionMismatch):
        lie_bracket(a, b)
    with pytest.raises(DimensionMismatch):
        VectorField(["x"], [x, v])


def test_autonomize():
    drift = VectorField(["x"], [1 + x ** 2])
    bar = autonomize(drift, "t")
    assert bar.vars == ("t", "x")
    assert bar.components[0] == Expr.one()
    assert bar.components[1] == 1 + x ** 2
    with pytest.raises(DimensionMismatch):
        autonomize(bar, "t")


def test_apply_directional_derivative():
    a = VectorField(["x", "v"], [v, -x])
    assert a.apply(x ** 2 + v ** 2) == Expr.zero()


def test_prolongation_shape_and_projection():
    y = VectorField(["x"], [t * x ** 2])
    jet = prolong_first(y, ["t"])
    assert isinstance(jet, VectorField)
    assert jet.vars == ("x", jet_var("x", "t"))
    assert jet.components[0] == y.components[0]
    xt = Expr.var(jet_var("x", "t"))
    assert jet.components[1] == x ** 2 + 2 * t * x * xt


def test_prolongation_requires_vertical():
    bar = VectorField(["t", "x"], [1, x])
    with pytest.raises(NotVertical):
        prolong_first(bar, ["t"])


def test_prolongation_is_bracket_morphism():
    """[prolong X, prolong Y] equals prolong [X, Y], including t dependence."""
    times = ["t1", "t2"]
    t1, t2 = Expr.var("t1"), Expr.var("t2")
    pairs = [
        (VectorField(["x"], [x ** 2]), VectorField(["x"], [x])),
        (VectorField(["x"], [t1 * x ** 2]), VectorField(["x"], [t2 ** 2 + x])),
        (VectorField(["x", "v"], [v * t2, x * t1]),
         VectorField(["x", "v"], [x * v, t1 + v ** 2])),
    ]
    for a, b in pairs:
        ja, jb = prolong_first(a, times), prolong_first(b, times)
        lhs = lie_bracket(ja, jb)
        rhs = prolong_first(lie_bracket(a, b), times)
        assert (lhs - rhs).is_zero() is ZeroStatus.ZERO


def test_rref_solve_nullspace():
    m, piv = rref([[1, 2], [2, 4]])
    assert piv == [0]
    assert m[0] == [1, 2]
    sol = solve([[1, 1], [1, -1]], [3, 1])
    assert sol == [2, 1]
    assert solve([[1, 1], [1, 1]], [0, 1]) is None
    ns = nullspace([[1, 1, 0], [0, 0, 1]])
    assert len(ns) == 1
    assert ns[0] == [-1, 1, 0]


def test_invert_random_matrices():
    rng = random.Random(11)
    done = 0
    while done < 10:
        a = [[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
        if rank(a) < 3:
            continue
        inv = invert(a)
        eye = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
        product = [[sum(a[i][k] * inv[k][j] for k in range(3))
                    for j in range(3)] for i in range(3)]
        assert product == eye
        done += 1
