"""Exact expression core: normal form, calculus, parsing, zero testing."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liesym import (
    DivisionByZero,
    Expr,
    OpaqueFunction,
    OpaqueNoDerivative,
    OpaqueSubstitution,
    ParseError,
    UnboundSymbol,
    ZeroStatus,
    compile_numeric,
    parse,
    zero_report,
)

x = Expr.var("x")
y = Expr.var("y")
t = Expr.var("t")


def _eta_chain():
    """An opaque eta(t) = sin with a two-deep derivative chain."""
    dd = OpaqueFunction("eta_dd", lambda v: -math.sin(v))
    d = OpaqueFunction("eta_d", math.cos, dd)
    return OpaqueFunction("eta", math.sin, d)


def test_basic_arithmetic_normalizes():
    e = (x + 1) * (x - 1)
    assert e == x ** 2 - 1
    assert ((x + 1) ** 3 - (x ** 3 + 3 * x ** 2 + 3 * x + 1)).is_zero() is ZeroStatus.ZERO


def test_rational_reduction():
    assert (x ** 2 - 1) / (x - 1) == x + 1
    assert (x ** 2 * y) / (x * y) == x
    # monic denominator: x/(2x+2) -> (1/2)x/(x+1)
    e = x / (2 * x + 2)
    assert e * (x + 1) == Fraction(1, 2) * x


def test_division_by_zero_structural():
    with pytest.raises(DivisionByZero):
        x / (x - x)


def test_eval_exact_then_converted_once():
    e = (Expr.const(Fraction(1, 3)) * 3) * x
    assert e.eval({"x": 1}) == 1.0
    q = Expr.var("q0") ** 2 - Expr.var("q1") ** 2 - Expr.var("q2") ** 2 - Expr.var("q3") ** 2
    assert q.eval({"q0": 1, "q1": 1, "q2": 0, "q3": 0}) == 0.0
    assert q.eval_exact({"q0": 2, "q1": 1, "q2": 1, "q3": 1}) == Fraction(1)


def test_eval_errors():
    with pytest.raises(UnboundSymbol):
        (x + y).eval({"x": 1.0})
    with pytest.raises(DivisionByZero):
        (1 / x).eval({"x": 0})


def test_diff_polynomial():
    e = x ** 3 + 2 * x * y
    assert e.diff("x") == 3 * x ** 2 + 2 * y
    assert e.diff("y") == 2 * x
    assert e.diff("z") == Expr.zero()


def test_diff_quotient_rule():
    e = (x ** 2 + 1) / x
    # d/dx = (2x*x - (x^2+1))/x^2 = (x^2-1)/x^2
    assert e.diff("x") == (x ** 2 - 1) / x ** 2


def test_diff_opaque_chain():
    eta = _eta_chain()
    e = x ** 2 * Expr.opaque(eta, "t")
    d = e.diff("x")
    assert d == 2 * x * Expr.opaque(eta, "t")
    dt = e.diff("t")
    assert dt == x ** 2 * Expr.opaque(eta.derivative, "t")
    # chain bottoms out
    shallow = OpaqueFunction("f")
    with pytest.raises(OpaqueNoDerivative):
        Expr.opaque(shallow, "t").diff("t")


def test_opaque_power_rule():
    eta = _eta_chain()
    g = Expr.opaque(eta, "t")
    d = (g ** 3).diff("t")
    assert d == 3 * g ** 2 * Expr.opaque(eta.derivative, "t")
    v = d.eval({"t": 0.7})
    assert v == pytest.approx(3 * math.sin(0.7) ** 2 * math.cos(0.7), rel=1e-12)


def test_is_zero_tristate():
    eta = _eta_chain()
    g = Expr.opaque(eta, "t")
    assert (g * 0).is_zero() is ZeroStatus.ZERO
    assert (x - x).is_zero() is ZeroStatus.ZERO
    assert (x ** 2 + 1).is_zero() is ZeroStatus.NONZERO
    assert (g - t).is_zero() is ZeroStatus.UNKNOWN
    report = zero_report(g - t, seed=7)
    assert report.status is ZeroStatus.UNKNOWN
    assert len(report.evidence) == 32
    assert max(report.evidence) > 0


def test_zero_report_without_evaluator():
    f = OpaqueFunction("f")
    e = Expr.opaque(f, "t") * 0 + Expr.opaque(f, "t") - Expr.opaque(f, "t")
    assert e.is_zero() is ZeroStatus.ZERO
    g = Expr.opaque(f, "t") * t
    report = zero_report(g, seed=3)
    assert report.status is ZeroStatus.UNKNOWN
    assert len(report.evidence) == 32


def test_subs():
    e = x ** 2 + y
    assert e.subs({"x": t + 1}) == t ** 2 + 2 * t + 1 + y
    eta = _eta_chain()
    g = Expr.opaque(eta, "t") * x
    renamed = g.subs({"t": Expr.var("s")})
    assert renamed.free_symbols() == {"s", "x"}
    with pytest.raises(OpaqueSubstitution):
        g.subs({"t": t + 1})


def test_parse_syntax():
    e = parse("3/2*v^2/x - 2*c0*x^3", ["x", "v"], params={"c0": Fraction(1, 2)})
    hand = Fraction(3, 2) * Expr.var("v") ** 2 / x - x ** 3
    assert e == hand
    assert parse("-x^2", ["x"]) == -(x ** 2)
    assert parse("(x+1)^2", ["x"]) == x ** 2 + 2 * x + 1
    assert parse("x^-1", ["x"]) == 1 / x
    assert parse("0.5*x", ["x"]) == Fraction(1, 2) * x


def test_parse_opaque():
    eta = _eta_chain()
    e = parse("@eta(t) + t", ["t"], registry={"eta": eta})
    assert e.eval({"t": 0.3}) == pytest.approx(math.sin(0.3) + 0.3)
    with pytest.raises(ParseError):
        parse("@nope(t)", ["t"], registry={"eta": eta})
    with pytest.raises(ParseError):
        parse("@eta(u)", ["t"], registry={"eta": eta})


def test_parse_primes_walk_the_derivative_chain():
    eta = OpaqueFunction("eta", derivative=OpaqueFunction(
        "eta'", derivative=OpaqueFunction("eta''")))
    e = (t ** 2 * Expr.opaque(eta, "t")).diff("t").diff("t")
    assert "@eta''(t)" in str(e)
    assert parse(str(e), ["t"], registry={"eta": eta}) == e
    assert parse("@eta'(t)", ["t"], registry={"eta": eta}) == Expr.opaque(
        eta.derivative, "t")
    with pytest.raises(ParseError):
        parse("@eta'''(t)", ["t"], registry={"eta": eta})


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("x +", ["x"])
    with pytest.raises(ParseError):
        parse("x ^ y", ["x", "y"])
    with pytest.raises(ParseError):
        parse("z", ["x"])
    with pytest.raises(ParseError):
        parse("x $ 2", ["x"])


def test_compile_numeric_matches_eval():
    exprs = [(x ** 2 + 3 * y) / (y + 5), x * y - 1, Expr.zero()]
    kernel = compile_numeric(exprs, ["x", "y"])
    rng = random.Random(0)
    for _ in range(20):
        px, py = rng.uniform(-2, 2), rng.uniform(-2, 2)
        got = kernel([px, py])
        assert len(got) == len(exprs)
        for value, e in zip(got, exprs):
            assert value == pytest.approx(e.eval({"x": px, "y": py}), rel=1e-13)


def test_fd_round_trip_matches_exact_derivative():
    """Finite-difference oracle for the symbolic derivative."""
    rng = random.Random(42)
    names = ["x", "y"]
    for _ in range(25):
        e = Expr.zero()
        for _ in range(6):
            cx, cy = rng.randint(0, 4), rng.randint(0, 4)
            e = e + Expr.const(rng.randint(-5, 5)) * x ** cx * y ** cy
        d = e.diff("x")
        px, py = rng.uniform(-2, 2), rng.uniform(-2, 2)
        h = 1e-5
        fd = (e.eval({"x": px + h, "y": py}) - e.eval({"x": px - h, "y": py})) / (2 * h)
        got = d.eval({"x": px, "y": py})
        assert got == pytest.approx(fd, rel=1e-5, abs=1e-5)


_small_ints = st.integers(min_value=-4, max_value=4)


@st.composite
def polys(draw, names=("x", "y")):
    e = Expr.zero()
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        term = Expr.const(draw(_small_ints))
        for n in names:
            term = term * Expr.var(n) ** draw(st.integers(min_value=0, max_value=3))
        e = e + term
    return e


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a + (b + c) == (a + b) + c
    assert a - a == Expr.zero()


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_diff_is_linear_and_leibniz(a, b):
    assert (a + b).diff("x") == a.diff("x") + b.diff("x")
    assert (a * b).diff("x") == a.diff("x") * b + a * b.diff("x")


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_normal_form_sound(a, b):
    """Identical normal forms evaluate identically at sample points."""
    e1 = (a + b) * (a - b)
    e2 = a * a - b * b
    assert e1 == e2
    pt = {"x": Fraction(3, 7), "y": Fraction(-2, 5)}
    assert e1.eval_exact(pt) == e2.eval_exact(pt)


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_division_round_trip(a, b):
    if not b.num:
        return
    q = a / b
    assert q * b == a


@st.composite
def rationals(draw):
    num = draw(polys())
    den = draw(polys())
    return num / den if den.num else num


def test_equality_is_equality_of_rational_functions():
    a = (x ** 2 - y ** 2) / ((x - y) * (x + 2 * y))
    b = (x + y) / (x + 2 * y)
    assert (a - b).is_zero() is ZeroStatus.ZERO
    assert a == b and not a != b
    assert a != b + 1
    with pytest.raises(TypeError):
        hash(a)


@settings(max_examples=100, deadline=None)
@given(rationals(), rationals(), polys())
def test_equal_exactly_when_difference_is_zero(a, b, c):
    # a * c / c is a in another written form whenever c is nonzero
    same = a * c / c if c.num else a
    assert a == same
    for u, v in ((a, b), (a, same), (b, same)):
        assert (u == v) == ((u - v).is_zero() is ZeroStatus.ZERO)


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals(), min_size=1, max_size=4),
       st.floats(min_value=-2, max_value=2), st.floats(min_value=-2, max_value=2))
def test_compile_numeric_entries_match_eval(exprs, px, py):
    kernel = compile_numeric(exprs, ["x", "y"])
    point = {"x": px, "y": py}
    try:
        expected = [e.eval(point) for e in exprs]
    except DivisionByZero:
        with pytest.raises(DivisionByZero):
            kernel([px, py])
        return
    got = kernel([px, py])
    assert len(got) == len(exprs)
    for value, want in zip(got, expected):
        assert value == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("position", [0, 1, 2])
def test_compile_numeric_vanishing_denominator_in_any_entry(position):
    # the numerator log(x) fails at x = 0 too; the denominator is checked first
    log = OpaqueFunction("log", math.log)
    pole = Expr.opaque(log, "x") / x
    exprs = [x + 1, y * x, x ** 2 - y]
    exprs[position] = pole
    kernel = compile_numeric(exprs, ["x", "y"])
    assert kernel([2.0, 1.0])[position] == pytest.approx(math.log(2.0) / 2)
    with pytest.raises(DivisionByZero):
        kernel([0.0, 1.0])


def test_compile_numeric_overflow_gives_float64_infinities():
    kernel = compile_numeric([x ** 201, x ** 200, 2 * x ** 200 - x ** 201], ["x"])
    want = [-math.inf, math.inf, math.inf]
    assert kernel([-100.0]) == want
    with np.errstate(over="ignore"):
        assert kernel(np.array([-100.0])) == want
