"""Exact expression core: normal form, calculus, parsing, zero testing."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liesym import (
    DivisionByZero,
    Expr,
    OpaqueFunction,
    OpaqueNoDerivative,
    OpaqueNoEvaluator,
    OpaqueSubstitution,
    ParseError,
    UnboundSymbol,
    ZeroStatus,
    compile_numeric,
    parse,
)
from liesym.expr import Atom, _p_divmod, _p_gcd

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


def test_zero_report_without_evaluator():
    # a leaf without an evaluator cancels like any other atom
    f = OpaqueFunction("f")
    e = Expr.opaque(f, "t") * 0 + Expr.opaque(f, "t") - Expr.opaque(f, "t")
    assert e.is_zero() is ZeroStatus.ZERO
    assert (Expr.opaque(f, "t") * t).is_zero() is ZeroStatus.UNKNOWN


def test_subs():
    e = x ** 2 + y
    assert e.subs({"x": t + 1}) == t ** 2 + 2 * t + 1 + y
    eta = _eta_chain()
    g = Expr.opaque(eta, "t") * x
    assert g.subs({"x": t}) == Expr.opaque(eta, "t") * t
    # an opaque argument is never substituted, not even renamed
    for target in (Expr.var("s"), t + 1):
        with pytest.raises(OpaqueSubstitution):
            g.subs({"t": target})


def test_parse_syntax():
    e = parse("3/2*v^2/x - 2*(1/2)*x^3", ["x", "v"])
    hand = Fraction(3, 2) * Expr.var("v") ** 2 / x - x ** 3
    assert e == hand
    assert parse("-x^2", ["x"]) == -(x ** 2)
    assert parse("(x+1)^2", ["x"]) == x ** 2 + 2 * x + 1
    assert parse("x^-1", ["x"]) == 1 / x
    assert parse("0.5*x", ["x"]) == Fraction(1, 2) * x
    # a unary sign is read where an operand starts, at any depth; it binds
    # tighter than * and / and looser than ^
    for text, printed, order in [
            ("--x", "x", ["x"]),
            ("-x^2", "-x^2", ["-x^2"]),
            ("-2*x/3", "-2/3*x", ["-2/3*x"]),
            ("+-x", "-x", ["-x"]),
            ("x*-y", "-x*y", ["-x*y"]),
            ("-(x+1)*(x+2)", "-x^2 - 3*x - 2", ["-x^2", "-3*x", "-2"]),
            ("- - -x/(x+1)", "(-x)/(x + 1)", ["-x"]),
            ("-x^-2", "(-1)/(x^2)", ["-1"]),
            ("(-x)^3", "-x^3", ["-x^3"]),
            ("x/-(y+1)", "(-x)/(y + 1)", ["-x"])]:
        e = parse(text, ["x", "y"])
        assert (str(e), _terms(e.num)) == (printed, order), text
    for text, message in [
            ("-", "unexpected token at position 1 in '-'"),
            ("+*x", "unexpected token at position 1 in '+*x'"),
            ("x-", "unexpected token at position 2 in 'x-'"),
            ("-@", "expected ident at position 2 in '-@'")]:
        with pytest.raises(ParseError) as info:
            parse(text, ["x"])
        assert str(info.value) == message, text


def _terms(p):
    """The polynomial's terms as strings, in its dict order (the order in
    which compile_numeric sums them)."""
    return [str(Expr({m: c}, {(): 1})) for m, c in p.items()]


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


@pytest.mark.parametrize("text", ["\u0661", "x^\u00b2", "2\u00b2", ".\u0661"])
def test_parse_reads_only_ascii_digits(text):
    # the superscript two and the Arabic-Indic one satisfy str.isdigit(),
    # but a number is written in ASCII digits only
    with pytest.raises(ParseError):
        parse(text, ["x"])


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


def test_univariate_gcd_normal_forms():
    """Quotients whose two sides share a factor in one atom: the printed
    normal form and the term order of each side."""
    reg = {"eta": _eta_chain()}
    for text, printed, num, den in [
            ("(t^2-1)/(t^2+2*t+1)", "(t - 1)/(t + 1)", ["t", "-1"], ["t", "1"]),
            ("(@eta(t)^2-1)/(@eta(t)^2+2*@eta(t)+1)",
             "(@eta(t) - 1)/(@eta(t) + 1)", ["@eta(t)", "-1"], ["@eta(t)", "1"]),
            ("(t^4-1)/(3*t^3+3*t^2+t+1)",
             "(1/3*t^3 - 1/3*t^2 + 1/3*t - 1/3)/(t^2 + 1/3)",
             ["1/3*t^3", "-1/3*t^2", "1/3*t", "-1/3"], ["t^2", "1/3"]),
            ("(1/2*t^2+t)/(t^2-4)", "(1/2*t)/(t - 2)", ["1/2*t"], ["t", "-2"]),
            ("(@eta(t)^3-@eta(t))/(2*@eta(t)^2+@eta(t)-1)",
             "(1/2*@eta(t)^2 - 1/2*@eta(t))/(@eta(t) - 1/2)",
             ["1/2*@eta(t)^2", "-1/2*@eta(t)"], ["@eta(t)", "-1/2"]),
            ("(t+1)^2/(t^2-1)", "(t + 1)/(t - 1)", ["t", "1"], ["t", "-1"]),
            ("(t^3+1)/(6*t^2+6*t)", "(1/6*t^2 - 1/6*t + 1/6)/(t)",
             ["1/6*t^2", "-1/6*t", "1/6"], ["t"])]:
        e = parse(text, ["t"], registry=reg)
        assert (str(e), _terms(e.num), _terms(e.den)) == (printed, num, den), text


def _univariate(coeffs, leaf):
    """sum(coeffs[k] * leaf^k)"""
    e = Expr.zero()
    for k, c in enumerate(coeffs):
        e = e + c * leaf ** k
    return e


_coeff_lists = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(_coeff_lists, _coeff_lists, _coeff_lists, st.booleans())
def test_normal_form_gcd_cancels_a_common_factor(p, q, g, opaque):
    """p*g/(q*g) prints as p/q with a monic denominator, in t and in
    @eta(t), and the gcd of p*g and q*g is monic and divisible by g."""
    leaf = Expr.opaque(_eta_chain(), "t") if opaque else t
    p, q, g = (_univariate(c, leaf) for c in (p, q, g))
    assume(q.num and g.num)
    e = (p * g) / (q * g)
    assert str(e) == str(p / q)
    top = max(e.den, key=lambda m: sum(exp for _, exp in m))
    assert e.den[top] == 1
    if p.num:
        gcd = _p_gcd((p * g).num, (q * g).num)
        top = max(gcd, key=lambda m: sum(exp for _, exp in m))
        assert gcd[top] == 1
        assert not _p_divmod(gcd, g.num)[1]


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


# -- the generated kernel against the term interpreter it replaced ---------------


def _reference_pow(v, p):
    try:
        return v ** p
    except OverflowError:
        return -math.inf if v < 0 and p % 2 else math.inf


def _reference_overflowed_term(c, plain, calls, values):
    acc = c
    for i, p in plain:
        acc *= _reference_pow(values[i], p)
    for f, i, p in calls:
        acc *= _reference_pow(f(values[i]), p)
    return acc


def _reference_kernel(exprs, order):
    """The term-tuple interpreter compile_numeric used to return, frozen."""
    index = {name: i for i, name in enumerate(order)}

    def build(p):
        terms = []
        for m, c in p.items():
            plain = []
            calls = []
            for atom, e in m:
                if atom.kind == Atom.VAR:
                    if atom.name not in index:
                        raise UnboundSymbol(f"no slot for {atom.name}")
                    plain.append((index[atom.name], e))
                else:
                    if atom.func.evaluator is None:
                        raise OpaqueNoEvaluator(f"@{atom.name} has no evaluator")
                    if atom.arg not in index:
                        raise UnboundSymbol(f"no slot for {atom.arg}")
                    calls.append((atom.func.evaluator, index[atom.arg], e))
            terms.append((float(c), tuple(plain), tuple(calls)))
        return tuple(terms)

    entries = []
    for e in exprs:
        num = build(e.num)
        entries.append((num,) if e.den == {(): Fraction(1)} else (build(e.den), num))

    def kernel(values):
        out = []
        for polys in entries:
            total = 1.0
            for terms in polys:
                if total == 0.0:
                    raise DivisionByZero("denominator vanishes at the point")
                den, total = total, 0.0
                for c, plain, calls in terms:
                    acc = c
                    try:
                        for i, p in plain:
                            acc *= values[i] ** p
                        for f, i, p in calls:
                            acc *= f(values[i]) ** p
                    except OverflowError:
                        acc = _reference_overflowed_term(c, plain, calls, values)
                    total += acc
            out.append(total / den)
        return out

    return kernel


# sin is harmless; exp raises OverflowError past 709 and log ValueError at
# v <= 0, both inside a term; eta'' is large, so its powers overflow; bare
# has no evaluator.  Repeats weight the draw towards kernels that compile
# and run.
_SIN, _EXP, _LOG, _BIG, _BARE = (
    OpaqueFunction("sin", math.sin), OpaqueFunction("exp", math.exp),
    OpaqueFunction("log", math.log),
    OpaqueFunction("eta''", lambda v: 1e200 * v), OpaqueFunction("bare"))
_LEAVES = ("x", "y", "z", "x", "y", _SIN, _SIN, _EXP, _LOG, _BIG) * 4 + (_BARE,)
_ORDERS = (("x", "y", "z"), ("z", "y", "x")) * 2 + (("x", "y"),)


@st.composite
def kernel_polys(draw):
    e = Expr.zero()
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        term = Expr.const(Fraction(draw(st.integers(min_value=-5, max_value=5)),
                                   draw(st.integers(min_value=1, max_value=7))))
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            leaf = draw(st.sampled_from(_LEAVES))
            base = (Expr.var(leaf) if isinstance(leaf, str)
                    else Expr.opaque(leaf, draw(st.sampled_from(("x", "y")))))
            term = term * base ** draw(st.sampled_from((1, 1, 2, 3, 7, 103)))
        e = e + term
    return e


@st.composite
def kernel_rationals(draw):
    num = draw(kernel_polys())
    if draw(st.booleans()):
        return num
    den = draw(kernel_polys())
    return num / den if den.num else num


_points = st.one_of(st.floats(min_value=-1e3, max_value=1e3),
                    st.sampled_from((0.0, -0.0, 1.0, -1.0, -100.0, 710.0)))


def _outcome(call, *args):
    """(None, result) or (the exception type, None)."""
    try:
        return None, call(*args)
    except Exception as exc:  # the type is what is compared
        return type(exc), None


def _bits(values):
    """Floats as comparable items: NaN equal to NaN, signed zeros apart."""
    return [("nan",) if v != v else (v, math.copysign(1.0, v)) for v in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(kernel_rationals(), min_size=1, max_size=4),
       st.sampled_from(_ORDERS), st.lists(_points, min_size=3, max_size=3))
def test_generated_kernel_is_bit_identical_to_the_interpreter(exprs, order, point):
    """Same floats and the same exception types, at compile and call time."""
    ref_err, ref = _outcome(_reference_kernel, exprs, order)
    gen_err, gen = _outcome(compile_numeric, exprs, order)
    assert gen_err is ref_err
    if ref is None:
        return
    ref_err, want = _outcome(ref, point)
    gen_err, got = _outcome(gen, point)
    assert gen_err is ref_err
    if want is not None:
        assert _bits(got) == _bits(want)


def test_generated_kernel_signs_and_overflows():
    big = OpaqueFunction("big", lambda v: 1e200)
    kernel = compile_numeric([1 / x ** 201, (x + 1) / (x ** 201 + 1),
                              Expr.opaque(big, "x") ** 2], ["x"])
    got = kernel([-100.0])
    assert got == [0.0, 0.0, math.inf]
    assert math.copysign(1.0, got[0]) == -1.0
    assert math.copysign(1.0, got[1]) == 1.0


def test_generated_kernel_binds_evaluators_not_names():
    plus = OpaqueFunction("eta''", lambda v: v + 1)
    times = OpaqueFunction("eta''", lambda v: 10 * v)
    kernel = compile_numeric([Expr.opaque(plus, "x"), Expr.opaque(times, "x")],
                             ["x"])
    assert kernel([2.0]) == [3.0, 20.0]


def test_generated_kernel_edge_shapes():
    assert compile_numeric([], ["x"])([1.0]) == []
    # slots past `order` are never read
    assert compile_numeric([x * y], ["x", "y"])([2.0, 3.0, 99.0]) == [6.0]


def test_generated_kernel_compiles_long_sums():
    # 3721 terms: one written-out sum would nest too deep to compile
    e = (1 + x) ** 60 * (1 - y) ** 60
    exprs = [e, 1 / e]
    kernel = compile_numeric(exprs, ["x", "y"])
    reference = _reference_kernel(exprs, ["x", "y"])
    for point in ([0.5, 0.25], [-0.75, 3.0], [20.0, -30.0]):
        assert _bits(kernel(point)) == _bits(reference(point))


# -- each opaque leaf is evaluated once per kernel call ------------------------


def _counting(name, f):
    """An opaque function whose evaluator records each argument it is called with."""
    calls = []

    def evaluator(v):
        calls.append(v)
        return f(v)

    return OpaqueFunction(name, evaluator), calls


def test_generated_kernel_calls_each_leaf_once_per_call():
    sin, calls = _counting("sin", math.sin)
    s = Expr.opaque(sin, "x")
    # s sits in the first denominator, its numerator and the second entry
    exprs = [s * x / (s + 1), s ** 2 - y]
    kernel = compile_numeric(exprs, ["x", "y"])
    reference = _reference_kernel(exprs, ["x", "y"])
    for point in ([0.5, 2.0], [-1.25, 0.0]):
        want = reference(point)
        calls.clear()
        assert _bits(kernel(point)) == _bits(want)
        assert calls == [point[0]]


def test_generated_kernel_tests_the_denominator_before_numerator_leaves():
    log, calls = _counting("log", math.log)
    exprs = [Expr.opaque(log, "x") / (x - y)]
    kernel = compile_numeric(exprs, ["x", "y"])
    reference = _reference_kernel(exprs, ["x", "y"])
    with pytest.raises(DivisionByZero):
        reference([2.0, 2.0])
    calls.clear()
    with pytest.raises(DivisionByZero):
        kernel([2.0, 2.0])
    assert calls == []
    want = reference([2.0, 1.0])
    calls.clear()
    assert _bits(kernel([2.0, 1.0])) == _bits(want)
    assert calls == [2.0]


def test_generated_kernel_raises_compile_errors_numerator_first():
    # z has no slot in the numerator; bare has no evaluator in the denominator
    e = Expr.var("z") / (Expr.opaque(OpaqueFunction("bare"), "x") * x ** 2)
    for build in (_reference_kernel, compile_numeric):
        with pytest.raises(UnboundSymbol):
            build([e], ["x", "y"])


def test_generated_kernel_overflow_fallback_reads_the_bound_leaf():
    big, calls = _counting("big", lambda v: 1e200)
    b = Expr.opaque(big, "x")
    exprs = [b ** 2 + b]
    kernel = compile_numeric(exprs, ["x"])
    want = _reference_kernel(exprs, ["x"])([1.0])
    calls.clear()
    got = kernel([1.0])
    assert got == [math.inf]
    assert _bits(got) == _bits(want)
    assert calls == [1.0]
