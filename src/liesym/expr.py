"""Exact expression trees for the symbolic layer.

An Expr is kept in a rational normal form: a multivariate polynomial with
exact Fraction coefficients divided by a single shared monic denominator
polynomial.  A gcd of numerator and denominator is taken only when they
share exactly one atom, by Euclid's algorithm on the sparse form's own
division.  The atoms of a monomial are either plain variables or opaque
function leaves such as @eta(t).  Opaque leaves are treated as atomic
symbols by the normalizer; they carry an optional numeric evaluator and an
optional derivative leaf, so differentiation and evaluation work through
them without the normal form ever learning what the function is.

Two expressions with equal normal forms evaluate identically everywhere.
Zero testing is exact on the opaque-free fragment (a rational function is
zero iff its numerator polynomial is zero); a numerator that holds an
opaque leaf gives "unknown", and callers that need a verdict sample the
expression themselves.  compile_numeric lowers the expressions a caller
evaluates together into one float kernel: a generated Python function
that writes each entry out term by term and evaluates each distinct
opaque leaf at most once per call, at its first use in evaluation order,
so evaluators must be pure functions of their argument.  Generation
changes no contract of the term interpreter it replaced: the floats, the
denominator-first DivisionByZero and the compile-time errors are the
same.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .errors import (
    DivisionByZero,
    OpaqueNoDerivative,
    OpaqueNoEvaluator,
    OpaqueSubstitution,
    ParseError,
    UnboundSymbol,
)

Number = Union[int, Fraction]


class OpaqueFunction:
    """A named scalar function known only through optional callables.

    `evaluator` maps a float to a float.  `derivative` is another
    OpaqueFunction (or None when the derivative is unavailable), which lets
    fixtures supply exact derivative chains of any finite depth.
    """

    __slots__ = ("name", "evaluator", "derivative")

    def __init__(self, name: str,
                 evaluator: Optional[Callable[[float], float]] = None,
                 derivative: Optional["OpaqueFunction"] = None):
        self.name = name
        self.evaluator = evaluator
        self.derivative = derivative

    def __repr__(self):
        return f"OpaqueFunction({self.name!r})"


class Atom:
    """A variable or an opaque call; the indeterminates of the normal form."""

    __slots__ = ("kind", "name", "arg", "func")

    VAR = "var"
    OPAQUE = "opaque"

    def __init__(self, kind: str, name: str, arg: str = "",
                 func: Optional[OpaqueFunction] = None):
        self.kind = kind
        self.name = name
        self.arg = arg
        self.func = func

    def key(self):
        return (self.kind, self.name, self.arg)

    def __eq__(self, other):
        return isinstance(other, Atom) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if self.kind == Atom.VAR:
            return self.name
        return f"@{self.name}({self.arg})"


def _var_atom(name: str) -> Atom:
    return Atom(Atom.VAR, name)


def _opaque_atom(func: OpaqueFunction, arg: str) -> Atom:
    return Atom(Atom.OPAQUE, func.name, arg, func)


# A monomial is a tuple of (Atom, positive int exponent) pairs sorted by
# atom key; a polynomial is a dict monomial -> nonzero Fraction.

Monomial = tuple
Poly = dict

_ONE_POLY = {(): Fraction(1)}


def _mono(exponents: dict) -> Monomial:
    """The monomial of an atom -> positive exponent map."""
    return tuple(sorted(exponents.items(), key=lambda p: p[0].key()))


def _mono_key(mono: Monomial):
    return (sum(e for _, e in mono), tuple((a.key(), e) for a, e in mono))


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    merged = dict(m1)
    for a, e in m2:
        merged[a] = merged.get(a, 0) + e
    return _mono(merged)


def _p_add(p1: Poly, p2: Poly) -> Poly:
    out = dict(p1)
    for m, c in p2.items():
        s = out.get(m, Fraction(0)) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _p_neg(p: Poly) -> Poly:
    return {m: -c for m, c in p.items()}


def _p_scale(p: Poly, k: Fraction) -> Poly:
    if not k:
        return {}
    return {m: c * k for m, c in p.items()}


def _p_mul(p1: Poly, p2: Poly) -> Poly:
    if not p1 or not p2:
        return {}
    out: Poly = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            m = _mono_mul(m1, m2)
            s = out.get(m, Fraction(0)) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _mono_order_key(mono: Monomial):
    """Graded lex key; min() over it picks the leading monomial.

    Degree first, then atoms in ascending key order with higher
    exponents preferred.  Unlike _mono_key (a plain deterministic sort
    for display and hashing), this is a genuine monomial order: it
    respects multiplication, which the division algorithm needs.
    """
    return (-sum(e for _, e in mono), tuple((a.key(), -e) for a, e in mono))


def _p_leading(p: Poly) -> Monomial:
    return min(p, key=_mono_order_key)


def _mono_div(m2: Monomial, m1: Monomial) -> Optional[Monomial]:
    """m2 / m1, or None when m1 does not divide m2 exponentwise."""
    quo = dict(m2)
    for a, e in m1:
        left = quo.get(a, 0) - e
        if left < 0:
            return None
        if left:
            quo[a] = left
        else:
            del quo[a]
    return _mono(quo)


def _p_divmod(num: Poly, den: Poly):
    """Multivariate division in graded-lex order; returns (quotient, remainder).

    It stops at the first leading term of the remainder that den's leading
    term does not divide.  In one atom that is the top-degree term, so
    this is univariate division with remainder.
    """
    quo: Poly = {}
    rem = dict(num)
    lead_d = _p_leading(den)
    lc_d = den[lead_d]
    while rem:
        lead_r = _p_leading(rem)
        m = _mono_div(lead_r, lead_d)
        if m is None:
            break
        c = rem[lead_r] / lc_d
        quo[m] = quo.get(m, Fraction(0)) + c
        rem = _p_add(rem, _p_mul({m: -c}, den))
    return quo, rem


def _p_atoms(p: Poly) -> set:
    out = set()
    for m in p:
        for a, _ in m:
            out.add(a)
    return out


def _p_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd of two nonzero polynomials in one shared atom, by Euclid."""
    while b:
        a, b = b, _p_divmod(a, b)[1]
    return _p_scale(a, 1 / a[_p_leading(a)])


class ZeroStatus(enum.Enum):
    ZERO = "zero"
    NONZERO = "nonzero"
    UNKNOWN = "unknown"


class Expr:
    """An exact rational expression in variables and opaque leaves."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        # Use the factory methods below; this constructor trusts its input.
        self.num = num
        self.den = den

    # -- construction -------------------------------------------------

    @staticmethod
    def _make(num: Poly, den: Poly) -> "Expr":
        if not den:
            raise DivisionByZero("denominator is structurally zero")
        if not num:
            return Expr({}, dict(_ONE_POLY))
        num, den = _reduce(num, den)
        return Expr(num, den)

    @staticmethod
    def zero() -> "Expr":
        return Expr({}, dict(_ONE_POLY))

    @staticmethod
    def one() -> "Expr":
        return Expr(dict(_ONE_POLY), dict(_ONE_POLY))

    @staticmethod
    def const(value) -> "Expr":
        c = Fraction(value)
        return Expr({(): c} if c else {}, dict(_ONE_POLY))

    @staticmethod
    def var(name: str) -> "Expr":
        return Expr({((_var_atom(name), 1),): Fraction(1)}, dict(_ONE_POLY))

    @staticmethod
    def opaque(func: OpaqueFunction, arg: str) -> "Expr":
        return Expr({((_opaque_atom(func, arg), 1),): Fraction(1)}, dict(_ONE_POLY))

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _try_coerce(value) -> Optional["Expr"]:
        if isinstance(value, Expr):
            return value
        if isinstance(value, (int, Fraction)):
            return Expr.const(value)
        return None

    @staticmethod
    def _coerce(value) -> "Expr":
        out = Expr._try_coerce(value)
        if out is None:
            raise TypeError(f"cannot use {type(value).__name__} in an Expr")
        return out

    def __add__(self, other):
        other = Expr._try_coerce(other)
        if other is None:
            return NotImplemented
        num = _p_add(_p_mul(self.num, other.den), _p_mul(other.num, self.den))
        return Expr._make(num, _p_mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return Expr(_p_neg(self.num), self.den)

    def __sub__(self, other):
        other = Expr._try_coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return Expr._coerce(other) + (-self)

    def __mul__(self, other):
        other = Expr._try_coerce(other)
        if other is None:
            return NotImplemented
        return Expr._make(_p_mul(self.num, other.num), _p_mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Expr._try_coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise DivisionByZero("division by structurally zero expression")
        return Expr._make(_p_mul(self.num, other.den), _p_mul(self.den, other.num))

    def __rtruediv__(self, other):
        return Expr._coerce(other) / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("only integer powers are supported")
        if exponent == 0:
            return Expr.one()
        base = self
        if exponent < 0:
            if not base.num:
                raise DivisionByZero("zero raised to a negative power")
            base = Expr._make(dict(base.den), dict(base.num))
            exponent = -exponent
        out = Expr.one()
        acc = base
        while exponent:
            if exponent & 1:
                out = out * acc
            acc = acc * acc if exponent > 1 else acc
            exponent >>= 1
        return out

    def __eq__(self, other):
        """Equal as rational functions, num * other.den == other.num * den.

        Equal expressions may differ in form, so an Expr has no hash.
        """
        other = Expr._try_coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return _p_mul(self.num, other.den) == _p_mul(other.num, self.den)

    # -- structure -----------------------------------------------------

    def free_symbols(self) -> set:
        out = set()
        for a in _p_atoms(self.num) | _p_atoms(self.den):
            if a.kind == Atom.VAR:
                out.add(a.name)
            else:
                out.add(a.arg)
        return out

    @property
    def has_opaque(self) -> bool:
        return any(a.kind == Atom.OPAQUE
                   for a in _p_atoms(self.num) | _p_atoms(self.den))

    # -- calculus ------------------------------------------------------

    def diff(self, var: str) -> "Expr":
        """Exact partial derivative with respect to a variable name."""
        dn = _p_diff(self.num, var)
        if self.den == _ONE_POLY:
            return Expr._make(dn, dict(_ONE_POLY))
        dd = _p_diff(self.den, var)
        num = _p_add(_p_mul(dn, self.den), _p_neg(_p_mul(self.num, dd)))
        return Expr._make(num, _p_mul(self.den, self.den))

    def subs(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        """Substitute expressions for variables.

        A variable that is the argument of an opaque leaf here may not be
        substituted, not even by another bare variable: that raises
        OpaqueSubstitution.
        """
        coerced = {k: Expr._coerce(v) for k, v in mapping.items()}
        num = _p_subs(self.num, coerced)
        den = _p_subs(self.den, coerced)
        if not den.num:
            raise DivisionByZero("substitution made the denominator zero")
        return num / den

    # -- evaluation ----------------------------------------------------

    def eval(self, point: Mapping[str, float]) -> float:
        """Evaluate to an IEEE double.

        A point binding only ints and Fractions on an opaque-free
        expression is computed exactly and converted once at the end.
        """
        if not self.has_opaque and all(
                isinstance(v, (int, Fraction)) for v in point.values()):
            return float(self.eval_exact(point))
        n = _p_eval(self.num, point, False)
        d = _p_eval(self.den, point, False)
        if d == 0:
            raise DivisionByZero("denominator vanishes at the point")
        return n / d

    def eval_exact(self, point: Mapping[str, Number]) -> Fraction:
        """Evaluate to a Fraction; requires rational bindings, no opaques."""
        if self.has_opaque:
            raise OpaqueNoEvaluator("exact evaluation through opaque leaves")
        for k, v in point.items():
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"binding for {k} is not rational")
        n = _p_eval(self.num, point, True)
        d = _p_eval(self.den, point, True)
        if d == 0:
            raise DivisionByZero("denominator vanishes at the point")
        return Fraction(n) / Fraction(d)

    # -- zero testing ----------------------------------------------------

    def is_zero(self) -> ZeroStatus:
        """Tri-state zero decision, exact on the opaque-free fragment."""
        if not self.num:
            return ZeroStatus.ZERO
        if not any(a.kind == Atom.OPAQUE for a in _p_atoms(self.num)):
            return ZeroStatus.NONZERO
        return ZeroStatus.UNKNOWN

    # -- display ---------------------------------------------------------

    def __str__(self):
        num = _p_str(self.num)
        if self.den == _ONE_POLY:
            return num
        return f"({num})/({_p_str(self.den)})"

    def __repr__(self):
        return f"Expr({self})"


def _reduce(num: Poly, den: Poly):
    """Bring a numerator/denominator pair toward the normal form."""
    if den == _ONE_POLY:
        return num, dict(_ONE_POLY)
    # Common monomial content.
    common = None
    for m in list(num) + list(den):
        d = dict(m)
        if common is None:
            common = d
        else:
            common = {a: min(e, d[a]) for a, e in common.items() if a in d}
        if not common:
            break
    if common:
        shift = _mono(common)
        num = {_mono_div(m, shift): c for m, c in num.items()}
        den = {_mono_div(m, shift): c for m, c in den.items()}
    if len(den) == 1 and () in den:
        k = den[()]
        return _p_scale(num, 1 / k), dict(_ONE_POLY)
    # Exact division attempt.
    quo, rem = _p_divmod(num, den)
    if not rem:
        return quo, dict(_ONE_POLY)
    # Univariate gcd when both sides live in one shared atom.
    if len(_p_atoms(num) | _p_atoms(den)) == 1:
        g = _p_gcd(num, den)
        if g != _ONE_POLY:
            num = _p_divmod(num, g)[0]
            den = _p_divmod(den, g)[0]
    # Monic denominator for a deterministic normal form.
    lc = den[_p_leading(den)]
    if lc != 1:
        num = _p_scale(num, 1 / lc)
        den = _p_scale(den, 1 / lc)
    return num, den


def _p_diff(p: Poly, var: str) -> Poly:
    out: Poly = {}
    for m, c in p.items():
        for i, (atom, e) in enumerate(m):
            rest = m[:i] + m[i + 1:]
            if atom.kind == Atom.VAR:
                if atom.name != var:
                    continue
                term_mono = rest if e == 1 else _mono_mul(rest, ((atom, e - 1),))
                out = _p_add(out, {term_mono: c * e})
            else:
                if atom.arg != var:
                    continue
                dfunc = atom.func.derivative
                if dfunc is None:
                    raise OpaqueNoDerivative(
                        f"@{atom.name}({atom.arg}) has no derivative leaf")
                datom = _opaque_atom(dfunc, atom.arg)
                term = ((datom, 1),) if e == 1 else _mono_mul(((atom, e - 1),), ((datom, 1),))
                out = _p_add(out, {_mono_mul(rest, term): c * e})
    return out


def _p_subs(p: Poly, mapping: Mapping[str, Expr]) -> Expr:
    out = Expr.zero()
    for m, c in p.items():
        term = Expr.const(c)
        for atom, e in m:
            if atom.kind == Atom.VAR and atom.name in mapping:
                term = term * (mapping[atom.name] ** e)
            elif atom.kind == Atom.OPAQUE and atom.arg in mapping:
                raise OpaqueSubstitution(
                    f"cannot substitute into @{atom.name}({atom.arg})")
            else:
                term = term * Expr(
                    {((atom, e),): Fraction(1)}, dict(_ONE_POLY))
        out = out + term
    return out


def _atom_value(atom: Atom, point: Mapping[str, float]):
    if atom.kind == Atom.VAR:
        if atom.name not in point:
            raise UnboundSymbol(f"no value bound for {atom.name}")
        return point[atom.name]
    if atom.arg not in point:
        raise UnboundSymbol(f"no value bound for {atom.arg}")
    if atom.func.evaluator is None:
        raise OpaqueNoEvaluator(f"@{atom.name} has no evaluator")
    return atom.func.evaluator(float(point[atom.arg]))


def _p_eval(p: Poly, point: Mapping[str, float], exact: bool):
    total = Fraction(0) if exact else 0.0
    for m, c in p.items():
        term = c if exact else float(c)
        for atom, e in m:
            v = _atom_value(atom, point)
            term = term * (v ** e)
        total = total + term
    return total


def _p_str(p: Poly) -> str:
    if not p:
        return "0"
    parts = []
    for m in sorted(p, key=_mono_key, reverse=True):
        c = p[m]
        factors = []
        for atom, e in m:
            name = repr(atom)
            factors.append(name if e == 1 else f"{name}^{e}")
        body = "*".join(factors)
        if not body:
            parts.append((c, str(abs(c))))
        elif abs(c) == 1:
            parts.append((c, body))
        else:
            parts.append((c, f"{abs(c)}*{body}"))
    out = ""
    for c, text in parts:
        if not out:
            out = ("-" if c < 0 else "") + text
        else:
            out += (" - " if c < 0 else " + ") + text
    return out


def _float64_pow(v: float, p: int) -> float:
    """v ** p, with the +-inf of float64 where Python's float overflows."""
    try:
        return v ** p
    except OverflowError:
        return -math.inf if v < 0 and p % 2 else math.inf


def _define(name: str, source: str, namespace: dict) -> Callable:
    """The function `name` defined by the generated Python `source`.

    `namespace` becomes the function's globals; its "__name__" entry is
    the function's __module__, which names the function in traces.
    """
    exec(compile(source, f"<generated {name}>", "exec"), namespace)
    return namespace[name]


# terms per generated statement; a longer sum nests too deep to compile
_SUM_CHUNK = 200


def _sum_lines(var: str, terms: Sequence[str]) -> list:
    """Statements leaving 0.0 + terms[0] + terms[1] + ... in `var`, left to right."""
    lines, acc = [], "0.0"
    for k in range(0, max(len(terms), 1), _SUM_CHUNK):
        lines.append(f"{var} = " + " + ".join([acc, *terms[k:k + _SUM_CHUNK]]))
        acc = var
    return lines


def compile_numeric(exprs: Sequence[Expr],
                    order: Sequence[str]) -> Callable[[Sequence[float]], list]:
    """One float kernel: values (one per name in `order`) -> [exprs[k] there].

    The kernel is one generated Python function.  It binds each slot it
    reads to a local and writes each entry out as 0.0 + c*v0**2*v1 + ...
    in normal-form term order: each term's factors multiply left to right
    and the terms add up from 0.0, as the term interpreter it replaced
    did, so the floats are unchanged.  Entries are evaluated one after
    another, denominator first, so the floats and errors are those of
    evaluating each expression alone; the kernel raises DivisionByZero
    when a denominator vanishes.  Python's float ** int raises
    OverflowError where float64 gives +-inf; a polynomial in which that
    happens is evaluated again with _float64_pow, so an overflow reads as
    a pole.  Each distinct opaque leaf, an (evaluator, slot) pair, is
    evaluated at most once per kernel call: it is bound to a local just
    before the first statement that reads it in evaluation order, and
    every later term, fallback and entry reads that local.  So a leaf
    only in a numerator is not called before its denominator is tested,
    and evaluators must be pure functions of their argument.  Opaque
    leaves must carry evaluators, and every variable needs a slot in
    `order`: compilation raises OpaqueNoEvaluator or UnboundSymbol
    otherwise.
    """
    index = {name: i for i, name in enumerate(order)}
    namespace = {"__name__": __name__, "_pow": _float64_pow,
                 "DivisionByZero": DivisionByZero}
    slots = set()
    # id(evaluator) -> its identifier; namespace keeps the evaluator alive
    evaluators = {}
    # call "_fK(vJ)" -> the local "oN" bound to its value; calls bound so far
    leaves, bound = {}, set()

    def slot(name: str) -> str:
        if name not in index:
            raise UnboundSymbol(f"no slot for {name}")
        slots.add(index[name])
        return f"v{index[name]}"

    def assign(var: str, p: Poly) -> tuple:
        """Statements leaving p's value in `var`, with the overflow fallback,
        and the leaf calls they read, in evaluation order."""
        fast, slow, reads = [], [], []
        for m, c in p.items():
            plain, calls = [], []
            for atom, e in m:
                if atom.kind == Atom.VAR:
                    plain.append((slot(atom.name), e))
                    continue
                f = atom.func.evaluator
                if f is None:
                    raise OpaqueNoEvaluator(f"@{atom.name} has no evaluator")
                arg = slot(atom.arg)
                if id(f) not in evaluators:
                    evaluators[id(f)] = f"_f{len(evaluators)}"
                    namespace[evaluators[id(f)]] = f
                call = f"{evaluators[id(f)]}({arg})"
                leaves.setdefault(call, f"o{len(leaves)}")
                reads.append(call)
                calls.append((leaves[call], e))
            factors = plain + calls
            fast.append("*".join([repr(float(c))] + [
                v if e == 1 else f"{v}**{e}" for v, e in factors]))
            slow.append("*".join([repr(float(c))] + [
                v if e == 1 else f"_pow({v}, {e})" for v, e in factors]))
        if fast == slow:  # no power, so no OverflowError to catch
            return _sum_lines(var, fast), reads
        return (["try:"] + ["    " + s for s in _sum_lines(var, fast)]
                + ["except OverflowError:"]
                + ["    " + s for s in _sum_lines(var, slow)]), reads

    def bind(statements: tuple) -> list:
        """The statements, after a binding of each leaf they are first to read."""
        lines, reads = statements
        first = [call for call in dict.fromkeys(reads) if call not in bound]
        bound.update(first)
        return [f"{leaves[call]} = {call}" for call in first] + lines

    body = []
    for k, e in enumerate(exprs):
        # numerator first, so compile-time errors come in that order
        num = assign(f"e{k}", e.num)
        if e.den == _ONE_POLY:
            body += bind(num)
            continue
        body += bind(assign("d", e.den))
        body += ["if d == 0.0:",
                 "    raise DivisionByZero('denominator vanishes at the point')"]
        body += bind(num) + [f"e{k} = e{k} / d"]
    body.append("return [" + ", ".join(f"e{k}" for k in range(len(exprs))) + "]")
    source = "\n    ".join(["def kernel(values):"]
                            + [f"v{i} = values[{i}]" for i in sorted(slots)]
                            + body)
    return _define("kernel", source + "\n", namespace)


# -- parsing -------------------------------------------------------------

_TOKEN_CHARS = set("+-*/^()@,'")
_DIGITS = frozenset("0123456789")  # str.isdigit() also takes "²" and "١"


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _TOKEN_CHARS:
            tokens.append((ch, ch, i))
            i += 1
        elif ch in _DIGITS or (ch == "." and i + 1 < n and text[i + 1] in _DIGITS):
            j = i
            seen_dot = False
            while j < n and (text[j] in _DIGITS or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r} at position {i}")
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, variables, registry):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = set(variables)
        self.registry = dict(registry or {})

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(
                f"expected {kind} at position {tok[2]} in {self.text!r}")
        self.pos += 1
        return tok

    def parse(self) -> Expr:
        e = self.sum()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input at position {tok[2]} in {self.text!r}")
        return e

    def sum(self) -> Expr:
        e = self.product()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.product()
            e = e + rhs if op == "+" else e - rhs
        return e

    def product(self) -> Expr:
        e = self.power()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            rhs = self.power()
            e = e * rhs if op == "*" else e / rhs
        return e

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            sign = 1
            while self.peek()[0] == "-":
                self.take()
                sign = -sign
            tok = self.take("num")
            if "." in tok[1]:
                raise ParseError(f"exponent must be an integer at position {tok[2]}")
            return base ** (sign * int(tok[1]))
        return base

    def atom(self) -> Expr:
        kind, value, pos = self.peek()
        if kind == "num":
            self.take()
            return Expr.const(Fraction(value))
        if kind == "(":
            self.take()
            e = self.sum()
            self.take(")")
            return e
        if kind == "-" or kind == "+":
            self.take()
            inner = self.power()
            return -inner if kind == "-" else inner
        if kind == "@":
            self.take()
            name = self.take("ident")[1]
            if name not in self.registry:
                raise ParseError(f"opaque function @{name} is not registered")
            func = self.registry[name]
            while self.peek()[0] == "'":
                func = func.derivative
                if func is None:
                    raise ParseError(f"@{name} has no derivative for the prime "
                                     f"at position {self.peek()[2]}")
                self.take()
            self.take("(")
            arg = self.take("ident")[1]
            if arg not in self.variables:
                raise ParseError(
                    f"opaque argument {arg} is not a declared variable")
            self.take(")")
            return Expr.opaque(func, arg)
        if kind == "ident":
            self.take()
            if value in self.variables:
                return Expr.var(value)
            raise ParseError(f"unknown symbol {value!r} at position {pos}")
        raise ParseError(f"unexpected token at position {pos} in {self.text!r}")


def _is_name(text: str) -> bool:
    """True when text is one identifier, which parse reads back as itself."""
    try:
        tokens = _tokenize(text)
    except ParseError:
        return False
    return len(tokens) == 2 and tokens[0][:2] == ("ident", text)


def parse(text: str, variables: Iterable[str], *,
          registry: Optional[Mapping[str, OpaqueFunction]] = None) -> Expr:
    """Parse infix syntax with exact rationals, ^ powers and @fn(t) leaves.

    Numbers are ASCII; identifiers must be variables (no named constants).
    """
    if not isinstance(text, str):
        raise ParseError(f"expected an expression string, got {type(text).__name__}")
    return _Parser(text, variables, registry).parse()
