"""Exact expression trees for the symbolic layer.

An Expr is kept in a rational normal form: a multivariate polynomial with
exact Fraction coefficients divided by a single shared denominator
polynomial.  The atoms of a monomial are either plain variables or opaque
function leaves such as @eta(t).  Opaque leaves are treated as atomic
symbols by the normalizer; they carry an optional numeric evaluator and an
optional derivative leaf, so differentiation and evaluation work through
them without the normal form ever learning what the function is.

Two expressions with equal normal forms evaluate identically everywhere.
Zero testing is exact on the opaque-free fragment (a rational function is
zero iff its numerator polynomial is zero) and falls back to sampled
evidence when opaque leaves are present.  compile_numeric lowers the
expressions a caller evaluates together into one float kernel.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
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

    def __lt__(self, other):
        return self.key() < other.key()

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


def _mono_key(mono: Monomial):
    return (sum(e for _, e in mono), tuple((a.key(), e) for a, e in mono))


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    merged = {}
    for a, e in m1:
        merged[a] = merged.get(a, 0) + e
    for a, e in m2:
        merged[a] = merged.get(a, 0) + e
    return tuple(sorted(((a, e) for a, e in merged.items() if e), key=lambda p: p[0].key()))


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


def _mono_divides(m1: Monomial, m2: Monomial) -> bool:
    """True when monomial m1 divides m2 exponentwise."""
    need = dict(m1)
    for a, e in m2:
        if a in need:
            need[a] = need[a] - e if need[a] > e else 0
            if need[a] <= 0:
                del need[a]
    return not need


def _mono_div(m2: Monomial, m1: Monomial) -> Monomial:
    quo = dict(m2)
    for a, e in m1:
        quo[a] -= e
        if not quo[a]:
            del quo[a]
    return tuple(sorted(quo.items(), key=lambda p: p[0].key()))


def _p_divmod(num: Poly, den: Poly):
    """Multivariate division in graded-lex order; returns (quotient, remainder)."""
    quo: Poly = {}
    rem = dict(num)
    lead_d = _p_leading(den)
    lc_d = den[lead_d]
    while rem:
        lead_r = _p_leading(rem)
        if not _mono_divides(lead_d, lead_r):
            break
        m = _mono_div(lead_r, lead_d)
        c = rem[lead_r] / lc_d
        quo[m] = quo.get(m, Fraction(0)) + c
        rem = _p_add(rem, _p_neg(_p_mul({m: c}, den)))
    return quo, rem


def _p_atoms(p: Poly) -> set:
    out = set()
    for m in p:
        for a, _ in m:
            out.add(a)
    return out


def _univariate_coeffs(p: Poly) -> list:
    deg = 0
    for m in p:
        if m:
            deg = max(deg, m[0][1])
    coeffs = [Fraction(0)] * (deg + 1)
    for m, c in p.items():
        coeffs[m[0][1] if m else 0] = c
    return coeffs


def _poly_from_univariate(coeffs: list, atom: Atom) -> Poly:
    out: Poly = {}
    for e, c in enumerate(coeffs):
        if c:
            out[() if e == 0 else ((atom, e),)] = c
    return out


def _uni_gcd(c1: list, c2: list) -> list:
    """Monic gcd of univariate coefficient lists over Fraction."""

    def trim(c):
        while c and not c[-1]:
            c.pop()
        return c

    a, b = trim(list(c1)), trim(list(c2))
    while b:
        while len(a) >= len(b):
            if not a:
                break
            f = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, bc in enumerate(b):
                a[shift + i] -= f * bc
            trim(a)
        a, b = b, a
    if a:
        lc = a[-1]
        a = [c / lc for c in a]
    return a


class ZeroStatus(enum.Enum):
    ZERO = "zero"
    NONZERO = "nonzero"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class ZeroReport:
    status: ZeroStatus
    evidence: tuple = ()


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
    def _coerce(value) -> "Expr":
        if isinstance(value, Expr):
            return value
        if isinstance(value, (int, Fraction)):
            return Expr.const(value)
        raise TypeError(f"cannot use {type(value).__name__} in an Expr")

    @staticmethod
    def _try_coerce(value):
        if isinstance(value, Expr):
            return value
        if isinstance(value, (int, Fraction)):
            return Expr.const(value)
        return None

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
        try:
            other = Expr._coerce(other)
        except TypeError:
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

    def opaque_atoms(self) -> set:
        return {a for a in _p_atoms(self.num) | _p_atoms(self.den)
                if a.kind == Atom.OPAQUE}

    @property
    def has_opaque(self) -> bool:
        return bool(self.opaque_atoms())

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

        Opaque arguments may only be renamed to another bare variable;
        substituting a composite expression into an opaque argument raises
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
        exact = not self.has_opaque and all(
            isinstance(v, (int, Fraction)) for v in point.values())
        n = _p_eval(self.num, point, exact)
        d = _p_eval(self.den, point, exact)
        if d == 0:
            raise DivisionByZero("denominator vanishes at the point")
        if exact:
            return float(Fraction(n) / Fraction(d))
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
        shift = tuple(sorted(common.items(), key=lambda p: p[0].key()))
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
    atoms = _p_atoms(num) | _p_atoms(den)
    if len(atoms) == 1:
        atom = next(iter(atoms))
        g = _uni_gcd(_univariate_coeffs(num), _univariate_coeffs(den))
        if len(g) > 1:
            gp = _poly_from_univariate(g, atom)
            num, _ = _p_divmod(num, gp)
            den, _ = _p_divmod(den, gp)
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
                target = mapping[atom.arg]
                new_arg = _as_bare_symbol(target)
                if new_arg is None:
                    raise OpaqueSubstitution(
                        f"cannot substitute a composite expression into "
                        f"@{atom.name}({atom.arg})")
                term = term * (Expr.opaque(atom.func, new_arg) ** e)
            else:
                term = term * Expr(
                    {((atom, e),): Fraction(1)}, dict(_ONE_POLY))
        out = out + term
    return out


def _as_bare_symbol(e: Expr) -> Optional[str]:
    if e.den != _ONE_POLY or len(e.num) != 1:
        return None
    (mono, coeff), = e.num.items()
    if coeff != 1 or len(mono) != 1:
        return None
    atom, exp = mono[0]
    if exp != 1 or atom.kind != Atom.VAR:
        return None
    return atom.name


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


def zero_report(e: Expr, seed: int = 0) -> ZeroReport:
    """Zero decision plus sampled evidence for the Unknown case.

    Opaque leaves with evaluators are evaluated; leaves without are given
    independent random values per sample, which is sound for detecting a
    structurally nonzero polynomial in the leaves.
    """
    status = e.is_zero()
    if status != ZeroStatus.UNKNOWN:
        return ZeroReport(status)
    rng = random.Random(seed)
    evidence = []
    symbols = sorted(e.free_symbols())
    bare = {a for a in _p_atoms(e.num) | _p_atoms(e.den)
            if a.kind == Atom.OPAQUE and a.func.evaluator is None}
    attempts = 0
    while len(evidence) < 32 and attempts < 32 * 8:
        attempts += 1
        point = {s: rng.uniform(-2.0, 2.0) for s in symbols}
        shim = {a: rng.uniform(-2.0, 2.0) for a in bare}
        try:
            n = _p_eval_with_shim(e.num, point, shim)
            d = _p_eval_with_shim(e.den, point, shim)
            if d == 0:
                continue
            evidence.append(abs(n / d))
        except (OpaqueNoEvaluator, UnboundSymbol):
            raise
        except (OverflowError, ValueError):
            continue
    return ZeroReport(status, tuple(evidence))


def _p_eval_with_shim(p: Poly, point, shim):
    total = 0.0
    for m, c in p.items():
        term = float(c)
        for atom, e in m:
            if atom in shim:
                v = shim[atom]
            else:
                v = _atom_value(atom, point)
            term *= v ** e
        total += term
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


def _overflowed_term(c: float, plain, calls, values) -> float:
    """A kernel term in which a float power overflowed, evaluated again.

    Python's float ** int raises OverflowError where float64 gives +-inf;
    the term takes the float64 value, so an overflow reads as a pole.
    """
    acc = c
    for i, p in plain:
        acc *= _float64_pow(values[i], p)
    for f, i, p in calls:
        acc *= _float64_pow(f(values[i]), p)
    return acc


def compile_numeric(exprs: Sequence[Expr],
                    order: Sequence[str]) -> Callable[[Sequence[float]], list]:
    """One float kernel: values (one per name in `order`) -> [exprs[k] there].

    Entries are evaluated one after another, denominator first, so the
    floats and errors are those of evaluating each expression alone.
    Opaque leaves must carry evaluators; the kernel raises DivisionByZero
    when a denominator vanishes.
    """
    index = {name: i for i, name in enumerate(order)}

    def build(p: Poly):
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

    # per entry, the polynomials in evaluation order: (num,) or (den, num)
    entries = []
    for e in exprs:
        num = build(e.num)
        entries.append((num,) if e.den == _ONE_POLY else (build(e.den), num))

    def kernel(values):
        out = []
        for polys in entries:
            # den is checked before num is evaluated; x / 1.0 is exact
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
                        acc = _overflowed_term(c, plain, calls, values)
                    total += acc
            out.append(total / den)
        return out

    return kernel


# -- parsing -------------------------------------------------------------

_TOKEN_CHARS = set("+-*/^()@,'")


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
        elif ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
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
    def __init__(self, text: str, variables, params, registry):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = set(variables)
        self.params = dict(params or {})
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
        kind, _, _ = self.peek()
        negate = False
        while kind in ("+", "-"):
            if kind == "-":
                negate = not negate
            self.take()
            kind = self.peek()[0]
        e = self.product()
        if negate:
            e = -e
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
            if value in self.params:
                v = self.params[value]
                return v if isinstance(v, Expr) else Expr.const(Fraction(v))
            raise ParseError(f"unknown symbol {value!r} at position {pos}")
        raise ParseError(f"unexpected token at position {pos} in {self.text!r}")


def parse(text: str, variables: Iterable[str],
          params: Optional[Mapping[str, Number]] = None,
          registry: Optional[Mapping[str, OpaqueFunction]] = None) -> Expr:
    """Parse infix syntax with exact rationals, ^ powers and @fn(t) leaves."""
    if not isinstance(text, str):
        raise ParseError(f"expected an expression string, got {type(text).__name__}")
    return _Parser(text, variables, params, registry).parse()
