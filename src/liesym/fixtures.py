"""Opaque-function building blocks backed by exact derivative chains.

Closed-form symmetry families for the catalog systems are products of
special functions whose argument is an affine function of time.  The
expression layer only admits opaque leaves applied to a bare variable,
so each profile enters as its own opaque function of t with a finite
derivative chain registered up front.  The chain links are exact (they
encode the defining second-order equation of the profile); evaluators
come from scipy.special when numbers are needed.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Callable, Dict, Optional, Sequence, Tuple

from .errors import BadParams, FixtureMissing
from .expr import Expr, OpaqueFunction, parse

__all__ = [
    "airy_profile_pair",
    "bessel_profile_pair",
    "opaque_chain",
]


def _special():
    try:
        from scipy import special
    except ImportError as exc:  # pragma: no cover - scipy is a hard dep
        raise FixtureMissing(
            "scipy.special is required for the special-function profiles"
        ) from exc
    return special


def opaque_chain(name: str, var: str = "t", depth: int = 3,
                 evaluators: Optional[Sequence[Callable[[float], float]]] = None,
                 ) -> Expr:
    """An opaque leaf `name(var)` with `depth` registered derivatives.

    The k-th derivative is another opaque named with k primes.  When
    `evaluators` is given it must supply depth+1 callables, one per
    chain link, deepest last.
    """
    if depth < 0:
        raise BadParams("derivative chain depth must be nonnegative")
    if evaluators is not None and len(evaluators) != depth + 1:
        raise BadParams(
            f"need {depth + 1} evaluators for a chain of depth {depth}")
    return Expr.opaque(_chain(name, depth, evaluators), var)


def _chain(name: str, depth: int, evaluators=None) -> OpaqueFunction:
    """The head of opaque_chain's derivative chain, built deepest first."""
    link = None
    for k in range(depth, -1, -1):
        ev = evaluators[k] if evaluators is not None else None
        link = OpaqueFunction(name + "'" * k, evaluator=ev, derivative=link)
    return link


_OPAQUE_NAME = re.compile(r"@([A-Za-z_][A-Za-z_0-9]*)")


def _opaque_registry(texts: Sequence[str]) -> Dict[str, OpaqueFunction]:
    """Each @name in the texts as a formal depth-3 chain with no evaluator."""
    found = {name for text in texts for name in _OPAQUE_NAME.findall(text)}
    return {name: _chain(name, 3) for name in sorted(found)}


def _parse_profile(text: str, variables: Sequence[str]) -> Expr:
    """text with each @name(v) in it an opaque profile, as documents read it."""
    return parse(text, variables, registry=_opaque_registry([text]))


def _positive_float(value, what: str) -> float:
    out = float(Fraction(value))
    if out <= 0.0:
        raise BadParams(f"{what} must be positive, got {value}")
    return out


def bessel_profile_pair(a, b, var: str = "t") -> Tuple[Expr, Expr]:
    """The pair phi(t) = sqrt(a t + b) * C1(2 sqrt((a t + b)/a^2)).

    C1 is the order-one Bessel function of the first (J) and second (Y)
    kind respectively.  Both satisfy phi'' = -phi / (a t + b), so their
    pairwise products span the solutions of the third-order symmetry
    reduction with the simple-pole coefficient 1/(a t + b).  Requires
    a > 0; evaluation needs a t + b > 0.
    """
    sp = _special()
    af = _positive_float(a, "pole slope a")
    bf = float(Fraction(b))

    def chain(c1, c1p, tag):
        def x(t):
            return af * t + bf

        def w(t):
            return 2.0 * math.sqrt(x(t)) / af

        def phi(t):
            return math.sqrt(x(t)) * c1(w(t))

        def dphi(t):
            return af * c1(w(t)) / (2.0 * math.sqrt(x(t))) + c1p(w(t))

        def d2phi(t):
            return -phi(t) / x(t)

        def d3phi(t):
            return -dphi(t) / x(t) + af * phi(t) / x(t) ** 2

        name = f"{tag}[{Fraction(a)};{Fraction(b)}]"
        return opaque_chain(name, var, depth=3,
                            evaluators=[phi, dphi, d2phi, d3phi])

    first = chain(lambda w: sp.jv(1, w), lambda w: sp.jvp(1, w), "besJ")
    second = chain(lambda w: sp.yv(1, w), lambda w: sp.yvp(1, w), "besY")
    return first, second


def airy_profile_pair(a, b, var: str = "t") -> Tuple[Expr, Expr]:
    """The pair phi(t) = Ai(-(a t + b)/a^(2/3)) and the Bi companion.

    Both satisfy phi'' = -(a t + b) phi, so their pairwise products span
    the solutions of the third-order symmetry reduction with linear
    coefficient a t + b.  Requires a > 0.
    """
    sp = _special()
    af = _positive_float(a, "linear slope a")
    bf = float(Fraction(b))
    scale = af ** (1.0 / 3.0)

    def chain(pick, tag):
        def z(t):
            return -(af * t + bf) / scale ** 2

        def phi(t):
            return pick(sp.airy(z(t)))[0]

        def dphi(t):
            return -scale * pick(sp.airy(z(t)))[1]

        def d2phi(t):
            return -(af * t + bf) * phi(t)

        def d3phi(t):
            return -af * phi(t) - (af * t + bf) * dphi(t)

        name = f"{tag}[{Fraction(a)};{Fraction(b)}]"
        return opaque_chain(name, var, depth=3,
                            evaluators=[phi, dphi, d2phi, d3phi])

    first = chain(lambda q: (q[0], q[1]), "airA")
    second = chain(lambda q: (q[2], q[3]), "airB")
    return first, second
