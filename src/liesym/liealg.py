"""Finite-dimensional Lie algebras of vector fields.

Structure constants are extracted by matching monomial coefficients
exactly over the rationals: one reduction of the table of the fields and
all their brackets decides independence and every bracket.  Opaque
leaves count as independent symbols, which keeps the match exact for
bases like Buchdahl's f(x)-dependent fields.  When a bracket leaves the
exact span and opaque leaves are present, a 64-point least-squares
fallback, sampled with the standard library's random.Random(0), is
attempted and the result is flagged as numerical.

Extraction is the oracle: LieAlgebraBasis(fields) runs it, check-algebra
and the catalog bases rely on it.  The symmetry-system builders derive
their tensor from the source tensor instead and hand it to
LieAlgebraBasis._known.
"""

from __future__ import annotations

import numbers
import random
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import rlinalg
from .errors import DependentBasis, DimensionMismatch, NotClosed
from .expr import Expr, OpaqueNoEvaluator, UnboundSymbol, compile_numeric
from .vectorfield import VectorField, lie_bracket

Triple = Tuple[int, int, int]


class StructureTensor:
    """Antisymmetric structure constants c[alpha][beta][gamma], exact.

    Indices are 0-based internally; entries are stored for alpha < beta
    only and mirrored with a sign on access.
    """

    __slots__ = ("r", "data")

    def __init__(self, r: int, entries: Optional[Dict[Triple, Fraction]] = None):
        self.r = r
        self.data: Dict[Triple, Fraction] = {}
        for (a, b, g), v in (entries or {}).items():
            self.set(a, b, g, v)

    def set(self, a: int, b: int, g: int, value) -> None:
        value = Fraction(value)
        if a == b:
            if value:
                raise ValueError("c[a][a][g] must vanish")
            return
        if a > b:
            a, b, value = b, a, -value
        key = (a, b, g)
        if value:
            self.data[key] = value
        else:
            self.data.pop(key, None)

    def c(self, a: int, b: int, g: int) -> Fraction:
        if a == b:
            return Fraction(0)
        if a < b:
            return self.data.get((a, b, g), Fraction(0))
        return -self.data.get((b, a, g), Fraction(0))

    def bracket(self, u: Sequence, v: Sequence) -> list:
        """[u, v]_g = sum_{a,b} u_a v_b c[a][b][g] for coefficient vectors.

        Entries may be Fractions, Exprs or floats; stored constants are
        visited in sorted key order, so the result is deterministic, and a
        component that no constant reaches is the integer 0.
        """
        w = [0] * self.r
        for (a, b, g), c in sorted(self.data.items()):
            w[g] = w[g] + c * (u[a] * v[b] - u[b] * v[a])
        return w

    def float_bracket(self) -> Callable[[Sequence[float], Sequence[float]], list]:
        """bracket() for float vectors, with the constants read as floats once.

        Fraction * float is float(c) * x, so the values are bracket()'s.
        """
        consts = [(a, b, g, float(c)) for (a, b, g), c in sorted(self.data.items())]
        r = self.r

        def bracket(u, v):
            w = [0] * r
            for a, b, g, c in consts:
                w[g] = w[g] + c * (u[a] * v[b] - u[b] * v[a])
            return w

        return bracket

    def __eq__(self, other):
        return (isinstance(other, StructureTensor)
                and self.r == other.r and self.data == other.data)

    def __hash__(self):
        return hash((self.r, tuple(sorted(self.data.items()))))

    def __repr__(self):
        items = ", ".join(
            f"c{a + 1}{b + 1}{g + 1}={v}" for (a, b, g), v in sorted(self.data.items()))
        return f"StructureTensor(r={self.r}, {items or 'abelian'})"

    def to_triples(self) -> List[list]:
        """JSON form: 1-based [alpha, beta, gamma, "p/q"] with alpha < beta."""
        return [[a + 1, b + 1, g + 1, str(v)]
                for (a, b, g), v in sorted(self.data.items())]

    @staticmethod
    def from_triples(r: int, triples: Sequence[Sequence]) -> "StructureTensor":
        """Read 1-based [alpha, beta, gamma, value] rows; an index that is
        not an integer in 1..r raises DimensionMismatch."""
        t = StructureTensor(r)
        for a, b, g, v in triples:
            for i in (a, b, g):
                if (isinstance(i, bool) or not isinstance(i, numbers.Integral)
                        or not 1 <= i <= r):
                    raise DimensionMismatch(
                        f"structure-constant index {i!r} is not an integer "
                        f"in 1..{r}")
            t.set(a - 1, b - 1, g - 1, Fraction(str(v)))
        return t


def jacobi_residual(tensor: StructureTensor) -> Fraction:
    """Max abs of the Jacobi sums; exactly zero for a Lie algebra.

    [[X_a, X_b], X_g] = sum_d c_abd [X_d, X_g] is read off the stored
    constants, so only pairs with a nonzero bracket are visited.
    """
    rows: Dict[Tuple[int, int], list] = {}
    for (a, b, d), c in tensor.data.items():
        rows.setdefault((a, b), []).append((d, c))
        rows.setdefault((b, a), []).append((d, -c))
    r = tensor.r
    worst = Fraction(0)
    for a in range(r):
        for b in range(a + 1, r):
            for g in range(b + 1, r):
                sums: Dict[int, Fraction] = {}
                for p, q, w in ((a, b, g), (b, g, a), (g, a, b)):
                    for d, c in rows.get((p, q), ()):
                        for e, v in rows.get((d, w), ()):
                            sums[e] = sums.get(e, 0) + c * v
                worst = max([worst] + [abs(x) for x in sums.values()])
    return worst


def center(tensor: StructureTensor) -> List[List[Fraction]]:
    """Exact basis of the center: vectors v with sum_a v_a c[a][b][g] = 0."""
    r = tensor.r
    rows = []
    for b in range(r):
        for g in range(r):
            rows.append([tensor.c(a, b, g) for a in range(r)])
    return rlinalg.nullspace(rows)


def transform_tensor(tensor: StructureTensor, a_matrix) -> StructureTensor:
    """Structure constants in the basis new_i = sum_j A[i][j] old_j."""
    r = tensor.r
    a = [[Fraction(v) for v in row] for row in a_matrix]
    inv = rlinalg.invert(a)
    if inv is None:
        raise DependentBasis("change of basis matrix is singular")
    out = StructureTensor(r)
    for al in range(r):
        for be in range(al + 1, r):
            old = tensor.bracket(a[al], a[be])
            for mu in range(r):
                out.set(al, be, mu, sum(old[e] * inv[e][mu] for e in range(r)))
    return out


def _monomial_table(fields: Sequence[VectorField]) -> List[List[Fraction]]:
    """One column per field: its exact monomial coefficients.

    Per component, the product of the distinct denominators multiplies
    every field, which is exact because each denominator divides the
    product.  Rows are (component, monomial) keys; linear relations
    between the columns are those between the fields.
    """
    one = {(): Fraction(1)}
    tables: List[Dict[tuple, Fraction]] = [dict() for _ in fields]
    for i in range(len(fields[0].components)):
        dens = []
        for f in fields:
            d = f.components[i].den
            if d != one and all(d != seen for seen in dens):
                dens.append(d)
        clear = Expr.one()
        for d in dens:
            clear = clear * Expr(dict(d), dict(one))
        for tab, f in zip(tables, fields):
            e = f.components[i] * clear
            if e.den != one:
                raise NotClosed(
                    "could not clear component denominators exactly")
            for mono, coeff in e.num.items():
                tab[(i, mono)] = coeff
    keys = dict.fromkeys(k for tab in tables for k in tab)
    return [[tab.get(key, Fraction(0)) for tab in tables] for key in keys]


def match_in_span(fields: Sequence[VectorField],
                  target: VectorField) -> Optional[List[Fraction]]:
    """Exact coefficients writing target = sum_g c_g fields[g], or None."""
    table = _monomial_table(list(fields) + [target])
    return rlinalg.solve([row[:-1] for row in table], [row[-1] for row in table])


def field_rank(fields: Sequence[VectorField]) -> int:
    """Rank of the fields as vectors of exact monomial coefficients."""
    return rlinalg.rank(_monomial_table(list(fields)))


def extract_structure_constants(fields: Sequence[VectorField]
                                ) -> Tuple[StructureTensor, str]:
    """Expand every bracket in the given basis; returns (tensor, method).

    One rref of the table whose columns are the r fields and then the
    r(r-1)/2 brackets decides everything: the basis is independent when
    columns 0..r-1 are the first r pivots, and a bracket lies in the
    span when its column vanishes below row r, its first r entries then
    being its coefficients.  method is "exact" when every bracket lies
    in the span, "numerical" when a sampled least-squares fallback was
    needed for some pair.  Raises DependentBasis or NotClosed.
    """
    fields = list(fields)
    if not fields:
        raise DependentBasis("empty basis")
    vars0 = fields[0].vars
    for f in fields:
        if f.vars != vars0:
            raise DependentBasis("basis fields live on different coordinates")
    r = len(fields)
    pairs = [(a, b) for a in range(r) for b in range(a + 1, r)]
    brackets = [lie_bracket(fields[a], fields[b]) for a, b in pairs]
    m, pivots = rlinalg.rref(_monomial_table(fields + brackets))
    if pivots[:r] != list(range(r)):
        raise DependentBasis("basis fields are linearly dependent")

    tensor = StructureTensor(r)
    method = "exact"
    for col, ((a, b), bracket) in enumerate(zip(pairs, brackets), r):
        sol = [row[col] for row in m[:r]]
        if any(row[col] for row in m[r:]):
            opaque = any(c.has_opaque for f in fields + [bracket]
                         for c in f.components)
            if not opaque:
                raise NotClosed(
                    f"bracket [X{a + 1}, X{b + 1}] is outside the span "
                    f"of the basis")
            sol = _numeric_fallback(fields, bracket, a, b)
            method = "numerical"
        for g, v in enumerate(sol):
            if v:
                tensor.set(a, b, g, v)
    return tensor, method


def _numeric_fallback(fields, bracket, a, b):
    """Sampled least-squares solve of [Xa, Xb] = sum_g c_g Xg.

    64 points per coordinate, drawn by random.Random(0); the fit must
    leave a residual of at most 1e-9.
    """
    vars0 = fields[0].vars
    comps = [c for f in list(fields) + [bracket] for c in f.components]
    symbols = set()
    for c in comps:
        symbols |= c.free_symbols()
    order = list(vars0) + sorted(symbols - set(vars0))
    n, r = len(vars0), len(fields)
    try:
        kernel = compile_numeric(comps, order)
    except (OpaqueNoEvaluator, UnboundSymbol) as exc:
        raise NotClosed(
            f"bracket [X{a + 1}, X{b + 1}] left the exact span and the "
            f"numerical fallback cannot evaluate the fields: {exc}") from exc
    rng = random.Random(0)
    rows, rhs = [], []
    attempts = 0
    while len(rows) < 64 * n and attempts < 640:
        attempts += 1
        pt = [rng.uniform(0.3, 1.7) for _ in order]
        try:
            vals = kernel(pt)
        except Exception:
            continue
        for i in range(n):
            rows.append([vals[g * n + i] for g in range(r)])
            rhs.append(vals[r * n + i])
    import numpy as np
    mat = np.array(rows)
    vec = np.array(rhs)
    sol, *_ = np.linalg.lstsq(mat, vec, rcond=None)
    resid = float(np.max(np.abs(mat @ sol - vec))) if len(rows) else float("inf")
    if resid > 1e-9:
        raise NotClosed(
            f"bracket [X{a + 1}, X{b + 1}] is outside the span "
            f"(sampled residual {resid:.3e})", residual=resid)
    snapped = [Fraction(float(v)).limit_denominator(10 ** 6) for v in sol]
    snap_vec = np.array([float(v) for v in snapped])
    if float(np.max(np.abs(mat @ snap_vec - vec))) <= 1e-9:
        return snapped
    return [Fraction(float(v)) for v in sol]


class LieAlgebraBasis:
    """A basis of vector fields with its structure tensor.

    The constructor extracts the tensor; _known takes one that is already
    known, as the symmetry-system builders derive it from their source.
    """

    __slots__ = ("fields", "tensor", "method")

    def __init__(self, fields: Sequence[VectorField]):
        self.fields = tuple(fields)
        self.tensor, self.method = extract_structure_constants(self.fields)

    @classmethod
    def _known(cls, fields: Sequence[VectorField], tensor: StructureTensor,
               method: str) -> "LieAlgebraBasis":
        """A basis whose tensor and method are given, trusted unchecked."""
        basis = cls.__new__(cls)
        basis.fields = tuple(fields)
        basis.tensor, basis.method = tensor, method
        return basis

    @property
    def r(self) -> int:
        return len(self.fields)

    @property
    def vars(self) -> Tuple[str, ...]:
        return self.fields[0].vars

    def combination(self, weights: Sequence) -> VectorField:
        """sum_a weights[a] fields[a], each component summed in basis order from 0."""
        weights = [Expr._coerce(w) for w in weights]
        comps = []
        for i in range(len(self.vars)):
            acc = Expr.zero()
            for w, f in zip(weights, self.fields):
                acc = acc + w * f.components[i]
            comps.append(acc)
        return VectorField(self.vars, comps)
