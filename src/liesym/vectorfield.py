"""Vector fields with exact expression components and jet prolongation.

A VectorField is a coordinate tuple plus one Expr component per
coordinate.  Components may mention extra symbols (time, parameters);
the Lie bracket differentiates only along the declared coordinates, so a
field over (x, v) treats t as a parameter while a field over (t, x, v)
differentiates through t as well.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import DimensionMismatch, NotVertical
from .expr import Expr, ZeroStatus


class VectorField:
    """First-order differential operator sum_i components[i] d/d vars[i]."""

    __slots__ = ("vars", "components")

    def __init__(self, vars: Sequence[str], components: Sequence):
        vars = tuple(vars)
        comps = tuple(Expr._coerce(c) for c in components)
        if len(vars) != len(comps):
            raise DimensionMismatch(
                f"{len(vars)} coordinates but {len(comps)} components")
        if len(set(vars)) != len(vars):
            raise DimensionMismatch(f"repeated coordinate in {vars}")
        self.vars = vars
        self.components = comps

    def component(self, var: str) -> Expr:
        return self.components[self.vars.index(var)]

    def apply(self, e: Expr) -> Expr:
        """Directional derivative of a scalar expression."""
        out = Expr.zero()
        for v, c in zip(self.vars, self.components):
            out = out + c * e.diff(v)
        return out

    def __add__(self, other: "VectorField") -> "VectorField":
        self._check_same_space(other)
        return VectorField(self.vars,
                           [a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + (-other)

    def __neg__(self) -> "VectorField":
        return VectorField(self.vars, [-c for c in self.components])

    def __mul__(self, scalar) -> "VectorField":
        s = scalar if isinstance(scalar, Expr) else Expr._coerce(scalar)
        return VectorField(self.vars, [s * c for c in self.components])

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, VectorField) and self.vars == other.vars
                and self.components == other.components)

    def is_zero(self) -> ZeroStatus:
        statuses = {c.is_zero() for c in self.components}
        if statuses <= {ZeroStatus.ZERO}:
            return ZeroStatus.ZERO
        if ZeroStatus.NONZERO in statuses:
            return ZeroStatus.NONZERO
        return ZeroStatus.UNKNOWN

    def _check_same_space(self, other: "VectorField"):
        if not isinstance(other, VectorField):
            raise TypeError("expected a VectorField")
        if self.vars != other.vars:
            raise DimensionMismatch(
                f"fields live on {self.vars} and {other.vars}")

    def __str__(self):
        parts = [f"({c}) d/d{v}" for v, c in zip(self.vars, self.components)
                 if c.is_zero() is not ZeroStatus.ZERO]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"VectorField({self})"


def lie_bracket(a: VectorField, b: VectorField) -> VectorField:
    """Commutator [a, b], differentiating along the declared coordinates."""
    a._check_same_space(b)
    comps = [a.apply(bc) - b.apply(ac)
             for ac, bc in zip(a.components, b.components)]
    return VectorField(a.vars, comps)


def jet_var(xvar: str, timevar: str) -> str:
    """Name of the first-order jet coordinate for dx/dt."""
    return f"{xvar}_{timevar}"


def prolong_first(field: VectorField, times: Iterable[str]) -> VectorField:
    """First prolongation of a vertical field over the given time symbols.

    The input has components eta_k(t, x) over x coordinates only.  The
    output lives on x then the jet coordinates x_{k,q} = jet_var(x_k, t_q),
    k-major: eta, then d eta_k/d t_q + sum_j (d eta_k/d x_j) x_{j,q}.
    """
    times = tuple(times)
    for tv in times:
        if tv in field.vars:
            raise NotVertical(
                f"field has a coordinate named {tv}; prolongation needs a "
                f"vertical field over the x coordinates only")
    jet_names = tuple(tuple(jet_var(xv, tv) for tv in times) for xv in field.vars)
    flat = [name for row in jet_names for name in row]
    clash = set(flat) & set(field.vars)
    if clash or len(set(flat)) != len(flat):
        raise DimensionMismatch(f"jet coordinate name collision: {clash or flat}")
    jet_exprs = []
    for k, eta in enumerate(field.components):
        for q, tv in enumerate(times):
            comp = eta.diff(tv)
            for j, xv in enumerate(field.vars):
                comp = comp + eta.diff(xv) * Expr.var(jet_names[j][q])
            jet_exprs.append(comp)
    return VectorField(field.vars + tuple(flat),
                       field.components + tuple(jet_exprs))
