"""Lie systems and their symmetry systems.

A Lie system is a time-dependent vector field X(t,x) = sum_a b_a(t) X_a
whose X_a span a finite-dimensional Lie algebra.  For every choice of a
gauge function b0(t), the time-dependent symmetries of the form
Y = f0(t) d/dt + sum_a f_a(t) X_a, with [Y, Xbar] = -b0 Xbar for
Xbar = d/dt + X, are exactly the solutions of another Lie system on the
coefficient space (f0, f1, ..., fr):

    df0/dt = b0
    dfa/dt = f0 b_a' + b_a b0 + sum_{b,g} b_b f_g c_{gba}

The sum is the Lie bracket of coefficient vectors,
[u, v]_g = sum_{a,b} u_a v_b c_{abg} (StructureTensor.bracket), so
df/dt = f0 b' + b0 b + [f, b]: the vertical generators are Y_a = [f, e_a]
and the f0 = 0 reduced flow is df/dt = [f, b(t)].

build_symmetry_system constructs that system from the structure tensor,
and derives the structure tensor of its own basis from the source one
rather than extracting it again; symmetry_residual re-checks any
candidate through honest vector-field brackets that never touch the
builder's formula.  They stay on state space: with b0 = f0' the d/dt
component of [Y, Xbar] + b0 Xbar is -f0' + f0' = 0, which leaves
f0 dX/dt + f0' X - (dY_v/dt + [X, Y_v]), Y_v = sum_a f_a X_a.  Sampled
checks draw their states with random.Random: a seed gives the same
points on every run.
"""

from __future__ import annotations

import math
import random
from dataclasses import KW_ONLY, dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from . import rlinalg
from .errors import (
    BadParams,
    DimensionMismatch,
    GridEmpty,
    MissingDerivative,
    QuadratureDiverged,
    TransportLeftDomain,
)
from .expr import Expr, ZeroStatus, _is_name, compile_numeric
from .integrate import Trajectory, _check_span, cumulative_simpson, rk4_solve
from .liealg import LieAlgebraBasis, StructureTensor, center
from .vectorfield import VectorField, lie_bracket

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class _SystemCore:
    """What single- and multi-time Lie systems share: a basis, one
    coefficient entry per basis field, and where states are sampled."""

    algebra: LieAlgebraBasis
    coeffs: tuple
    _: KW_ONLY
    name: str = ""
    state_box: Optional[Tuple[Tuple[float, float], ...]] = None
    excluded: Optional[Callable[[Sequence[float]], bool]] = None

    def _check(self, times: Tuple[str, ...]) -> None:
        """BadParams unless every time and state name is one identifier
        (a comma or a space would break the CSV header), DimensionMismatch
        unless coeffs, times and state_box fit the basis."""
        for name in times + self.vars:
            if not _is_name(name):
                raise BadParams(f"time and state names must be identifiers, "
                                f"got {name!r}")
        if len(self.coeffs) != self.r:
            raise DimensionMismatch(
                f"{self.r} basis fields but {len(self.coeffs)} coefficients")
        clash = set(times) & set(self.vars)
        if clash:
            raise DimensionMismatch(
                f"time symbols {sorted(clash)} clash with state coordinates")
        if self.state_box is not None and len(self.state_box) != len(self.vars):
            raise DimensionMismatch(
                f"state box has {len(self.state_box)} intervals for "
                f"{len(self.vars)} state coordinates")

    @property
    def r(self) -> int:
        return self.algebra.r

    @property
    def vars(self) -> Tuple[str, ...]:
        return self.algebra.vars

    def default_box(self) -> Tuple[Tuple[float, float], ...]:
        return self.state_box or tuple((-2.0, 2.0) for _ in self.vars)


@dataclass(frozen=True, kw_only=True)
class LieSystem(_SystemCore):
    """dx/dt = sum_a coeffs[a](t) algebra.fields[a](x), plus a gauge b0."""

    gauge: Expr = field(default_factory=Expr.zero)
    time: str = "t"

    def __post_init__(self):
        object.__setattr__(self, "coeffs",
                           tuple(Expr._coerce(c) for c in self.coeffs))
        object.__setattr__(self, "gauge", Expr._coerce(self.gauge))
        self._check((self.time,))

    def drift_field(self) -> VectorField:
        """The field sum_a b_a(t) X_a on state space, time as a parameter."""
        return self.algebra.combination(self.coeffs)

    def rhs(self) -> Callable[[float, List[float]], list]:
        kernel = compile_numeric(self.drift_field().components,
                                 (self.time,) + self.vars)

        def f(t, y):
            return kernel([t] + y)

        return f


def integrate(sys: LieSystem, x0: Sequence[float],
              t_span: Tuple[float, float], step: float) -> Trajectory:
    """Fixed-step RK4 trajectory of the system itself."""
    return rk4_solve(sys.rhs(), x0, t_span, step, excluded=sys.excluded)


# -- symmetry system construction ------------------------------------------


def _y_generators(tensor: StructureTensor,
                 names: Tuple[str, ...]) -> List[VectorField]:
    """Y_a = [f, e_a] = sum_{b,g} f_b c_{bag} d/df_g for a = 1..r.

    The last r names are f1..fr; a leading f0 coordinate, as in the
    single-time symmetry system, gets zero components.
    """
    r = tensor.r
    lead = len(names) - r
    fs = [Expr.var(v) for v in names[lead:]]
    return [VectorField(names, [0] * lead + tensor.bracket(fs, unit))
            for unit in ([int(a == b) for b in range(r)] for a in range(r))]


def _fold_coefficients(tensor: StructureTensor) -> List[Optional[List[Fraction]]]:
    """Which generators Y_a of the tensor are kept, and how the others fold.

    Entry a is None when Y_a is kept, and otherwise the exact c_j with
    Y_a = sum_j c_j kept[j] over the generators kept before it; a zero
    generator gets zeros.  One rref of the matrix whose column a holds
    the coefficients c_bag of f_b d/df_g, flattened over (b, g), decides
    all of it: the pivot columns are the kept generators, and a
    dependent column's entries in the pivot rows before it are its c_j.
    """
    r = tensor.r
    m, pivots = rlinalg.rref([[tensor.c(b, a, g) for a in range(r)]
                              for b in range(r) for g in range(r)])
    return [None if a in pivots
            else [row[a] for row, p in zip(m, pivots) if p < a]
            for a in range(r)]


def _fold_generators(combos: Sequence[Optional[Sequence[Fraction]]],
                     y_fields: Sequence[VectorField],
                     rows: Sequence[Sequence[Expr]]
                     ) -> Tuple[List[VectorField], List[List[Expr]]]:
    """Fold dependent generators, zero ones included, into the kept ones.

    combos is _fold_coefficients of the tensor whose Y_a are y_fields.
    rows[a] holds the coefficients of y_fields[a], one per time
    direction; a generator equal to sum_j c_j kept[j] adds c_j times its
    row to the row of kept[j], which leaves the combined field unchanged.
    """
    kept: List[VectorField] = []
    kept_rows: List[List[Expr]] = []
    for y, row, combo in zip(y_fields, rows, combos):
        if combo is None:
            kept.append(y)
            kept_rows.append(list(row))
            continue
        for j, c in enumerate(combo):
            if c:
                kept_rows[j] = [k + Expr.const(c) * e
                                for k, e in zip(kept_rows[j], row)]
    return kept, kept_rows


def _symmetry_tensor(tensor: StructureTensor,
                     combos: Sequence[Optional[Sequence[Fraction]]],
                     with_zw: bool) -> StructureTensor:
    """Structure constants of a symmetry system's basis, read off the source.

    The basis is Z_0..Z_r, W_1..W_r and the kept Y_a with_zw, as
    build_symmetry_system lays it out, and the kept Y_a alone without.
    Every one of these fields is affine in f, so the source tensor fixes
    their brackets; with 0-based source indices,
        [Z_0, W_a] = Z_a,    [Z_b, Y_a] = sum_g c_bag Z_g,
        [W_b, Y_a] = sum_g c_bag W_g,    [Y_a, Y_b] = sum_g c_abg Y_g,
    every other bracket vanishes, and a folded Y_g is rewritten on the
    kept ones through its combos entry.
    """
    r = tensor.r
    kept = [a for a, combo in enumerate(combos) if combo is None]
    lead = 2 * r + 1 if with_zw else 0
    out = StructureTensor(lead + len(kept))
    y_terms = [[(kept.index(g), Fraction(1))] if combo is None
               else list(enumerate(combo)) for g, combo in enumerate(combos)]
    for p, a in enumerate(kept):
        if with_zw:
            for b in range(r):
                for g in range(r):
                    c = tensor.c(b, a, g)
                    out.set(1 + b, lead + p, 1 + g, c)
                    out.set(r + 1 + b, lead + p, r + 1 + g, c)
        for q in range(p + 1, len(kept)):
            acc = [Fraction(0)] * len(kept)
            for g in range(r):
                c = tensor.c(a, kept[q], g)
                if c:
                    for j, v in y_terms[g]:
                        acc[j] += c * v
            for j, v in enumerate(acc):
                out.set(lead + p, lead + q, lead + j, v)
    if with_zw:
        for a in range(r):
            out.set(0, r + 1 + a, 1 + a, 1)
    return out


def symmetry_system_basis(tensor: StructureTensor):
    """The generating fields of the symmetry system on (f0, ..., fr).

    Returns (z_fields, w_fields, y_fields):
      Z_a = d/df_a                    for a = 0..r,
      W_a = f0 d/df_a                 for a = 1..r,
      Y_a = sum_{b,g} f_b c_{bag} d/df_g   for a = 1..r.
    """
    r = tensor.r
    names = tuple(f"f{i}" for i in range(r + 1))
    f0 = Expr.var(names[0])

    def unit(i):
        comps = [Expr.zero()] * (r + 1)
        comps[i] = Expr.one()
        return VectorField(names, comps)

    z_fields = [unit(i) for i in range(r + 1)]
    w_fields = [f0 * unit(i) for i in range(1, r + 1)]
    return z_fields, w_fields, _y_generators(tensor, names)


@dataclass(frozen=True)
class SymmetrySystem:
    """The symmetry system as a Lie system on f-space."""

    system: LieSystem

    @property
    def rhs_exprs(self) -> Tuple[Expr, ...]:
        return self.system.drift_field().components


def build_symmetry_system(sys: LieSystem) -> SymmetrySystem:
    """Construct the symmetry system of a Lie system with gauge sys.gauge.

    The Vessiot-Guldberg generators are the Z, W and Y fields; linearly
    dependent Y fields (present whenever the algebra has a center) are
    folded into the kept ones with exact coefficient rewriting, so the
    returned basis is a genuine basis.  Its structure tensor is derived
    from the source tensor (_symmetry_tensor), not extracted, and is
    labelled numerical exactly when the source's is.
    """
    t = sys.time
    b = sys.coeffs
    b0 = sys.gauge
    tensor = sys.algebra.tensor
    z_fields, w_fields, y_fields = symmetry_system_basis(tensor)
    combos = _fold_coefficients(tensor)
    kept, kept_rows = _fold_generators(combos, y_fields, [[ba] for ba in b])

    fields = list(z_fields) + list(w_fields) + kept
    coeffs = ([b0] + [b0 * ba for ba in b] + [ba.diff(t) for ba in b]
              + [row[0] for row in kept_rows])
    algebra = LieAlgebraBasis._known(
        fields, _symmetry_tensor(tensor, combos, with_zw=True),
        sys.algebra.method)
    inner = LieSystem(algebra, tuple(coeffs), gauge=Expr.zero(), time=t,
                      name=f"symmetry-system({sys.name})" if sys.name else "symmetry-system")
    return SymmetrySystem(inner)


def vertical_symmetry_dimension(tensor: StructureTensor) -> int:
    """Rank of the span of the Y fields: r minus the center dimension."""
    return tensor.r - len(center(tensor))


# -- candidates --------------------------------------------------------------


@dataclass(frozen=True, eq=False, kw_only=True)
class _CandidateCore:
    """What single- and multi-time symmetry candidates share.

    A candidate is closed form (f_exprs) or sampled: the sample points,
    in the field a subclass names in _points, with values and dvalues.
    """

    f_exprs: Optional[Tuple[Expr, ...]] = None
    values: Optional[np.ndarray] = None
    dvalues: Optional[np.ndarray] = None

    def __post_init__(self):
        sampled = (self._points, "values", "dvalues")
        present = [getattr(self, name) is not None for name in sampled]
        if self.f_exprs is not None:
            if any(present):
                raise DimensionMismatch(
                    "candidate carries both closed-form and sampled data")
            object.__setattr__(
                self, "f_exprs", tuple(Expr._coerce(e) for e in self.f_exprs))
            return
        if not all(present):
            raise DimensionMismatch(
                f"sampled candidate needs {sampled[0]}, values and dvalues")
        import numpy as np
        for name in sampled:
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))
        self._check_shapes()

    @property
    def is_closed_form(self) -> bool:
        return self.f_exprs is not None


@dataclass(frozen=True, eq=False, kw_only=True)
class SymmetryCandidate(_CandidateCore):
    """A candidate symmetry Y = f0 d/dt + sum_a f_a X_a.

    Either closed form (exprs in the time symbol) or sampled on a grid
    with explicit derivative channels.  The gauge channel is b0 = df0/dt;
    the multiplier in [Y, Xbar] = h Xbar is h = -b0.
    """

    time: str = "t"
    grid: Optional[np.ndarray] = None
    _points = "grid"

    def _check_shapes(self) -> None:
        vals = self.values
        if (vals.ndim != 2 or self.dvalues.shape != vals.shape
                or self.grid.shape != (vals.shape[0],)):
            raise DimensionMismatch("candidate channel shapes disagree")

    @staticmethod
    def closed(f_exprs: Sequence, time: str = "t") -> "SymmetryCandidate":
        return SymmetryCandidate(time=time, f_exprs=tuple(f_exprs))

    @staticmethod
    def sampled(grid: np.ndarray, values: np.ndarray, dvalues: np.ndarray,
                time: str = "t") -> "SymmetryCandidate":
        return SymmetryCandidate(time=time, grid=grid, values=values,
                                 dvalues=dvalues)

    times = property(lambda self: (self.time,))

    @property
    def r(self) -> int:
        if self.is_closed_form:
            return len(self.f_exprs) - 1
        return self.values.shape[1] - 1

    def gauge_expr(self) -> Expr:
        if not self.is_closed_form:
            raise MissingDerivative("sampled candidate has no gauge expression")
        return self.f_exprs[0].diff(self.time)

    @cached_property
    def _channel_kernel(self):
        """f and df/dt in one kernel, built by the first closed-form
        channels_at: diff can raise, and many candidates are never sampled."""
        return compile_numeric(
            self.f_exprs + tuple(e.diff(self.time) for e in self.f_exprs),
            [self.time])

    def channels_at(self, ts: np.ndarray):
        """(values, dvalues) arrays at the given times."""
        import numpy as np
        if self.is_closed_form:
            m = len(self.f_exprs)
            kernel = self._channel_kernel
            rows = np.array([kernel([t]) for t in np.asarray(ts, dtype=float).tolist()])
            rows = rows.reshape(len(ts), 2 * m)
            return rows[:, :m], rows[:, m:]
        if len(ts) != len(self.grid) or not np.allclose(ts, self.grid):
            raise DimensionMismatch(
                "sampled candidate is bound to its own time grid")
        return self.values, self.dvalues


def candidate_from_trajectory(built: SymmetrySystem,
                              traj: Trajectory) -> SymmetryCandidate:
    """Wrap an integrated symmetry-system trajectory as a candidate.

    Derivative channels come from the built system's right-hand side
    evaluated along the trajectory, which is the exact derivative of the
    flow the integrator approximates.
    """
    rhs = built.system.rhs()
    dvals = [rhs(t, y) for t, y in zip(traj.ts.tolist(), traj.states.tolist())]
    return SymmetryCandidate.sampled(traj.ts, traj.states, dvals,
                                     time=built.system.time)


# -- the bracket oracle -------------------------------------------------------


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of an independent verification.

    worst locates max_abs where a check names it; a closed-form multi-time
    check adds its jet route (jet_max_abs) and that route's gap (oracle_gap).
    """

    max_abs: float
    exact: bool
    npoints: int = 0
    worst: Optional[Tuple[int, ...]] = None
    jet_max_abs: Optional[float] = None
    oracle_gap: Optional[float] = None

    def __float__(self):
        return float(self.max_abs)


def _need_points(count: int) -> None:
    """A sampled check over no points proves nothing, so it fails."""
    if count < 1:
        raise GridEmpty("residual grid has no sample points")


def _sample_states(box: Sequence[Tuple[float, float]], nx: int,
                   seed: int) -> List[List[float]]:
    """nx seeded uniform points in the box, as float lists for the kernels.

    random.Random(seed) draws the points coordinate by coordinate: all nx
    values of the first coordinate, then of the second, and so on.
    """
    _need_points(nx)
    if seed < 0:
        raise BadParams(f"sampling seed must be non-negative, got {seed}")
    rng = random.Random(seed)
    cols = [[rng.uniform(lo, hi) for _ in range(nx)] for lo, hi in box]
    return [list(pt) for pt in zip(*cols)]


def _check_candidate(candidate, times: Tuple[str, ...], r: int) -> None:
    """DimensionMismatch unless the candidate is in the system's time symbols
    (another would read as a constant) and has r functions f1..fr."""
    if candidate.times != times:
        raise DimensionMismatch(
            f"candidate over times {candidate.times}, system has {times}")
    if candidate.r != r:
        raise DimensionMismatch(
            f"candidate has {candidate.r} coefficient functions, the algebra "
            f"has {r}")


def _thin(m: int, nt: int) -> range:
    """Indices of every (m // nt)-th point of an m-point candidate grid."""
    _need_points(min(m, nt))
    return range(0, m, max(1, m // nt))


def _magnitude(v: float) -> float:
    """|v|, with NaN read as infinitely bad so that a running max keeps it."""
    return math.inf if math.isnan(v) else abs(v)


def _pair_weights(u, v) -> list:
    """u_a v_b - u_b v_a for a < b, the weights of [u X, v X] on [X_a, X_b]."""
    r = len(u)
    return [u[a] * v[b] - u[b] * v[a]
            for a in range(r) for b in range(a + 1, r)]


def _bracket_residual(fields: Sequence[VectorField],
                      xs: Sequence[Sequence[float]]) -> Callable[[Sequence], float]:
    """Sampled residual of sum_a w_a X_a + sum_{a<b} w_ab [X_a, X_b].

    The basis and its brackets are evaluated once per sampled state, and
    worst(weights) is the largest component over all states.  The weights
    are the r linear ones followed by _pair_weights; each component sums
    its nonzero-weight terms in order.
    """
    r = len(fields)
    gens = list(fields) + [lie_bracket(fields[a], fields[b])
                           for a in range(r) for b in range(a + 1, r)]
    kernel = compile_numeric([c for g in gens for c in g.components],
                             fields[0].vars)
    xvals = [kernel(x) for x in xs]
    n = len(fields[0].components)

    def worst(weights) -> float:
        out = 0.0
        for vals in xvals:
            for i in range(n):
                acc = 0.0
                for k, w in enumerate(weights):
                    if w:
                        acc += w * vals[k * n + i]
                out = max(out, _magnitude(acc))
        return float(out)

    return worst


def _suspended_bracket(x: VectorField, y: VectorField, time: str) -> List[Expr]:
    """dY/dt + [X, Y], the state part of [d/dt + X, Y] for a Y with no d/dt
    component; the d/dt part, (d/dt + X)(0) - Y(1), is 0.  Sums run in the
    order of the bracket on (t, x), so the floats are that bracket's."""
    return [sum((c * yc.diff(v) for v, c in zip(x.vars, x.components)),
                yc.diff(time)) - y.apply(xc)
            for xc, yc in zip(x.components, y.components)]


def symmetry_residual(candidate: SymmetryCandidate, sys: LieSystem,
                      t_span: Tuple[float, float] = (0.0, 1.0),
                      nt: int = 20, nx: int = 20,
                      seed: int = 0, check_gauge: bool = True) -> ResidualReport:
    """Residual of [Y, Xbar] + f0' Xbar, an oracle independent of the builder.

    The multiplier is the candidate's own f0', which makes the d/dt
    component -f0' + f0' vanish; with check_gauge the report also
    includes the mismatch between f0' and the system's declared gauge.
    For closed-form candidates the state components,
    f0 dX/dt + f0' X - (dY_v/dt + [X, Y_v]), are built from honest
    brackets on state space and tested for structural zero; exact
    cancellation reports (0.0, exact=True).  Otherwise the same quantity
    is evaluated numerically on a (t, x) sample grid, with the bracket
    part assembled from precomputed pairwise brackets [X_a, X_b] rather
    than from structure constants.  A non-finite residual reports inf.
    """
    r = sys.r
    t = sys.time
    _check_candidate(candidate, (t,), r)

    if candidate.is_closed_form:
        f0, b0 = candidate.f_exprs[0], candidate.gauge_expr()
        x = sys.drift_field()
        y = sys.algebra.combination(candidate.f_exprs[1:])
        statuses = {(f0 * xc.diff(t) + b0 * xc - h).is_zero() for xc, h
                    in zip(x.components, _suspended_bracket(x, y, t))}
        if check_gauge:
            statuses.add((sys.gauge - b0).is_zero())
        if statuses <= {ZeroStatus.ZERO}:
            return ResidualReport(0.0, exact=True)

    import numpy as np
    xs = _sample_states(sys.default_box(), nx, seed)
    if candidate.is_closed_form:
        _need_points(nt)
        ts = np.linspace(t_span[0], t_span[1], nt)
        vals, dvals = candidate.channels_at(ts)
    else:
        idx = _thin(len(candidate.grid), nt)
        ts = candidate.grid[idx]
        vals, dvals = candidate.values[idx], candidate.dvalues[idx]

    b_kernel = compile_numeric(
        sys.coeffs + tuple(b.diff(t) for b in sys.coeffs) + (sys.gauge,), [t])
    residual = _bracket_residual(sys.algebra.fields, xs)
    vals, dvals = vals.tolist(), dvals.tolist()

    worst = 0.0
    for k, tk in enumerate(ts.tolist()):
        bvals = b_kernel([tk])
        bv, dbv = bvals[:r], bvals[r:2 * r]
        f0v = vals[k][0]
        fv = vals[k][1:]
        df0v = dvals[k][0]
        dfv = dvals[k][1:]
        if check_gauge:
            worst = max(worst, _magnitude(bvals[2 * r] - df0v))
        weights = ([f0v * dbv[a] - dfv[a] + df0v * bv[a] for a in range(r)]
                   + _pair_weights(fv, bv))
        worst = max(worst, residual(weights))
    return ResidualReport(worst, exact=False, npoints=len(ts) * len(xs))


# -- flow transport ------------------------------------------------------------


@dataclass(frozen=True)
class TransportReport:
    """Euler-step flow transport of a solution along a candidate symmetry.

    For a genuine symmetry the transported curve misses being a solution
    only by the Euler step's own O(eps^2), so halving eps divides the
    defect by about 4; a non-symmetry leaves an O(eps) defect and the
    ratio collapses to about 2.
    """

    ratio: float
    defect_eps: float
    defect_half: float
    eps: float
    classification: str


def flow_transport_check(candidate: SymmetryCandidate, sys: LieSystem,
                         traj: Trajectory, eps: float = 1e-3) -> TransportReport:
    """Transport defects at eps and eps/2, classified by their ratio.

    A non-finite defect reads as inf, so it is never exact or second order.
    eps must be finite and positive.
    """
    if not 0 < eps < math.inf:
        raise BadParams(f"eps must be finite and positive, got {eps}")
    _check_candidate(candidate, (sys.time,), sys.r)
    rows = _transport_moves(candidate, sys, traj)
    rhs = sys.rhs()
    defect_eps = _transport_defect(rows, rhs, sys.excluded, eps)
    defect_half = _transport_defect(rows, rhs, sys.excluded, eps / 2)
    if defect_eps < 1e-13 and defect_half < 1e-13:
        return TransportReport(math.nan, defect_eps, defect_half, eps, "exact")
    ratio = defect_eps / defect_half if defect_half else math.inf
    if 3.2 <= ratio <= 4.8:
        cls = "second_order"
    elif ratio <= 2.6:
        cls = "first_order"
    else:
        cls = "inconclusive"
    return TransportReport(ratio, defect_eps, defect_half, eps, cls)


def _transport_moves(candidate: SymmetryCandidate, sys: LieSystem,
                     traj: Trajectory) -> list:
    """Per trajectory point, what transport needs, as float lists.

    Each row is (t, x, f0, f0', x', u, u'): u = sum_a f_a X_a(x) is the
    state part of the candidate and u' = sum_a (f_a' X_a + f_a X(X_a)) its
    derivative along the solution, X(X_a) being the drift X applied to
    each component of X_a.  One kernel evaluates X, the X_a and the X(X_a);
    nothing here depends on eps, so both defects share the rows.
    """
    n, r = len(sys.vars), sys.r
    drift = sys.drift_field()
    comps = [c for f in sys.algebra.fields for c in f.components]
    kernel = compile_numeric(list(drift.components) + comps
                             + [drift.apply(c) for c in comps],
                             (sys.time,) + sys.vars)
    ts = traj.ts.tolist()
    vals, dvals = candidate.channels_at(ts)
    rows = []
    for tk, s, fk, dfk in zip(ts, traj.states.tolist(), vals.tolist(),
                              dvals.tolist()):
        out = kernel([tk] + s)
        xa, dxa = out[n:n + r * n], out[n + r * n:]
        u, du = [], []
        for i in range(n):
            ui = dui = 0.0
            for a in range(r):
                ui += fk[a + 1] * xa[a * n + i]
                dui += dfk[a + 1] * xa[a * n + i]
                dui += fk[a + 1] * dxa[a * n + i]
            u.append(ui)
            du.append(dui)
        rows.append((tk, s, fk[0], dfk[0], out[:n], u, du))
    return rows


def _transport_defect(rows, rhs, excluded, eps: float) -> float:
    """Largest |dz/dt - X(t, z)| over the points z = x + eps u transported
    to the time t + eps f0, the transported curve's velocity being
    (x' + eps u') / (1 + eps f0')."""
    worst = 0.0
    for tk, s, f0v, df0v, sdot, u, du in rows:
        z_new = [a + eps * b for a, b in zip(s, u)]
        if not all(map(math.isfinite, z_new)):
            raise TransportLeftDomain(f"transport left the domain at t={tk}")
        if excluded is not None and excluded(z_new):
            raise TransportLeftDomain(f"transport hit the excluded locus at t={tk}")
        dt_dt = 1.0 + eps * df0v
        x_new = rhs(tk + eps * f0v, z_new)
        for a, b, c in zip(sdot, du, x_new):
            worst = max(worst, _magnitude((a + eps * b) / dt_dt - c))
    return worst


# -- named closed forms ---------------------------------------------------------


def function_bracket(f: Expr, g: Expr, time: str = "t") -> Expr:
    """{f, g} = f g' - g f', the bracket on time-dependent coefficients."""
    f, g = Expr._coerce(f), Expr._coerce(g)
    return f * g.diff(time) - g * f.diff(time)


def candidate_bracket(y1: SymmetryCandidate, y2: SymmetryCandidate,
                      tensor: StructureTensor) -> SymmetryCandidate:
    """Bracket of two closed-form candidates on the same system.

    New f0 = {f0, f0*}, new f_g = (f0 f_g*' - f0* f_g') + [f, f*]_g, the
    structure-constant bracket of the coefficient vectors.  A sampled
    operand has no derivative of its derivative channel, so it raises
    MissingDerivative.
    """
    t = y1.time
    for y in (y1, y2):
        _check_candidate(y, (t,), tensor.r)
    if not (y1.is_closed_form and y2.is_closed_form):
        raise MissingDerivative(
            "the bracket of a sampled candidate needs second derivatives")
    f, g = y1.f_exprs, y2.f_exprs
    new = [function_bracket(f[0], g[0], t)]
    for gm, w in enumerate(tensor.bracket(f[1:], g[1:])):
        new.append(f[0] * g[gm + 1].diff(t) - g[0] * f[gm + 1].diff(t) + w)
    return SymmetryCandidate.closed(new, time=t)


def riccati_f3_ode_residual(f0: Expr, f3: Expr, eta: Expr, b0: Expr,
                            time: str = "t",
                            aux: Optional[Tuple[str, Expr]] = None
                            ) -> ResidualReport:
    """Residual of the third-order reduction of the Riccati symmetry system:

        f3''' = f0''' + 4 b0 eta + 2 eta' f0 - 2 eta' f3 - 4 eta f3'

    All inputs are expressions in `time`; alternatively, pass
    aux=(u, T(u)) when the inputs are written in an auxiliary variable u
    with time = T(u), which turns fractional powers of time into
    polynomial data.  Exact zero is reported when the normal form
    cancels; otherwise the residual is sampled at the 19 evenly spaced
    points of [0.1, 1] of the variable the inputs are written in.
    """
    f0, f3, eta, b0 = (Expr._coerce(e) for e in (f0, f3, eta, b0))
    if aux is None:
        var = time

        def d(e):
            return e.diff(time)
    else:
        var, t_of_u = aux
        t_of_u = Expr._coerce(t_of_u)
        dt_du = t_of_u.diff(var)

        def d(e):
            return e.diff(var) / dt_du

    deta = d(eta)
    resid = (d(d(d(f3))) - d(d(d(f0))) - 4 * b0 * eta - 2 * deta * f0
             + 2 * deta * f3 + 4 * eta * d(f3))
    if resid.is_zero() is ZeroStatus.ZERO:
        return ResidualReport(0.0, exact=True)
    import numpy as np
    t_samples = np.linspace(0.1, 1.0, 19).tolist()
    kernel = compile_numeric([resid], [var])
    worst = max(_magnitude(kernel([tv])[0]) for tv in t_samples)
    return ResidualReport(float(worst), exact=False, npoints=len(t_samples))


def aff_closed_form(a: Expr, b: Expr, k, c1, c2,
                    t_span: Tuple[float, float] = (0.0, 1.0),
                    step: float = 1e-3, time: str = "t") -> SymmetryCandidate:
    """Quadrature solution of the affine symmetry system with gauge zero.

    For dx/dt = a(t) X1 + b(t) X2 with [X1, X2] = X1 and b0 = 0:
        f0 = k,
        f2 = k b(t) + c1,
        f1 = e^{B(t)} ( c2 + int_0^t (k a' - a (k b + c1)) e^{-B} ),
    with B the cumulative integral of b.  Integrals use the fixed-step
    Simpson rule on the returned grid.  step and t_span are checked as
    rk4_solve checks them.
    """
    import numpy as np
    a, b = Expr._coerce(a), Expr._coerce(b)
    kf, c1f, c2f = float(k), float(c1), float(c2)
    t0, t1 = _check_span(t_span, step)
    m = int(round((t1 - t0) / step))
    if m < 2:
        raise GridEmpty("aff_closed_form needs at least two grid points")
    ts = t0 + step * np.arange(m + 1)
    kernel = compile_numeric([a, a.diff(time), b, b.diff(time)], [time])
    av, dav, bv, dbv = np.array([kernel([t]) for t in ts.tolist()]).T

    big_b = cumulative_simpson(bv, step)
    decay = np.exp(-big_b)
    grow = np.exp(big_b)
    f2 = kf * bv + c1f
    inner = (kf * dav - av * f2) * decay
    integral = cumulative_simpson(inner, step)
    f1 = (integral + c2f) * grow
    if not np.all(np.isfinite(f1)):
        raise QuadratureDiverged("affine quadrature produced non-finite values")

    vals = np.column_stack([np.full(m + 1, kf), f1, f2])
    dvals = np.column_stack([np.zeros(m + 1),
                             bv * f1 + kf * dav - av * f2,
                             kf * dbv])
    return SymmetryCandidate.sampled(ts, vals, dvals, time=time)


# -- the f0 = 0 reduced flow -----------------------------------------------------


@dataclass(frozen=True, eq=False)
class VerticalFamilyReport:
    """Closure check for the t-dependent symmetry fields with f0 = 0."""

    max_residual: float
    sample_times: Tuple[float, ...]
    trajectories: Tuple[Trajectory, ...]


def symmetry_algebra_f0_zero(sys: LieSystem,
                             t_span: Tuple[float, float] = (0.0, 1.0),
                             step: float = 1e-3,
                             nx: int = 10,
                             seed: int = 0) -> VerticalFamilyReport:
    """Integrate the reduced system df/dt = [f, b(t)] from the unit
    vectors e_1..e_r and verify numerically that the resulting
    t-dependent fields close with the structure constants of the algebra
    (the isomorphism given by evaluation at the start time).  The check
    runs at 5 evenly spaced grid times, the ends included.
    """
    tensor = sys.algebra.tensor
    r = sys.r
    t = sys.time
    units = [[int(a == b) for b in range(r)] for a in range(r)]
    xs = _sample_states(sys.default_box(), nx, seed)
    b_kernel = compile_numeric(sys.coeffs, [t])
    bracket = tensor.float_bracket()

    def rhs(tv, f):
        return bracket(f, b_kernel([tv]))

    trajs = [rk4_solve(rhs, units[i], t_span, step) for i in range(r)]

    residual = _bracket_residual(sys.algebra.fields, xs)
    m = len(trajs[0].ts)
    sample_idx = [k * (m - 1) // 4 for k in range(5)]
    states = [traj.states.tolist() for traj in trajs]

    worst = 0.0
    for idx in sample_idx:
        fvecs = [rows[idx] for rows in states]
        for i in range(r):
            for j in range(i + 1, r):
                # [Y_i, Y_j] - sum_g c_ijg Y_g with Y_i = sum_a fvecs[i][a] X_a
                lin = [0.0] * r
                for g in range(r):
                    c = float(tensor.c(i, j, g))
                    for a in range(r):
                        lin[a] -= c * fvecs[g][a]
                weights = lin + _pair_weights(fvecs[i], fvecs[j])
                worst = max(worst, residual(weights))
    return VerticalFamilyReport(worst,
                                tuple(float(trajs[0].ts[i]) for i in sample_idx),
                                tuple(trajs))
