"""Lie systems over several time variables.

A multi-time system prescribes one drift per time direction,

    dx/dt_l = sum_a b[a][l](t1..ts) X_a(x),      l = 1..s,

with the X_a spanning a finite-dimensional Lie algebra.  A joint
solution through every initial point exists exactly when the
zero-curvature condition

    d(b_gk)/dt_l - d(b_gl)/dt_k + sum_{a,b} b_al b_bk c_abg = 0

holds for every field index g and every time pair k < l.  With b_l the
coefficient column of direction l and [u, v]_g = sum_{a,b} u_a v_b c_abg
the bracket of coefficient vectors (StructureTensor.bracket), it reads
d_l b_k - d_k b_l + [b_l, b_k] = 0.

A vertical field Y = sum_a f_a(t) X_a is a symmetry of the system
precisely when it commutes with each one-direction suspension
d/dt_l + X_l; expanding those brackets in the basis turns the condition
into another multi-time system on the coefficients,

    df_p/dt_l = sum_{a,d} b[a][l] f_d c_dap,   i.e.   df/dt_l = [f, b_l],

which build_pde_symmetry_system constructs, with a structure tensor
derived from the source's, and whose own curvature it re-checks rather
than assumes.  pde_symmetry_residual verifies candidates through two
independent routes: the direct brackets [d/dt_l + X_l, Y], and the
first jet prolongation of Y applied to the defining equations
restricted to their zero set.  Y has no d/dt components and those of
d/dt_l + X_l are constant, so the bracket's d/dt components vanish and
it is the state-space field dY/dt_l + [X_l, Y].  The two routes agree
identically; the report carries both so the agreement stays observable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple)

from .errors import (
    BadParams,
    DimensionMismatch,
    MissingDerivative,
    NotIntegrable,
    OpaqueNoDerivative,
)
from .expr import Expr, ZeroStatus, _define, compile_numeric
from .integrate import Trajectory, rk4_solve
from .liealg import LieAlgebraBasis, StructureTensor
from .liesys import (
    ResidualReport,
    _CandidateCore,
    _SystemCore,
    _bracket_residual,
    _check_candidate,
    _fold_coefficients,
    _fold_generators,
    _magnitude,
    _pair_weights,
    _sample_states,
    _suspended_bracket,
    _symmetry_tensor,
    _thin,
    _y_generators,
)
from .vectorfield import VectorField, jet_var, prolong_first

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True, kw_only=True)
class PDELieSystem(_SystemCore):
    """dx/dt_l = sum_a coeffs[a][l](times) algebra.fields[a](x).

    coeffs is an r-by-s matrix of expressions in the time symbols; row a
    holds the coefficients of basis field a across the s directions.
    """

    times: Tuple[str, ...] = ("t1", "t2")

    def __post_init__(self):
        times = tuple(self.times)
        object.__setattr__(self, "times", times)
        if not 1 <= len(times) <= 3:
            # residual grids are dense lattices, 5^s points
            raise BadParams(f"between 1 and 3 time variables, got {len(times)}")
        if len(set(times)) != len(times):
            raise DimensionMismatch(f"repeated time symbol in {times}")
        object.__setattr__(self, "coeffs", tuple(
            tuple(Expr._coerce(c) for c in row) for row in self.coeffs))
        self._check(times)
        for a, row in enumerate(self.coeffs):
            if len(row) != len(times):
                raise DimensionMismatch(
                    f"coefficient row {a} has {len(row)} entries for "
                    f"{len(times)} time directions")

    @property
    def s(self) -> int:
        return len(self.times)

    def drift_field(self, l: int) -> VectorField:
        """sum_a coeffs[a][l] X_a on state space, times as parameters."""
        return self.algebra.combination([row[l] for row in self.coeffs])


def time_grid(sys: PDELieSystem) -> np.ndarray:
    """Dense lattice over the unit time box, shape (5**s, s), the last
    time varying fastest."""
    import numpy as np
    return np.array(list(itertools.product(np.linspace(0.0, 1.0, 5).tolist(),
                                           repeat=sys.s)))


@dataclass(frozen=True)
class TimePath:
    """Piecewise-linear path in time space with a fixed step count per leg."""

    waypoints: Tuple[Tuple[float, ...], ...]
    steps: int = 200

    def __post_init__(self):
        pts = tuple(tuple(float(v) for v in w) for w in self.waypoints)
        object.__setattr__(self, "waypoints", pts)
        if len(pts) < 2:
            raise BadParams("a path needs at least two waypoints")
        if not all(math.isfinite(v) for w in pts for v in w):
            raise BadParams(f"waypoints must be finite, got {pts}")
        dims = {len(w) for w in pts}
        if len(dims) != 1:
            raise DimensionMismatch(f"waypoints of mixed dimension {sorted(dims)}")
        for w0, w1 in zip(pts, pts[1:]):
            if max(abs(a - b) for a, b in zip(w0, w1)) == 0.0:
                raise BadParams(f"consecutive waypoints coincide at {w0}")
        if int(self.steps) < 1:
            raise BadParams(f"steps per leg must be at least 1, got {self.steps}")
        object.__setattr__(self, "steps", int(self.steps))

    @property
    def s(self) -> int:
        return len(self.waypoints[0])

    @property
    def nseg(self) -> int:
        return len(self.waypoints) - 1

    def point(self, u: float) -> Tuple[float, ...]:
        """Map the global parameter u in [0, nseg] to a time point."""
        if not 0.0 <= u <= self.nseg + 1e-12:
            raise BadParams(f"path parameter {u} outside [0, {self.nseg}]")
        i = min(int(u), self.nseg - 1)
        frac = u - i
        return tuple(a + frac * (b - a) for a, b
                     in zip(self.waypoints[i], self.waypoints[i + 1]))


# -- zero-curvature check -----------------------------------------------------


def curvature_exprs(sys: PDELieSystem) -> Dict[Tuple[int, int, int], Expr]:
    """Entries d(b_gk)/dt_l - d(b_gl)/dt_k + [b_l, b_k]_g, k < l."""
    tensor = sys.algebra.tensor
    r, s = sys.r, sys.s
    out: Dict[Tuple[int, int, int], Expr] = {}
    cols = list(zip(*sys.coeffs))
    for k in range(s):
        for l in range(k + 1, s):
            brk = tensor.bracket(cols[l], cols[k])
            for g in range(r):
                try:
                    e = (sys.coeffs[g][k].diff(sys.times[l])
                         - sys.coeffs[g][l].diff(sys.times[k]))
                except OpaqueNoDerivative as exc:
                    raise MissingDerivative(
                        f"coefficient b[{g}] is not differentiable: {exc}"
                    ) from exc
                out[(g, k, l)] = e + brk[g]
    return out


def curvature_residual(sys: PDELieSystem) -> ResidualReport:
    """Max absolute curvature entry, symbolically when possible.

    With a single time direction there is nothing to check.  When every
    entry simplifies to zero the report is exact; otherwise the entries
    are evaluated on the dense lattice over the unit time box and
    the worst point wins, a non-finite entry counting as inf.  worst
    names the (field, time k, time l) indices of the largest entry.
    """
    if sys.s == 1:
        return ResidualReport(0.0, exact=True)
    entries = curvature_exprs(sys)
    statuses = {e.is_zero() for e in entries.values()}
    if statuses <= {ZeroStatus.ZERO}:
        return ResidualReport(0.0, exact=True)
    pts = time_grid(sys)
    kernel = compile_numeric(list(entries.values()), sys.times)
    vals = [kernel(row) for row in pts.tolist()]
    worst_val = 0.0
    worst_key: Optional[Tuple[int, int, int]] = None
    # entry-major, so that a tie keeps the first entry reaching the worst
    for k, key in enumerate(entries):
        for point_vals in vals:
            v = _magnitude(point_vals[k])
            if v > worst_val:
                worst_val = v
                worst_key = key
    return ResidualReport(worst_val, exact=False, npoints=len(pts),
                          worst=worst_key)


# -- symmetry system construction ---------------------------------------------


def pde_symmetry_basis(tensor: StructureTensor) -> List[VectorField]:
    """Generators Y_a = sum_{b,g} f_b c_bag d/df_g on (f1, ..., fr)."""
    return _y_generators(tensor, tuple(f"f{i}" for i in range(1, tensor.r + 1)))


@dataclass(frozen=True)
class PDESymmetrySystem:
    """The symmetry system as a multi-time Lie system on f-space, with
    the curvature reports the builder checks: that of the source system
    (source_curvature) and that of the constructed one (curvature)."""

    system: PDELieSystem
    curvature: ResidualReport
    source_curvature: ResidualReport


def build_pde_symmetry_system(sys: PDELieSystem,
                              tol: float = 1e-9) -> PDESymmetrySystem:
    """Construct df_p/dt_l = sum_{a,d} b[a][l] f_d c_dap on (f1..fr).

    Refuses non-integrable input, and re-checks the curvature of the
    constructed system before returning it; a NotIntegrable carries the
    source's curvature report as source_curvature either way.  Linearly
    dependent generators (one per central direction of the algebra) are
    folded into the kept ones exactly, as in the single-time builder, and
    the structure tensor of the kept ones is derived from the source
    tensor, not extracted; when the algebra is abelian every generator
    vanishes and the result keeps unit translation fields, with the zero
    tensor and zero coefficients, so the zero dynamics stays a
    well-formed system.  tol must be finite and positive.
    """
    if not 0 < tol < math.inf:
        raise BadParams(f"tol must be finite and positive, got {tol}")
    rep = curvature_residual(sys)
    if not rep.max_abs <= tol:
        raise NotIntegrable(
            f"curvature residual {rep.max_abs:g} exceeds {tol:g}"
            + (f" at entry {rep.worst}" if rep.worst else ""),
            residual=rep.max_abs, source_curvature=rep)
    tensor = sys.algebra.tensor
    y_fields = pde_symmetry_basis(tensor)
    combos = _fold_coefficients(tensor)
    kept, kept_rows = _fold_generators(combos, y_fields, sys.coeffs)
    if kept:
        kept_tensor = _symmetry_tensor(tensor, combos, with_zw=False)
    else:
        for i, y in enumerate(y_fields):
            comps = [Expr.zero()] * sys.r
            comps[i] = Expr.one()
            kept.append(VectorField(y.vars, comps))
            kept_rows.append([Expr.zero()] * sys.s)
        kept_tensor = StructureTensor(sys.r)

    inner = PDELieSystem(
        LieAlgebraBasis._known(kept, kept_tensor, sys.algebra.method),
        tuple(tuple(row) for row in kept_rows),
        times=sys.times,
        name=f"symmetry-system({sys.name})" if sys.name else "symmetry-system")
    own = curvature_residual(inner)
    if not own.max_abs <= tol:
        raise NotIntegrable(
            f"constructed system has curvature residual {own.max_abs:g}",
            residual=own.max_abs, source_curvature=rep)
    return PDESymmetrySystem(inner, own, rep)


# -- path integration ---------------------------------------------------------


def _leg_rhs(drifts: Callable, n: int, s: int) -> Callable:
    """leg(*w0, *d) -> the right-hand side u, yy -> dx/du of one path leg.

    drifts maps (t, x) to the s drift fields, n components each.  The
    generated rhs writes each component out as 0 + d0*X_0j + d1*X_1j + ...,
    summed left to right from 0 and not with sum(): from Python 3.12 on,
    sum() compensates when its items are exact floats.
    """
    w0 = [f"a{l}" for l in range(s)]
    d = [f"d{l}" for l in range(s)]
    times = ", ".join(f"a{l} + u * d{l}" for l in range(s))
    comps = ", ".join(" + ".join(["0"] + [f"d{l} * vals[{l * n + j}]"
                                          for l in range(s)])
                      for j in range(n))
    source = (f"def leg({', '.join(w0 + d)}):\n"
              f"    def rhs(u, yy, {', '.join(f'{a}={a}' for a in w0 + d)}):\n"
              f"        vals = drifts([{times}] + yy)\n"
              f"        return [{comps}]\n"
              f"    return rhs\n")
    # rhs.__module__ is this module: traces name RK4 right-hand sides by it
    return _define("leg", source, {"__name__": __name__, "drifts": drifts})


def integrate_along_path(sys: PDELieSystem, x0: Sequence[float],
                         path: TimePath) -> Trajectory:
    """RK4 trajectory of the system pulled back to a piecewise-linear path.

    Along the leg t(u) = w0 + u (w1 - w0) the chain rule gives
    dx/du = sum_l (w1 - w0)_l X_l(t(u), x), which is integrated leg by
    leg; the returned trajectory is parameterized by the global path
    parameter, leg i covering [i, i+1].
    """
    if path.s != sys.s:
        raise DimensionMismatch(
            f"path in {path.s} time dimensions, system has {sys.s}")
    n, s = len(sys.vars), sys.s
    leg_rhs = _leg_rhs(compile_numeric([c for l in range(s)
                                        for c in sys.drift_field(l).components],
                                       sys.times + sys.vars), n, s)
    import numpy as np

    ts_parts: List[np.ndarray] = []
    state_parts: List[np.ndarray] = []
    err_parts: List[np.ndarray] = []
    y = np.asarray(x0, dtype=float)
    for i in range(path.nseg):
        w0 = path.waypoints[i]
        d = [b - a for a, b in zip(w0, path.waypoints[i + 1])]
        leg = rk4_solve(leg_rhs(*w0, *d), y, (0.0, 1.0), 1.0 / path.steps,
                        excluded=sys.excluded)
        y = leg.states[-1]
        skip = 1 if i > 0 else 0
        ts_parts.append(leg.ts[skip:] + i)
        state_parts.append(leg.states[skip:])
        err_parts.append(leg.err_est[skip:])
    return Trajectory(np.concatenate(ts_parts), np.vstack(state_parts),
                      np.concatenate(err_parts))


# -- symmetry candidates and the dual residual oracle -------------------------


@dataclass(frozen=True, eq=False, kw_only=True)
class PDESymmetryCandidate(_CandidateCore):
    """A vertical candidate Y = sum_a f_a(t1..ts) X_a.

    Closed form carries one expression per basis field; sampled form
    carries time points (m, s), values (m, r) and the claimed partial
    derivatives (m, r, s).
    """

    times: Tuple[str, ...]
    tpoints: Optional[np.ndarray] = None
    _points = "tpoints"

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(self.times))
        super().__post_init__()

    def _check_shapes(self) -> None:
        tp, vals = self.tpoints, self.values
        if tp.ndim != 2 or tp.shape[1] != len(self.times):
            raise DimensionMismatch(
                f"tpoints must have shape (m, {len(self.times)})")
        if vals.ndim != 2 or vals.shape[0] != tp.shape[0]:
            raise DimensionMismatch("values must have shape (m, r)")
        if self.dvalues.shape != vals.shape + (len(self.times),):
            raise DimensionMismatch("dvalues must have shape (m, r, s)")

    @staticmethod
    def closed(f_exprs: Sequence,
               times: Sequence[str] = ("t1", "t2")) -> "PDESymmetryCandidate":
        return PDESymmetryCandidate(times=times, f_exprs=tuple(f_exprs))

    @staticmethod
    def sampled(tpoints, values, dvalues,
                times: Sequence[str] = ("t1", "t2")) -> "PDESymmetryCandidate":
        return PDESymmetryCandidate(times=times, tpoints=tpoints,
                                    values=values, dvalues=dvalues)

    @property
    def r(self) -> int:
        if self.is_closed_form:
            return len(self.f_exprs)
        return self.values.shape[1]


def pde_candidate_from_path(built: PDESymmetrySystem, traj: Trajectory,
                            path: TimePath) -> PDESymmetryCandidate:
    """Sampled candidate from a trajectory of the built symmetry system.

    The derivative channels are the built system's right-hand sides
    evaluated along the trajectory, one per time direction, so the
    residual check stays independent of the integrator.
    """
    sysf = built.system
    n = len(sysf.vars)
    tpoints = [path.point(u) for u in traj.ts.tolist()]
    drifts = compile_numeric([c for l in range(sysf.s)
                              for c in sysf.drift_field(l).components],
                             sysf.times + sysf.vars)
    dvalues = []
    for tp, y in zip(tpoints, traj.states.tolist()):
        out = drifts(list(tp) + y)  # direction l's n components at l*n
        dvalues.append([out[p::n] for p in range(n)])
    return PDESymmetryCandidate.sampled(tpoints, traj.states, dvalues,
                                        times=sysf.times)


def _closed_residual(eta: Tuple[Expr, ...], sys: PDELieSystem,
                     nx: int, seed: int) -> ResidualReport:
    y = VectorField(sys.vars, eta)
    drifts = [sys.drift_field(l) for l in range(sys.s)]
    bracket_comps = [c for tv, drift in zip(sys.times, drifts)
                     for c in _suspended_bracket(drift, y, tv)]
    jet = prolong_first(y, sys.times)
    onshell = {jet_var(xv, tv): drifts[q].component(xv)
               for xv in sys.vars for q, tv in enumerate(sys.times)}
    jet_comps: List[Expr] = []
    for l, drift in enumerate(drifts):
        for i, xv in enumerate(sys.vars):
            f_il = Expr.var(jet_var(xv, sys.times[l])) - drift.components[i]
            jet_comps.append(jet.apply(f_il).subs(onshell))

    paired = list(zip(bracket_comps, jet_comps))
    statuses = {e.is_zero() for e, _ in paired}
    gap_statuses = {(e - j).is_zero() for e, j in paired}
    if statuses <= {ZeroStatus.ZERO} and gap_statuses <= {ZeroStatus.ZERO}:
        return ResidualReport(0.0, exact=True, jet_max_abs=0.0, oracle_gap=0.0)

    pts = time_grid(sys)
    xs = _sample_states(sys.default_box(), nx, seed)
    kernel = compile_numeric(bracket_comps + jet_comps, sys.times + sys.vars)
    m = len(bracket_comps)
    worst = 0.0
    jet_worst = 0.0
    gap = 0.0
    for tp in pts.tolist():
        for x in xs:
            vals = kernel(tp + x)
            for bv, jv in zip(vals[:m], vals[m:]):
                worst = max(worst, _magnitude(bv))
                jet_worst = max(jet_worst, _magnitude(jv))
                gap = max(gap, _magnitude(bv - jv))
    return ResidualReport(worst, exact=False, npoints=len(pts) * len(xs),
                          jet_max_abs=jet_worst, oracle_gap=gap)


def _sampled_residual(cand: PDESymmetryCandidate, sys: PDELieSystem,
                      nt: int, nx: int, seed: int) -> ResidualReport:
    s = sys.s
    b_kernel = compile_numeric([c for row in sys.coeffs for c in row],
                               sys.times)
    xs = _sample_states(sys.default_box(), nx, seed)
    idx = _thin(len(cand.tpoints), nt)
    residual = _bracket_residual(sys.algebra.fields, xs)
    worst = 0.0
    for k in idx:
        tp = cand.tpoints[k].tolist()
        fv = cand.values[k].tolist()
        dv = cand.dvalues[k].T.tolist()
        bvals = b_kernel(tp)
        for l in range(s):
            worst = max(worst, residual(dv[l] + _pair_weights(bvals[l::s], fv)))
    return ResidualReport(worst, exact=False, npoints=len(idx) * len(xs))


def pde_symmetry_residual(candidate: PDESymmetryCandidate | VectorField,
                          sys: PDELieSystem, nt: int = 25, nx: int = 20,
                          seed: int = 0) -> ResidualReport:
    """Residual of [d/dt_l + X_l, Y] over all directions, worst entry.

    Y is vertical and d/dt_l + X_l has constant d/dt components, so those
    of the bracket vanish and only its state part dY/dt_l + [X_l, Y] counts.
    Closed-form candidates (PDESymmetryCandidate.closed, or a VectorField
    on the state coordinates alone, for fields outside the span) are
    checked symbolically first and cross-checked against the jet oracle
    on the dense time lattice; sampled candidates are checked pointwise
    through honest pairwise brackets, with the claimed partial
    derivatives feeding the linear part.  A non-finite residual reports
    inf, and a sampled check over no points raises GridEmpty.
    """
    if isinstance(candidate, PDESymmetryCandidate):
        _check_candidate(candidate, sys.times, sys.r)
        if not candidate.is_closed_form:
            return _sampled_residual(candidate, sys, nt, nx, seed)
        eta = sys.algebra.combination(candidate.f_exprs).components
    elif candidate.vars == sys.vars:
        eta = candidate.components
    else:
        raise DimensionMismatch(
            f"candidate field lives on {candidate.vars}, expected {sys.vars}")
    return _closed_residual(eta, sys, nx, seed)
