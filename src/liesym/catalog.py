"""Built-in systems with frozen structure data and worked symmetry families.

Every entry bundles a ready-to-use system, the structure tensor its
basis is expected to reproduce (frozen here as regression data, not
recomputed), and closed-form symmetry candidates known to pass the
independent residual check.  Factories validate their parameters and
raise BadParams rather than construct broken systems.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from .errors import BadParams, UnknownName
from .expr import Expr, ZeroStatus, parse
from .fixtures import (_parse_profile, airy_profile_pair,
                       bessel_profile_pair, opaque_chain)
from .liealg import LieAlgebraBasis, StructureTensor
from .liesys import LieSystem, SymmetryCandidate
from .pdesys import PDELieSystem, PDESymmetryCandidate
from .vectorfield import VectorField

__all__ = [
    "CatalogEntry",
    "NamedFamily",
    "dbh_symmetry_family",
    "make",
    "names",
    "table1_candidate",
    "table1_f3",
    "table1_power_aux",
]


@dataclass(frozen=True)
class NamedFamily:
    """A closed-form symmetry candidate shipped with an entry."""

    name: str
    candidate: Union[SymmetryCandidate, PDESymmetryCandidate]
    note: str = ""


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    system: Union[LieSystem, PDELieSystem]
    expected: StructureTensor
    families: Tuple[NamedFamily, ...] = ()
    excluded_note: str = ""
    description: str = ""

    @property
    def kind(self) -> str:
        return "pde" if isinstance(self.system, PDELieSystem) else "ode"


# -- frozen structure data ----------------------------------------------------

_SL2 = (
    (1, 2, 1, "1"),
    (1, 3, 2, "2"),
    (2, 3, 3, "1"),
)

_AFF = ((1, 2, 1, "1"),)

# Extracted once from the eight-field point-symmetry basis of the
# x'' + 3 x x' + x^3 = 0 pair and spot-checked by hand ([X1, X6] = 0,
# [X7, X8] = 2 X7, [X2, X8] = 4 X2, [X1, X8] = -2 X1, [X2, X5] = X7,
# [X3, X6] = -2 X1); Jacobi residual 0.
_OCTET = (
    (1, 2, 3, "1"),
    (1, 3, 4, "-3"),
    (1, 4, 5, "1"),
    (1, 5, 6, "1"),
    (1, 7, 8, "1/2"),
    (1, 8, 1, "-2"),
    (2, 5, 7, "1"),
    (2, 6, 8, "1"),
    (2, 8, 2, "4"),
    (3, 4, 7, "-1"),
    (3, 5, 8, "-1/2"),
    (3, 6, 1, "-2"),
    (3, 7, 2, "-2"),
    (3, 8, 3, "2"),
    (4, 5, 1, "-1"),
    (4, 7, 3, "1"),
    (5, 7, 4, "-3"),
    (5, 8, 5, "-2"),
    (6, 7, 5, "-2"),
    (6, 8, 6, "-4"),
    (7, 8, 7, "2"),
)


def _tensor(r: int, triples) -> StructureTensor:
    return StructureTensor.from_triples(r, [list(t) for t in triples])


# -- parameter coercion -------------------------------------------------------

def _frac(value, what: str) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise BadParams(f"{what} must be rational, got {value!r}") from exc


def _time_profile(value, fallback: str, time: str = "t") -> Expr:
    """Coefficient inputs: None means a fresh opaque chain in `time`."""
    if value is None:
        return opaque_chain(fallback, time, depth=3)
    if isinstance(value, str):
        return _parse_profile(value, [time])
    return Expr._coerce(value)


def _field(coords: Sequence[str], comps: Sequence[str]) -> VectorField:
    return VectorField(tuple(coords), [parse(c, coords) for c in comps])


def _drift_rescaling(system: LieSystem) -> NamedFamily:
    f = (Expr.one(),) + system.coeffs
    return NamedFamily(
        "drift_rescaling", SymmetryCandidate.closed(f, time=system.time),
        note="constant multiple of the time-dependent generator, f0 = 1")


def _ode_entry(name: str, fields: Sequence[VectorField], coeffs, gauge_b0,
               expected: StructureTensor, *, description: str,
               families: Optional[Callable[[LieSystem], Tuple[NamedFamily, ...]]] = None,
               excluded_note: str = "", **system_kw) -> CatalogEntry:
    """An ODE entry in time t with gauge gauge_b0 (see _time_profile).

    Its families are those of families(system), if given, followed by
    the drift rescaling when the gauge is zero; system_kw goes to
    LieSystem.
    """
    sys = LieSystem(LieAlgebraBasis(fields), coeffs=tuple(coeffs),
                    gauge=_time_profile(gauge_b0, "b0"), time="t",
                    name=name, **system_kw)
    fams = families(sys) if families else ()
    if sys.gauge.is_zero() is ZeroStatus.ZERO:
        fams = fams + (_drift_rescaling(sys),)
    return CatalogEntry(name, sys, expected, fams, excluded_note=excluded_note,
                        description=description)


# -- ODE factories -------------------------------------------------------------

def _line_sl2_fields() -> Tuple[VectorField, ...]:
    c = ("x",)
    return (_field(c, ["1"]), _field(c, ["x"]), _field(c, ["x^2"]))


def _sl2_coeffs(b1, b2, b3) -> Tuple[Expr, ...]:
    return (_time_profile(b1, "b1"), _time_profile(b2, "b2"),
            _time_profile(b3, "b3"))


def _make_riccati(eta=None, gauge_b0=0) -> CatalogEntry:
    return _ode_entry(
        "riccati", _line_sl2_fields(),
        (_time_profile(eta, "eta"), Expr.zero(), Expr.one()), gauge_b0,
        _tensor(3, _SL2),
        description="Scalar Riccati equation dx/dt = eta(t) + x^2 carried "
                    "by the polynomial sl(2) action on the line.")


def _make_sl2_generic(b1=None, b2=None, b3=None, gauge_b0=0) -> CatalogEntry:
    return _ode_entry(
        "sl2_generic", _line_sl2_fields(), _sl2_coeffs(b1, b2, b3), gauge_b0,
        _tensor(3, _SL2),
        description="Generic three-coefficient system on the line sl(2) "
                    "basis; the coefficients stay opaque unless given.")


def _make_cayley_klein(iota2=-1, b1=None, b2=None, b3=None,
                       gauge_b0=0) -> CatalogEntry:
    i2 = _frac(iota2, "iota2")
    if i2 not in (Fraction(-1), Fraction(0), Fraction(1)):
        raise BadParams(f"iota2 must be -1, 0 or 1, got {iota2}")
    c = ("x", "y")
    fields = (
        _field(c, ["1", "0"]),
        _field(c, ["x", "y"]),
        _field(c, [f"x^2 + ({i2})*y^2", "2*x*y"]),
    )
    return _ode_entry(
        "cayley_klein", fields, _sl2_coeffs(b1, b2, b3), gauge_b0,
        _tensor(3, _SL2),
        description="Riccati dynamics over a plane with hypercomplex unit "
                    "iota, iota^2 = -1 (elliptic), 0 (parabolic) or +1 "
                    "(hyperbolic); every choice carries the same sl(2).")


def _make_quaternionic(b1=None, b2=None, b3=None, gauge_b0=0) -> CatalogEntry:
    c = ("q0", "q1", "q2", "q3")
    fields = (
        _field(c, ["1", "0", "0", "0"]),
        _field(c, ["q0", "q1", "q2", "q3"]),
        _field(c, ["q0^2 - q1^2 - q2^2 - q3^2",
                   "2*q0*q1", "2*q0*q2", "2*q0*q3"]),
    )
    return _ode_entry(
        "quaternionic", fields, _sl2_coeffs(b1, b2, b3), gauge_b0,
        _tensor(3, _SL2),
        description="Riccati dynamics on quaternion components (four "
                    "states); the middle coefficient absorbs the sum of "
                    "the two affine inputs of the usual presentation.")


_DBH_CYCLE = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _dbh_fields(alpha) -> Tuple[VectorField, ...]:
    c = ("w1", "w2", "w3")
    a1, a2, a3 = (str(_frac(v, "alpha")) for v in alpha)
    tau2 = (f"({a1})^2*(w1 - w2)*(w3 - w1)"
            f" + ({a2})^2*(w2 - w3)*(w1 - w2)"
            f" + ({a3})^2*(w3 - w1)*(w2 - w3)")
    x3 = []
    for i, j, k in _DBH_CYCLE:
        wi, wj, wk = f"w{i + 1}", f"w{j + 1}", f"w{k + 1}"
        x3.append(f"{wi}*({wj} + {wk}) - {wj}*{wk} - ({tau2})")
    return (
        _field(c, ["1", "1", "1"]),
        _field(c, ["w1", "w2", "w3"]),
        _field(c, x3),
    )


def dbh_symmetry_family(mode: str, lam1=0, lam2=0, lam3=0, t0=0, c0=0,
                        time: str = "t") -> SymmetryCandidate:
    """Closed-form symmetry families of the autonomized triple system.

    With drift coefficients (0, 0, -1) the built symmetry system reduces
    to f1' = 0, f2' = -2 f1, f3' = -f2 - b0, f0' = b0, and integrates in
    closed form for the three recognised gauge shapes:

        b0_zero    b0 = 0
        b0_const   b0 = c0
        b0_linear  b0 = c0 t

    lam1, lam2, lam3 and t0 are the integration constants.
    """
    l1, l2, l3 = (_frac(v, "lam") for v in (lam1, lam2, lam3))
    t0f, c0f = _frac(t0, "t0"), _frac(c0, "c0")
    tv = Expr.var(time)
    f1 = Expr.const(l1)
    f2 = Expr.const(l2) - 2 * l1 * tv
    if mode == "b0_zero":
        f0 = Expr.const(t0f)
        f3 = l1 * tv ** 2 - l2 * tv + l3
    elif mode == "b0_const":
        f0 = c0f * tv + t0f
        f3 = l1 * tv ** 2 - (l2 + c0f) * tv + l3
    elif mode == "b0_linear":
        f0 = Expr.const(t0f) + Fraction(1, 2) * c0f * tv ** 2
        f3 = (l1 - Fraction(1, 2) * c0f) * tv ** 2 - l2 * tv + l3
    else:
        raise BadParams(
            f"mode must be b0_zero, b0_const or b0_linear, got {mode!r}")
    return SymmetryCandidate.closed((f0, f1, f2, f3), time=time)


def _dbh_families(system: LieSystem) -> Tuple[NamedFamily, ...]:
    """Bundle the family matching the entry's gauge shape, if recognised."""
    t = system.time
    g = system.gauge
    try:
        gp = g.diff(t)
    except Exception:
        return ()
    if g.is_zero() is ZeroStatus.ZERO:
        cand = dbh_symmetry_family("b0_zero", 1, 1, 1, t0=1, time=t)
        return (NamedFamily("b0_zero", cand,
                            note="lam = (1, 1, 1), t0 = 1"),)
    if gp.is_zero() is ZeroStatus.ZERO and not g.has_opaque:
        c0 = g.eval_exact({})
        cand = dbh_symmetry_family("b0_const", 1, 1, 1, t0=1, c0=c0, time=t)
        return (NamedFamily("b0_const", cand,
                            note=f"lam = (1, 1, 1), t0 = 1, c0 = {c0}"),)
    if not g.has_opaque and (g - gp * Expr.var(t)).is_zero() is ZeroStatus.ZERO:
        c0 = gp.eval_exact({})
        cand = dbh_symmetry_family("b0_linear", 1, 1, 1, t0=1, c0=c0, time=t)
        return (NamedFamily("b0_linear", cand,
                            note=f"lam = (1, 1, 1), t0 = 1, c0 = {c0}"),)
    return ()


def _make_dbh(alpha=(0, 0, 0), gauge_b0=0) -> CatalogEntry:
    if len(tuple(alpha)) != 3:
        raise BadParams("alpha must have three components")
    return _ode_entry(
        "dbh", _dbh_fields(alpha),
        (Expr.zero(), Expr.zero(), Expr.const(-1)), gauge_b0,
        _tensor(3, _SL2), families=_dbh_families,
        description="Darboux-Brioschi-Halphen triple with the quadratic "
                    "coupling tau^2 built from pairwise differences and "
                    "weights alpha; alpha = 0 recovers the classical case.")


def _make_kummer_schwarz(c0=1, eta=None, gauge_b0=0) -> CatalogEntry:
    c0f = _frac(c0, "c0")
    c = ("x", "v")
    fields = (
        _field(c, ["0", "2*x"]),
        _field(c, ["x", "2*v"]),
        _field(c, ["v", f"(3/2)*v^2/x - 2*({c0f})*x^3"]),
    )
    return _ode_entry(
        "kummer_schwarz", fields,
        (_time_profile(eta, "eta"), Expr.zero(), Expr.one()), gauge_b0,
        _tensor(3, _SL2), excluded_note="x = 0",
        state_box=((0.5, 2.0), (-2.0, 2.0)),
        excluded=lambda y: abs(y[0]) < 1e-6,
        description="Kummer-Schwarz equation as a first-order pair; the "
                    "third basis field has a v^2/x term, so trajectories "
                    "and sampling avoid the x = 0 hyperplane.")


def _make_buchdahl(a2=None, fprofile=None, gauge_b0=0) -> CatalogEntry:
    c = ("x", "v")
    f_of_x = (opaque_chain("fB", "x", depth=2) if fprofile is None
              else (_parse_profile(fprofile, c) if isinstance(fprofile, str)
                    else Expr._coerce(fprofile)))
    x1 = VectorField(c, [Expr.var("v"), f_of_x * Expr.var("v") ** 2])
    x2 = VectorField(c, [Expr.zero(), -Expr.var("v")])
    return _ode_entry(
        "buchdahl", (x1, x2), (Expr.one(), -_time_profile(a2, "a2")),
        gauge_b0, _tensor(2, _AFF),
        description="Buchdahl's second-order equation x'' = f(x) x'^2 + "
                    "a2(t) x' as a first-order pair on a two-field affine "
                    "basis with fixed first coefficient.")


def _make_aff_generic(a=None, b=None, gauge_b0=0) -> CatalogEntry:
    c = ("x",)
    fields = (_field(c, ["1"]), _field(c, ["x"]))
    return _ode_entry(
        "aff_generic", fields, (_time_profile(a, "a"), _time_profile(b, "b")),
        gauge_b0, _tensor(2, _AFF),
        description="Generic system on the affine line basis (translation "
                    "and dilation); its symmetry system integrates by "
                    "quadratures.")


def _make_painleve_ince() -> CatalogEntry:
    c = ("x", "v")
    fields = (
        _field(c, ["v", "-(3*x*v + x^3)"]),
        _field(c, ["0", "1"]),
        _field(c, ["-1", "3*x"]),
        _field(c, ["x", "-2*x^2"]),
        _field(c, ["v + 2*x^2", "-x*(v + 3*x^2)"]),
        _field(c, ["2*x*(v + x^2)", "2*(v^2 - x^4)"]),
        _field(c, ["1", "-x"]),
        _field(c, ["2*x", "4*v"]),
    )
    shift = NamedFamily(
        "commuting_generator",
        SymmetryCandidate.closed((0, 0, 0, 0, 0, 0, 1, 0, 0), time="t"),
        note="the sixth basis field commutes with the drift")
    return _ode_entry(
        "painleve_ince", fields,
        (Expr.one(),) + tuple(Expr.zero() for _ in range(7)), 0,
        _tensor(8, _OCTET), families=lambda sys: (shift,),
        description="Painleve-Ince equation x'' + 3 x x' + x^3 = 0 as a "
                    "first-order pair, carried by the full eight-field "
                    "point-symmetry basis of the flow.")


# -- PDE factory ---------------------------------------------------------------

def _make_partial_riccati(coeffs=None, times=("t1", "t2")) -> CatalogEntry:
    times = tuple(times)
    if coeffs is None:
        lams = tuple(Fraction(l + 1) for l in range(len(times)))
        weights = (Fraction(1), Fraction(1, 2), Fraction(-1, 3))
        rows = tuple(tuple(Expr.const(l * w) for l in lams) for w in weights)
        fams = (NamedFamily(
            "proportional_direction",
            PDESymmetryCandidate.closed(
                tuple(Expr.const(w) for w in weights), times),
            note="constant candidate along the common coefficient "
                 "direction; exact by antisymmetry"),)
    else:
        if isinstance(coeffs, str) or any(isinstance(row, str) for row in coeffs):
            raise BadParams("partial_riccati coeffs must be rows of coefficients, "
                            f"not strings: {coeffs!r}")
        rows = tuple(
            tuple(_parse_profile(e, times) if isinstance(e, str)
                  else Expr._coerce(e) for e in row)
            for row in coeffs)
        if len(rows) != 3:
            raise BadParams("partial_riccati takes three coefficient rows")
        fams = ()
    sys = PDELieSystem(LieAlgebraBasis(_line_sl2_fields()), coeffs=rows,
                       times=times, name="partial_riccati")
    return CatalogEntry(
        "partial_riccati", sys, _tensor(3, _SL2), fams,
        description="Riccati dynamics driven by several independent times "
                    "on the line sl(2) basis.  The default coefficient "
                    "matrix is constant with proportional columns, hence "
                    "flat; pass coeffs to study other instances.")


# -- registry ------------------------------------------------------------------

_FACTORIES: Dict[str, Callable[..., CatalogEntry]] = {
    "riccati": _make_riccati,
    "sl2_generic": _make_sl2_generic,
    "cayley_klein": _make_cayley_klein,
    "quaternionic": _make_quaternionic,
    "dbh": _make_dbh,
    "kummer_schwarz": _make_kummer_schwarz,
    "buchdahl": _make_buchdahl,
    "aff_generic": _make_aff_generic,
    "painleve_ince": _make_painleve_ince,
    "partial_riccati": _make_partial_riccati,
}


def names() -> Tuple[str, ...]:
    return tuple(sorted(_FACTORIES))


def make(name: str, **params) -> CatalogEntry:
    """Build a catalog entry by name; BadParams on invalid parameters.

    A parameter whose default is a tuple also takes its items as one
    comma-separated string: make("dbh", alpha="1,2,3").
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise UnknownName(
            f"unknown system {name!r}; known: {', '.join(names())}") from None
    accepted = inspect.signature(factory).parameters
    unknown = [k for k in params if k not in accepted]
    if unknown:
        raise BadParams(
            f"{name} does not take {', '.join(map(repr, unknown))}; "
            f"it accepts {', '.join(accepted) or 'none'}")
    params = {k: tuple(v.split(",")) if isinstance(v, str)
              and isinstance(accepted[k].default, tuple) else v
              for k, v in params.items()}
    try:
        return factory(**params)
    except TypeError as exc:
        raise BadParams(str(exc)) from exc


# -- worked third-order reductions --------------------------------------------

def _rational_sqrt(value: Fraction) -> Optional[Fraction]:
    if value < 0:
        return None
    n, d = value.numerator, value.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


_T1_ROWS = ("rational_pole", "rational_pole_sq", "linear")


def _t1_eta(row: str, a: Fraction, b: Fraction, k: Fraction,
            time: str) -> Expr:
    tv = Expr.var(time)
    if row == "rational_pole":
        return Expr.const(k) / (a * tv + b)
    if row == "rational_pole_sq":
        return Expr.const(k) / (a * tv + b) ** 2
    return a * tv + b


def table1_f3(row: str, a, b, k, c1, c2, c3, time: str = "t") -> Expr:
    """Worked solutions f3(t) of the third-order symmetry reduction.

    Rows, by the shape of the Riccati coefficient eta:

        rational_pole     eta = k/(a t + b); pairwise products of
                          order-one Bessel profiles (homogeneous part
                          solves the reduction only when k = 1)
        rational_pole_sq  eta = k/(a t + b)^2; power solutions, only
                          representable here when the exponents
                          (a +- sqrt(a^2 - 4k))/a are integers (use
                          table1_power_aux otherwise)
        linear            eta = a t + b; pairwise products of Airy
                          profiles, any k

    a must be nonzero; the oscillatory rows additionally need a > 0.
    """
    if row not in _T1_ROWS:
        raise BadParams(f"row must be one of {', '.join(_T1_ROWS)}")
    af, bf, kf = _frac(a, "a"), _frac(b, "b"), _frac(k, "k")
    c1f, c2f, c3f = _frac(c1, "c1"), _frac(c2, "c2"), _frac(c3, "c3")
    if af == 0:
        raise BadParams("a must be nonzero")

    if row == "rational_pole":
        p, q = bessel_profile_pair(af, bf, time)
        return (Expr.const(kf) + c1f * p * p + c2f * q * q + c3f * p * q)

    if row == "linear":
        p, q = airy_profile_pair(af, bf, time)
        return (Expr.const(kf) + c1f * p * p + c2f * q * q + c3f * p * q)

    # power row
    tv = Expr.var(time)
    lin = af * tv + bf
    if kf == 0:
        out = Expr.zero()
    else:
        if bf == 0:
            raise BadParams("the particular term -k a t / b needs b != 0")
        out = Expr.const(-kf * af / bf) * tv
    disc = af * af - 4 * kf
    root = _rational_sqrt(disc)
    for cf, sign in ((c1f, 1), (c2f, -1)):
        if cf == 0:
            continue
        if root is None:
            raise BadParams(
                "the exponents (a +- sqrt(a^2 - 4k))/a are irrational or "
                "complex; use table1_power_aux for the rational case")
        expo = (af + sign * root) / af
        if expo.denominator != 1:
            raise BadParams(
                f"exponent {expo} is not an integer; use table1_power_aux")
        out = out + cf * (lin / af) ** int(expo)
    return out + c3f * lin


def table1_candidate(row: str, a, b, k, c1, c2, c3,
                     time: str = "t") -> Tuple[SymmetryCandidate, Expr]:
    """Full symmetry candidate built from a worked f3 row, plus its eta.

    Completion of the remaining channels is algebraic for gauge zero and
    constant f0 = k: f2 = f3' and f1 = f3''/2 + eta f3.
    """
    f3 = table1_f3(row, a, b, k, c1, c2, c3, time)
    eta = _t1_eta(row, _frac(a, "a"), _frac(b, "b"), _frac(k, "k"), time)
    f2 = f3.diff(time)
    f1 = Fraction(1, 2) * f2.diff(time) + eta * f3
    f0 = Expr.const(_frac(k, "k"))
    return SymmetryCandidate.closed((f0, f1, f2, f3), time=time), eta


def table1_power_aux(a, b, k, c1, c2, c3,
                     aux_var: str = "u") -> Tuple[Expr, Expr, Tuple[str, Expr]]:
    """Power-row data rewritten in an auxiliary variable u with t = T(u).

    Choosing a t + b = a u^q with q the common denominator of the two
    exponents turns the fractional powers into polynomial data, so the
    reduction residual can be checked exactly.  Returns (f3, eta, aux)
    where aux = (u, T(u)) plugs into riccati_f3_ode_residual.
    """
    af, bf, kf = _frac(a, "a"), _frac(b, "b"), _frac(k, "k")
    c1f, c2f, c3f = _frac(c1, "c1"), _frac(c2, "c2"), _frac(c3, "c3")
    if af == 0:
        raise BadParams("a must be nonzero")
    root = _rational_sqrt(af * af - 4 * kf)
    if root is None:
        raise BadParams("a^2 - 4k must be the square of a rational")
    e_plus, e_minus = (af + root) / af, (af - root) / af
    q = math.lcm(e_plus.denominator, e_minus.denominator)
    uv = Expr.var(aux_var)
    t_of_u = uv ** q - Expr.const(bf / af)
    lin = af * uv ** q  # a T(u) + b
    if kf == 0:
        f3 = Expr.zero()
    else:
        if bf == 0:
            raise BadParams("the particular term -k a t / b needs b != 0")
        f3 = Expr.const(-kf * af / bf) * t_of_u
    f3 = (f3 + c1f * uv ** int(e_plus * q) + c2f * uv ** int(e_minus * q)
          + c3f * lin)
    eta = Expr.const(kf) / lin ** 2
    return f3, eta, (aux_var, t_of_u)
