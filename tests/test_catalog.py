"""Catalog entries: frozen tensors, bundled families, worked reductions."""

import sys
from fractions import Fraction as Fr

import numpy as np
import pytest

from liesym import (
    BadParams,
    DimensionMismatch,
    Expr,
    FixtureMissing,
    NotIntegrable,
    OpaqueNoDerivative,
    UnknownName,
    ZeroStatus,
    aff_closed_form,
    build_pde_symmetry_system,
    build_symmetry_system,
    curvature_residual,
    dbh_symmetry_family,
    extract_structure_constants,
    jacobi_residual,
    lie_bracket,
    make,
    names,
    opaque_chain,
    parse,
    pde_symmetry_residual,
    riccati_f3_ode_residual,
    symmetry_residual,
    table1_candidate,
    table1_f3,
    table1_power_aux,
)

ZERO = ZeroStatus.ZERO


def assert_zero(e):
    assert e.is_zero() is ZERO, str(e)


# -- registry ------------------------------------------------------------------

def test_names_and_unknown():
    ns = names()
    assert ns == tuple(sorted(ns))
    assert "riccati" in ns and "partial_riccati" in ns
    with pytest.raises(UnknownName, match="known:"):
        make("ricatti")


def test_unexpected_parameter_is_bad_params():
    with pytest.raises(BadParams, match=r"^riccati does not take 'viscosity'; "
                       r"it accepts eta, gauge_b0$"):
        make("riccati", viscosity=1)
    with pytest.raises(BadParams, match=r"^painleve_ince does not take 'eta'; "
                       r"it accepts none$"):
        make("painleve_ince", eta="t")


def test_every_entry_reproduces_its_frozen_tensor():
    for n in names():
        entry = make(n)
        tensor, method = extract_structure_constants(entry.system.algebra.fields)
        assert method == "exact", n
        assert tensor == entry.expected, n
        assert jacobi_residual(entry.expected) == 0, n


def test_every_bundled_family_passes_the_independent_oracle():
    for n in names():
        entry = make(n)
        assert entry.families, n
        for fam in entry.families:
            if entry.kind == "ode":
                rep = symmetry_residual(fam.candidate, entry.system)
            else:
                rep = pde_symmetry_residual(fam.candidate, entry.system)
            assert rep.exact or float(rep) <= 1e-6, (n, fam.name, rep)


def test_sl2_isomorphism_family_shares_one_tensor():
    entries = [
        make("riccati"),
        make("cayley_klein", iota2=-1),
        make("cayley_klein", iota2=0),
        make("cayley_klein", iota2=1),
        make("quaternionic"),
        make("dbh", alpha=(1, 2, 3)),
        make("kummer_schwarz", c0=Fr(1, 2)),
        make("partial_riccati"),
    ]
    tensors = {e.expected for e in entries}
    assert len(tensors) == 1
    ref = entries[0].expected
    assert ref.c(0, 1, 0) == 1 and ref.c(0, 2, 1) == 2 and ref.c(1, 2, 2) == 1


def test_cayley_klein_rejects_other_units():
    with pytest.raises(BadParams):
        make("cayley_klein", iota2=2)


# -- the triple system ---------------------------------------------------------

def _dbh_rhs_exprs(alpha):
    c = ("w1", "w2", "w3")
    a1, a2, a3 = alpha
    tau2 = (f"({a1})^2*(w1 - w2)*(w3 - w1) + ({a2})^2*(w2 - w3)*(w1 - w2)"
            f" + ({a3})^2*(w3 - w1)*(w2 - w3)")
    out = []
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        out.append(parse(
            f"w{j}*w{k} - w{i}*(w{j} + w{k}) + {tau2}", c))
    return out


@pytest.mark.parametrize("alpha", [(0, 0, 0), (1, 0, 2)])
def test_dbh_drift_is_the_stated_rhs(alpha):
    entry = make("dbh", alpha=alpha)
    drift = entry.system.drift_field()
    for got, expected in zip(drift.components, _dbh_rhs_exprs(alpha)):
        assert_zero(got - expected)


def test_dbh_gauge_shapes_pick_matching_families():
    base = make("dbh")
    assert [f.name for f in base.families] == ["b0_zero", "drift_rescaling"]
    const = make("dbh", gauge_b0="2")
    assert [f.name for f in const.families] == ["b0_const"]
    linear = make("dbh", gauge_b0="3*t")
    assert [f.name for f in linear.families] == ["b0_linear"]
    for entry in (base, const, linear):
        for fam in entry.families:
            rep = symmetry_residual(fam.candidate, entry.system)
            assert rep.exact, (entry.name, fam.name)
    # unrecognised gauge shape: no family is claimed
    assert make("dbh", gauge_b0="t^2").families == ()


@pytest.mark.parametrize("mode,b0", [
    ("b0_zero", "0"), ("b0_const", "5"), ("b0_linear", "5*t")])
def test_dbh_family_solves_the_reduced_equations(mode, b0):
    # f0' = b0, f1' = 0, f2' = -2 f1, f3' = -f2 - b0, re-derived by hand
    cand = dbh_symmetry_family(mode, lam1=2, lam2=Fr(1, 3), lam3=-1,
                               t0=4, c0=5)
    f0, f1, f2, f3 = cand.f_exprs
    b0e = parse(b0, ["t"])
    assert_zero(f0.diff("t") - b0e)
    assert_zero(f1.diff("t"))
    assert_zero(f2.diff("t") + 2 * f1)
    assert_zero(f3.diff("t") + f2 + b0e)


def test_dbh_family_rejects_unknown_mode():
    with pytest.raises(BadParams):
        dbh_symmetry_family("b0_quadratic")


# -- entries with state constraints --------------------------------------------

def test_kummer_schwarz_avoids_the_collapsed_fiber():
    entry = make("kummer_schwarz", c0=1, eta="t")
    assert entry.excluded_note == "x = 0"
    assert entry.system.excluded(np.array([0.0, 1.0]))
    assert not entry.system.excluded(np.array([0.7, -1.0]))
    assert entry.system.default_box()[0][0] > 0.0
    drift = entry.system.drift_field()
    expected = [
        parse("v", ("x", "v")),
        parse("(3/2)*v^2/x - 2*x^3 + 2*t*x", ("t", "x", "v")),
    ]
    for got, exp in zip(drift.components, expected):
        assert_zero(got - exp)


def test_buchdahl_reduces_to_the_affine_symmetry_system():
    a2 = opaque_chain("a2", "t", depth=3)
    bu = build_symmetry_system(make("buchdahl", a2=a2).system)
    af = build_symmetry_system(make("aff_generic", a=1, b=-a2).system)
    bu_rhs = [str(e) for e in bu.rhs_exprs]
    assert bu_rhs == [str(e) for e in af.rhs_exprs]
    assert bu_rhs == ["0", "-@a2(t)*f1 - f2", "-@a2'(t)*f0"]


def test_affine_quadrature_candidate_passes_the_oracle():
    a, b = parse("t", ["t"]), parse("1 - t/2", ["t"])
    entry = make("aff_generic", a=a, b=b)
    cand = aff_closed_form(a, b, 1, 2, 3)
    rep = symmetry_residual(cand, entry.system)
    assert float(rep) <= 1e-8


def test_painleve_ince_octet():
    entry = make("painleve_ince")
    assert entry.expected.r == 8
    fields = entry.system.algebra.fields
    z = lie_bracket(fields[0], fields[5])
    for comp in z.components:
        assert_zero(comp)
    assert entry.expected.c(0, 7, 0) == -2
    assert entry.expected.c(6, 7, 6) == 2
    assert entry.expected.c(0, 5, 0) == 0
    shift = [f for f in entry.families if f.name == "commuting_generator"]
    assert shift and symmetry_residual(shift[0].candidate, entry.system).exact


# -- the multi-time entry -------------------------------------------------------

def test_partial_riccati_default_is_flat():
    entry = make("partial_riccati")
    rep = curvature_residual(entry.system)
    assert rep.exact and rep.max_abs == 0.0
    build_pde_symmetry_system(entry.system)  # must not raise


def test_partial_riccati_perturbed_instance_is_rejected():
    rows = (("1", "2"), ("1/2", "1"), ("-1/3", "-1/6"))
    entry = make("partial_riccati", coeffs=rows)
    rep = curvature_residual(entry.system)
    assert abs(float(rep) - 1.0) < 1e-12
    assert rep.worst == (1, 0, 1)
    with pytest.raises(NotIntegrable):
        build_pde_symmetry_system(entry.system)


def test_partial_riccati_row_validation():
    with pytest.raises(BadParams):
        make("partial_riccati", coeffs=(("1", "0"), ("0", "1")))
    with pytest.raises(DimensionMismatch):
        make("partial_riccati", coeffs=(("1",), ("0",), ("0",)))


# -- worked third-order reductions ---------------------------------------------

def test_power_row_with_integer_exponents_is_exact():
    # a = 1, b = 1, k = -2: exponents 4 and -2
    f3 = table1_f3("rational_pole_sq", 1, 1, -2, 1, 1, 1)
    eta = Expr.const(Fr(-2)) / (Expr.var("t") + 1) ** 2
    rep = riccati_f3_ode_residual(Fr(-2), f3, eta, 0)
    assert rep.exact


def test_power_row_fractional_exponents_via_aux_variable():
    # a = 1, b = 1, k = 3/16: exponents 3/2 and 1/2, so t = u^2 - 1
    f3, eta, aux = table1_power_aux(1, 1, Fr(3, 16), 1, 1, 1)
    var, t_of_u = aux
    assert var == "u"
    assert_zero(t_of_u - parse("u^2 - 1", ["u"]))
    rep = riccati_f3_ode_residual(Fr(3, 16), f3, eta, 0, aux=aux)
    assert rep.exact


def test_bessel_row_is_valid_only_at_unit_k():
    for k, bound in ((1, None), (2, None)):
        f3 = table1_f3("rational_pole", 1, 1, k, 1, Fr(1, 2), Fr(1, 3))
        eta = Expr.const(Fr(k)) / (Expr.var("t") + 1)
        rep = riccati_f3_ode_residual(Fr(k), f3, eta, 0)
        if k == 1:
            assert float(rep) <= 1e-12
        else:
            assert float(rep) >= 1e-2


def test_airy_row_is_valid_for_every_k():
    for k in (1, Fr(5, 4)):
        f3 = table1_f3("linear", 2, 1, k, 1, Fr(1, 2), Fr(1, 3))
        eta = 2 * Expr.var("t") + 1
        rep = riccati_f3_ode_residual(Fr(k), f3, eta, 0)
        assert float(rep) <= 1e-12


def test_full_candidates_pass_the_bracket_oracle():
    cases = [
        ("rational_pole", (1, 1, 1, 1, Fr(1, 2), Fr(1, 3))),
        ("rational_pole_sq", (1, 1, -2, 1, 1, 1)),
        ("linear", (2, 1, Fr(5, 4), 1, Fr(1, 2), Fr(1, 3))),
    ]
    for row, params in cases:
        cand, eta = table1_candidate(row, *params)
        entry = make("riccati", eta=eta)
        rep = symmetry_residual(cand, entry.system)
        assert rep.exact or float(rep) <= 1e-12, (row, rep)


def test_trivial_f3_is_the_drift_rescaling():
    cand, eta = table1_candidate("rational_pole_sq", 1, 2, 0, 0, 0, 0)
    f0, f1, f2, f3 = cand.f_exprs
    for e in (f0, f1, f2, f3):
        assert_zero(e)
    cand, eta = table1_candidate("linear", 1, 0, 5, 0, 0, 0)
    f0, f1, f2, f3 = cand.f_exprs
    assert_zero(f0 - 5)
    assert_zero(f1 - 5 * eta)
    assert_zero(f2)
    assert_zero(f3 - 5)


def test_table1_parameter_validation():
    with pytest.raises(BadParams):
        table1_f3("pole", 1, 1, 1, 0, 0, 0)
    with pytest.raises(BadParams):
        table1_f3("linear", 0, 1, 1, 0, 0, 0)
    with pytest.raises(BadParams, match="positive"):
        table1_f3("rational_pole", -1, 1, 1, 1, 0, 0)
    # exponents (1 +- sqrt(-3))/1 are complex
    with pytest.raises(BadParams, match="power_aux"):
        table1_f3("rational_pole_sq", 1, 1, 1, 1, 0, 0)
    # exponent 3/2 is not an integer
    with pytest.raises(BadParams, match="power_aux"):
        table1_f3("rational_pole_sq", 1, 1, Fr(3, 16), 1, 0, 0)
    with pytest.raises(BadParams, match="b != 0"):
        table1_f3("rational_pole_sq", 1, 0, -2, 1, 0, 0)
    # k = 0 has no particular term, so b = 0 is fine
    table1_f3("rational_pole_sq", 1, 0, 0, 1, 0, 1)
    with pytest.raises(BadParams):
        table1_power_aux(1, 1, 1, 1, 1, 1)


def test_special_function_rows_need_scipy(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy", None)
    with pytest.raises(FixtureMissing):
        table1_f3("rational_pole", 1, 1, 1, 1, 0, 0)
    with pytest.raises(FixtureMissing):
        table1_f3("linear", 1, 1, 1, 1, 0, 0)


def test_opaque_chain_contract():
    with pytest.raises(BadParams):
        opaque_chain("g", depth=-1)
    with pytest.raises(BadParams):
        opaque_chain("g", depth=2, evaluators=[float])
    short = opaque_chain("g", depth=1)
    with pytest.raises(OpaqueNoDerivative):
        short.diff("t").diff("t")
