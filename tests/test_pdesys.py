"""Multi-time systems: curvature, building, paths, and the dual oracle."""

import numpy as np
import pytest

from liesym import (
    BadParams,
    DimensionMismatch,
    Expr,
    GridEmpty,
    LieAlgebraBasis,
    LieSystem,
    MissingDerivative,
    NotIntegrable,
    NotVertical,
    OpaqueFunction,
    PDELieSystem,
    PDESymmetryCandidate,
    SymmetryCandidate,
    TimePath,
    VectorField,
    ZeroStatus,
    build_pde_symmetry_system,
    curvature_residual,
    integrate,
    integrate_along_path,
    make,
    pde_candidate_from_path,
    pde_symmetry_basis,
    pde_symmetry_residual,
)

T1 = Expr.var("t1")
T2 = Expr.var("t2")


def line_sl2_fields():
    x = Expr.var("x")
    one = Expr.one()
    return [VectorField(("x",), (one,)),
            VectorField(("x",), (x,)),
            VectorField(("x",), (x * x,))]


def plane_sl2_fields():
    x, y = Expr.var("x"), Expr.var("y")
    return [VectorField(("x", "y"), (Expr.one(), Expr.zero())),
            VectorField(("x", "y"), (x, y)),
            VectorField(("x", "y"), (x * x - y * y, 2 * x * y))]


def shared_profile_system(fields, profiles, lams=(1, 2), **kw):
    """Coefficients lam_l * P_a(u) with u = sum lam_m t_m; curvature cancels.

    The derivative terms agree because every entry depends on the times
    through u alone, and the quadratic term dies by antisymmetry since
    the two coefficient vectors are proportional.
    """
    u = sum((Expr.const(lam) * Expr.var(f"t{m + 1}") for m, lam in enumerate(lams)),
            Expr.zero())
    times = tuple(f"t{m + 1}" for m in range(len(lams)))
    rows = tuple(tuple(Expr.const(lam) * p(u) for lam in lams) for p in profiles)
    return PDELieSystem(LieAlgebraBasis(fields), rows, times=times, **kw)


def riccati_profiles():
    # negative quadratic channel keeps the Riccati flow bounded
    return [lambda u: Expr.const("1/2") * u,
            lambda u: Expr.const("1/4"),
            lambda u: Expr.const("-1/3") * u]


def test_curvature_exact_zero_for_shared_profile():
    sys2 = shared_profile_system(line_sl2_fields(), riccati_profiles())
    rep = curvature_residual(sys2)
    assert rep.exact
    assert rep.max_abs == 0.0
    assert float(rep) == 0.0


def test_curvature_single_time_is_vacuous():
    sys1 = PDELieSystem(LieAlgebraBasis(line_sl2_fields()),
                        ((Expr.one(),), (Expr.zero(),), (T1,)), times=("t1",))
    rep = curvature_residual(sys1)
    assert rep.exact and rep.max_abs == 0.0


def test_curvature_flags_constant_independent_directions():
    # b_.1 = (1,0,0), b_.2 = (0,0,1): the bracket term leaves -2 on the
    # second field, [X3, X1] = -2 X2
    rows = ((Expr.one(), Expr.zero()),
            (Expr.zero(), Expr.zero()),
            (Expr.zero(), Expr.one()))
    sys2 = PDELieSystem(LieAlgebraBasis(line_sl2_fields()), rows)
    rep = curvature_residual(sys2)
    assert not rep.exact
    assert rep.max_abs == pytest.approx(2.0, abs=1e-15)
    assert rep.worst == (1, 0, 1)
    with pytest.raises(NotIntegrable):
        build_pde_symmetry_system(sys2)


def test_curvature_zero_on_grid_without_symbolic_proof():
    # opaque-free but mixed representation: entries cancel only after
    # expansion, which the symbolic route already handles; force the
    # grid route with b depending on separate times across an abelian
    # algebra, where only the derivative terms matter
    fields = [VectorField(("x", "y"), (Expr.one(), Expr.zero())),
              VectorField(("x", "y"), (Expr.zero(), Expr.one()))]
    rows = ((T1 * T2, T1 * T1 * Expr.const("1/2")),
            (T2, T1))
    sys2 = PDELieSystem(LieAlgebraBasis(fields), rows)
    rep = curvature_residual(sys2)
    # d(t1 t2)/dt2 - d(t1^2/2)/dt1 = 0 and d(t2)/dt2 - d(t1)/dt1 = 0
    assert rep.exact and rep.max_abs == 0.0


def test_curvature_missing_derivative():
    # mu(t1) sits in the second direction, so the cross term needs mu'
    mu = Expr.opaque(OpaqueFunction("mu"), "t1")
    rows = ((Expr.zero(), mu),
            (Expr.zero(), Expr.zero()),
            (Expr.one(), Expr.zero()))
    sys2 = PDELieSystem(LieAlgebraBasis(line_sl2_fields()), rows)
    with pytest.raises(MissingDerivative):
        curvature_residual(sys2)


def test_system_validation():
    fields = line_sl2_fields()
    alg = LieAlgebraBasis(fields)
    with pytest.raises(BadParams):
        PDELieSystem(alg, (((Expr.one(),) * 4),) * 3,
                     times=("t1", "t2", "t3", "t4"))
    with pytest.raises(DimensionMismatch):
        PDELieSystem(alg, ((Expr.one(), Expr.one()),) * 2)
    with pytest.raises(DimensionMismatch):
        PDELieSystem(alg, ((Expr.one(),),) * 3)
    with pytest.raises(DimensionMismatch):
        PDELieSystem(alg, ((Expr.one(), Expr.one()),) * 3, times=("x", "t2"))


def test_time_path_validation():
    with pytest.raises(BadParams):
        TimePath(((0.0, 0.0),))
    with pytest.raises(BadParams):
        TimePath(((0.0, 0.0), (0.0, 0.0)))
    with pytest.raises(DimensionMismatch):
        TimePath(((0.0, 0.0), (1.0,)))
    with pytest.raises(BadParams):
        TimePath(((0.0, 0.0), (1.0, 0.0)), steps=0)
    path = TimePath(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)), steps=10)
    assert path.s == 2 and path.nseg == 2
    assert np.allclose(path.point(0.5), (0.5, 0.0))
    assert np.allclose(path.point(1.5), (1.0, 0.5))
    assert np.allclose(path.point(2.0), (1.0, 1.0))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_time_path_rejects_non_finite_waypoints(bad):
    with pytest.raises(BadParams):
        TimePath(((0.0, 0.0), (1.0, bad)))


# -- construction --------------------------------------------------------


def test_built_equations_match_sl2_shape():
    sys2 = shared_profile_system(line_sl2_fields(), riccati_profiles())
    built = build_pde_symmetry_system(sys2)
    inner = built.system
    assert inner.r == 3 and inner.s == 2
    assert inner.vars == ("f1", "f2", "f3")
    assert inner.coeffs == sys2.coeffs
    f1, f2, f3 = (Expr.var(v) for v in inner.vars)
    for l in range(2):
        b1, b2, b3 = (sys2.coeffs[a][l] for a in range(3))
        got = built.system.drift_field(l).components
        expected = (b2 * f1 - b1 * f2,
                    2 * (b3 * f1 - b1 * f3),
                    b3 * f2 - b2 * f3)
        for g, e in zip(got, expected):
            assert (g - e).is_zero() is ZeroStatus.ZERO


def test_built_system_passes_its_own_curvature_check():
    sys2 = shared_profile_system(plane_sl2_fields(), riccati_profiles())
    built = build_pde_symmetry_system(sys2)
    rep = curvature_residual(built.system)
    assert rep.exact and rep.max_abs == 0.0


def test_build_folds_central_direction():
    # transformed Heisenberg basis: the third generator equals the first
    p1 = Expr.var("p1")
    fields = [
        VectorField(("p1", "p2", "p3"), (Expr.one(), Expr.zero(), Expr.zero())),
        VectorField(("p1", "p2", "p3"), (Expr.zero(), Expr.one(), p1)),
        VectorField(("p1", "p2", "p3"), (Expr.one(), Expr.zero(), Expr.one())),
    ]
    profiles = [lambda u: u, lambda u: u * u, lambda u: Expr.const("1/5")]
    sys2 = shared_profile_system(fields, profiles)
    built = build_pde_symmetry_system(sys2)
    assert built.system.r == 2
    ys = pde_symmetry_basis(sys2.algebra.tensor)
    assert (ys[2] - ys[0]).is_zero() is ZeroStatus.ZERO
    assert built.system.algebra.fields == (ys[0], ys[1])
    for l in range(2):
        merged = sys2.coeffs[0][l] + sys2.coeffs[2][l]
        assert (built.system.coeffs[0][l] - merged).is_zero() is ZeroStatus.ZERO
        assert (built.system.coeffs[1][l] - sys2.coeffs[1][l]).is_zero() \
            is ZeroStatus.ZERO


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9])
def test_build_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    # partial_riccati is flat (curvature exactly 0), so only the check of
    # tol itself can refuse it
    with pytest.raises(BadParams):
        build_pde_symmetry_system(make("partial_riccati").system, tol=tol)


def test_build_abelian_gives_zero_dynamics():
    fields = [VectorField(("x", "y"), (Expr.one(), Expr.zero())),
              VectorField(("x", "y"), (Expr.zero(), Expr.one()))]
    rows = ((Expr.one(), Expr.const(2)), (Expr.const(3), Expr.const(5)))
    built = build_pde_symmetry_system(PDELieSystem(LieAlgebraBasis(fields), rows))
    for l in range(2):
        assert built.system.drift_field(l).is_zero() is ZeroStatus.ZERO
    assert all(c.is_zero() is ZeroStatus.ZERO
               for row in built.system.coeffs for c in row)


# -- path integration -----------------------------------------------------


def test_straight_path_reduces_to_single_time_integration():
    # second direction switched off; the path (0,0)->(1,0) must replay
    # the ordinary integration in t1
    fields = line_sl2_fields()
    rows = ((T1, Expr.zero()),
            (Expr.const("1/4"), Expr.zero()),
            (T1 * T1, Expr.zero()))
    sys2 = PDELieSystem(LieAlgebraBasis(fields), rows)
    path = TimePath(((0.0, 0.0), (1.0, 0.0)), steps=100)
    traj = integrate_along_path(sys2, [0.1], path)

    t = Expr.var("t")
    ode = LieSystem(LieAlgebraBasis(fields),
                    (t, Expr.const("1/4"), t * t))
    ref = integrate(ode, [0.1], (0.0, 1.0), 0.01)
    assert traj.states.shape == ref.states.shape
    assert abs(traj.states[-1, 0] - ref.states[-1, 0]) < 1e-10


def test_integrable_system_is_path_independent():
    sys2 = shared_profile_system(line_sl2_fields(), riccati_profiles())
    paths = [
        TimePath(((0.0, 0.0), (1.0, 1.0)), steps=400),
        TimePath(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)), steps=200),
        TimePath(((0.0, 0.0), (0.2, 0.7), (1.0, 1.0)), steps=200),
    ]
    ends = [integrate_along_path(sys2, [0.1], p).states[-1, 0] for p in paths]
    assert abs(ends[0] - ends[1]) < 1e-6
    assert abs(ends[0] - ends[2]) < 1e-6


def test_non_integrable_system_is_path_dependent():
    rows = ((Expr.one(), Expr.zero()),
            (Expr.zero(), Expr.zero()),
            (Expr.zero(), Expr.one()))
    sys2 = PDELieSystem(LieAlgebraBasis(line_sl2_fields()), rows)
    diag = integrate_along_path(
        sys2, [-0.5], TimePath(((0.0, 0.0), (1.0, 1.0)), steps=400))
    bent = integrate_along_path(
        sys2, [-0.5], TimePath(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)), steps=200))
    # dx/du = 1 + x^2 along the diagonal: x(1) = tan(1 + arctan(-1/2))
    assert abs(diag.states[-1, 0] - np.tan(1.0 + np.arctan(-0.5))) < 1e-8
    assert abs(bent.states[-1, 0] - 1.0) < 1e-8
    assert abs(diag.states[-1, 0] - bent.states[-1, 0]) > 1e-3


def test_path_dimension_mismatch():
    sys2 = shared_profile_system(line_sl2_fields(), riccati_profiles())
    with pytest.raises(DimensionMismatch):
        integrate_along_path(sys2, [0.1], TimePath(((0.0,), (1.0,)), steps=10))


# -- symmetry residuals ----------------------------------------------------


def quadrature_symmetry_instance(k1="1", k2="1/2", k3="1/3"):
    """Only the first basis channel is driven: b = (lam_l * u, 0, 0).

    With Q = u^2/2 the coefficient equations integrate in closed form to
    f = (k3 Q^2 - k2 Q + k1, -2 k3 Q + k2, k3), an exact symmetry.
    """
    profiles = [lambda u: u, lambda u: Expr.zero(), lambda u: Expr.zero()]
    sys2 = shared_profile_system(line_sl2_fields(), profiles)
    u = T1 + 2 * T2
    q = u * u * Expr.const("1/2")
    f = (Expr.const(k3) * q * q - Expr.const(k2) * q + Expr.const(k1),
         -2 * Expr.const(k3) * q + Expr.const(k2),
         Expr.const(k3))
    return sys2, f


def test_exact_symmetry_has_exact_zero_residual():
    sys2, f = quadrature_symmetry_instance()
    rep = pde_symmetry_residual(PDESymmetryCandidate.closed(f), sys2)
    assert rep.exact
    assert rep.max_abs == 0.0
    assert rep.jet_max_abs == 0.0 and rep.oracle_gap == 0.0


def test_zero_candidate_is_a_symmetry():
    sys2 = shared_profile_system(line_sl2_fields(), riccati_profiles())
    rep = pde_symmetry_residual((0, 0, 0), sys2)
    assert rep.exact and rep.max_abs == 0.0


def test_constant_candidate_flagged_on_nonconstant_coefficients():
    sys2 = shared_profile_system(line_sl2_fields(), riccati_profiles())
    rep = pde_symmetry_residual((1, 0, 0), sys2)
    assert not rep.exact
    assert rep.max_abs > 1e-3
    assert rep.oracle_gap < 1e-9


def test_oracles_agree_on_random_instances():
    rng = np.random.default_rng(7)
    realizations = [line_sl2_fields, plane_sl2_fields]
    for trial in range(5):
        fields = realizations[trial % 2]()
        alg = LieAlgebraBasis(fields)

        def poly():
            c = rng.integers(-3, 4, size=4)
            return (Expr.const(int(c[0])) + Expr.const(int(c[1])) * T1
                    + Expr.const(int(c[2])) * T2
                    + Expr.const(int(c[3])) * T1 * T2)

        rows = tuple((poly(), poly()) for _ in range(3))
        sys2 = PDELieSystem(alg, rows)
        f = tuple(poly() for _ in range(3))
        rep = pde_symmetry_residual(PDESymmetryCandidate.closed(f), sys2,
                                    nx=8, seed=trial)
        # random data is no symmetry, but the two oracles must still
        # compute the same residual field
        if not rep.exact:
            assert rep.oracle_gap <= 1e-9
            assert abs(rep.max_abs - rep.jet_max_abs) <= 1e-9


def test_vertical_field_candidate_forms():
    sys2, f = quadrature_symmetry_instance()
    fields = sys2.algebra.fields
    comps = [Expr.zero()]
    for fa, xa in zip(f, fields):
        comps[0] = comps[0] + fa * xa.components[0]
    on_state = VectorField(("x",), comps)
    rep = pde_symmetry_residual(on_state, sys2)
    assert rep.exact

    joint = VectorField(("t1", "t2", "x"),
                        (Expr.zero(), Expr.zero(), comps[0]))
    rep2 = pde_symmetry_residual(joint, sys2)
    assert rep2.exact

    tilted = VectorField(("t1", "t2", "x"), (Expr.one(), Expr.zero(), comps[0]))
    with pytest.raises(NotVertical):
        pde_symmetry_residual(tilted, sys2)
    with pytest.raises(DimensionMismatch):
        pde_symmetry_residual((Expr.one(), Expr.zero()), sys2)


def test_integrated_solution_passes_sampled_residual():
    sys2 = shared_profile_system(line_sl2_fields(), riccati_profiles())
    built = build_pde_symmetry_system(sys2)
    path = TimePath(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)), steps=200)
    traj = integrate_along_path(built.system, [1.0, 0.5, -0.25], path)
    cand = pde_candidate_from_path(built, traj, path)
    rep = pde_symmetry_residual(cand, sys2)
    assert rep.max_abs <= 1e-6

    bad = PDESymmetryCandidate.sampled(
        cand.tpoints, cand.values + np.array([0.0, 0.01, 0.0]), cand.dvalues)
    rep_bad = pde_symmetry_residual(bad, sys2)
    assert rep_bad.max_abs > 1e-3


def test_candidate_shape_validation():
    with pytest.raises(DimensionMismatch):
        PDESymmetryCandidate(times=("t1", "t2"))
    with pytest.raises(DimensionMismatch):
        PDESymmetryCandidate.sampled(np.zeros((4, 1)), np.zeros((4, 3)),
                                     np.zeros((4, 3, 2)))
    with pytest.raises(DimensionMismatch):
        PDESymmetryCandidate.sampled(np.zeros((4, 2)), np.zeros((4, 3)),
                                     np.zeros((4, 3, 1)))
    sys2 = shared_profile_system(line_sl2_fields(), riccati_profiles())
    three = PDESymmetryCandidate.closed((0, 0, 0), times=("t1", "t3"))
    with pytest.raises(DimensionMismatch):
        pde_symmetry_residual(three, sys2)


@pytest.mark.parametrize("make_empty, make_both", [
    (lambda: SymmetryCandidate(time="t"),
     lambda: SymmetryCandidate(f_exprs=(Expr.one(),) * 4,
                               grid=np.zeros(2), values=np.zeros((2, 4)),
                               dvalues=np.zeros((2, 4)))),
    (lambda: PDESymmetryCandidate(times=("t1", "t2")),
     lambda: PDESymmetryCandidate(times=("t1", "t2"), f_exprs=(Expr.one(),) * 3,
                                  tpoints=np.zeros((2, 2)),
                                  values=np.zeros((2, 3)),
                                  dvalues=np.zeros((2, 3, 2)))),
], ids=["single_time", "multi_time"])
def test_candidate_is_closed_form_or_sampled(make_empty, make_both):
    with pytest.raises(DimensionMismatch, match="^sampled candidate needs "):
        make_empty()
    with pytest.raises(DimensionMismatch,
                       match="^candidate carries both closed-form and sampled data$"):
        make_both()


def test_non_finite_sampled_candidate_reports_inf():
    sys2 = shared_profile_system(line_sl2_fields(), riccati_profiles())
    tpoints = np.column_stack([np.linspace(0, 1, 5), np.linspace(0, 1, 5)])
    cand = PDESymmetryCandidate.sampled(tpoints, np.full((5, 3), np.nan),
                                        np.full((5, 3, 2), np.nan))
    assert pde_symmetry_residual(cand, sys2, nx=4).max_abs == np.inf


def test_non_finite_curvature_reports_inf():
    nan = lambda u: float("nan")  # noqa: E731
    mu = OpaqueFunction("mu", evaluator=nan,
                        derivative=OpaqueFunction("mu'", evaluator=nan))
    rows = ((Expr.zero(), Expr.opaque(mu, "t1")),
            (Expr.zero(), Expr.zero()),
            (Expr.one(), Expr.zero()))
    sys2 = PDELieSystem(LieAlgebraBasis(line_sl2_fields()), rows)
    assert curvature_residual(sys2).max_abs == np.inf
    with pytest.raises(NotIntegrable):
        build_pde_symmetry_system(sys2)


def test_empty_grids_raise():
    sys2 = shared_profile_system(line_sl2_fields(), riccati_profiles())
    with pytest.raises(GridEmpty):
        pde_symmetry_residual((1, 0, 0), sys2, nx=0)
    built = build_pde_symmetry_system(sys2)
    path = TimePath(((0.0, 0.0), (1.0, 1.0)), steps=20)
    traj = integrate_along_path(built.system, [1.0, 0.5, -0.25], path)
    cand = pde_candidate_from_path(built, traj, path)
    with pytest.raises(GridEmpty):
        pde_symmetry_residual(cand, sys2, nx=0)
    with pytest.raises(GridEmpty):
        pde_symmetry_residual(cand, sys2, nt=0)


def test_state_box_must_cover_every_state_coordinate():
    rows = ((T1, T2), (Expr.zero(), Expr.zero()), (Expr.one(), Expr.one()))
    with pytest.raises(DimensionMismatch):
        PDELieSystem(LieAlgebraBasis(line_sl2_fields()), rows,
                     state_box=((0.0, 1.0), (0.0, 1.0)))
