"""Fixed-step numerics: frozen accuracy targets and failure modes."""

import math

import numpy as np
import pytest

from liesym import (
    TimePath,
    aff_closed_form,
    build_symmetry_system,
    compile_numeric,
    integrate,
    integrate_along_path,
    make,
    parse,
    symmetry_algebra_f0_zero,
)
from liesym.errors import (BadParams, DimensionMismatch, PoleEncountered,
                           QuadratureDiverged, StepNotPositive)
from liesym.integrate import cumulative_simpson, rk4_solve


def test_rk4_exponential():
    traj = rk4_solve(lambda t, y: y, [1.0], (0.0, 1.0), 1e-3)
    assert abs(traj.ts[-1] - 1.0) < 1e-12
    assert abs(traj.states[-1, 0] - math.e) < 1e-10
    # error estimates are positive and of the right magnitude, h^5 per step
    assert 0 < np.max(traj.err_est) < 1e-12


def test_rk4_order_four_convergence():
    # halving the step must divide the endpoint error by about 2^4
    def rhs(t, y):
        return np.array([math.sin(t) * y[0]])

    exact = math.exp(1 - math.cos(2.0))
    errs = []
    for step in (0.02, 0.01):
        traj = rk4_solve(rhs, [1.0], (0.0, 2.0), step)
        errs.append(abs(traj.states[-1, 0] - exact))
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0


def test_rk4_shares_k1_between_full_and_half_step():
    calls = []

    def rhs(t, y):
        calls.append(t)
        return [-v for v in y]

    rk4_solve(rhs, [1.0], (0.0, 1.0), 0.1)
    # 4 for the full step, 3 + 4 for the two half steps, k1 shared
    assert len(calls) == 10 * 11


def test_rk4_backward():
    traj = rk4_solve(lambda t, y: y, [math.e], (1.0, 0.0), 1e-3)
    assert abs(traj.states[-1, 0] - 1.0) < 1e-10


def test_rk4_partial_final_step():
    traj = rk4_solve(lambda t, y: np.array([1.0]), [0.0], (0.0, 0.35), 0.1)
    assert abs(traj.ts[-1] - 0.35) < 1e-12
    assert abs(traj.states[-1, 0] - 0.35) < 1e-12


def test_rk4_pole_detection():
    # dx/dt = 1 + x^2 blows up at t = pi/2
    with pytest.raises(PoleEncountered) as info:
        rk4_solve(lambda t, y: [1 + v ** 2 for v in y], [0.0], (0.0, 3.0),
                  1e-3)
    assert info.value.t is not None
    assert abs(info.value.t - math.pi / 2) < 0.05


def test_rk4_excluded_locus():
    with pytest.raises(PoleEncountered):
        rk4_solve(lambda t, y: np.array([-1.0]), [1.0], (0.0, 3.0), 1e-2,
                  excluded=lambda y: y[0] <= 0.0)


def test_rk4_callbacks_receive_lists():
    seen = []

    def rhs(t, y):
        seen.append(type(y))
        return [-v for v in y]

    def excluded(y):
        seen.append(type(y))
        return False

    rk4_solve(rhs, np.array([1.0, 2.0]), (0.0, 0.2), 0.1, excluded=excluded)
    assert seen and set(seen) == {list}


def test_rk4_rejects_rhs_of_wrong_length():
    # a length-1 return is not broadcast over the state
    with pytest.raises(DimensionMismatch):
        rk4_solve(lambda t, y: [1.0], [0.0, 0.0], (0.0, 1.0), 0.1)
    with pytest.raises(DimensionMismatch):
        rk4_solve(lambda t, y: [1.0, 2.0, 3.0], [0.0, 0.0], (0.0, 1.0), 0.1)


def test_rk4_step_validation():
    with pytest.raises(StepNotPositive):
        rk4_solve(lambda t, y: y, [1.0], (0.0, 1.0), 0.0)
    with pytest.raises(StepNotPositive):
        rk4_solve(lambda t, y: y, [1.0], (0.0, 0.0), 0.1)


def test_trajectory_column():
    traj = rk4_solve(lambda t, y: np.array([1.0, 2.0]), [0.0, 0.0],
                     (0.0, 1.0), 0.1, varnames=("u", "v"))
    assert abs(traj.column("v")[-1] - 2.0) < 1e-12


def test_cumulative_simpson_quadratic_exact():
    # local quadratic rules integrate t^2 exactly
    step = 0.1
    ts = step * np.arange(11)
    out = cumulative_simpson(ts ** 2, step)
    assert np.max(np.abs(out - ts ** 3 / 3)) < 1e-14


def test_cumulative_simpson_two_samples_diverge():
    for values in ([1.0, math.inf], [1.0, math.nan]):
        with pytest.raises(QuadratureDiverged):
            cumulative_simpson(values, 0.1)


def test_cumulative_simpson_sine():
    step = 1e-3
    ts = step * np.arange(1001)
    out = cumulative_simpson(np.sin(ts), step)
    assert np.max(np.abs(out - (1 - np.cos(ts)))) < 1e-10


def test_rk4_rejects_non_finite_t_span():
    for span in ((0.0, math.nan), (0.0, math.inf), (-math.inf, 1.0)):
        with pytest.raises(BadParams):
            rk4_solve(lambda t, y: -y, [1.0], span, 0.1)


def test_rk4_rejects_non_finite_initial_state():
    with pytest.raises(BadParams):
        rk4_solve(lambda t, y: -y, [1.0, math.nan], (0.0, 1.0), 0.1)


# -- golden trajectories ---------------------------------------------------------
#
# The integrator and its right-hand sides step on Python floats.  The array
# form they replaced is frozen here: RK4 on float64 arrays, right-hand sides
# that evaluate the compiled kernels on ndarrays and return ndarrays, and
# quadrature over numpy scalars.  Same operations in the same order, so
# every comparison below is exact.


def _ref_rk4_step(rhs, t, y, h, k1):
    k2 = rhs(t + h / 2, y + h / 2 * k1)
    k3 = rhs(t + h / 2, y + h / 2 * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def _ref_rk4_solve(rhs, y0, t_span, step):
    t0, t1 = float(t_span[0]), float(t_span[1])
    direction = 1.0 if t1 > t0 else -1.0
    h = direction * step
    y = np.asarray(y0, dtype=float)
    ts, states, errs = [t0], [y.copy()], [0.0]
    t = t0

    def checked_rhs(tt, yy):
        val = np.asarray(rhs(tt, yy), dtype=float)
        if not np.all(np.isfinite(val)) or np.max(np.abs(val)) > 1e12:
            raise PoleEncountered("reference rhs exceeded 1e12", t=tt)
        return val

    while (t1 - t) * direction > 1e-12 * max(1.0, abs(t1)):
        hh = h if (t1 - t) * direction >= step else (t1 - t)
        k1 = checked_rhs(t, y)
        full = _ref_rk4_step(checked_rhs, t, y, hh, k1)
        half = _ref_rk4_step(checked_rhs, t, y, hh / 2, k1)
        half = _ref_rk4_step(checked_rhs, t + hh / 2, half, hh / 2,
                             checked_rhs(t + hh / 2, half))
        errs.append(float(np.max(np.abs(full - half))) / 15.0)
        t = t + hh
        y = full
        ts.append(t)
        states.append(y.copy())
    return np.array(ts), np.vstack(states), np.array(errs)


def _ref_cumulative_simpson(values, step):
    v = np.asarray(values, dtype=float)
    m = len(v)
    out = np.zeros(m)
    if m == 2:
        out[1] = step * (v[0] + v[1]) / 2
        return out
    for i in range(1, m):
        if i == 1:
            inc = step * (5 * v[0] + 8 * v[1] - v[2]) / 12
        else:
            inc = step * (-v[i - 2] + 8 * v[i - 1] + 5 * v[i]) / 12
        out[i] = out[i - 1] + inc
    return out


def _ref_drift_rhs(sys):
    kernel = compile_numeric(sys.drift_field().components,
                             (sys.time,) + sys.vars)

    def f(t, y):
        args = np.empty(len(y) + 1)
        args[0] = t
        args[1:] = y
        return np.array(kernel(args))

    return f


def _assert_same_trajectory(traj, ref):
    ts, states, errs = ref
    assert np.array_equal(traj.ts, ts)
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.err_est, errs)


def test_golden_riccati_time_dependent():
    sys = make("riccati", eta="t").system
    ref = _ref_rk4_solve(_ref_drift_rhs(sys), [0.3], (0.0, 1.0), 1e-3)
    _assert_same_trajectory(integrate(sys, [0.3], (0.0, 1.0), 1e-3), ref)


def test_golden_dbh_symmetry_system():
    built = build_symmetry_system(make("dbh").system).system
    f0 = [0.2, 0.5, -0.3, 0.1]
    ref = _ref_rk4_solve(_ref_drift_rhs(built), f0, (0.0, 1.0), 1e-3)
    traj = integrate(built, f0, (0.0, 1.0), 1e-3)
    assert len(traj.ts) == 1001
    _assert_same_trajectory(traj, ref)


def test_golden_numpy_callback():
    rhs = lambda t, y: -np.asarray(y)  # noqa: E731
    _assert_same_trajectory(rk4_solve(rhs, [1.0, -2.5], (0.0, 2.0), 1e-2),
                            _ref_rk4_solve(rhs, [1.0, -2.5], (0.0, 2.0), 1e-2))


def test_golden_partial_final_step():
    sys = make("riccati", eta="t").system
    ref = _ref_rk4_solve(_ref_drift_rhs(sys), [0.3], (0.0, 0.35), 0.1)
    traj = integrate(sys, [0.3], (0.0, 0.35), 0.1)
    assert len(traj.ts) == 5 and traj.ts[-1] - traj.ts[-2] < 0.1
    _assert_same_trajectory(traj, ref)


def test_golden_path_leg():
    sys = make("partial_riccati", times=("t1", "t2", "t3")).system
    n = len(sys.vars)
    w0, w1 = (0.0, 0.1, 0.0), (0.7, 0.3, 0.5)
    drifts = compile_numeric([c for l in range(sys.s)
                              for c in sys.drift_field(l).components],
                             sys.times + sys.vars)
    a, d = np.asarray(w0), np.asarray(w1) - np.asarray(w0)

    def ref_rhs(u, yy):
        vals = drifts(np.concatenate([a + u * d, yy]))
        return np.array([sum(d[l] * vals[l * n + j] for l in range(sys.s))
                         for j in range(n)])

    ref = _ref_rk4_solve(ref_rhs, [0.2], (0.0, 1.0), 1.0 / 50)
    traj = integrate_along_path(sys, [0.2], TimePath((w0, w1), steps=50))
    _assert_same_trajectory(traj, ref)


def test_golden_f0_zero_flow():
    sys = make("dbh").system
    tensor = sys.algebra.tensor
    b_kernel = compile_numeric(sys.coeffs, [sys.time])

    def ref_rhs(tv, f):
        return np.array(tensor.bracket(f, b_kernel(np.array([tv]))),
                        dtype=float)

    report = symmetry_algebra_f0_zero(sys, t_span=(0.0, 0.5), step=1e-2)
    for i, traj in enumerate(report.trajectories):
        ref = _ref_rk4_solve(ref_rhs, np.eye(sys.r)[i], (0.0, 0.5), 1e-2)
        _assert_same_trajectory(traj, ref)


def test_golden_cumulative_simpson():
    for values in (np.sin(np.linspace(0.0, 3.0, 301)), [1.0, 2.0],
                   [1.0, 4.0, 9.0]):
        assert np.array_equal(cumulative_simpson(values, 0.01),
                              _ref_cumulative_simpson(values, 0.01))


def test_golden_aff_closed_form():
    a, b = parse("t^2 + 1", ["t"]), parse("t - 1/2", ["t"])
    k, c1, c2, step = 2.0, 1.0, -1.0, 1e-3
    cand = aff_closed_form(a, b, 2, 1, -1, step=step)
    ts = step * np.arange(1001)
    kernel = compile_numeric([a, a.diff("t"), b, b.diff("t")], ["t"])
    av, dav, bv, dbv = np.array([kernel(np.array([t])) for t in ts]).T
    big_b = _ref_cumulative_simpson(bv, step)
    f2 = k * bv + c1
    integral = _ref_cumulative_simpson((k * dav - av * f2) * np.exp(-big_b),
                                       step)
    f1 = (integral + c2) * np.exp(big_b)
    assert np.array_equal(cand.grid, ts)
    assert np.array_equal(cand.values,
                          np.column_stack([np.full(1001, k), f1, f2]))
    assert np.array_equal(cand.dvalues,
                          np.column_stack([np.zeros(1001),
                                           bv * f1 + k * dav - av * f2,
                                           k * dbv]))
