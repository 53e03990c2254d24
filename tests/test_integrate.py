"""Fixed-step numerics: frozen accuracy targets and failure modes."""

import math

import numpy as np
import pytest

from liesym.errors import PoleEncountered, StepNotPositive
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
        return -y

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
        rk4_solve(lambda t, y: 1 + y ** 2, [0.0], (0.0, 3.0), 1e-3)
    assert info.value.t is not None
    assert abs(info.value.t - math.pi / 2) < 0.05


def test_rk4_excluded_locus():
    with pytest.raises(PoleEncountered):
        rk4_solve(lambda t, y: np.array([-1.0]), [1.0], (0.0, 3.0), 1e-2,
                  excluded=lambda y: y[0] <= 0.0)


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


def test_cumulative_simpson_sine():
    step = 1e-3
    ts = step * np.arange(1001)
    out = cumulative_simpson(np.sin(ts), step)
    assert np.max(np.abs(out - (1 - np.cos(ts)))) < 1e-10
