"""Deterministic fixed-step numerics: RK4 and cumulative Simpson quadrature.

The integrator is deliberately plain: classical RK4 with a constant step,
plus a per-step error estimate obtained by comparing the full step with
two half steps (Richardson, order-4 factor 15).  No adaptivity, so runs
are reproducible bit for bit given the same inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (BadParams, DimensionMismatch, PoleEncountered,
                     QuadratureDiverged, StepNotPositive)

POLE_LIMIT = 1e12


@dataclass
class Trajectory:
    """A solution curve: ts (m,), states (m, n), per-step err_est (m,)."""

    ts: np.ndarray
    states: np.ndarray
    err_est: np.ndarray

    def __post_init__(self):
        if len(self.ts) != len(self.states) or len(self.ts) != len(self.err_est):
            raise ValueError("trajectory arrays disagree in length")


def _rk4_step(rhs, t, y, h, k1):
    """One RK4 step from (t, y), given k1 = rhs(t, y); float lists throughout."""
    h2 = h / 2
    k2 = rhs(t + h2, [a + h2 * b for a, b in zip(y, k1)])
    k3 = rhs(t + h2, [a + h2 * b for a, b in zip(y, k2)])
    k4 = rhs(t + h, [a + h * b for a, b in zip(y, k3)])
    h6 = h / 6
    return [a + h6 * (((b1 + 2 * b2) + 2 * b3) + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


def _in_bounds(vals) -> bool:
    """Every entry finite and within POLE_LIMIT in absolute value."""
    for v in vals:
        if not abs(v) <= POLE_LIMIT:  # also false for NaN
            return False
    return True


def _max_abs_diff(u, v) -> float:
    """max |u - v| over the entries, NaN if any difference is NaN."""
    worst = 0.0
    for a, b in zip(u, v):
        d = abs(a - b)
        if d != d:
            return d
        if d > worst:
            worst = d
    return worst


def _check_span(t_span: Tuple[float, float], step: float) -> Tuple[float, float]:
    """t_span as floats; StepNotPositive unless step > 0, BadParams unless finite."""
    if step <= 0:
        raise StepNotPositive(f"step must be positive, got {step}")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1) and math.isfinite(step)):
        raise BadParams(f"t_span {t0:g}:{t1:g} and step {step:g} must be finite")
    return t0, t1


def rk4_solve(rhs: Callable[[float, List[float]], Sequence[float]],
              y0: Sequence[float],
              t_span: Tuple[float, float],
              step: float,
              excluded: Optional[Callable[[List[float]], bool]] = None) -> Trajectory:
    """Classical RK4 with a fixed step and half-step Richardson estimates.

    rhs(t, y) receives t as a float and y as a list of Python floats, and
    returns a sequence (a list or an ndarray) of exactly one float per
    state entry; any other length raises DimensionMismatch.  excluded(y)
    receives the same list.  The stepping runs on Python floats: at the
    sizes of symmetry systems a numpy call costs more than the arithmetic
    it does.  The operations and their order are those of the array
    form, so trajectories are bit-identical to it.

    The trajectory advances on the full-step values; the two half steps
    feed only the stored error estimate |full - half*2|_inf / 15.
    Integration aborts with PoleEncountered when the right-hand side or
    the state leaves [-POLE_LIMIT, POLE_LIMIT] or hits the excluded set.
    A non-finite t_span, y0 or step raises BadParams.  States keep y0's order.
    """
    t0, t1 = _check_span(t_span, step)
    y0_arr = np.asarray(y0, dtype=float).reshape(-1)
    if not np.all(np.isfinite(y0_arr)):
        raise BadParams(f"initial state {y0_arr.tolist()} must be finite")
    if t1 == t0:
        raise StepNotPositive("empty integration interval")
    direction = 1.0 if t1 > t0 else -1.0
    h = direction * step
    n = len(y0_arr)
    y = y0_arr.tolist()
    if excluded is not None and excluded(y):
        raise PoleEncountered("initial state is on the excluded locus",
                              t=t0, state=y0_arr)
    ts = [t0]
    states = [y]
    errs = [0.0]
    t = t0

    def checked_rhs(tt, yy):
        val = rhs(tt, yy)
        if len(val) != n:
            raise DimensionMismatch(
                f"right-hand side returned {len(val)} values for {n} states")
        if not _in_bounds(val):
            raise PoleEncountered(
                f"right-hand side exceeded {POLE_LIMIT:g} at t={tt:.6g}",
                t=tt, state=np.array(yy))
        return val

    while (t1 - t) * direction > 1e-12 * max(1.0, abs(t1)):
        hh = h if (t1 - t) * direction >= step else (t1 - t)
        k1 = checked_rhs(t, y)
        full = _rk4_step(checked_rhs, t, y, hh, k1)
        half = _rk4_step(checked_rhs, t, y, hh / 2, k1)
        half = _rk4_step(checked_rhs, t + hh / 2, half, hh / 2,
                         checked_rhs(t + hh / 2, half))
        err = _max_abs_diff(full, half) / 15.0
        t = t + hh
        y = full
        if not _in_bounds(y):
            raise PoleEncountered(
                f"state exceeded {POLE_LIMIT:g} at t={t:.6g}", t=t,
                state=np.array(y))
        if excluded is not None and excluded(y):
            raise PoleEncountered(
                f"state hit the excluded locus at t={t:.6g}", t=t,
                state=np.array(y))
        ts.append(t)
        states.append(y)
        errs.append(err)
    return Trajectory(np.array(ts), np.array(states), np.array(errs))


def cumulative_simpson(values: np.ndarray, step: float) -> np.ndarray:
    """Cumulative integral on a uniform grid by local quadratic rules.

    Matches composite Simpson on even indices; odd indices use the
    quadratic through the three nearest samples.
    """
    v = np.asarray(values, dtype=float).tolist()
    m = len(v)
    if m < 2:
        return np.zeros(m)
    if m == 2:
        out = [0.0, step * (v[0] + v[1]) / 2]
    else:
        out = [0.0]
        for i in range(1, m):
            if i == 1:
                inc = step * (5 * v[0] + 8 * v[1] - v[2]) / 12
            else:
                inc = step * (-v[i - 2] + 8 * v[i - 1] + 5 * v[i]) / 12
            out.append(out[i - 1] + inc)
    out = np.array(out)
    if not np.all(np.isfinite(out)):
        raise QuadratureDiverged("cumulative Simpson produced non-finite values")
    return out
