"""Deterministic fixed-step numerics: RK4 and cumulative Simpson quadrature.

The integrator is deliberately plain: classical RK4 with a constant step,
plus a per-step error estimate obtained by comparing the full step with
two half steps (Richardson, order-4 factor 15).  No adaptivity, so runs
are reproducible bit for bit given the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import PoleEncountered, QuadratureDiverged, StepNotPositive

POLE_LIMIT = 1e12


@dataclass
class Trajectory:
    """A sampled solution curve with per-step error estimates."""

    ts: np.ndarray
    states: np.ndarray
    err_est: np.ndarray
    varnames: Tuple[str, ...]
    step: float
    method: str = "rk4"

    def __post_init__(self):
        if len(self.ts) != len(self.states) or len(self.ts) != len(self.err_est):
            raise ValueError("trajectory arrays disagree in length")

    @property
    def n(self) -> int:
        return self.states.shape[1]

    def column(self, name: str) -> np.ndarray:
        return self.states[:, self.varnames.index(name)]


def _rk4_step(rhs, t, y, h, k1):
    """One RK4 step from (t, y), given k1 = rhs(t, y)."""
    k2 = rhs(t + h / 2, y + h / 2 * k1)
    k3 = rhs(t + h / 2, y + h / 2 * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def rk4_solve(rhs: Callable[[float, np.ndarray], np.ndarray],
              y0: Sequence[float],
              t_span: Tuple[float, float],
              step: float,
              varnames: Optional[Sequence[str]] = None,
              excluded: Optional[Callable[[np.ndarray], bool]] = None) -> Trajectory:
    """Classical RK4 with a fixed step and half-step Richardson estimates.

    The trajectory advances on the full-step values; the two half steps
    feed only the stored error estimate |full - half*2|_inf / 15.
    Integration aborts with PoleEncountered when the right-hand side or
    the state leaves [-POLE_LIMIT, POLE_LIMIT] or hits the excluded set.
    """
    if step <= 0:
        raise StepNotPositive(f"step must be positive, got {step}")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 == t0:
        raise StepNotPositive("empty integration interval")
    direction = 1.0 if t1 > t0 else -1.0
    h = direction * step
    y = np.asarray(y0, dtype=float)
    names = tuple(varnames) if varnames else tuple(f"x{i}" for i in range(len(y)))
    if excluded is not None and excluded(y):
        raise PoleEncountered("initial state is on the excluded locus",
                              t=t0, state=y)
    ts = [t0]
    states = [y.copy()]
    errs = [0.0]
    t = t0

    def checked_rhs(tt, yy):
        val = np.asarray(rhs(tt, yy), dtype=float)
        if not np.all(np.isfinite(val)) or np.max(np.abs(val)) > POLE_LIMIT:
            raise PoleEncountered(
                f"right-hand side exceeded {POLE_LIMIT:g} at t={tt:.6g}",
                t=tt, state=yy)
        return val

    while (t1 - t) * direction > 1e-12 * max(1.0, abs(t1)):
        hh = h if (t1 - t) * direction >= step else (t1 - t)
        k1 = checked_rhs(t, y)
        full = _rk4_step(checked_rhs, t, y, hh, k1)
        half = _rk4_step(checked_rhs, t, y, hh / 2, k1)
        half = _rk4_step(checked_rhs, t + hh / 2, half, hh / 2,
                         checked_rhs(t + hh / 2, half))
        err = float(np.max(np.abs(full - half))) / 15.0
        t = t + hh
        y = full
        if not np.all(np.isfinite(y)) or np.max(np.abs(y)) > POLE_LIMIT:
            raise PoleEncountered(
                f"state exceeded {POLE_LIMIT:g} at t={t:.6g}", t=t, state=y)
        if excluded is not None and excluded(y):
            raise PoleEncountered(
                f"state hit the excluded locus at t={t:.6g}", t=t, state=y)
        ts.append(t)
        states.append(y.copy())
        errs.append(err)
    return Trajectory(np.array(ts), np.vstack(states), np.array(errs),
                      names, step)


def cumulative_simpson(values: np.ndarray, step: float) -> np.ndarray:
    """Cumulative integral on a uniform grid by local quadratic rules.

    Matches composite Simpson on even indices; odd indices use the
    quadratic through the three nearest samples.
    """
    v = np.asarray(values, dtype=float)
    m = len(v)
    out = np.zeros(m)
    if m < 2:
        return out
    if m == 2:
        out[1] = step * (v[0] + v[1]) / 2
        return out
    for i in range(1, m):
        if i == 1:
            inc = step * (5 * v[0] + 8 * v[1] - v[2]) / 12
        else:
            inc = step * (-v[i - 2] + 8 * v[i - 1] + 5 * v[i]) / 12
        out[i] = out[i - 1] + inc
    if not np.all(np.isfinite(out)):
        raise QuadratureDiverged("cumulative Simpson produced non-finite values")
    return out

