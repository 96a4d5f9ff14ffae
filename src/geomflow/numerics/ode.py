"""Adaptive explicit ODE integration.

The workhorse is an embedded Runge-Kutta-Fehlberg 4(5) pair with standard
proportional step control. The 5th-order solution is propagated; the
difference against the embedded 4th-order solution drives the step size.
Accepted steps keep the stage-0 derivative, so cubic Hermite interpolation
between nodes gives dense output and supports event location by bisection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..errors import DetectionError, IntegrationError

# Fehlberg 4(5) tableau.
_C = np.array([0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2])
_A = [
    np.array([]),
    np.array([1 / 4]),
    np.array([3 / 32, 9 / 32]),
    np.array([1932 / 2197, -7200 / 2197, 7296 / 2197]),
    np.array([439 / 216, -8.0, 3680 / 513, -845 / 4104]),
    np.array([-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40]),
]
_B5 = np.array([16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55])
# Difference between the 5th and 4th order weights: local error estimate.
_E = np.array([1 / 360, 0.0, -128 / 4275, -2197 / 75240, 1 / 50, 2 / 55])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_EVENT_TOL = 1e-12  # width in time to which an event crossing is bisected


@dataclass
class StepControl:
    """Tolerances and budget for one integration.

    ``max_step`` is optional and caps the step size; useful when the right
    hand side is a semidiscretized PDE whose stability limit is known.
    """

    initial_step: float = 1e-3
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_steps: int = 10_000_000
    max_step: float | None = None

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")


@dataclass
class Trajectory:
    """Sampled solution of an ODE.

    ``states[i]`` is the state at ``times[i]``. A run that stores its nodes
    also keeps the node derivatives ``derivs``, which allow cubic Hermite
    interpolation between nodes via :meth:`sample`.
    """

    times: np.ndarray
    states: np.ndarray
    derivs: np.ndarray | None = None
    event_time: float | None = None
    event_state: np.ndarray | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.states.shape[0] != self.times.shape[0]:
            raise ValueError("times and states length mismatch")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("states contain non-finite entries")

    @property
    def y_end(self) -> np.ndarray:
        return self.states[-1]

    def sample(self, t) -> np.ndarray:
        """Cubic Hermite interpolation at times ``t`` (scalar or array)."""
        if self.derivs is None:
            raise ValueError("trajectory holds output-time samples, not nodes")
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if t_arr.min() < self.times[0] - 1e-12 or t_arr.max() > self.times[-1] + 1e-12:
            raise ValueError("sample time outside the integrated span")
        idx = np.clip(np.searchsorted(self.times, t_arr, side="right") - 1, 0, len(self.times) - 2)
        t0 = self.times[idx]
        h = self.times[idx + 1] - t0
        out = _hermite(t_arr[:, None], t0[:, None], h[:, None], self.states[idx],
                       self.states[idx + 1], self.derivs[idx], self.derivs[idx + 1])
        return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out


def _error_norm(err, y_old, y_new, ctrl):
    scale = ctrl.abs_tol + ctrl.rel_tol * np.maximum(np.abs(y_old), np.abs(y_new))
    return float(np.max(np.abs(err) / scale))


def _hermite(t, t0, h, y0, y1, f0, f1):
    s = (t - t0) / h
    return ((1 + 2 * s) * (1 - s) ** 2 * y0 + s * (1 - s) ** 2 * h * f0
            + s * s * (3 - 2 * s) * y1 + s * s * (s - 1) * h * f1)


def _event_crossing(event, event_min_time, t, h, y, y_new, f, f_new, g_prev, g_new):
    """Time in (max(t, event_min_time), t + h] where ``event`` turns
    nonpositive on the step's Hermite interpolant, bisected to ``_EVENT_TOL``;
    None when the crossing lies before ``event_min_time``."""
    lo, hi = max(t, event_min_time), t + h
    g_lo = event(lo, _hermite(lo, t, h, y, y_new, f, f_new)) if lo > t else g_prev
    if np.sign(g_lo) == np.sign(g_new):
        return None
    while hi - lo > _EVENT_TOL:
        mid = 0.5 * (lo + hi)
        g_mid = event(mid, _hermite(mid, t, h, y, y_new, f, f_new))
        if np.sign(g_mid) == np.sign(g_lo) and g_mid != 0.0:
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def integrate_ode(
    field: Callable[[float, np.ndarray], np.ndarray],
    y0,
    t_span: tuple[float, float],
    ctrl: StepControl | None = None,
    *,
    output_times: Sequence[float] | None = None,
    event: Callable[[float, np.ndarray], float] | None = None,
    event_min_time: float = 0.0,
) -> Trajectory:
    """Integrate ``y' = field(t, y)`` over ``t_span``.

    With ``output_times`` the trajectory holds exactly those samples
    (interpolated on the fly); otherwise every accepted node is stored with
    its derivative, for interpolation.

    ``event`` is a scalar functional of the state; integration stops at its
    first downward zero crossing (positive to nonpositive) after
    ``event_min_time``, located by bisection on the local Hermite
    interpolant to ``_EVENT_TOL`` in time.
    """
    ctrl = ctrl or StepControl()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must be a nonempty forward interval")
    y = np.asarray(y0, dtype=float).copy()

    out_req = None
    if output_times is not None:
        out_req = np.asarray(output_times, dtype=float)
        if out_req.size == 0 or out_req.min() < t0 - 1e-12 or out_req.max() > t1 + 1e-12:
            raise ValueError("output_times must lie inside t_span")

    f = np.asarray(field(t0, y), dtype=float)
    if not np.all(np.isfinite(f)):
        raise IntegrationError("field returned non-finite values at the initial point")

    ts = [t0]
    ys = [y.copy()]
    fs = [f.copy()]
    out_vals: list[np.ndarray] = []
    out_ts: list[float] = []
    next_out = 0
    if out_req is not None:
        while next_out < out_req.size and out_req[next_out] <= t0 + 1e-15:
            out_ts.append(float(out_req[next_out]))
            out_vals.append(y.copy())
            next_out += 1

    g_prev = event(t0, y) if event is not None else None
    event_time = None
    event_state = None

    h = min(ctrl.initial_step, t1 - t0)
    if ctrl.max_step is not None:
        h = min(h, ctrl.max_step)
    t = t0
    k = np.empty((6, y.size))
    n_steps = 0

    while t < t1:
        if n_steps >= ctrl.max_steps:
            raise IntegrationError(f"step budget {ctrl.max_steps} exhausted at t={t:.6g}")
        h = min(h, t1 - t)
        k[0] = f
        failed_shrink = False
        for i in range(1, 6):
            yi = y + h * (_A[i] @ k[:i])
            ki = np.asarray(field(t + _C[i] * h, yi), dtype=float)
            if not np.all(np.isfinite(ki)):
                h *= 0.25
                failed_shrink = True
                break
            k[i] = ki
        if failed_shrink:
            if h < 1e-15 * max(abs(t), 1.0):
                raise IntegrationError(f"field became non-finite near t={t:.6g}")
            continue
        y_new = y + h * (_B5 @ k)
        err = h * (_E @ k)
        norm = _error_norm(err, y, y_new, ctrl)
        n_steps += 1
        if norm > 1.0:
            h *= max(_MIN_FACTOR, _SAFETY * norm ** (-0.2))
            continue

        t_new = t + h
        f_new = np.asarray(field(t_new, y_new), dtype=float)
        if not np.all(np.isfinite(f_new)):
            raise IntegrationError(f"field returned non-finite values at t={t_new:.6g}")

        t_end, y_end, f_end = t_new, y_new, f_new  # last point this step emits
        if event is not None:
            g_new = event(t_new, y_new)
            if t_new > event_min_time and g_prev > 0.0 and g_new <= 0.0:
                event_time = _event_crossing(event, event_min_time, t, h, y, y_new, f, f_new,
                                             g_prev, g_new)
            if event_time is not None:
                event_state = _hermite(event_time, t, h, y, y_new, f, f_new)
                t_end, y_end = event_time, event_state
                if out_req is None:
                    f_end = np.asarray(field(event_time, event_state), dtype=float)
            g_prev = g_new

        if out_req is not None:
            while next_out < out_req.size and out_req[next_out] <= t_end + 1e-15:
                tq = float(out_req[next_out])
                out_ts.append(tq)
                out_vals.append(_hermite(tq, t, h, y, y_new, f, f_new))
                next_out += 1
        else:
            ts.append(t_end)
            ys.append(y_end.copy())
            fs.append(f_end.copy())
        if event_time is not None:
            break

        t, y, f = t_new, y_new, f_new
        factor = _MAX_FACTOR if norm == 0.0 else min(_MAX_FACTOR, _SAFETY * norm ** (-0.2))
        h *= max(_MIN_FACTOR, factor)
        if ctrl.max_step is not None:
            h = min(h, ctrl.max_step)

    if out_req is not None:
        times = np.array(out_ts)
        states = np.array(out_vals) if out_vals else np.empty((0, y.size))
        if times.size == 0:
            raise DetectionError("no output times fell inside the integrated span")
        traj = Trajectory(times, states)
    else:
        traj = Trajectory(np.array(ts), np.array(ys), derivs=np.array(fs))
    traj.event_time = event_time
    traj.event_state = event_state
    return traj
