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

    ``states[i]`` is the state at ``times[i]``, of shape ``(d,)`` for a single
    system and ``(m, d)`` for a batch of ``m`` rows, so ``states`` is
    ``(n, d)`` or ``(n, m, d)``. A run that stores its nodes also keeps the
    node derivatives ``derivs`` (same shape), which allow cubic Hermite
    interpolation between nodes via :meth:`sample`.

    With an event, a single system's ``event_time`` is a float and its
    ``event_state`` a ``(d,)`` array, both None when the event never
    happened. A batch holds one ``event_time`` per row, shape ``(m,)``, and
    ``event_state`` of shape ``(m, d)``, NaN in the rows whose event never
    happened.
    """

    times: np.ndarray
    states: np.ndarray
    derivs: np.ndarray | None = None
    event_time: float | np.ndarray | None = None
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
        """Cubic Hermite interpolation at times ``t`` (scalar or array); an
        array ``t`` of length k gives ``(k,) + state shape``."""
        if self.derivs is None:
            raise ValueError("trajectory holds output-time samples, not nodes")
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if t_arr.min() < self.times[0] - 1e-12 or t_arr.max() > self.times[-1] + 1e-12:
            raise ValueError("sample time outside the integrated span")
        idx = np.clip(np.searchsorted(self.times, t_arr, side="right") - 1, 0, len(self.times) - 2)
        col = (slice(None),) + (None,) * (self.states.ndim - 1)  # broadcast times over the state
        t0 = self.times[idx]
        h = self.times[idx + 1] - t0
        out = _hermite(t_arr[col], t0[col], h[col], self.states[idx],
                       self.states[idx + 1], self.derivs[idx], self.derivs[idx + 1])
        return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out

    def row(self, r: int) -> Trajectory:
        """Row ``r`` of a batch trajectory, as the trajectory of a single
        system (views of this one's arrays)."""
        hit = self.event_time is not None and not np.isnan(self.event_time[r])
        return Trajectory(self.times, self.states[:, r],
                          None if self.derivs is None else self.derivs[:, r],
                          float(self.event_time[r]) if hit else None,
                          self.event_state[r] if hit else None)


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
    event: Callable[[float, np.ndarray], float | np.ndarray] | None = None,
    event_min_time: float | Sequence[float] = 0.0,
) -> Trajectory:
    """Integrate ``y' = field(t, y)`` over ``t_span``.

    ``y0`` is one state of shape ``(d,)`` or a batch of ``m`` states of shape
    ``(m, d)``; ``field`` receives and returns arrays of that shape. A batch
    is stepped as one system: the error norm is the max over all entries, so
    the rows share one step sequence and each row is held at least as
    tightly as it would be alone.

    With ``output_times`` the trajectory holds exactly those samples
    (interpolated on the fly); otherwise every accepted node is stored with
    its derivative, for interpolation.

    ``event`` maps the state to one value per row (a scalar for a ``(d,)``
    state), and ``event_min_time`` is a scalar or one time per row. Each
    row's first downward zero crossing (positive to nonpositive) after its
    ``event_min_time`` is located by bisection on that row's Hermite
    interpolant in the step where it happens, to ``_EVENT_TOL`` in time. The
    run ends at ``t_span[1]`` or once every row has had its event, with the
    last step cut at the latest event time.
    """
    ctrl = ctrl or StepControl()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must be a nonempty forward interval")
    y = np.array(y0, dtype=float)
    shape = y.shape
    if y.ndim not in (1, 2):
        raise ValueError("the state must have shape (d,) or (m, d)")
    batch = y.ndim == 2
    n_rows, width = shape if batch else (1, shape[0])
    if batch:  # the steps run on the flattened state; the field sees the rows
        row_field = field
        y = y.reshape(-1)

        def field(t, u):
            return np.asarray(row_field(t, u.reshape(shape)), dtype=float).reshape(-1)

    def nonfinite(where: str, values: np.ndarray) -> IntegrationError:
        msg = f"field returned non-finite values {where}"
        if batch:
            bad = ~np.all(np.isfinite(values.reshape(n_rows, width)), axis=1)
            msg += f" in row(s) {np.flatnonzero(bad).tolist()}"
        return IntegrationError(msg)

    out_req = None
    if output_times is not None:
        out_req = np.asarray(output_times, dtype=float)
        if out_req.size == 0 or out_req.min() < t0 - 1e-12 or out_req.max() > t1 + 1e-12:
            raise ValueError("output_times must lie inside t_span")

    f = np.asarray(field(t0, y), dtype=float)
    if not np.all(np.isfinite(f)):
        raise nonfinite("at the initial point", f)

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

    if event is not None:
        def row_events(t, u):
            return np.reshape(event(t, u.reshape(shape)), -1)

        min_times = np.broadcast_to(np.asarray(event_min_time, dtype=float), (n_rows,))
        event_times = np.full(n_rows, np.nan)
        event_states = np.full((n_rows, width), np.nan)
        g_prev = row_events(t0, y)
    finished = False

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
            if not np.isfinite(ki).all():
                h *= 0.25
                failed_shrink = True
                break
            k[i] = ki
        if failed_shrink:
            if h < 1e-15 * max(abs(t), 1.0):
                raise nonfinite(f"near t={t:.6g}", ki)
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
        if not np.isfinite(f_new).all():
            raise nonfinite(f"at t={t_new:.6g}", f_new)

        t_end, y_end, f_end = t_new, y_new, f_new  # last point this step emits
        if event is not None:
            g_new = row_events(t_new, y_new)
            hits = np.isnan(event_times) & (t_new > min_times) & (g_prev > 0.0) & (g_new <= 0.0)
            for r in np.flatnonzero(hits):
                crossing = _event_crossing(lambda tq, u, r=r: row_events(tq, u)[r], min_times[r],
                                           t, h, y, y_new, f, f_new, g_prev[r], g_new[r])
                if crossing is not None:
                    event_times[r] = crossing
                    state = _hermite(crossing, t, h, y, y_new, f, f_new)
                    event_states[r] = state.reshape(n_rows, width)[r]
            g_prev = g_new
            finished = hits.any() and not np.isnan(event_times).any()
            if finished:
                t_end = float(event_times.max())
                y_end = _hermite(t_end, t, h, y, y_new, f, f_new)
                if out_req is None:
                    f_end = np.asarray(field(t_end, y_end), dtype=float)

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
        if finished:
            break

        t, y, f = t_new, y_new, f_new
        factor = _MAX_FACTOR if norm == 0.0 else min(_MAX_FACTOR, _SAFETY * norm ** (-0.2))
        h *= max(_MIN_FACTOR, factor)
        if ctrl.max_step is not None:
            h = min(h, ctrl.max_step)

    if out_req is not None:
        if not out_ts:
            raise DetectionError("no output times fell inside the integrated span")
        traj = Trajectory(np.array(out_ts), np.array(out_vals).reshape((-1, n_rows, width)))
    else:
        traj = Trajectory(np.array(ts), np.array(ys).reshape((-1, n_rows, width)),
                          derivs=np.array(fs).reshape((-1, n_rows, width)))
    if event is not None:
        traj.event_time, traj.event_state = event_times, event_states
    return traj if batch else traj.row(0)
