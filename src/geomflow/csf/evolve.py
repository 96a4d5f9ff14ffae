"""Front-tracking curve-shortening flow with per-step arc-length resampling.

Each step moves every sample by dt times the discrete curvature vector (the
second arc-length derivative), then redistributes the samples uniformly in
arc length through a periodic cubic spline. Resampling is anchored half a
cell away from the rightmost crossing of the x-axis, so a curve that starts
symmetric about both axes keeps a symmetric sample set for the whole run.

A shrinking curve approaches its extinction with the simulation time frozen
near the blowup instant while the shape keeps evolving a fixed amount per
step, so frames are recorded both on a time stride and on a geometric
length stride, and the run ends when the curve has lost seven decades of
length (past that, coordinate roundoff would pollute the shape).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..numerics import PeriodicCubicSpline, cyclic_shift
from ..numerics.interpolation import REFINE
from .curve import (PlaneCurve, curvature_vector, curve_geometry, curve_length, edge_lengths,
                    row_lengths)


CFL = 0.4  # step size dt = CFL * (min spacing)^2 / 2
RECORD_SHRINK = 0.93  # a frame is recorded once the length shrinks by this factor
LENGTH_FLOOR = 1e-7  # every run stops once its length falls below this share of the initial


@dataclass
class StopRule:
    """Stopping policy: fixed time and curvature-resolution threshold, on
    top of the length floor ``LENGTH_FLOOR`` that ends every run.

    ``kmax_spacing`` stops the run once k_max times the mean sample spacing
    exceeds the threshold: past that point the polygon can no longer resolve
    the blowup and continuing would only manufacture noise. The mean spacing
    is the resampling target; the minimum can collapse spuriously at an
    under-resolved tip, which gets its own stop.
    """

    time: float | None = None
    kmax_spacing: float | None = 0.5


@dataclass
class CsfRun:
    times: list = field(default_factory=list)
    frames: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)
    stop_reason: str = ""
    steps: int = 0

    def series(self, name: str) -> np.ndarray:
        return np.array([getattr(d, name) for d in self.diagnostics])


def resample_uniform(P: np.ndarray) -> np.ndarray:
    """Redistribute polygon samples uniformly in arc length.

    Fits one periodic cubic spline to both coordinates in index space,
    measures arc length on a refined polyline, anchors the new mesh half a
    cell past the rightmost x-axis crossing (falling back to the old first
    point when the curve does not cross), and evaluates the spline at the
    inverted arc positions.
    """
    n = P.shape[0]
    spline = PeriodicCubicSpline(P, period=float(n))
    fine = spline.refined()
    seg = edge_lengths(fine)
    s_cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = s_cum[-1]

    y = fine[:, 1]
    y_next = cyclic_shift(y, 1)
    crossing = np.nonzero(((y > 0.0) & (y_next <= 0.0)) | ((y >= 0.0) & (y_next < 0.0)))[0]
    if crossing.size:
        fracs = y[crossing] / (y[crossing] - y_next[crossing])
        x_cross = fine[crossing, 0] + fracs * (fine[(crossing + 1) % fine.shape[0], 0]
                                               - fine[crossing, 0])
        best = int(np.argmax(x_cross))
        s_anchor = s_cum[crossing[best]] + fracs[best] * seg[crossing[best]]
    else:
        s_anchor = 0.0

    h_new = total / n
    targets = (s_anchor + (np.arange(n) + 0.5) * h_new) % total
    u_targets = np.interp(targets, s_cum, np.arange(n * REFINE + 1) / REFINE)
    return spline(u_targets)


def csf_evolve(c0: PlaneCurve, stop: StopRule | None = None,
               record_dt: float | None = None,
               expect_double_point: bool | None = None) -> CsfRun:
    """Evolve by curve-shortening flow, recording frames and diagnostics.

    The step size follows the parabolic stability rule
    dt = CFL * (min spacing)^2 / 2. Frames (with full diagnostics) are
    recorded whenever ``record_dt`` time has passed or the length has shrunk
    by the factor ``RECORD_SHRINK`` since the last record, and at the stop.
    The default time stride is an estimate of a 250-frame run: total area
    over 2*pi bounds the extinction time of any figure-eight from above.
    """
    stop = stop or StopRule(time=0.1)
    if stop.time is None and stop.kmax_spacing is None:
        raise ValueError("stop rule has no active condition")
    P = resample_uniform(c0.points)
    t = 0.0
    run = CsfRun()

    def record(frame_P, time):
        curve = PlaneCurve(frame_P.copy())
        run.times.append(time)
        run.frames.append(curve)
        run.diagnostics.append(curve_geometry(curve, time, expect_double_point))

    record(P, 0.0)
    if record_dt is None:
        horizon = stop.time if stop.time is not None else \
            run.diagnostics[0].total_area / (2.0 * math.pi)
        record_dt = horizon / 250.0
    next_record = record_dt
    length0 = curve_length(P)
    next_length = RECORD_SHRINK * length0

    step = 0
    max_steps = 2_000_000
    while True:
        gaps = edge_lengths(P)
        min_gap = float(np.min(gaps))
        mean_gap = float(np.mean(gaps))
        length = float(np.sum(gaps))
        vel = curvature_vector(P, gaps)
        k_abs = row_lengths(vel)
        k_max = float(np.max(k_abs))

        if length < LENGTH_FLOOR * length0:
            run.stop_reason = "extinction reached"
            break
        if stop.kmax_spacing is not None:
            if k_max * mean_gap > stop.kmax_spacing:
                run.stop_reason = "singularity reached"
                break
            if min_gap < 0.3 * mean_gap:
                run.stop_reason = "singularity reached (resampling degenerate)"
                break
        if stop.time is not None and t >= stop.time - 1e-15:
            run.stop_reason = "time reached"
            break
        if step >= max_steps:
            run.stop_reason = "step budget"
            break

        dt = CFL * min_gap * min_gap / 2.0
        if stop.time is not None:
            dt = min(dt, stop.time - t)
        P = P + dt * vel
        P = resample_uniform(P)
        t += dt
        step += 1
        if t >= next_record - 1e-15 or length <= next_length:
            record(P, t)
            while next_record <= t:
                next_record += record_dt
            next_length = RECORD_SHRINK * length
    if run.times[-1] < t or run.frames[-1].points.shape != P.shape \
            or not np.array_equal(run.frames[-1].points, P):
        record(P, t)
    if not run.stop_reason:
        run.stop_reason = "time reached"
    run.steps = step
    return run
