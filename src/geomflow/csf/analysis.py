"""Figure-eight diagnostics built on recorded flow runs: tangent-angle
monotonicity, tip resolution, the collapsing-lobe profile check, the axis
shrink products, and the affine bow-tie rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ResolutionError, TopologyError
from ..numerics import cyclic_shift
from .curve import EightDiagnostics, PlaneCurve, curvature_and_angles

MIN_TIP_POINTS = 16  # samples a frame needs across its curvature tip to count as resolved


@dataclass
class ThetaSeries:
    times: np.ndarray
    theta_max: np.ndarray
    theta_min: np.ndarray
    max_nonincreasing: bool
    min_nondecreasing: bool

    @property
    def verdict(self) -> bool:
        return self.max_nonincreasing and self.min_nondecreasing


def theta_monotonicity_series(times, diagnostics) -> ThetaSeries:
    """Check that theta_max never increases and theta_min never decreases
    (to 1e-3 between consecutive frames).

    The inputs are the recorded diagnostics of a figure-eight run; frames
    without a double point mean the run was not a figure-eight and are
    rejected.
    """
    if len(diagnostics) < 3:
        raise ValueError("need at least 3 recorded frames")
    if any(math.isnan(d.alpha_angle) for d in diagnostics):
        raise TopologyError("frames are not from a figure-eight run")
    times = np.asarray(times, dtype=float)
    tmax = np.array([d.theta_max for d in diagnostics])
    tmin = np.array([d.theta_min for d in diagnostics])
    return ThetaSeries(
        times=times, theta_max=tmax, theta_min=tmin,
        max_nonincreasing=bool(np.all(np.diff(tmax) <= 1e-3)),
        min_nondecreasing=bool(np.all(np.diff(tmin) >= -1e-3)),
    )


def resolvable_frames(run) -> list[int]:
    """Indices of recorded frames that resolve the curvature tip.

    A frame resolves the tip when the arc length where the curvature exceeds
    a tenth of its maximum (about 6/k_max for the expected profile) carries
    at least ``MIN_TIP_POINTS`` samples of the smallest spacing.
    """
    return [idx for idx, d in enumerate(run.diagnostics)
            if d.k_peak != 0.0 and 6.0 / (d.k_peak * d.h_min) >= MIN_TIP_POINTS]


def reaper_profile_defect(theta: np.ndarray, k_ratio: np.ndarray) -> float:
    """Sup over 256 angles in [0, pi] of |profile - sin|, from sampled
    (tangent angle, curvature ratio) pairs along one lobe."""
    order = np.argsort(theta)
    th, kk = np.asarray(theta)[order], np.asarray(k_ratio)[order]
    phi = np.linspace(0.0, math.pi, 256)
    prof = np.interp(phi, th, kk)
    return float(np.max(np.abs(prof - np.sin(phi))))


def grim_reaper_profile_error(frame: PlaneCurve, diag: EightDiagnostics) -> float:
    """Sup over the tangent angle in [0, pi] of |k/k_max - sin(angle)| on the
    right lobe, split from the other at the double point of the frame's
    ``curve_geometry`` record ``diag``. Raises ResolutionError when fewer
    than ``MIN_TIP_POINTS`` samples carry the top decade of curvature, and
    TopologyError when the record has no double point."""
    P = frame.points
    k, theta = curvature_and_angles(P)
    k_abs = np.abs(k)
    k_max = float(np.max(k_abs))
    in_top_decade = int(np.sum(k_abs >= 0.1 * k_max))
    if in_top_decade < MIN_TIP_POINTS:
        raise ResolutionError(
            f"only {in_top_decade} samples in the top curvature decade "
            f"(need {MIN_TIP_POINTS})")
    if diag.crossing is None:
        raise TopologyError("frame has no double point")

    i, j, _ = diag.crossing
    arcs = (np.arange(i + 1, j + 1), np.concatenate([np.arange(j + 1, P.shape[0]),
                                                     np.arange(0, i + 1)]))
    # the right lobe is the arc containing the global curvature maximum
    peak = int(np.argmax(k_abs))
    lobe = arcs[0] if peak in set(arcs[0].tolist()) else arcs[1]
    return reaper_profile_defect(theta[lobe], k_abs[lobe] / k_max)


@dataclass
class GrimReaperSeries:
    times: np.ndarray
    errors: np.ndarray
    alphas: np.ndarray


def grim_reaper_check(run, frame_indices) -> GrimReaperSeries:
    """Profile error series over the chosen frames (resolvable ones, in practice)."""
    if not frame_indices:
        raise ResolutionError("no frame resolves the curvature tip")
    times, errors, alphas = [], [], []
    for idx in frame_indices:
        err = grim_reaper_profile_error(run.frames[idx], run.diagnostics[idx])
        times.append(run.times[idx])
        errors.append(err)
        alphas.append(run.diagnostics[idx].alpha_angle)
    return GrimReaperSeries(np.array(times), np.array(errors), np.array(alphas))


@dataclass
class BowtieRecord:
    rescaled: PlaneCurve
    bowtie_distance: float
    ratio_xstar: float


def _dist_points_to_segments(px, py, ax, ay, bx, by) -> np.ndarray:
    """Distance from each point (px, py) to the nearest of the segments from
    (ax, ay) to (bx, by): the square root of the least squared distance, on
    (points, segments) arrays of one coordinate each."""
    dx, dy = bx - ax, by - ay
    pax = px[:, None] - ax
    pay = py[:, None] - ay
    tt = np.clip((pax * dx + pay * dy) / (dx * dx + dy * dy), 0.0, 1.0)
    ex = px[:, None] - (ax + tt * dx)
    ey = py[:, None] - (ay + tt * dy)
    return np.sqrt(np.min(ex * ex + ey * ey, axis=1))


def affine_rescale_and_bowtie(frame: PlaneCurve, diag: EightDiagnostics) -> BowtieRecord:
    """Rescale the frame into the unit box and measure the distance to the bow-tie.

    The x axis is scaled by 1/x_max and the y axis by 1/y_max (quarter-curve
    extremes), putting the frame in [-1, 1]^2. The bow-tie target is the
    closed four-corner path whose image is the two diagonals plus the two
    vertical edges; the reported distance is the symmetric Hausdorff distance
    between it and the rescaled polygon. ``diag`` is the frame's
    ``curve_geometry`` record.
    """
    if not (diag.x_max > 0.0 and diag.y_max > 0.0) or math.isnan(diag.x_star):
        raise ValueError("degenerate frame extent; cannot rescale")
    Q = frame.points / np.array([diag.x_max, diag.y_max])
    rescaled = PlaneCurve(Q)

    corners = np.array([[-1.0, -1.0], [1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]])
    path = [corners[0], corners[1], corners[2], corners[3], corners[0]]
    seg_a = np.array(path[:-1])
    seg_b = np.array(path[1:])

    qx, qy = Q[:, 0], Q[:, 1]
    ax, ay, bx, by = seg_a[:, 0], seg_a[:, 1], seg_b[:, 0], seg_b[:, 1]
    d_curve_to_tie = float(np.max(_dist_points_to_segments(qx, qy, ax, ay, bx, by)))
    samples = np.concatenate([
        seg_a + tt * (seg_b - seg_a) for tt in np.linspace(0.0, 1.0, 101)[:, None, None]
    ])
    d_tie_to_curve = float(np.max(_dist_points_to_segments(
        samples[:, 0], samples[:, 1], qx, qy, cyclic_shift(qx, 1), cyclic_shift(qy, 1))))
    return BowtieRecord(
        rescaled=rescaled,
        bowtie_distance=max(d_curve_to_tie, d_tie_to_curve),
        ratio_xstar=diag.x_star / diag.x_max,
    )


def axis_shrink_products(run) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-frame series of -y_max * d(x_max)/dt and -x_max * d(y_max)/dt.

    Both derivatives are evaluated geometrically: the far end recedes at a
    speed equal to the curvature there (the curvature maximum), and the top
    of the lobe descends at the curvature of the max-height point. This makes
    the products scale-invariant frame functionals, still meaningful in the
    terminal regime where the time step has collapsed and finite differences
    in time would be vacuous.
    """
    times = np.asarray(run.times, dtype=float)
    px = np.array([d.y_max * d.k_max for d in run.diagnostics])
    py = np.array([d.x_max * d.k_top for d in run.diagnostics])
    return times, px, py
