"""Figure-eight diagnostics built on recorded flow runs: tangent-angle
monotonicity, the heat-kernel comparison profile, the collapsing-lobe profile
check, and the affine bow-tie rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ResolutionError, TopologyError
from ..numerics import cyclic_shift, erfc
from .curve import (EightDiagnostics, PlaneCurve, curve_geometry, edge_lengths,
                    self_intersection, signed_curvature, tangent_angles_unwrapped)

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


def theta_monotonicity_series(times, diagnostics, tol: float = 1e-3) -> ThetaSeries:
    """Check that theta_max never increases and theta_min never decreases.

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
        max_nonincreasing=bool(np.all(np.diff(tmax) <= tol)),
        min_nondecreasing=bool(np.all(np.diff(tmin) >= -tol)),
    )


def comparison_solution(x: float, t: float, M: float) -> float:
    """Heat evolution of the step profile used to push up the tangent-angle
    minimum: (pi/8) (erfc((sqrt(M)-x)/(sqrt(2) sqrt(t))) + erfc((sqrt(M)+x)/...)).
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    if M <= 0.0:
        raise ValueError("M must be positive")
    root = math.sqrt(2.0) * math.sqrt(t)
    rm = math.sqrt(M)
    return (math.pi / 8.0) * (erfc((rm - x) / root) + erfc((rm + x) / root))


def resolvable_frames(run, min_tip_points: int = MIN_TIP_POINTS) -> list[int]:
    """Indices of recorded frames that resolve the curvature tip.

    A frame resolves the tip when the arc length where the curvature exceeds
    a tenth of its maximum (about 6/k_max for the expected profile) carries
    at least ``min_tip_points`` samples.
    """
    out = []
    for idx, frame in enumerate(run.frames):
        P = frame.points
        k = np.abs(signed_curvature(P))
        k_max = float(np.max(k))
        if k_max == 0.0:
            continue
        h = float(np.min(edge_lengths(P)))
        if 6.0 / (k_max * h) >= min_tip_points:
            out.append(idx)
    return out


def reaper_profile_defect(theta: np.ndarray, k_ratio: np.ndarray,
                          n_phi: int = 256) -> float:
    """Sup over angles in [0, pi] of |profile - sin|, from sampled
    (tangent angle, curvature ratio) pairs along one lobe."""
    order = np.argsort(theta)
    th, kk = np.asarray(theta)[order], np.asarray(k_ratio)[order]
    phi = np.linspace(0.0, math.pi, n_phi)
    prof = np.interp(phi, th, kk)
    return float(np.max(np.abs(prof - np.sin(phi))))


def grim_reaper_profile_error(frame: PlaneCurve, min_tip_points: int = MIN_TIP_POINTS,
                              n_phi: int = 256) -> float:
    """Sup over the tangent angle in [0, pi] of |k/k_max - sin(angle)| on the
    right lobe. Raises ResolutionError when fewer than ``min_tip_points``
    samples carry the top decade of curvature."""
    P = frame.points
    k = signed_curvature(P)
    k_abs = np.abs(k)
    k_max = float(np.max(k_abs))
    in_top_decade = int(np.sum(k_abs >= 0.1 * k_max))
    if in_top_decade < min_tip_points:
        raise ResolutionError(
            f"only {in_top_decade} samples in the top curvature decade "
            f"(need {min_tip_points})")

    i, j, _ = self_intersection(P)
    theta = tangent_angles_unwrapped(P)
    arcs = (np.arange(i + 1, j + 1), np.concatenate([np.arange(j + 1, P.shape[0]),
                                                     np.arange(0, i + 1)]))
    # the right lobe is the arc containing the global curvature maximum
    peak = int(np.argmax(k_abs))
    lobe = arcs[0] if peak in set(arcs[0].tolist()) else arcs[1]
    return reaper_profile_defect(theta[lobe], k_abs[lobe] / k_max, n_phi)


@dataclass
class GrimReaperSeries:
    times: np.ndarray
    errors: np.ndarray
    alphas: np.ndarray

    @property
    def decreasing_tail(self) -> bool:
        return bool(np.all(np.diff(self.errors) < 0.0))


def grim_reaper_check(run, frame_indices=None,
                      min_tip_points: int = MIN_TIP_POINTS) -> GrimReaperSeries:
    """Profile error series over the chosen (default: all resolvable) frames."""
    if frame_indices is None:
        frame_indices = resolvable_frames(run, min_tip_points)
    if not frame_indices:
        raise ResolutionError("no frame resolves the curvature tip")
    times, errors, alphas = [], [], []
    for idx in frame_indices:
        err = grim_reaper_profile_error(run.frames[idx], min_tip_points)
        times.append(run.times[idx])
        errors.append(err)
        alphas.append(run.diagnostics[idx].alpha_angle)
    return GrimReaperSeries(np.array(times), np.array(errors), np.array(alphas))


@dataclass
class BowtieRecord:
    rescaled: PlaneCurve
    bowtie_distance: float
    ratio_xstar: float


def _dist_points_to_segments(points: np.ndarray, seg_a: np.ndarray, seg_b: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest of the given segments."""
    d = seg_b - seg_a                      # (m, 2)
    pa = points[:, None, :] - seg_a[None, :, :]   # (n, m, 2)
    tt = np.clip(np.einsum("nmk,mk->nm", pa, d) / np.sum(d * d, axis=1)[None, :], 0.0, 1.0)
    proj = seg_a[None, :, :] + tt[:, :, None] * d[None, :, :]
    return np.min(np.linalg.norm(points[:, None, :] - proj, axis=2), axis=1)


def affine_rescale_and_bowtie(frame: PlaneCurve, time: float = 0.0,
                              diag: EightDiagnostics | None = None) -> BowtieRecord:
    """Rescale the frame into the unit box and measure the distance to the bow-tie.

    The x axis is scaled by 1/x_max and the y axis by 1/y_max (quarter-curve
    extremes), putting the frame in [-1, 1]^2. The bow-tie target is the
    closed four-corner path whose image is the two diagonals plus the two
    vertical edges; the reported distance is the symmetric Hausdorff distance
    between it and the rescaled polygon.

    ``diag`` is the frame's ``curve_geometry`` record when the caller already
    has it (a recorded run's diagnostics); otherwise it is measured here,
    with the double point required.
    """
    if diag is None:
        diag = curve_geometry(frame, time, expect_double_point=True)
    if not (diag.x_max > 0.0 and diag.y_max > 0.0) or math.isnan(diag.x_star):
        raise ValueError("degenerate frame extent; cannot rescale")
    Q = frame.points / np.array([diag.x_max, diag.y_max])
    rescaled = PlaneCurve(Q, orientation=frame.orientation)

    corners = np.array([[-1.0, -1.0], [1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]])
    path = [corners[0], corners[1], corners[2], corners[3], corners[0]]
    seg_a = np.array(path[:-1])
    seg_b = np.array(path[1:])

    d_curve_to_tie = float(np.max(_dist_points_to_segments(Q, seg_a, seg_b)))
    samples = np.concatenate([
        seg_a + tt * (seg_b - seg_a) for tt in np.linspace(0.0, 1.0, 101)[:, None, None]
    ])
    curve_a = Q
    curve_b = cyclic_shift(Q, 1)
    d_tie_to_curve = float(np.max(_dist_points_to_segments(samples, curve_a, curve_b)))
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
    px, py = [], []
    for frame, diag in zip(run.frames, run.diagnostics):
        P = frame.points
        k = np.abs(signed_curvature(P))
        upper_right = (P[:, 0] >= 0.0) & (P[:, 1] >= 0.0)
        masked_y = np.where(upper_right, P[:, 1], -np.inf)
        iy = int(np.argmax(masked_y))
        n = P.shape[0]
        y0, y1, y2 = masked_y[(iy - 1) % n], masked_y[iy], masked_y[(iy + 1) % n]
        denom = y0 - 2.0 * y1 + y2
        delta = 0.0 if (denom == 0.0 or not np.isfinite(denom)) \
            else float(np.clip(0.5 * (y0 - y2) / denom, -1.0, 1.0))
        k0, k1, k2 = k[(iy - 1) % n], k[iy], k[(iy + 1) % n]
        # quadratic interpolation of the curvature at the refined top position
        k_star = (k1 + 0.5 * delta * (k2 - k0)
                  + 0.5 * delta * delta * (k0 - 2.0 * k1 + k2))
        px.append(diag.y_max * diag.k_max)
        py.append(diag.x_max * k_star)
    return times, np.array(px), np.array(py)
