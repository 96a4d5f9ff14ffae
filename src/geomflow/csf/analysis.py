"""Figure-eight diagnostics built on recorded flow runs: tangent-angle
monotonicity, tip resolution, the collapsing-lobe profile check, the axis
shrink products, and the affine bow-tie rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ResolutionError, TopologyError
from ..numerics.periodic import cyclic_shift
from .curve import EightDiagnostics, curvature_and_angles

MIN_TIP_POINTS = 16  # samples a frame needs across its curvature tip to count as resolved
_EDGE_RUN = 8  # consecutive edges per bounding box of the nearest-edge search


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


def grim_reaper_profile_error(P: np.ndarray, diag: EightDiagnostics) -> float:
    """Sup over the tangent angle in [0, pi] of |k/k_max - sin(angle)| on the
    right lobe of the frame with points ``P`` (n, 2), split from the other
    at the double point of the frame's ``curve_geometry`` record ``diag``.
    Raises ResolutionError when fewer than ``MIN_TIP_POINTS`` samples carry
    the top decade of curvature, and TopologyError when the record has no
    double point."""
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
    lobe = arcs[0] if i < peak <= j else arcs[1]
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
    rescaled: np.ndarray
    bowtie_distance: float
    ratio_xstar: float


# The bow-tie target: the closed path through these corners, whose image is
# the two diagonals and the two vertical edges of [-1, 1]^2, and 101 samples
# along each of its four edges.
_TIE = np.array([[-1.0, -1.0], [1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]])
_TIE_SAMPLES = np.concatenate([_TIE + tt * (cyclic_shift(_TIE, 1) - _TIE)
                               for tt in np.linspace(0.0, 1.0, 101)[:, None, None]])


def _dist_to_polygon(px, py, vx, vy) -> np.ndarray:
    """Distance from each point (px, py) to the closed polygon with vertices
    (vx, vy): the square root of the least squared distance to its edges.

    Only the edges that can hold a nearest point are measured
    (``_near_edges``). The least value is taken over a set that holds every
    minimiser, so it equals the minimum over all (point, edge) pairs bit for
    bit."""
    wx, wy = np.append(vx, vx[0]), np.append(vy, vy[0])    # vertex 0 closes the polygon
    ex, ey = wx[1:] - vx, wy[1:] - vy
    rows, edges = _near_edges(px, py, wx, wy, float(np.max(np.hypot(ex, ey))))
    ax, ay, dx, dy = vx[edges], vy[edges], ex[edges], ey[edges]
    qx, qy = px[rows], py[rows]
    tt = np.clip(((qx - ax) * dx + (qy - ay) * dy) / (dx * dx + dy * dy), 0.0, 1.0)
    fx = qx - (ax + tt * dx)
    fy = qy - (ay + tt * dy)
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    return np.sqrt(np.minimum.reduceat(fx * fx + fy * fy, starts))


def _near_edges(px, py, wx, wy, longest: float) -> tuple[np.ndarray, np.ndarray]:
    """The (point, edge) pairs, sorted by point, that can hold a point's
    nearest point on the closed polygon whose vertices (wx, wy) repeat
    vertex 0 at the end; ``longest`` is the longest edge.

    A polygon of at most ``_EDGE_RUN`` edges gives every pair. Otherwise its
    edges are cut into runs of ``_EDGE_RUN`` consecutive ones, each with the
    bounding box of its edges, as ``self_intersection`` does; a point's
    distance to a run's box is at most its distance to any edge of the run.
    The vertices of the run whose box is nearest bound the point's distance
    d to the polygon from above, so only the runs whose boxes lie within d
    are kept (the radius gets 1e-6 of ``longest`` more, beyond rounding)."""
    m = wx.size - 1
    if m <= _EDGE_RUN:
        return np.divmod(np.arange(px.size * m), m)
    starts = np.arange(0, m, _EDGE_RUN)
    gx = _gap_to_runs(px, wx, starts)
    gy = _gap_to_runs(py, wy, starts)
    box = gx * gx + gy * gy                                 # (points, runs)
    corners = np.minimum(np.argmin(box, axis=1)[:, None] * _EDGE_RUN
                         + np.arange(_EDGE_RUN + 1), m)     # the nearest run's vertices
    cx, cy = wx[corners] - px[:, None], wy[corners] - py[:, None]
    reach = np.sqrt(np.min(cx * cx + cy * cy, axis=1)) + 1e-6 * longest
    rows, runs = np.nonzero(box <= (reach * reach)[:, None])
    edges = runs[:, None] * _EDGE_RUN + np.arange(_EDGE_RUN)
    inside = edges < m
    return np.broadcast_to(rows[:, None], edges.shape)[inside], edges[inside]


def _gap_to_runs(p, w, starts) -> np.ndarray:
    """Distance along one axis from each coordinate ``p`` to the span of each
    run of edges that begins at ``starts``, on the closed vertex coordinates
    ``w``: 0 inside the span, as a (points, runs) array."""
    lo = np.minimum.reduceat(np.minimum(w[:-1], w[1:]), starts)
    hi = np.maximum.reduceat(np.maximum(w[:-1], w[1:]), starts)
    gap = np.maximum(lo - p[:, None], p[:, None] - hi)
    return np.maximum(gap, 0.0, out=gap)


def affine_rescale_and_bowtie(P: np.ndarray, diag: EightDiagnostics) -> BowtieRecord:
    """Rescale the frame with points ``P`` (n, 2) into the unit box and
    measure the distance to the bow-tie.

    The x axis is scaled by 1/x_max and the y axis by 1/y_max (quarter-curve
    extremes), putting the frame in [-1, 1]^2. The bow-tie target is the
    closed four-corner path whose image is the two diagonals plus the two
    vertical edges; the reported distance is the symmetric Hausdorff distance
    between it and the rescaled polygon, from the polygon's points and from
    101 samples along each edge of the path. ``diag`` is the frame's
    ``curve_geometry`` record; a record without a double point (NaN x*)
    raises ValueError.
    """
    if not (diag.x_max > 0.0 and diag.y_max > 0.0) or math.isnan(diag.x_star):
        raise ValueError("degenerate frame extent; cannot rescale")
    Q = P / np.array([diag.x_max, diag.y_max])
    qx, qy = Q[:, 0], Q[:, 1]
    d_curve_to_tie = float(np.max(_dist_to_polygon(qx, qy, _TIE[:, 0], _TIE[:, 1])))
    d_tie_to_curve = float(np.max(_dist_to_polygon(_TIE_SAMPLES[:, 0], _TIE_SAMPLES[:, 1],
                                                   qx, qy)))
    return BowtieRecord(
        rescaled=Q,
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
