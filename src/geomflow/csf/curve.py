"""Closed sampled plane curves and the figure-eight geometry toolkit.

A curve is a closed polygon (first/last point identified implicitly) sampled
roughly uniformly in arc length. Differential quantities use 3-point stencils
with the actual chord lengths, so mild non-uniformity after a flow step does
not bias them. Figure-eight-specific measurements (lobe areas, double point,
tangent-angle range, quarter-curve extremes) all key off the unique proper
self-intersection of the polygon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConstructionError, SetupError, TopologyError
from ..numerics import cyclic_shift

TWO_PI = 2.0 * math.pi


@dataclass
class PlaneCurve:
    """Closed polygon; points shape (n, 2), n >= 64."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ValueError("points must have shape (n, 2)")
        if self.points.shape[0] < 64:
            raise ValueError("need at least 64 points")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("points must be finite")
        gaps = np.linalg.norm(np.diff(self.points, axis=0, append=self.points[:1]), axis=1)
        if np.any(gaps == 0.0):
            raise ValueError("consecutive points must be distinct")


def row_lengths(V: np.ndarray) -> np.ndarray:
    """Length of each row of an (m, 2) array: ``np.linalg.norm(V, axis=1)``,
    bit for bit, without its dispatch cost."""
    x, y = V[:, 0], V[:, 1]
    return np.sqrt(x * x + y * y)


def edge_lengths(P: np.ndarray) -> np.ndarray:
    return row_lengths(cyclic_shift(P, 1) - P)


def curve_length(P: np.ndarray) -> float:
    return float(np.sum(edge_lengths(P)))


def _three_point(P: np.ndarray):
    prev = cyclic_shift(P, -1)
    nxt = cyclic_shift(P, 1)
    a = row_lengths(P - prev)[:, None]
    b = row_lengths(nxt - P)[:, None]
    denom = a * b * (a + b)
    first = (a * a * (nxt - P) + b * b * (P - prev)) / denom
    second = 2.0 * (a * (nxt - P) - b * (P - prev)) / denom
    return first, second


def curvature_vector(P: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """Discrete second arc-length derivative, the curve-shortening velocity
    of a polygon: the second derivative of ``_three_point`` from its
    ``edge_lengths`` ``gaps``.

    The flow no longer calls it (it steps the tangent angle, ``evolve.py``).
    It is kept because the benchmark's tracer in ``bench/tracer.py`` looks
    it up by name when it installs, and every traced run would fail without
    it; a change to the tracer can drop that lookup and this function."""
    prev = cyclic_shift(P, -1)
    nxt = cyclic_shift(P, 1)
    a = cyclic_shift(gaps, -1)[:, None]
    b = gaps[:, None]
    return 2.0 * (a * (nxt - P) - b * (P - prev)) / (a * b * (a + b))


def curvature_and_angles(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed curvature and unwrapped tangent angle per point, from one stencil.

    The angle branch puts the midrange nearest pi/2 (the natural branch for
    an eight whose minor axis is the x-axis).
    """
    first, second = _three_point(P)
    speed = row_lengths(first)
    cross = first[:, 0] * second[:, 1] - first[:, 1] * second[:, 0]
    theta = np.unwrap(np.arctan2(first[:, 1], first[:, 0]))
    mid = 0.5 * (theta.max() + theta.min())
    shift = TWO_PI * round((0.5 * math.pi - mid) / TWO_PI)
    return cross / speed ** 3, theta + shift


def turning_number(P: np.ndarray) -> float:
    """Total rotation (in turns) from the exterior angles of the polygon.

    Exact for polygons, so it is the robust way to evaluate the rotation
    number integral of a sampled curve.
    """
    edges = cyclic_shift(P, 1) - P
    ang = np.arctan2(edges[:, 1], edges[:, 0])
    turns = np.diff(ang, append=ang[:1])
    turns = (turns + math.pi) % TWO_PI - math.pi
    return float(np.sum(turns) / TWO_PI)


def _is_plateau(y0: float, y1: float, y2: float) -> bool:
    scale = max(abs(y0), abs(y1), abs(y2), 1e-300)
    return abs(y1 - y0) <= 1e-13 * scale or abs(y1 - y2) <= 1e-13 * scale


def _refine_extreme(values: np.ndarray, idx: int) -> float:
    """Parabolic refinement of a discrete extremum of a cyclic sequence.

    Plateaus (a neighbor equal to the extreme sample) are returned as-is:
    they come from polygonal corners or flat stretches where the parabola
    model overshoots.
    """
    n = values.size
    y0, y1, y2 = values[(idx - 1) % n], values[idx], values[(idx + 1) % n]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0 or _is_plateau(y0, y1, y2):
        return float(y1)
    return float(y1 - 0.125 * (y2 - y0) ** 2 / denom)


def _refine_extreme_position(xs: np.ndarray, ys: np.ndarray, idx: int) -> tuple[float, float]:
    """Value and abscissa of the parabola vertex through three cyclic samples."""
    n = ys.size
    y0, y1, y2 = ys[(idx - 1) % n], ys[idx], ys[(idx + 1) % n]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0 or _is_plateau(y0, y1, y2):
        return float(y1), float(xs[idx])
    delta = 0.0 if denom == 0.0 else 0.5 * (y0 - y2) / denom
    delta = float(np.clip(delta, -1.0, 1.0))
    if delta >= 0:
        x_ref = xs[idx] + delta * (xs[(idx + 1) % n] - xs[idx])
    else:
        x_ref = xs[idx] + delta * (xs[idx] - xs[(idx - 1) % n])
    y_ref = y1 - 0.25 * (y0 - y2) * delta
    return float(y_ref), float(x_ref)


_CROSSING_CHUNK = 128  # segments per side of one block of the pair search


def self_intersection(P: np.ndarray):
    """The unique proper self-crossing of the closed polygon.

    Returns (i, j, point) where segments (i, i+1) and (j, j+1) cross at
    ``point``. Raises TopologyError when there is no crossing or more than
    one distinct crossing. Neighboring segment pairs are excluded.

    Segment pairs i < j are tested in square blocks of ``_CROSSING_CHUNK``,
    each as broadcast (rows i, columns j) slices of the start points and the
    edge vectors; blocks are visited in row-major order and the hits within
    a block in row-major order, so the first hit found is always the same.
    """
    n = P.shape[0]
    x, y = P[:, 0], P[:, 1]
    E = cyclic_shift(P, 1) - P
    ex, ey = E[:, 0], E[:, 1]
    found: list[tuple[int, int, np.ndarray]] = []
    for i0 in range(0, n, _CROSSING_CHUNK):
        i1 = min(i0 + _CROSSING_CHUNK, n)
        rows = slice(i0, i1)
        for j0 in range(i0, n, _CROSSING_CHUNK):
            j1 = min(j0 + _CROSSING_CHUNK, n)
            sep = np.arange(j0, j1)[None, :] - np.arange(i0, i1)[:, None]
            mask = (sep >= 2) & (sep <= n - 2)
            if not np.any(mask):
                continue
            cols = slice(j0, j1)
            rx, ry = ex[rows, None], ey[rows, None]
            sx, sy = ex[None, cols], ey[None, cols]
            denom = rx * sy - ry * sx
            dqx = x[None, cols] - x[rows, None]
            dqy = y[None, cols] - y[rows, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                t = (dqx * sy - dqy * sx) / denom
                u = (dqx * ry - dqy * rx) / denom
            hit = mask & (denom != 0.0) & (t > 0.0) & (t < 1.0) & (u > 0.0) & (u < 1.0)
            for ci, cj in zip(*np.nonzero(hit)):
                gi = i0 + int(ci)
                found.append((gi, j0 + int(cj), P[gi] + t[ci, cj] * E[gi]))
    if not found:
        raise TopologyError("no self-intersection found")
    # merge crossings that coincide geometrically (vertex-grazing duplicates)
    scale = math.sqrt(np.max(np.sum((P - P.mean(axis=0)) ** 2, axis=1)))
    clusters: list[tuple[int, int, np.ndarray]] = []
    for gi, gj, pt in found:
        for _, _, other in clusters:
            if np.linalg.norm(pt - other) < 1e-6 * scale:
                break
        else:
            clusters.append((gi, gj, pt))
    if len(clusters) > 1:
        raise TopologyError(f"found {len(clusters)} distinct self-intersections, expected 1")
    return clusters[0]


def _shoelace(Q: np.ndarray) -> float:
    x, y = Q[:, 0], Q[:, 1]
    return 0.5 * float(np.sum(x * cyclic_shift(y, 1) - cyclic_shift(x, 1) * y))


def lobe_areas(P: np.ndarray, crossing=None) -> tuple[float, float]:
    """Absolute areas of the two lobes, split at the double point."""
    i, j, pt = crossing if crossing is not None else self_intersection(P)
    arc1 = np.vstack([pt, P[i + 1:j + 1]])
    arc2 = np.vstack([pt, P[j + 1:], P[:i + 1]])
    return abs(_shoelace(arc1)), abs(_shoelace(arc2))


def enclosed_area(P: np.ndarray) -> float:
    return abs(_shoelace(P))


@dataclass
class EightDiagnostics:
    """Per-frame measurements; eight-specific entries are NaN for embedded curves.

    ``FIELDS`` are the columns of ``diagnostics.csv``. The entries after
    ``k_max`` are what the run analyses read, so that a frame is measured
    once: the smallest edge length, the raw peak |k| (``k_max`` is its
    parabolic refinement), the |k| at the refined top of the upper-right lobe,
    and the double point ``(i, j, point)`` of ``self_intersection`` (None
    without one).
    """

    time: float
    total_area: float
    length: float
    isoperimetric: float
    x_max: float
    y_max: float
    x_star: float
    alpha_angle: float
    theta_max: float
    theta_min: float
    k_max: float
    h_min: float
    k_peak: float
    k_top: float
    crossing: tuple | None

    FIELDS = ("time", "total_area", "length", "isoperimetric", "x_max", "y_max",
              "x_star", "alpha_angle", "theta_max", "theta_min", "k_max")

    def row(self) -> list[float]:
        return [getattr(self, f) for f in self.FIELDS]


def _interpolate_at_top(k_abs: np.ndarray, heights: np.ndarray, iy: int) -> float:
    """|k| at the parabola vertex through the heights around sample ``iy``,
    by quadratic interpolation; a non-finite neighbour (a sample outside the
    quadrant) leaves the vertex at the sample."""
    n = heights.size
    y0, y1, y2 = heights[(iy - 1) % n], heights[iy], heights[(iy + 1) % n]
    denom = y0 - 2.0 * y1 + y2
    delta = 0.0 if (denom == 0.0 or not np.isfinite(denom)) \
        else float(np.clip(0.5 * (y0 - y2) / denom, -1.0, 1.0))
    k0, k1, k2 = k_abs[(iy - 1) % n], k_abs[iy], k_abs[(iy + 1) % n]
    return float(k1 + 0.5 * delta * (k2 - k0) + 0.5 * delta * delta * (k0 - 2.0 * k1 + k2))


def curve_geometry(c: PlaneCurve, time: float = 0.0,
                   expect_double_point: bool | None = None) -> EightDiagnostics:
    """Measure a frame: areas, length, curvature and tangent-angle extremes,
    quarter-curve extremes x_max / y_max / x*, the double-point half angle,
    and the entries the run analyses read (see ``EightDiagnostics``).

    ``expect_double_point=True`` raises TopologyError when the curve has no
    self-crossing; ``None`` fills the eight-specific fields with NaN instead.
    """
    P = c.points
    edges = edge_lengths(P)
    L = float(np.sum(edges))
    k, theta = curvature_and_angles(P)
    k_abs = np.abs(k)
    peak = int(np.argmax(k_abs))
    k_max = _refine_extreme(k_abs, peak)

    theta_max = _refine_extreme(theta, int(np.argmax(theta)))
    theta_min = -_refine_extreme(-theta, int(np.argmin(theta)))

    crossing = None
    try:
        crossing = self_intersection(P)
    except TopologyError:
        if expect_double_point:
            raise

    if crossing is not None:
        a1, a2 = lobe_areas(P, crossing)
        total_area = a1 + a2
        alpha = 0.5 * (theta_max - theta_min - math.pi)
    else:
        total_area = enclosed_area(P)
        alpha = math.nan

    xs, ys = P[:, 0], P[:, 1]
    right = np.nonzero(xs >= 0.0)[0]
    if crossing is not None and right.size >= 3:
        ix = right[int(np.argmax(xs[right]))]
        x_max, _ = _refine_extreme_position(ys, xs, ix)
        upper_heights = np.where((xs >= 0.0) & (ys >= 0.0), ys, -np.inf)
        iy = int(np.argmax(upper_heights))
        y_max, x_star = _refine_extreme_position(xs, ys, iy)
        k_top = _interpolate_at_top(k_abs, upper_heights, iy)
    else:
        x_max = float(np.max(xs))
        y_max = float(np.max(ys))
        x_star = k_top = math.nan

    return EightDiagnostics(
        time=time,
        total_area=total_area,
        length=L,
        isoperimetric=L * L / total_area if total_area > 0 else math.inf,
        x_max=x_max,
        y_max=y_max,
        x_star=x_star,
        alpha_angle=alpha,
        theta_max=theta_max,
        theta_min=theta_min,
        k_max=k_max,
        h_min=float(np.min(edges)),
        k_peak=float(k_abs[peak]),
        k_top=k_top,
        crossing=crossing,
    )


def _bernoulli_quarter(scale: float, arc_targets: np.ndarray) -> np.ndarray:
    """Points of the upper-right lemniscate quarter at given arc positions.

    The quarter runs from the far-right vertex (t = 0) to the double point
    (t = pi/2). Arc positions are measured by dense chords and inverted.
    """
    m_dense = max(8192, 64 * arc_targets.size)
    t = np.linspace(0.0, 0.5 * math.pi, m_dense + 1)
    denom = 1.0 + np.sin(t) ** 2
    x = scale * math.sqrt(2.0) * np.cos(t) / denom
    y = x * np.sin(t)
    pts = np.column_stack([x, y])
    chord = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    s_cum = np.concatenate([[0.0], np.cumsum(chord)])
    t_at = np.interp(arc_targets, s_cum, t)
    denom = 1.0 + np.sin(t_at) ** 2
    xq = scale * math.sqrt(2.0) * np.cos(t_at) / denom
    return np.column_stack([xq, xq * np.sin(t_at)])


def quarter_arc_length(scale: float) -> float:
    m = 1 << 16
    t = np.linspace(0.0, 0.5 * math.pi, m + 1)
    denom = 1.0 + np.sin(t) ** 2
    x = scale * math.sqrt(2.0) * np.cos(t) / denom
    pts = np.column_stack([x, x * np.sin(t)])
    return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))


def make_concinnous_eight(scale: float = 1.0, n_points: int = 512) -> PlaneCurve:
    """Balanced, doubly reflection-symmetric figure-eight on a uniform arc mesh.

    The curve is the Bernoulli lemniscate r^2 = 2 scale^2 cos(2 phi):
    double point at the origin, lobes along the x-axis (the minor symmetry
    axis), far ends at x = +- scale*sqrt(2). One quarter is sampled uniformly
    in arc length with a half-cell offset (so neither the double point nor
    the vertices land on a sample) and the other three quarters are exact
    mirror images, which keeps the sample set symmetric to machine precision.
    The result must pass the concinnity check (a figure-eight whose
    curvature stays bounded away from zero except near the double point).
    """
    if scale <= 0.0:
        raise SetupError("scale must be positive")
    if n_points < 128:
        raise SetupError("need at least 128 points")
    m = n_points // 4
    quarter_len = quarter_arc_length(scale)
    h = quarter_len / m
    targets = (np.arange(m) + 0.5) * h
    q = _bernoulli_quarter(scale, targets)
    xq, yq = q[:, 0], q[:, 1]
    rev = slice(None, None, -1)
    block1 = q
    block2 = np.column_stack([-xq[rev], -yq[rev]])
    block3 = np.column_stack([-xq, yq])
    block4 = np.column_stack([xq[rev], -yq[rev]])
    curve = PlaneCurve(np.vstack([block1, block2, block3, block4]))
    _check_concinnity(curve)
    return curve


def _check_concinnity(curve: PlaneCurve) -> None:
    """Raise ConstructionError unless ``curve`` is a figure-eight (rotation
    number zero, one double point) whose |k| stays above 1e-3 of its median
    everywhere farther than 5 % of the length from the double point."""
    P = curve.points
    rot = turning_number(P)
    if abs(rot) > 1e-6:
        raise ConstructionError(f"total rotation number {rot:.2e} is not zero")
    try:
        _, _, pt = self_intersection(P)
    except TopologyError as exc:
        raise ConstructionError(f"not a figure-eight: {exc}") from exc
    L = curve_length(P)
    k = np.abs(curvature_and_angles(P)[0])
    dist = np.linalg.norm(P - pt, axis=1)
    away = dist > 0.05 * L
    if not np.any(away):
        raise ConstructionError("curve is all within the double-point neighborhood")
    k_floor = float(np.min(k[away]))
    k_scale = float(np.median(k))
    if k_floor < 1e-3 * k_scale:
        offender = float(np.argmin(np.where(away, k, np.inf)))
        raise ConstructionError(
            f"curvature vanishes away from the double point (min {k_floor:.3e} "
            f"of median {k_scale:.3e} at sample {int(offender)}): not concinnous")
