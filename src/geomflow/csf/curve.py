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
from ..numerics.periodic import cyclic_shift

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
    """Length of each row of an (..., 2) array: ``np.linalg.norm(V, axis=-1)``,
    bit for bit, without its dispatch cost."""
    x, y = V[..., 0], V[..., 1]
    return np.sqrt(x * x + y * y)


def _shift(P: np.ndarray, k: int) -> np.ndarray:
    """Points (..., n, 2) of closed polygons shifted so that point i holds
    point (i + k) % n: ``cyclic_shift`` along the point axis."""
    k %= P.shape[-2]
    return np.concatenate((P[..., k:, :], P[..., :k, :]), axis=-2)


def edge_lengths(P: np.ndarray) -> np.ndarray:
    """Edge lengths of a polygon (n, 2) or of a stack of them (..., n, 2)."""
    return row_lengths(_shift(P, 1) - P)


def curve_length(P: np.ndarray) -> float:
    return float(np.sum(edge_lengths(P)))


def _three_point(P: np.ndarray):
    prev = _shift(P, -1)
    nxt = _shift(P, 1)
    a = row_lengths(P - prev)[..., None]
    b = row_lengths(nxt - P)[..., None]
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
    """Signed curvature and unwrapped tangent angle per point, from one
    stencil, of a polygon (n, 2) or of each of a stack (..., n, 2).

    The angle branch puts the midrange nearest pi/2 (the natural branch for
    an eight whose minor axis is the x-axis).
    """
    first, second = _three_point(P)
    speed = row_lengths(first)
    cross = first[..., 0] * second[..., 1] - first[..., 1] * second[..., 0]
    theta = np.unwrap(np.arctan2(first[..., 1], first[..., 0]))
    mid = 0.5 * (theta.max(axis=-1, keepdims=True) + theta.min(axis=-1, keepdims=True))
    shift = TWO_PI * np.round((0.5 * math.pi - mid) / TWO_PI)
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


def _refine_extreme(values: np.ndarray, idx: int) -> tuple[float, float]:
    """The vertex of the parabola through a discrete extremum of a cyclic
    sequence and its two neighbours: its value, and its offset from ``idx``
    in samples (at most one). A peak midway between two equal samples gets
    its vertex. A flat stretch keeps its sample value: there the extreme and
    the two samples after it, or before it, agree to 1e-13, as on a
    polygon's straight edge, and the parabola would overshoot."""
    n = values.size
    y0, y1, y2, y3, y4 = (values.item((idx + k) % n) for k in range(-2, 3))
    denom = y1 - 2.0 * y2 + y3
    flat = 1e-13 * max(abs(y0), abs(y1), abs(y2), abs(y3), abs(y4))
    if (denom == 0.0 or abs(y0 - y2) <= flat and abs(y1 - y2) <= flat
            or abs(y3 - y2) <= flat and abs(y4 - y2) <= flat):
        return y2, 0.0
    delta = min(1.0, max(-1.0, 0.5 * (y1 - y3) / denom))
    return y2 - 0.25 * (y1 - y3) * delta, delta


_RUN = 8  # consecutive segments per bounding box of the crossing search
# Points per crossing search of a block, so max(1, _CROSSING_POINTS // n)
# frames: at n = 128 one search over four frames takes half the time of four
# searches, eight or more take longer again, and from n = 512 on (where one
# frame's candidate pairs number about ten thousand) one frame at a time is
# fastest.
_CROSSING_POINTS = 512


def self_intersection(P: np.ndarray):
    """The unique proper self-crossing of the closed polygon.

    Returns (i, j, point) where segments (i, i+1) and (j, j+1) cross at
    ``point``. Raises TopologyError when there is no crossing or more than
    one distinct crossing. Neighboring segment pairs are excluded. For a
    stack of polygons (F, n, 2) it searches all of them at once and returns
    the list of their crossings, with the TopologyError in place of each
    polygon that has none or more than one.

    The segments are cut into runs of ``_RUN`` consecutive ones, each with
    the bounding box of its segments. Two segments from runs whose boxes are
    disjoint cannot cross, so the crossing formulas run only on the pairs
    i < j from runs whose boxes overlap (a run's box always overlaps its own
    and its neighbours'). The pruning is exact: every pair it skips has
    disjoint segments. Hits are taken in (i, j) order, the order of a plain
    loop over all pairs, and hits that coincide geometrically (a crossing
    that grazes a vertex) merge into the first.
    """
    if P.ndim == 2:
        found = self_intersection(P[None])[0]
        if isinstance(found, TopologyError):
            raise found
        return found
    F, n = P.shape[:2]
    Q = _shift(P, 1)
    E = Q - P
    starts = np.arange(0, n, _RUN)
    lo = np.minimum.reduceat(np.minimum(P, Q), starts, axis=-2)
    hi = np.maximum.reduceat(np.maximum(P, Q), starts, axis=-2)
    lo_x, lo_y, hi_x, hi_y = lo[..., 0], lo[..., 1], hi[..., 0], hi[..., 1]
    overlap = ((lo_x[:, :, None] <= hi_x[:, None, :]) & (lo_x[:, None, :] <= hi_x[:, :, None])
               & (lo_y[:, :, None] <= hi_y[:, None, :]) & (lo_y[:, None, :] <= hi_y[:, :, None]))
    fr, ra, rb = np.nonzero(overlap)
    upper = ra <= rb
    offsets = np.arange(_RUN)
    i = (ra[upper, None] * _RUN + offsets)[:, :, None]      # (run pairs, _RUN, 1)
    j = (rb[upper, None] * _RUN + offsets)[:, None, :]      # (run pairs, 1, _RUN)
    sep = j - i
    keep = (sep >= 2) & (sep <= n - 2) & (j < n)
    fr = np.broadcast_to(fr[upper, None, None], keep.shape)[keep]
    i, j = np.broadcast_to(i, keep.shape)[keep], np.broadcast_to(j, keep.shape)[keep]
    at_i, at_j = fr * n + i, fr * n + j  # into the polygons' points laid end to end
    x, y = P[..., 0].ravel(), P[..., 1].ravel()
    ex, ey = E[..., 0].ravel(), E[..., 1].ravel()
    rx, ry, sx, sy = ex[at_i], ey[at_i], ex[at_j], ey[at_j]
    denom = rx * sy - ry * sx
    dqx = x[at_j] - x[at_i]
    dqy = y[at_j] - y[at_i]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (dqx * sy - dqy * sx) / denom
        u = (dqx * ry - dqy * rx) / denom
    hits = np.nonzero((denom != 0.0) & (t > 0.0) & (t < 1.0) & (u > 0.0) & (u < 1.0))[0]
    bounds = np.searchsorted(fr[hits], np.arange(F + 1))
    return [_unique_crossing(P[f], E[f], i, j, t, hits[bounds[f]:bounds[f + 1]])
            for f in range(F)]


def _unique_crossing(P, E, i, j, t, hits):
    """The first of the crossings ``hits`` of the segment pairs (i, j) of
    polygon P, with edges E, at the fractions t of segment i; or the
    TopologyError of a polygon with none, or with more than one distinct."""
    if hits.size == 0:
        return TopologyError("no self-intersection found")
    found = sorted(((int(i[h]), int(j[h]), P[i[h]] + t[h] * E[i[h]]) for h in hits),
                   key=lambda hit: hit[:2])
    if len(found) > 1:
        # merge crossings that coincide geometrically (vertex-grazing duplicates)
        scale = math.sqrt(np.max(np.sum((P - P.mean(axis=0)) ** 2, axis=1)))
        clusters: list[np.ndarray] = []
        for _, _, pt in found:
            if all(np.linalg.norm(pt - other) >= 1e-6 * scale for other in clusters):
                clusters.append(pt)
        if len(clusters) > 1:
            return TopologyError(f"found {len(clusters)} distinct self-intersections, expected 1")
    return found[0]


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
    parabolic refinement), the |k| at the refined top of the upper-right lobe
    (quadratic in the vertex offset that refines ``y_max`` and ``x_star``),
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


def curve_geometry(P: np.ndarray, time: float | list[float] = 0.0
                   ) -> EightDiagnostics | list[EightDiagnostics]:
    """Measure a frame: areas, length, curvature and tangent-angle extremes,
    quarter-curve extremes x_max / y_max / x*, the double-point half angle,
    and the entries the run analyses read (see ``EightDiagnostics``).

    ``P`` is the points of one frame (n, 2), or a block of frames of one
    size (F, n, 2) with ``time`` their times; a block gives the list of its
    frames' records, each equal to the frame's own. The stencils, extreme
    indices and quadrant masks of a block are measured on the whole stack,
    every reduction along a frame's own axis, and the crossings of
    ``_CROSSING_POINTS`` // n frames at a time; the refinements and lobe
    areas are measured a frame at a time.

    A frame without a unique self-crossing gets NaN eight-specific fields
    and ``crossing=None``.
    """
    if P.ndim == 2:
        return curve_geometry(P[None], [time])[0]
    edges = edge_lengths(P)
    lengths, h_min = np.sum(edges, axis=-1), np.min(edges, axis=-1)
    k, theta = curvature_and_angles(P)
    k_abs, neg_theta = np.abs(k), -theta
    peaks = np.argmax(k_abs, axis=-1)
    tops, bottoms = np.argmax(theta, axis=-1), np.argmin(theta, axis=-1)
    xs, ys = P[..., 0], P[..., 1]
    right = xs >= 0.0
    enough = np.count_nonzero(right, axis=-1) >= 3
    right_tips = np.argmax(np.where(right, xs, -np.inf), axis=-1)
    upper_heights = np.where(right & (ys >= 0.0), ys, -np.inf)
    upper_tips = np.argmax(upper_heights, axis=-1)
    x_tops, y_tops = np.max(xs, axis=-1), np.max(ys, axis=-1)
    group = max(1, _CROSSING_POINTS // P.shape[1])
    crossings = [crossing for start in range(0, len(P), group)
                 for crossing in self_intersection(P[start:start + group])]

    records = []
    for f, t in enumerate(time):
        peak = int(peaks[f])
        k_max = _refine_extreme(k_abs[f], peak)[0]
        theta_max = _refine_extreme(theta[f], int(tops[f]))[0]
        theta_min = -_refine_extreme(neg_theta[f], int(bottoms[f]))[0]

        crossing = crossings[f]
        if isinstance(crossing, TopologyError):
            crossing = None

        if crossing is not None:
            a1, a2 = lobe_areas(P[f], crossing)
            total_area = a1 + a2
            alpha = 0.5 * (theta_max - theta_min - math.pi)
        else:
            total_area = enclosed_area(P[f])
            alpha = math.nan

        if crossing is not None and enough[f]:
            x, y, iy = xs[f], ys[f], int(upper_tips[f])
            x_max = _refine_extreme(x, int(right_tips[f]))[0]
            y_max, delta = _refine_extreme(y, iy)
            side = (iy + (1 if delta >= 0.0 else -1)) % x.size
            x_star = float(x[iy] + abs(delta) * (x[side] - x[iy]))
            k0, k1, k2 = (k_abs.item(f, (iy + j) % x.size) for j in (-1, 0, 1))
            k_top = k1 + 0.5 * delta * (k2 - k0) + 0.5 * delta * delta * (k0 - 2.0 * k1 + k2)
        else:
            x_max, y_max = float(x_tops[f]), float(y_tops[f])
            x_star = k_top = math.nan

        L = float(lengths[f])
        records.append(EightDiagnostics(
            time=t,
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
            h_min=float(h_min[f]),
            k_peak=float(k_abs[f, peak]),
            k_top=k_top,
            crossing=crossing,
        ))
    return records


def _lemniscate_quarter(scale: float, t: np.ndarray) -> np.ndarray:
    """Points (n, 2) of the lemniscate quarter at the parameters t in
    [0, pi/2]: x = scale sqrt(2) cos t / (1 + sin^2 t), y = x sin t."""
    x = scale * math.sqrt(2.0) * np.cos(t) / (1.0 + np.sin(t) ** 2)
    return np.column_stack([x, x * np.sin(t)])


def _bernoulli_quarter(scale: float, arc_targets: np.ndarray) -> np.ndarray:
    """Points of the upper-right lemniscate quarter at given arc positions.

    The quarter runs from the far-right vertex (t = 0) to the double point
    (t = pi/2). Arc positions are measured by dense chords and inverted.
    """
    m_dense = max(8192, 64 * arc_targets.size)
    t = np.linspace(0.0, 0.5 * math.pi, m_dense + 1)
    chord = np.linalg.norm(np.diff(_lemniscate_quarter(scale, t), axis=0), axis=1)
    s_cum = np.concatenate([[0.0], np.cumsum(chord)])
    return _lemniscate_quarter(scale, np.interp(arc_targets, s_cum, t))


_ARC_CHORDS = 1 << 16  # chords of the quarter arc length
_ARC_BLOCK = 4096      # chords measured at a time


def quarter_arc_length(scale: float) -> float:
    """Length of the lemniscate quarter: the sum of its chords between
    ``_ARC_CHORDS + 1`` uniform parameters. The chords are measured a block
    at a time into one array, so no (65,537, 2) temporaries are built; every
    operation but the final sum is elementwise, so blocking changes no bit."""
    t = np.linspace(0.0, 0.5 * math.pi, _ARC_CHORDS + 1)
    chord = np.empty(_ARC_CHORDS)
    for i in range(0, _ARC_CHORDS, _ARC_BLOCK):
        points = _lemniscate_quarter(scale, t[i:i + _ARC_BLOCK + 1])
        chord[i:i + _ARC_BLOCK] = np.linalg.norm(np.diff(points, axis=0), axis=1)
    return float(np.sum(chord))


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
    if n_points < 128 or n_points % 4:
        raise SetupError(f"need a multiple of 4, at least 128, points; got {n_points}")
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


def _median(values: np.ndarray) -> float:
    """``np.median`` of the NaN-free 1-D ``values``, from one partition at
    the middle ranks: ``np.median`` itself checks for NaN through a path
    that imports ``numpy.ma``, whose import costs more than the median."""
    n = values.size
    part = np.partition(values, [(n - 1) // 2, n // 2])
    return float(part[n // 2] if n % 2 else (part[n // 2 - 1] + part[n // 2]) / 2)


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
    k_scale = _median(k)
    if k_floor < 1e-3 * k_scale:
        offender = float(np.argmin(np.where(away, k, np.inf)))
        raise ConstructionError(
            f"curvature vanishes away from the double point (min {k_floor:.3e} "
            f"of median {k_scale:.3e} at sample {int(offender)}): not concinnous")
