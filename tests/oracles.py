"""Independent oracles the tests hold the library to.

- ``group_mul`` and ``group_inv``: the group law of the solvable family,
  which the library never needs (it integrates in the left-invariant frame).
- ``concatenation_endpoint``: the paper's concatenation product, an endpoint
  of a geodesic that shares no code with the frame ODE of ``geodesic``.
- ``spectral_derivative`` and ``fd4_derivative``: derivatives of samples on
  a uniform periodic mesh, by Fourier collocation and by fourth-order central
  differences.
- ``dist_points_to_segments`` and ``bowtie_distance``: point-to-segment
  distances over the full (points, segments) matrix, and the bow-tie
  distance of a frame built from them without pruning.
- ``frame_geometry``: the ``curve_geometry`` record of one frame, measured
  on that frame alone, as the library did before it measured blocks of
  frames as stacks.
- ``lemniscate_eight``: the points of ``make_concinnous_eight``, with the
  quarter formula written out at each of its uses, as the library had it
  before one helper computed it.
"""

import math

import numpy as np

from geomflow.csf import EightDiagnostics, enclosed_area, lobe_areas, self_intersection
from geomflow.csf.curve import _refine_extreme
from geomflow.errors import TopologyError
from geomflow.geoflow import TIGHT, structure_field
from geomflow.numerics.ode import integrate_ode


def group_mul(p, q, alpha):
    """Product p * q = (q_x e^{p_z} + p_x, q_y e^{-a p_z} + p_y, q_z + p_z)."""
    return np.array([
        q[0] * math.exp(p[2]) + p[0],
        q[1] * math.exp(-alpha * p[2]) + p[1],
        q[2] + p[2],
    ])


def group_inv(p, alpha):
    """Inverse element: p * inv(p) is the identity (0, 0, 0)."""
    return np.array([
        -p[0] * math.exp(-p[2]),
        -p[1] * math.exp(alpha * p[2]),
        -p[2],
    ])


def concatenation_endpoint(v0, alpha, T, n_steps=1_000_000):
    """Endpoint of the geodesic from the identity with unit tangent v0 and
    length T, as the product (eps*lambda_1) * ... * (eps*lambda_n) of small
    group elements along the flowline lambda of the structure field, sampled
    at the midpoints of n equal subintervals. The group law collapses the
    left-folded product to prefix sums, so the whole product is three
    cumulative sums."""
    traj = integrate_ode(lambda t, v: structure_field(v, alpha), np.asarray(v0, dtype=float),
                         (0.0, T), TIGHT)
    eps = T / n_steps
    lam = traj.sample((np.arange(n_steps) + 0.5) * eps)
    a, b, c = eps * lam[:, 0], eps * lam[:, 1], eps * lam[:, 2]
    z_prefix = np.concatenate([[0.0], np.cumsum(c)[:-1]])
    return np.array([np.sum(a * np.exp(z_prefix)), np.sum(b * np.exp(-alpha * z_prefix)),
                     np.sum(c)])


def spectral_derivative(samples, order=1):
    """Derivative of the given order on [0, 2*pi): mode k times (ik)^order,
    with the Nyquist mode dropped for odd orders so the result stays real."""
    y = np.asarray(samples, dtype=float)
    n = y.size
    mult = (1j * np.fft.rfftfreq(n, d=1.0 / n)) ** order
    if order % 2 == 1 and n % 2 == 0:
        mult[-1] = 0.0
    return np.fft.irfft(np.fft.rfft(y) * mult, n=n)


def fd4_derivative(samples, order):
    """First or third derivative on [0, 2*pi) by fourth-order central differences."""
    y = np.asarray(samples, dtype=float)
    h = 2.0 * math.pi / y.size
    if order == 1:
        return (-np.roll(y, -2) + 8 * np.roll(y, -1) - 8 * np.roll(y, 1) + np.roll(y, 2)) / (12 * h)
    if order == 3:
        return (-np.roll(y, -3) + 8 * np.roll(y, -2) - 13 * np.roll(y, -1)
                + 13 * np.roll(y, 1) - 8 * np.roll(y, 2) + np.roll(y, 3)) / (8 * h ** 3)
    raise ValueError(f"no fd4 stencil of order {order}")


def dist_points_to_segments(px, py, ax, ay, bx, by):
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


def bowtie_distance(points, x_max, y_max):
    """Symmetric Hausdorff distance between the polygon ``points`` scaled by
    (1/x_max, 1/y_max) and the closed bow-tie path through (-1, -1), (1, 1),
    (1, -1), (-1, 1): from the polygon's points to the path's four edges, and
    from 101 samples along each edge to the polygon's edges."""
    Q = points / np.array([x_max, y_max])
    corners = np.array([[-1.0, -1.0], [1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]])
    seg_a, seg_b = corners, np.roll(corners, -1, axis=0)
    qx, qy = Q[:, 0], Q[:, 1]
    to_tie = dist_points_to_segments(qx, qy, seg_a[:, 0], seg_a[:, 1], seg_b[:, 0], seg_b[:, 1])
    samples = np.concatenate([seg_a + tt * (seg_b - seg_a)
                              for tt in np.linspace(0.0, 1.0, 101)[:, None, None]])
    to_curve = dist_points_to_segments(samples[:, 0], samples[:, 1], qx, qy,
                                       np.roll(qx, -1), np.roll(qy, -1))
    return max(float(np.max(to_tie)), float(np.max(to_curve)))


def _frame_curvature_and_angles(P):
    """Signed curvature and the unwrapped tangent angle (midrange nearest
    pi/2) of one polygon (n, 2), from its three-point stencil."""
    prev, nxt = np.roll(P, 1, axis=0), np.roll(P, -1, axis=0)
    a = np.linalg.norm(P - prev, axis=1)[:, None]
    b = np.linalg.norm(nxt - P, axis=1)[:, None]
    denom = a * b * (a + b)
    first = (a * a * (nxt - P) + b * b * (P - prev)) / denom
    second = 2.0 * (a * (nxt - P) - b * (P - prev)) / denom
    speed = np.linalg.norm(first, axis=1)
    cross = first[:, 0] * second[:, 1] - first[:, 1] * second[:, 0]
    theta = np.unwrap(np.arctan2(first[:, 1], first[:, 0]))
    mid = 0.5 * (theta.max() + theta.min())
    shift = 2.0 * math.pi * round((0.5 * math.pi - mid) / (2.0 * math.pi))
    return cross / speed ** 3, theta + shift


def frame_geometry(P, time=0.0):
    """The ``curve_geometry`` record of the single frame with points ``P``."""
    edges = np.linalg.norm(np.roll(P, -1, axis=0) - P, axis=1)
    L = float(np.sum(edges))
    k, theta = _frame_curvature_and_angles(P)
    k_abs = np.abs(k)
    peak = int(np.argmax(k_abs))
    k_max = _refine_extreme(k_abs, peak)[0]
    theta_max = _refine_extreme(theta, int(np.argmax(theta)))[0]
    theta_min = -_refine_extreme(-theta, int(np.argmin(theta)))[0]

    crossing = None
    try:
        crossing = self_intersection(P)
    except TopologyError:
        pass
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
        x_max = _refine_extreme(xs, ix)[0]
        upper_heights = np.where((xs >= 0.0) & (ys >= 0.0), ys, -np.inf)
        iy = int(np.argmax(upper_heights))
        y_max, delta = _refine_extreme(ys, iy)
        side = (iy + (1 if delta >= 0.0 else -1)) % xs.size
        x_star = float(xs[iy] + abs(delta) * (xs[side] - xs[iy]))
        k0, k1, k2 = (k_abs[(iy + j) % xs.size] for j in (-1, 0, 1))
        k_top = float(k1 + 0.5 * delta * (k2 - k0) + 0.5 * delta * delta * (k0 - 2.0 * k1 + k2))
    else:
        x_max = float(np.max(xs))
        y_max = float(np.max(ys))
        x_star = k_top = math.nan

    return EightDiagnostics(
        time=time, total_area=total_area, length=L,
        isoperimetric=L * L / total_area if total_area > 0 else math.inf,
        x_max=x_max, y_max=y_max, x_star=x_star, alpha_angle=alpha,
        theta_max=theta_max, theta_min=theta_min, k_max=k_max,
        h_min=float(np.min(edges)), k_peak=float(k_abs[peak]), k_top=k_top,
        crossing=crossing)


def lemniscate_eight(scale, n_points):
    """The (n_points, 2) samples of ``make_concinnous_eight(scale, n_points)``."""
    m = 1 << 16
    t = np.linspace(0.0, 0.5 * math.pi, m + 1)
    denom = 1.0 + np.sin(t) ** 2
    x = scale * math.sqrt(2.0) * np.cos(t) / denom
    pts = np.column_stack([x, x * np.sin(t)])
    quarter_len = float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))

    m = n_points // 4
    arc_targets = (np.arange(m) + 0.5) * (quarter_len / m)
    t = np.linspace(0.0, 0.5 * math.pi, max(8192, 64 * m) + 1)
    denom = 1.0 + np.sin(t) ** 2
    x = scale * math.sqrt(2.0) * np.cos(t) / denom
    y = x * np.sin(t)
    chord = np.linalg.norm(np.diff(np.column_stack([x, y]), axis=0), axis=1)
    s_cum = np.concatenate([[0.0], np.cumsum(chord)])
    t_at = np.interp(arc_targets, s_cum, t)
    denom = 1.0 + np.sin(t_at) ** 2
    xq = scale * math.sqrt(2.0) * np.cos(t_at) / denom
    yq = xq * np.sin(t_at)
    rev = slice(None, None, -1)
    return np.vstack([np.column_stack([xq, yq]), np.column_stack([-xq[rev], -yq[rev]]),
                      np.column_stack([-xq, yq]), np.column_stack([xq[rev], -yq[rev]])])
