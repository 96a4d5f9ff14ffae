"""Geodesics from the identity: frame ODE, cylinder invariant, geodesic spheres.

The exponential map integrates the coupled 6-system

    tangent:  v' = Sigma(v)            (development on the unit sphere)
    position: (x', y', z') = (v_x e^z, v_y e^{-a z}, v_z)

so the position components are the left-invariant frame applied to the
tangent at the current point. The tests check it against an independent
oracle, the concatenation product of small group elements along the
flowline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import SetupError
from ..numerics.ode import SolverStats, StepControl, integrate_ode
from .group import check_alpha
from .structure import TIGHT, _sigma, level_value, v_beta

# Step control of the sphere scan: one geodesic per direction, so looser;
# its first step comes from the field, as TIGHT's does.
SPHERE_CONTROL = StepControl(abs_tol=1e-10, rel_tol=1e-10)
# How far the initial tangent of a cylinder-invariant geodesic may sit off its
# level set and off the top/bottom point of its loop.
CYLINDER_SETUP_TOL = 1e-6


@dataclass
class GeodesicPath:
    """Unit-speed geodesic from the identity, sampled along arc length."""

    alpha: float
    times: np.ndarray
    tangents: np.ndarray
    positions: np.ndarray
    stats: SolverStats

    @property
    def speed_drift(self) -> float:
        """Max deviation of the metric-measured speed from 1.

        The frame components of the velocity are the tangent block, so the
        metric speed along the path is just the tangent norm.
        """
        return float(np.max(np.abs(np.linalg.norm(self.tangents, axis=1) - 1.0)))


def _geodesic_rhs(alpha: float):
    """Right-hand side on a state (vx, vy, vz, x, y, z) of shape (6,) or on a
    batch of rows of shape (m, 6)."""
    def rhs(t, u):
        vx, vy, vz, _, _, z = u.T
        return np.array([*_sigma(vx, vy, vz, alpha), vx * np.exp(z), vy * np.exp(-alpha * z),
                         vz]).T
    return rhs


def _check_unit(v0) -> np.ndarray:
    v0 = np.asarray(v0, dtype=float)
    if np.any(np.abs(np.linalg.norm(v0, axis=-1) - 1.0) > 1e-8):
        raise SetupError("initial tangent is not a unit vector")
    return v0


def geodesic(v0, alpha: float, T: float, n_samples: int = 401) -> GeodesicPath:
    """Geodesic from the identity with initial unit tangent v0 and finite
    length T >= 0, integrated at ``TIGHT`` and sampled at ``n_samples`` >= 2
    points; its ``stats`` are the integration's (empty at T = 0, where the
    path is the identity alone)."""
    check_alpha(alpha)
    v0 = _check_unit(v0)
    if not (math.isfinite(T) and T >= 0.0):
        raise SetupError(f"geodesic length {T} is not finite and nonnegative")
    if n_samples < 2:
        raise SetupError(f"need at least 2 samples to span a geodesic, got {n_samples}")
    if T == 0.0:
        return GeodesicPath(alpha, np.array([0.0]), v0[None, :].copy(),
                            np.zeros((1, 3)), SolverStats())
    y0 = np.concatenate([v0, np.zeros(3)])
    traj = integrate_ode(_geodesic_rhs(alpha), y0, (0.0, T), TIGHT,
                         output_times=np.linspace(0.0, T, n_samples))
    return GeodesicPath(alpha, traj.times, traj.states[:, :3], traj.states[:, 3:], traj.stats)


def geodesic_endpoints(v0s, alpha: float, T: float,
                       ctrl: StepControl) -> tuple[np.ndarray, SolverStats]:
    """Endpoints at length T > 0 of the geodesics from the identity with the
    unit tangents ``v0s`` (shape (m, 3)), integrated together as one batch,
    and the batch's solver statistics."""
    v0s = _check_unit(v0s)
    y0 = np.hstack([v0s, np.zeros_like(v0s)])
    traj = integrate_ode(_geodesic_rhs(alpha), y0, (0.0, T), ctrl, output_times=[T])
    return traj.y_end[:, 3:], traj.stats


def cylinder_invariant(path: GeodesicPath, beta: float) -> tuple[np.ndarray, float]:
    """Series of the cylinder quantity along a geodesic and its relative drift.

    For a geodesic from the identity whose initial tangent is the reference
    tangent of the loop level set labeled by beta (so v_x = sqrt(a) v_y),
    the conserved momenta give the first integral

        Q = (w - d)^2 + e^{2z} + (1/a) e^{-2az} = ((1+a)/a) / beta^2,

    with w = x - sqrt(a) y and the cylinder-axis offset d = v_z(0)/v_x(0).
    The surface is the cylinder written about its own axis; Q(0) equals the
    predicted constant identically. Returns (Q series, max |Q-Q0|/Q0).
    """
    alpha = path.alpha
    check_alpha(alpha, 0.0, 1.0, open_lo=True)
    v0 = path.tangents[0]
    ref = v_beta(beta, alpha)
    if abs(level_value(v0, alpha) - level_value(ref, alpha)) > CYLINDER_SETUP_TOL:
        raise SetupError("initial tangent is not on the level set labeled by beta")
    if abs(v0[0] - math.sqrt(alpha) * v0[1]) > CYLINDER_SETUP_TOL:
        raise SetupError("initial tangent must sit at the top/bottom point of its loop "
                         "(v_x = sqrt(a) v_y), e.g. V_beta or its partner")
    delta = v0[2] / v0[0]
    x, y, z = path.positions[:, 0], path.positions[:, 1], path.positions[:, 2]
    w = x - math.sqrt(alpha) * y - delta
    q = w * w + np.exp(2.0 * z) + np.exp(-2.0 * alpha * z) / alpha
    q0 = (1.0 + alpha) / alpha / (beta * beta)
    if abs(q[0] - q0) > 1e-9 * q0:
        raise SetupError("initial cylinder quantity disagrees with the predicted constant")
    return q, float(np.max(np.abs(q - q0)) / q0)


def fibonacci_directions(n: int) -> np.ndarray:
    """Deterministic quasi-uniform unit directions (Fibonacci lattice)."""
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    phi = golden * i
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def geodesic_sphere(alpha: float, R: float, n_dirs: int = 200
                    ) -> tuple[np.ndarray, np.ndarray, SolverStats]:
    """Point cloud of the geodesic sphere of radius R, (directions, endpoints,
    solver statistics), all geodesics integrated as one batch at
    ``SPHERE_CONTROL``."""
    check_alpha(alpha)
    if R <= 0.0:
        raise SetupError("radius must be positive")
    if n_dirs < 100:
        raise SetupError("need at least 100 directions for a meaningful cloud")
    dirs = fibonacci_directions(n_dirs)
    return (dirs, *geodesic_endpoints(dirs, alpha, R, SPHERE_CONTROL))
