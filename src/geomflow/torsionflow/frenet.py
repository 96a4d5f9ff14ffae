"""Space-curve reconstruction from a constant curvature and a periodic torsion.

Integrates the frame system r' = T, T' = kappa N, N' = -kappa T - tau B,
B' = tau N as a 12-dimensional ODE. The frame is re-orthonormalized by
modified Gram-Schmidt at every output step; the reported drift is the worst
deviation from orthonormality seen *before* correction, and a drift beyond
the tolerance aborts (the tolerances were too loose for the correction to be
trustworthy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import IntegrationError
from ..numerics.ode import SolverStats, StepControl, integrate_ode
from ..numerics.periodic import trig_interpolant
from .core import CurvatureProfile, TorsionField

# Each integration spans one grid interval, and its first trial step is the whole interval.
FRENET_CONTROL = StepControl(initial_step=math.inf, abs_tol=1e-11, rel_tol=1e-11)
FRAME_DRIFT_TOL = 1e-6  # largest orthonormality drift of the frame before correction


@dataclass
class ReconstructedCurve:
    s: np.ndarray
    positions: np.ndarray
    tangents: np.ndarray
    normals: np.ndarray
    binormals: np.ndarray
    frame_drift: float
    stats: SolverStats


def _orthonormalize(T, N, B):
    T = T / np.linalg.norm(T)
    N = N - np.dot(N, T) * T
    N /= np.linalg.norm(N)
    B = B - np.dot(B, T) * T - np.dot(B, N) * N
    B /= np.linalg.norm(B)
    return T, N, B


def frenet_reconstruct(kappa: CurvatureProfile, tau: TorsionField,
                       s_span: tuple[float, float] = (0.0, 4.0 * math.pi),
                       n_samples: int = 513) -> ReconstructedCurve:
    """Integrate the Frenet system at the constant curvature ``kappa`` from
    the standard frame (T, N, B) = I at the origin, at ``FRENET_CONTROL``,
    one integration per grid interval; the torsion is evaluated by
    trigonometric interpolation of its periodic samples. A curvature that
    varies along the curve is not supported. The curve's ``stats`` sum the
    integrations' counts."""
    tau_of = trig_interpolant(tau.samples)
    k = kappa.constant

    def rhs(s, y):
        T = y[3:6]
        N = y[6:9]
        B = y[9:12]
        t = float(tau_of(s % (2.0 * math.pi)))
        return np.concatenate([T, k * N, -k * T - t * B, t * N])

    s0, s1 = s_span
    grid = np.linspace(s0, s1, n_samples)
    y = np.concatenate([np.zeros(3), np.eye(3).ravel()])
    out = np.empty((n_samples, 12))
    out[0] = y
    drift = 0.0
    stats = SolverStats()
    for i in range(1, n_samples):
        traj = integrate_ode(rhs, y, (grid[i - 1], grid[i]), FRENET_CONTROL,
                             output_times=[grid[i]])
        stats.add(traj.stats)
        y = traj.y_end.copy()
        frame = y[3:].reshape(3, 3)
        gram = frame @ frame.T
        drift = max(drift, float(np.max(np.abs(gram - np.eye(3)))))
        if drift > FRAME_DRIFT_TOL:
            raise IntegrationError(
                f"frame orthonormality drift {drift:.3g} exceeds {FRAME_DRIFT_TOL} "
                f"at s={grid[i]:.4f}")
        T, N, B = _orthonormalize(frame[0], frame[1], frame[2])
        y[3:6], y[6:9], y[9:12] = T, N, B
        out[i] = y
    return ReconstructedCurve(
        s=grid, positions=out[:, :3], tangents=out[:, 3:6],
        normals=out[:, 6:9], binormals=out[:, 9:12], frame_drift=drift, stats=stats)
