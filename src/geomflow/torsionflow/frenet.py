"""Space-curve reconstruction from a constant curvature and a periodic torsion.

Integrates the frame system r' = T, T' = kappa N, N' = -kappa T - tau B,
B' = tau N as a 12-dimensional ODE, in one pass of the DOP853 core over the
whole span. The frame is not corrected: the reported drift is the worst
deviation of the output frames from orthonormality, and a drift beyond the
tolerance aborts (the tolerances were too loose for the curve to be
trustworthy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import IntegrationError, SetupError
from ..numerics.ode import SolverStats, StepControl, integrate_ode
from ..numerics.periodic import trig_interpolant
from .core import CurvatureProfile, TorsionField

# One integration over the whole span; its first step comes from the field.
FRENET_CONTROL = StepControl(abs_tol=1e-12, rel_tol=1e-12)
FRAME_DRIFT_TOL = 1e-6  # largest orthonormality drift of an output frame


@dataclass
class ReconstructedCurve:
    s: np.ndarray
    positions: np.ndarray
    tangents: np.ndarray
    normals: np.ndarray
    binormals: np.ndarray
    frame_drift: float
    stats: SolverStats


def frenet_reconstruct(kappa: CurvatureProfile, tau: TorsionField,
                       s_span: tuple[float, float] = (0.0, 4.0 * math.pi),
                       n_samples: int = 513) -> ReconstructedCurve:
    """Integrate the Frenet system at the constant curvature ``kappa`` from
    the standard frame (T, N, B) = I at the origin, at ``FRENET_CONTROL``,
    in one integration sampled at ``n_samples`` >= 2 points of the finite
    forward ``s_span``; the torsion is evaluated by trigonometric
    interpolation of its periodic samples. A curvature that varies along the
    curve is not supported. The curve's ``stats`` are the integration's."""
    s0, s1 = map(float, s_span)
    if not (math.isfinite(s0) and math.isfinite(s1) and s1 > s0):
        raise SetupError(f"arc-length span {s_span} is not a finite forward interval")
    if n_samples < 2:
        raise SetupError(f"need at least 2 samples to span an interval, got {n_samples}")
    tau_of = trig_interpolant(tau.samples)
    k = kappa.constant

    def rhs(s, y):
        T = y[3:6]
        N = y[6:9]
        B = y[9:12]
        t = float(tau_of(s % (2.0 * math.pi)))
        return np.concatenate([T, k * N, -k * T - t * B, t * N])

    grid = np.linspace(s0, s1, n_samples)
    y0 = np.concatenate([np.zeros(3), np.eye(3).ravel()])
    traj = integrate_ode(rhs, y0, (s0, s1), FRENET_CONTROL, output_times=grid)
    out = traj.states
    frames = out[:, 3:].reshape(-1, 3, 3)
    deviation = np.abs(frames @ frames.transpose(0, 2, 1) - np.eye(3)).max(axis=(1, 2))
    drift = float(deviation.max())
    if drift > FRAME_DRIFT_TOL:
        worst = int(np.argmax(deviation > FRAME_DRIFT_TOL))
        raise IntegrationError(
            f"frame orthonormality drift {drift:.3g} exceeds {FRAME_DRIFT_TOL} "
            f"at s={grid[worst]:.4f}")
    return ReconstructedCurve(
        s=traj.times, positions=out[:, :3], tangents=out[:, 3:6],
        normals=out[:, 6:9], binormals=out[:, 9:12], frame_drift=drift, stats=traj.stats)
