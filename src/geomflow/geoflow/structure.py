"""The structure field on the unit sphere of the Lie algebra and its flowlines.

Unit tangent vectors are 3-arrays of components in the left-invariant
orthonormal frame. Integral curves of the structure field are the
developments of geodesic tangents; they coincide with the level sets of
H(x, y, z) = |x|^a * y on the sphere, which is the conserved quantity every
flowline test leans on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import SetupError
from ..numerics.ode import SolverStats, StepControl, integrate_ode
from .group import check_alpha

# Step control of the family's ODE solves (flowlines, geodesics and the
# symmetric systems); like every geo control it takes its first step from the
# field.
TIGHT = StepControl(abs_tol=1e-12, rel_tol=1e-12)
# Step control of the variational system: its algebraic identities are held
# to 1e-8 (criterion 5), which TIGHT misses (2.7e-8 at x0 = 0.8, alpha = 1/2).
VARIATIONAL_CONTROL = StepControl(abs_tol=3e-14, rel_tol=3e-14)

# Largest deviation from 1 of a tangent's norm that is still normalized rather
# than refused: components typed on the command line carry only a few digits.
UNIT_TANGENT_TOL = 1e-6


def _sigma(x, y, z, alpha: float):
    """Components of Sigma(v) = (xz, -a yz, a y^2 - x^2): the one copy of the
    field that every flowline, geodesic and symmetric system is built on."""
    return x * z, -alpha * y * z, alpha * y * y - x * x


def structure_field(v, alpha: float) -> np.ndarray:
    x, y, z = np.asarray(v, dtype=float)
    return np.array(_sigma(x, y, z, alpha))


def _flow_rhs(alpha: float):
    """Right-hand side of v' = Sigma(v)."""
    def rhs(t, v):
        return np.array(_sigma(*v, alpha))
    return rhs


def level_value(v, alpha: float) -> float:
    """H(x, y, z) = |x|^a * y, constant along flowlines."""
    x, y, _ = np.asarray(v, dtype=float)
    return abs(x) ** alpha * y


def v_beta(beta: float, alpha: float) -> np.ndarray:
    """Reference tangent on the loop level set labeled by beta in (0, 1]."""
    check_alpha(alpha, 0.0, 1.0, open_lo=True)
    if not 0.0 < beta <= 1.0:
        raise SetupError(f"beta={beta} outside (0, 1]")
    return np.array([
        beta * math.sqrt(alpha / (1.0 + alpha)),
        beta / math.sqrt(1.0 + alpha),
        math.sqrt(max(0.0, 1.0 - beta * beta)),
    ])


def unit_tangent(x: float, y: float, z: float) -> np.ndarray:
    """(x, y, z) normalized, refused if its norm is off 1 by more than
    ``UNIT_TANGENT_TOL``."""
    v = np.array([x, y, z], dtype=float)
    n = np.linalg.norm(v)
    if abs(n - 1.0) > UNIT_TANGENT_TOL:
        raise SetupError(f"tangent norm {n} deviates from 1 beyond {UNIT_TANGENT_TOL}")
    return v / n


@dataclass
class Flowline:
    """Sampled integral curve of the structure field on the unit sphere."""

    alpha: float
    times: np.ndarray
    tangents: np.ndarray
    stats: SolverStats

    @property
    def level_series(self) -> np.ndarray:
        x, y = self.tangents[:, 0], self.tangents[:, 1]
        return np.abs(x) ** self.alpha * y

    @property
    def level_drift(self) -> float:
        h = self.level_series
        h0 = h[0]
        if h0 == 0.0:
            return float(np.max(np.abs(h)))
        return float(np.max(np.abs(h - h0) / abs(h0)))

    @property
    def norm_drift(self) -> float:
        return float(np.max(np.abs(np.linalg.norm(self.tangents, axis=1) - 1.0)))

    @property
    def end(self) -> np.ndarray:
        return self.tangents[-1]


def flow_tangent(v0, alpha: float, T: float, n_samples: int = 1001) -> Flowline:
    """Integrate v' = Sigma(v) for time T without renormalization.

    The sphere constraint and the level H are not enforced; their drift is
    what the returned series measure, so the integration runs at ``TIGHT``,
    whose solver statistics the flowline keeps.
    """
    check_alpha(alpha)
    v0 = np.asarray(v0, dtype=float)
    if abs(np.linalg.norm(v0) - 1.0) > 1e-8:
        raise SetupError("initial tangent is not a unit vector")
    traj = integrate_ode(_flow_rhs(alpha), v0, (0.0, T), TIGHT,
                         output_times=np.linspace(0.0, T, n_samples))
    return Flowline(alpha=alpha, times=traj.times, tangents=traj.states, stats=traj.stats)


def admissible_x0_interval(alpha: float) -> tuple[float, float]:
    """Open interval of initial abscissas for the canonical loop parametrization."""
    check_alpha(alpha, 0.0, 1.0, open_lo=True)
    return math.sqrt(alpha / (1.0 + alpha)), 1.0


def beta_from_x0(x0: float, alpha: float) -> float:
    """Label beta of the loop level set through (x0, sqrt(1 - x0^2), 0).

    Matches H at the flat point against H(V_beta) = beta^(1+a) h_max, where
    h_max = a^(a/2) / (1+a)^((1+a)/2) is the top of H on the sphere:
        beta = (x0^a * sqrt(1 - x0^2) / h_max)^(1/(1+a)),
    held at 1 where rounding near the equilibrium abscissa lifts it above.
    """
    lo, hi = admissible_x0_interval(alpha)
    if not lo < x0 < hi:
        raise ValueError(f"x0={x0} outside the admissible interval ({lo}, {hi})")
    target = x0 ** alpha * math.sqrt(1.0 - x0 * x0)
    h_max = alpha ** (alpha / 2.0) / (1.0 + alpha) ** ((1.0 + alpha) / 2.0)
    return min(1.0, (target / h_max) ** (1.0 / (1.0 + alpha)))
