"""Stationary torsion profiles of the constant-curvature flow.

With u = tau^{-1/2}, stationarity reduces (after one integration) to the
autonomous second-order equation u'' = A - u + u^{-3}; reduction of order
gives u' = sqrt(C + 2Au - u^2 - u^{-2}). For A = 0 this integrates in closed
form to

    tau(s) = 2 / (C + sqrt(C^2 - 4) sin(2 s)),    C >= 2

(up to a shift of s, which also covers the other sign of the sine), and for
general A the orbit between two simple turning points of the
radicand is integrated numerically and resampled onto the periodic mesh.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConstructionError, SetupError
from ..numerics.ode import SolverStats, StepControl, integrate_ode
from ..numerics.periodic import periodic_grid
from ..numerics.quadrature import integrate_singular
from ..numerics.roots import find_root
from .core import TWO_PI, TorsionField

CLOSURE_TOL = 1e-6  # largest distance of 2*pi / (orbit period) from a whole number
# Step control of the orbit's integration over one period of s.
STATIONARY_CONTROL = StepControl(initial_step=1e-4, abs_tol=1e-13, rel_tol=1e-13)


def stationary_torsion(C: float, n: int = 256) -> TorsionField:
    """Closed-form stationary profile tau = 2/(C + sqrt(C^2-4) sin(2s))."""
    if not (math.isfinite(C) and C >= 2.0):
        raise SetupError(f"need a finite C >= 2 for a positive stationary profile, got {C}")
    s = periodic_grid(n)
    amp = math.sqrt(C * C - 4.0)
    return TorsionField(2.0 / (C + amp * np.sin(2.0 * s)))


def tau_one(n: int = 256) -> TorsionField:
    """The reference non-constant stationary profile 2/(3 + sqrt(5) sin 2s)."""
    return stationary_torsion(3.0, n)


def _orbit_turning_points(A: float, C: float) -> tuple[float, float]:
    def g(u: float) -> float:
        return C + 2.0 * A * u - u * u - u ** -2

    def gprime(u: float) -> float:
        return 2.0 * A - 2.0 * u + 2.0 * u ** -3

    # g' is strictly decreasing with a unique positive root: the hump of g
    hi = max(10.0, 2.0 * abs(A) + 10.0)
    u_star = find_root(gprime, (1e-3, hi), 1e-13)
    if g(u_star) <= 0.0:
        raise ConstructionError(
            f"constants A={A}, C={C} admit no positive orbit (max of radicand "
            f"is {g(u_star):.3g} at u={u_star:.3g})")
    lo = u_star
    while g(lo) > 0.0:
        lo *= 0.5
        if lo < 1e-12:
            raise ConstructionError("radicand does not vanish at small u")
    u_min = find_root(g, (lo, u_star), 1e-14)
    hi = u_star
    while g(hi) > 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise ConstructionError("radicand does not vanish at large u")
    u_max = find_root(g, (u_star, hi), 1e-14)
    return u_min, u_max


def stationary_torsion_general(A: float, C: float,
                               n: int = 256) -> tuple[TorsionField, SolverStats]:
    """Stationary profile by quadrature of the reduced first-order equation.

    The orbit of u oscillates between the turning points; its s-period must
    divide 2*pi to within ``CLOSURE_TOL`` cycles for the profile to live on
    the periodic mesh, otherwise the constants are rejected. The profile is
    phased so tau is maximal at s = 0. Returns the profile and the solver
    statistics of the orbit's integration at ``STATIONARY_CONTROL``.
    """
    u_min, u_max = _orbit_turning_points(A, C)

    def g(u: np.ndarray) -> np.ndarray:
        return C + 2.0 * A * u - u * u - u ** -2

    half_period = integrate_singular(lambda u: 1.0 / np.sqrt(np.maximum(g(u), 1e-300)),
                                     u_min, u_max)
    orbit_period = 2.0 * half_period
    cycles = TWO_PI / orbit_period
    m = round(cycles)
    if m < 1 or abs(cycles - m) > CLOSURE_TOL:
        raise ConstructionError(
            f"orbit period {orbit_period:.12g} does not divide 2*pi "
            f"({cycles:.9g} cycles); the profile cannot close on the mesh")

    def rhs(s, y):
        u, du = y
        return np.array([du, A - u + u ** -3])

    traj = integrate_ode(rhs, [u_min, 0.0], (0.0, TWO_PI), STATIONARY_CONTROL,
                         output_times=periodic_grid(n))
    return TorsionField(traj.states[:, 0] ** -2.0), traj.stats
