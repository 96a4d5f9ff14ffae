"""Shared numerical kernels: ODE integration, the ETDRK4 stepper of the
spectral flows (``numerics.etd``), the elliptic integral K, root finding,
quadrature with endpoint singularities, and periodic (spectral) calculus.
"""

from .interpolation import PeriodicCubicSpline
from .ode import IMAGINARY_AXIS_REACH, SolverStats, StepControl, Trajectory, integrate_ode
from .periodic import (cyclic_shift, irfft, periodic_grid, periodic_primitive, rfft,
                       trig_interpolant)
from .quadrature import QUAD_TOL, integrate_singular
from .roots import find_root
from .special import elliptic_K

__all__ = [
    "IMAGINARY_AXIS_REACH",
    "QUAD_TOL",
    "PeriodicCubicSpline",
    "SolverStats",
    "StepControl",
    "Trajectory",
    "cyclic_shift",
    "elliptic_K",
    "find_root",
    "integrate_ode",
    "integrate_singular",
    "irfft",
    "periodic_grid",
    "periodic_primitive",
    "rfft",
    "trig_interpolant",
]
