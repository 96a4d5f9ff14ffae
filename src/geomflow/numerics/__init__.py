"""Shared numerical kernels: ODE integration, special functions, root finding,
quadrature with endpoint singularities, and periodic (spectral) differentiation.
"""

from .interpolation import MonotoneCubic, PeriodicCubicSpline
from .ode import StepControl, Trajectory, integrate_ode
from .periodic import (cyclic_shift, periodic_derivative, periodic_grid,
                       periodic_primitive, trig_interp, trig_interpolant)
from .quadrature import integrate_singular
from .roots import find_root
from .special import elliptic_K, erfc

__all__ = [
    "MonotoneCubic",
    "PeriodicCubicSpline",
    "StepControl",
    "Trajectory",
    "cyclic_shift",
    "elliptic_K",
    "erfc",
    "find_root",
    "integrate_ode",
    "integrate_singular",
    "periodic_derivative",
    "periodic_grid",
    "periodic_primitive",
    "trig_interp",
    "trig_interpolant",
]
