"""Torsion fields on the periodic arc-length mesh and the evolution right-hand side.

The flow preserving curvature and arc length moves a positive space curve
along its binormal with speed 1/sqrt(torsion). For a constant curvature
kappa the induced torsion evolution is the flux form

    tau_t = D_s(kappa u + (D_s^2 u - tau^{3/2}) / kappa),    u = tau^{-1/2},

which for kappa = 1 is tau_t = D_s(u - tau^{3/2} + D_s^2 u). Only constant
curvature is implemented: the paper's equation for a curvature that varies
along the curve is not. Spatial derivatives are Fourier collocation on
[0, 2*pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import PositivityError
from ..numerics import periodic_grid

TWO_PI = 2.0 * math.pi


@dataclass
class TorsionField:
    """Positive torsion samples on the uniform periodic mesh over [0, 2*pi)."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        n = self.samples.size
        if n < 32 or n % 2 != 0:
            raise ValueError(f"mesh size must be even and at least 32, got {n}")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("torsion samples must be finite")
        if np.min(self.samples) <= 0.0:
            raise PositivityError("torsion must be strictly positive")

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def grid(self) -> np.ndarray:
        return periodic_grid(self.n)


@dataclass(frozen=True)
class CurvatureProfile:
    """A strictly positive constant curvature."""

    constant: float

    def __post_init__(self):
        if not (math.isfinite(self.constant) and self.constant > 0.0):
            raise ValueError(f"curvature must be finite and strictly positive, "
                             f"got {self.constant}")


UNIT_CURVATURE = CurvatureProfile(constant=1.0)


def make_torsion_rhs(kappa: CurvatureProfile, n: int):
    """Fast closure computing the torsion evolution right-hand side on arrays.

    In Fourier space the right-hand side is A u^ + B (tau^{3/2})^ with the
    fixed multipliers A = ik (kappa - k^2 / kappa) and B = -ik / kappa, both
    zero at the Nyquist mode (no odd derivative of it lives on the grid). So
    one call costs one real FFT of the stacked pair (u, tau^{3/2}) and one
    inverse FFT.

    Nonpositive trial states return NaN so the adaptive integrator retries
    with a smaller step instead of silently evaluating fractional powers of
    negative torsion.
    """
    k = np.fft.rfftfreq(n, d=1.0 / n)
    ik = 1j * k
    if n % 2 == 0:
        ik[-1] = 0.0
    kap = kappa.constant
    mult_u = ik * (kap - k * k / kap)
    mult_p = -ik / kap
    pair = np.empty((2, n))  # reused by every call: rfft copies it out

    def rhs(t, tau):
        if np.min(tau) <= 0.0:
            return np.full(n, np.nan)
        root = np.sqrt(tau)
        np.divide(1.0, root, out=pair[0])
        np.multiply(tau, root, out=pair[1])
        spec = np.fft.rfft(pair)
        return np.fft.irfft(mult_u * spec[0] + mult_p * spec[1], n)

    return rhs


def torsion_rhs(tau: TorsionField, kappa: CurvatureProfile = UNIT_CURVATURE) -> np.ndarray:
    """Pointwise evolution right-hand side of the torsion field."""
    if np.min(tau.samples) <= 0.0:
        raise PositivityError("torsion must be strictly positive")
    return make_torsion_rhs(kappa, tau.n)(0.0, tau.samples)


def torsion_invariants(tau: TorsionField) -> tuple[float, float]:
    """The first two integrals of motion: (integral of sqrt(tau), integral of tau).

    Trapezoid quadrature on the periodic mesh, which is spectrally accurate
    for smooth periodic data.
    """
    h = TWO_PI / tau.n
    return (float(h * np.sum(np.sqrt(tau.samples))), float(h * np.sum(tau.samples)))


def l2_norm(samples: np.ndarray) -> float:
    """L2 norm on [0, 2*pi] by the periodic trapezoid rule."""
    samples = np.asarray(samples, dtype=float)
    h = TWO_PI / samples.size
    return math.sqrt(h * float(np.sum(samples * samples)))
