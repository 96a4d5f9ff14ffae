"""Torsion fields on the periodic arc-length mesh and the evolution right-hand side.

The flow preserving curvature and arc length moves a positive space curve
along its binormal with speed 1/sqrt(torsion). For a constant curvature
kappa the induced torsion evolution is the flux form

    tau_t = D_s(kappa u + (D_s^2 u - tau^{3/2}) / kappa),    u = tau^{-1/2},

which for kappa = 1 is tau_t = D_s(u - tau^{3/2} + D_s^2 u). Only constant
curvature is implemented: the paper's equation for a curvature that varies
along the curve is not. Spatial derivatives are Fourier collocation on
[0, 2*pi).

The right-hand side is A u^ + B (tau^{3/2})^ with the fixed multipliers of
``flux_multipliers``; its linear part about the mean torsion is diagonal in
Fourier space. ``torsion_evolve`` integrates that part exactly with ETDRK4,
with steps bounded by the rate rho(tau) = k_max^3 max|c3(tau) - c3(tau_bar)|
+ k_max max|c1(tau) - c1(tau_bar)| of the remainder and by a step-doubling
estimate of the local error. Each step goes to the furthest output time
within that bound, and the outputs inside it come from one stacked pass
from its start (see ``evolve.py``), so the evolved fields arrive as one
stack (F, n) of samples, which ``l2_norm`` measures row by row.
``make_torsion_rhs`` is the same right-hand side for explicit integrators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import PositivityError, SetupError
from ..numerics.periodic import irfft, periodic_grid, rfft

TWO_PI = 2.0 * math.pi


@dataclass
class TorsionField:
    """Positive torsion samples on the uniform periodic mesh over [0, 2*pi)."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        n = self.samples.size
        if n < 32 or n % 2 != 0:
            raise SetupError(f"mesh size must be even and at least 32, got {n}")
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
            raise SetupError(f"curvature must be finite and strictly positive, "
                             f"got {self.constant}")


UNIT_CURVATURE = CurvatureProfile(constant=1.0)


def flux_multipliers(kappa: CurvatureProfile, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The rfft multipliers (A, B) of the right-hand side A u^ + B (tau^{3/2})^.

    A = ik (kappa - k^2 / kappa) and B = -ik / kappa, both zero at the
    Nyquist mode (no odd derivative of it lives on the grid).
    """
    k = np.fft.rfftfreq(n, d=1.0 / n)
    ik = 1j * k
    if n % 2 == 0:
        ik[-1] = 0.0
    kap = kappa.constant
    return ik * (kap - k * k / kap), -ik / kap


def spectral_flux(mult_u: np.ndarray, mult_p: np.ndarray):
    """Closure mapping positive torsion samples, one field (n,) or a stack
    of them (..., n), to the rfft of the right-hand side, ``mult_u`` u^ +
    ``mult_p`` (tau^{3/2})^: one real FFT of the pair (u, tau^{3/2}),
    stacked as (2, ..., n)."""

    def flux(tau):
        root = np.sqrt(tau)
        pair = np.empty((2,) + tau.shape)
        np.divide(1.0, root, out=pair[0])
        np.multiply(tau, root, out=pair[1])
        spec = rfft(pair)
        return mult_u * spec[0] + mult_p * spec[1]

    return flux


def make_torsion_rhs(kappa: CurvatureProfile, n: int):
    """Fast closure computing the torsion evolution right-hand side on arrays.

    In Fourier space the right-hand side is A u^ + B (tau^{3/2})^ with the
    fixed multipliers of ``flux_multipliers``. So one call costs one real FFT
    of the stacked pair (u, tau^{3/2}) and one inverse FFT.

    Nonpositive trial states return NaN so the adaptive integrator retries
    with a smaller step instead of silently evaluating fractional powers of
    negative torsion.
    """
    flux = spectral_flux(*flux_multipliers(kappa, n))

    def rhs(t, tau):
        if np.min(tau) <= 0.0:
            return np.full(n, np.nan)
        return irfft(flux(tau), n)

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


def l2_norm(samples: np.ndarray) -> float | np.ndarray:
    """L2 norm on [0, 2*pi] by the periodic trapezoid rule, of one field
    (n,) or of each row of a stack (F, n)."""
    samples = np.asarray(samples, dtype=float)
    h = TWO_PI / samples.shape[-1]
    norm = np.sqrt(h * np.sum(samples * samples, axis=-1))
    return float(norm) if norm.ndim == 0 else norm
