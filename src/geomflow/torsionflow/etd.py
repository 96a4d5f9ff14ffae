"""ETDRK4 steps of the constant-curvature torsion flow.

In Fourier space the flow is v_t = A u^ + B p^ with u = tau^{-1/2},
p = tau^{3/2} and the multipliers (A, B) of ``flux_multipliers``. About the
mean tau_bar it splits into the diagonal dispersion

    L = -tau_bar^{-3/2} / 2 * A + (3/2) sqrt(tau_bar) * B
      = -ik (kappa tau_bar^{-3/2} / 2 + (3/2) sqrt(tau_bar) / kappa
             - k^2 tau_bar^{-3/2} / (2 kappa)),

zero at k = 0 and at the Nyquist mode, and the remainder
N(v) = A u^ + B p^ - L v. The fourth-order exponential time differencing
scheme of Cox & Matthews (J. Comput. Phys. 176, 2002) integrates L exactly,
so its step is limited only by the remainder. Its phi-function coefficients
are taken as contour means around each h L (Kassam & Trefethen, SIAM J.
Sci. Comput. 26, 2005) over the full circle: L is imaginary, so the
half-circle real-part shortcut of real spectra does not apply.

The mode k = 0 has L = 0 and N = 0, so the mean of tau is conserved to
roundoff and a constant tau is a fixed point. The step sizes are chosen in
``evolve.py``.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import PositivityError
from .core import CurvatureProfile, flux_multipliers, spectral_flux

CONTOUR_POINTS = 32
_CONTOUR = np.exp(2j * math.pi * (np.arange(CONTOUR_POINTS) + 0.5) / CONTOUR_POINTS)
# Steps that agree to 12 digits share their coefficients: equal intervals
# from ``linspace`` differ in their last bits.
_STEP_DIGITS = 12
_CACHED_STEPS = 8


def _coefficients(L: np.ndarray, h: float):
    """exp(hL), exp(hL/2) and the weights Q, f1, 2 f2, f3 of one step h."""
    hL = h * L
    z = hL[:, None] + _CONTOUR
    ez = np.exp(z)
    z3 = z ** 3
    q = h * np.mean((np.exp(0.5 * z) - 1.0) / z, axis=1)
    f1 = h * np.mean((-4.0 - z + ez * (4.0 - 3.0 * z + z * z)) / z3, axis=1)
    f2 = h * np.mean((2.0 + z + ez * (z - 2.0)) / z3, axis=1)
    f3 = h * np.mean((-4.0 - 3.0 * z - z * z + ez * (4.0 - z)) / z3, axis=1)
    return np.exp(hL), np.exp(0.5 * hL), q, f1, 2.0 * f2, f3


def _positive(tau: np.ndarray, t: float) -> np.ndarray:
    low = tau.min()
    if not low > 0.0:  # also catches NaN
        raise PositivityError(f"torsion positivity lost at t={t:.6g} (minimum {low:.3g})")
    return tau


class Etdrk4:
    """ETDRK4 steps about the mean ``tau_bar`` on an ``n``-point mesh.

    A state is the pair (tau, v) of samples and their rfft. A stage that goes
    nonpositive or non-finite raises ``PositivityError`` with its time.
    """

    def __init__(self, kappa: CurvatureProfile, n: int, tau_bar: float):
        mult_u, mult_p = flux_multipliers(kappa, n)
        self.n = n
        self.L = (-0.5 * tau_bar ** -1.5) * mult_u + (1.5 * math.sqrt(tau_bar)) * mult_p
        self.flux = spectral_flux(mult_u, mult_p)
        self._coef: dict[float, tuple] = {}

    def _weights(self, h: float) -> tuple:
        key = float(f"{h:.{_STEP_DIGITS}e}")
        coef = self._coef.get(key)
        if coef is None:
            if len(self._coef) >= _CACHED_STEPS:
                self._coef.clear()
            coef = self._coef[key] = _coefficients(self.L, h)
        return coef

    def step(self, tau: np.ndarray, v: np.ndarray, t: float, h: float):
        """The state one step h after (tau, v) at time t."""
        E, E2, Q, f1, f2x2, f3 = self._weights(h)
        L, flux, n, irfft = self.L, self.flux, self.n, np.fft.irfft
        Nv = flux(tau) - L * v
        E2v = E2 * v
        a = E2v + Q * Nv
        Na = flux(_positive(irfft(a, n), t + 0.5 * h)) - L * a
        b = E2v + Q * Na
        Nb = flux(_positive(irfft(b, n), t + 0.5 * h)) - L * b
        c = E2 * a + Q * (2.0 * Nb - Nv)
        Nc = flux(_positive(irfft(c, n), t + h)) - L * c
        v = E * v + f1 * Nv + f2x2 * (Na + Nb) + f3 * Nc
        return _positive(irfft(v, n), t + h), v
