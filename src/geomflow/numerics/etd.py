"""Coefficients of the fourth-order exponential time differencing Runge-Kutta
scheme (ETDRK4) of Cox & Matthews (J. Comput. Phys. 176, 2002) for a
diagonal linear part.

The phi-function weights are taken as means over a circle of
``CONTOUR_POINTS`` points around each h L (Kassam & Trefethen, SIAM J. Sci.
Comput. 26, 2005), which avoids the cancellation of their closed forms near
h L = 0. The full circle serves real and imaginary spectra alike; a zero
multiplier gets the classical RK4 weights h/2, h/6, h/3 and h/6.
"""

from __future__ import annotations

import math

import numpy as np

CONTOUR_POINTS = 32
_CONTOUR = np.exp(2j * math.pi * (np.arange(CONTOUR_POINTS) + 0.5) / CONTOUR_POINTS)


def etdrk4_coefficients(L: np.ndarray, h: float):
    """exp(hL), exp(hL/2) and the weights Q, f1, 2 f2, f3 of one step h.

    One step of u' = L u + N(u) from u with these is

        a = E2 u + Q N(u),  b = E2 u + Q N(a),  c = E2 a + Q (2 N(b) - N(u)),
        u + h = E u + f1 N(u) + 2 f2 (N(a) + N(b)) + f3 N(c).
    """
    hL = h * L
    z = hL[:, None] + _CONTOUR
    ez = np.exp(z)
    z3 = z ** 3
    q = h * np.mean((np.exp(0.5 * z) - 1.0) / z, axis=1)
    f1 = h * np.mean((-4.0 - z + ez * (4.0 - 3.0 * z + z * z)) / z3, axis=1)
    f2 = h * np.mean((2.0 + z + ez * (z - 2.0)) / z3, axis=1)
    f3 = h * np.mean((-4.0 - 3.0 * z - z * z + ez * (4.0 - z)) / z3, axis=1)
    return np.exp(hL), np.exp(0.5 * hL), q, f1, 2.0 * f2, f3
