"""Periodic cubic spline interpolation.

A small classical construction kept local so the package depends on nothing
beyond numpy.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .periodic import cyclic_shift


class PeriodicCubicSpline:
    """C2 cubic spline through (j*h, values[j]) with period n*h, uniform knots.

    ``values`` has shape (n,) or (n, d); the d columns share the knots and
    are fitted by one transform along axis 0, with the same arithmetic per
    column as a fit of that column alone.
    """

    def __init__(self, values: np.ndarray, period: float):
        y = np.asarray(values, dtype=float)
        n = y.shape[0]
        if n < 4:
            raise ValueError("need at least 4 points for a periodic cubic spline")
        self.n = n
        self.period = float(period)
        self.h = self.period / n
        self.y = y
        # Second derivatives m_j from the C2 conditions:
        # m_{j-1} + 4 m_j + m_{j+1} = 6 (y_{j-1} - 2 y_j + y_{j+1}) / h^2.
        # The system matrix is circulant, so it diagonalizes under the DFT.
        rhs = 6.0 * (cyclic_shift(y, -1) - 2.0 * y + cyclic_shift(y, 1)) / (self.h * self.h)
        eig = 4.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(n // 2 + 1) / n)
        eig = eig.reshape((-1,) + (1,) * (y.ndim - 1))
        self.m = np.fft.irfft(np.fft.rfft(rhs, axis=0) / eig, n=n, axis=0)

    def __call__(self, s) -> np.ndarray:
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        u = np.mod(s_arr, self.period) / self.h
        j = np.clip(u.astype(int), 0, self.n - 1)
        t = (u - j).reshape(u.shape + (1,) * (self.y.ndim - 1))
        jp = (j + 1) % self.n
        h2 = self.h * self.h
        y0, y1 = self.y[j], self.y[jp]
        m0, m1 = self.m[j], self.m[jp]
        out = ((1 - t) * y0 + t * y1
               + h2 / 6.0 * ((1 - t) ** 3 - (1 - t)) * m0
               + h2 / 6.0 * (t ** 3 - t) * m1)
        return out[0] if np.ndim(s) == 0 else out

    def refined(self) -> np.ndarray:
        """Values at the ``REFINE`` equally spaced points of every knot
        interval, (j + k/REFINE) * h for j = 0 .. n-1 and k = 0 .. REFINE-1,
        in that order.

        The fractional positions are the same in every interval, so their
        weights are computed once per h and broadcast over the intervals,
        position-major so that the inner loops run over the knots. When
        h = 1 the positions are exact and the result equals calling the
        spline there, bit for bit.
        """
        w = _interval_weights(self.h)
        w = w.reshape(w.shape + (1,) * self.y.ndim)
        y1, m1 = cyclic_shift(self.y, 1), cyclic_shift(self.m, 1)
        out = w[0] * self.y + w[1] * y1 + w[2] * self.m + w[3] * m1
        return np.swapaxes(out, 0, 1).reshape((self.n * REFINE,) + self.y.shape[1:])


REFINE = 4  # points per knot interval of PeriodicCubicSpline.refined


@lru_cache(maxsize=4)
def _interval_weights(h: float) -> np.ndarray:
    """Weights of y_j, y_{j+1}, m_j and m_{j+1} at the fractions k/REFINE of
    an interval of width h, shape (4, REFINE), read-only; the expressions are
    those of ``PeriodicCubicSpline.__call__``."""
    t = np.arange(REFINE) / REFINE
    h2 = h * h
    w = np.array([1 - t, t,
                  h2 / 6.0 * ((1 - t) ** 3 - (1 - t)),
                  h2 / 6.0 * (t ** 3 - t)])
    w.setflags(write=False)
    return w

