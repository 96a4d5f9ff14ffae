"""Spectral machinery for smooth periodic grid functions on [0, 2*pi).

Grids are uniform with the right endpoint excluded: s_j = period * j / n.
"""

from __future__ import annotations

import numpy as np


def periodic_grid(n: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(n) / n


def cyclic_shift(a: np.ndarray, k: int) -> np.ndarray:
    """Rows of ``a`` shifted so that row i holds ``a[(i + k) % n]``.

    The same array as ``np.roll(a, -k, axis=0)``, built by one concatenate:
    on the short arrays of the per-step CSF kernels, np.roll's argument
    handling costs several times the copy.
    """
    k %= a.shape[0]
    return np.concatenate((a[k:], a[:k]))


def periodic_primitive(samples: np.ndarray, period: float = 2.0 * np.pi) -> tuple[float, np.ndarray]:
    """Antiderivative of a periodic grid function, split as mean*s + periodic part.

    Returns ``(mean, osc)`` where the primitive at grid point s_j is
    mean * s_j + osc[j], osc is periodic with osc[0] = 0, and the
    antiderivative of the oscillatory part is computed spectrally (exact for
    band-limited data).
    """
    y = np.asarray(samples, dtype=float)
    n = y.size
    mean = float(np.mean(y))
    spec = np.fft.rfft(y - mean)
    k = np.fft.rfftfreq(n, d=1.0 / n) * (2.0 * np.pi / period)
    with np.errstate(divide="ignore", invalid="ignore"):
        prim = np.where(k == 0.0, 0.0, spec / np.where(k == 0.0, 1.0, 1j * k))
    if n % 2 == 0:
        prim[-1] = 0.0  # Nyquist mode has no odd antiderivative on the grid
    osc = np.fft.irfft(prim, n=n)
    return mean, osc - osc[0]


def trig_interpolant(samples: np.ndarray, period: float = 2.0 * np.pi):
    """The trigonometric interpolant of periodic samples, as a function of s.

    The spectrum and mode weights are taken once; each evaluation costs O(n)
    per point via the explicit mode sum. Exact for band-limited data. The
    Nyquist mode (even n) is treated as a pure cosine.
    """
    y = np.asarray(samples, dtype=float)
    n = y.size
    spec = np.fft.rfft(y) / n
    k = np.arange(spec.size) * (2.0 * np.pi / period)
    weights = np.full(spec.size, 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    coef = weights * spec

    def interp(s):
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        vals = (np.exp(1j * np.outer(s_arr, k)) @ coef).real
        return vals[0] if np.ndim(s) == 0 else vals

    return interp

