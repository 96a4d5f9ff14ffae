"""Spectral machinery for smooth periodic grid functions on [0, 2*pi).

Grids are uniform with the right endpoint excluded: s_j = period * j / n.

``rfft`` and ``irfft`` are the last-axis real transforms of the spectral
steppers. They call numpy's pocketfft gufuncs, the kernels under
``np.fft.rfft`` and ``np.fft.irfft``, with the factors that those wrappers
pass (as floats, the type of the gufunc loops, so no call casts an int), so
their results are the same bits; an output they allocate is laid
out as the wrapper's (``empty_like``). The gufuncs' core axis is the last
one by default, so no ``axes`` argument is passed. At n = 128 a call takes
under half the wrapper's time, whose argument handling costs more than the
transform.
"""

from __future__ import annotations

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft


def rfft(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.fft.rfft(x)`` over the last axis of the real array ``x`` (..., n):
    the (..., n // 2 + 1) spectrum, written into ``out`` when it is given."""
    n = x.shape[-1]
    if out is None:
        out = np.empty_like(x, shape=x.shape[:-1] + (n // 2 + 1,), dtype=complex)
    kernel = _pocketfft.rfft_n_odd if n % 2 else _pocketfft.rfft_n_even
    return kernel(x, 1.0, out=out)


def irfft(a: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """``np.fft.irfft(a, n)`` over the last axis of the spectrum ``a``: the
    (..., n) real samples, written into ``out`` when it is given."""
    if out is None:
        out = np.empty_like(a, shape=a.shape[:-1] + (n,), dtype=float)
    return _pocketfft.irfft(a, 1.0 / n, out=out)


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
    spec = rfft(y - mean)
    k = np.fft.rfftfreq(n, d=1.0 / n) * (2.0 * np.pi / period)
    with np.errstate(divide="ignore", invalid="ignore"):
        prim = np.where(k == 0.0, 0.0, spec / np.where(k == 0.0, 1.0, 1j * k))
    if n % 2 == 0:
        prim[-1] = 0.0  # Nyquist mode has no odd antiderivative on the grid
    osc = irfft(prim, n)
    return mean, osc - osc[0]


def trig_interpolant(samples: np.ndarray, period: float = 2.0 * np.pi):
    """The trigonometric interpolant of periodic samples, as a function of s.

    ``samples`` has shape (n,) or (n, d); an evaluation at m points returns
    (m,) or (m, d), and the d columns share its mode matrix. The spectrum and
    mode weights are taken once; each evaluation costs O(n) per point via the
    explicit mode sum. Exact for band-limited data. The Nyquist mode (even n)
    is treated as a pure cosine.
    """
    y = np.asarray(samples, dtype=float)
    n = y.shape[0]
    spec = rfft(y.T) / n
    k = np.arange(spec.shape[-1]) * (2.0 * np.pi / period)
    weights = np.full(k.size, 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    coef = (weights * spec).T

    def interp(s):
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        vals = (np.exp(1j * np.outer(s_arr, k)) @ coef).real
        return vals[0] if np.ndim(s) == 0 else vals

    return interp


NEWTON_ITERS = 4  # Newton steps that polish each seeded inversion


def invert_monotone(sample_x: np.ndarray, sample_y: np.ndarray, targets: np.ndarray,
                    fwd) -> np.ndarray:
    """Solve fwd(y) = x for each target x.

    ``sample_x``/``sample_y`` are strictly increasing samples of the map,
    interpolated linearly for the seed; ``fwd(y)`` returns the map's values
    and derivatives at y (a spectral representation, exact for band-limited
    data). ``NEWTON_ITERS`` Newton steps, each kept inside the sampled range,
    polish the seed.
    """
    y = np.interp(targets, sample_x, sample_y)
    lo, hi = sample_y[0], sample_y[-1]
    for _ in range(NEWTON_ITERS):
        value, slope = fwd(y)
        y = y - (value - targets) / slope
        y = np.clip(y, lo, hi)
    return y
