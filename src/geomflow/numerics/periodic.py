"""Spectral calculus of smooth periodic grid functions.

Grids are uniform with the right endpoint excluded: s_j = period * j / n,
with period 2 pi unless one is given.

``rfft`` and ``irfft`` are the last-axis real transforms of the spectral
steppers. They call numpy's pocketfft gufuncs, the kernels under
``np.fft.rfft`` and ``np.fft.irfft``, with the factors that those wrappers
pass (as floats, the type of the gufunc loops, so no call casts an int), so
their results are the same bits; an output they allocate is laid
out as the wrapper's (``empty_like``). The gufuncs' core axis is the last
one by default, so no ``axes`` argument is passed. At n = 128 a call takes
under half the wrapper's time, whose argument handling costs more than the
transform.

``wavenumbers`` gives the rfft multipliers of d/ds, and is the one place
that drops the Nyquist mode of an even grid from odd derivatives and
primitives. ``trig_interpolant`` evaluates the trigonometric interpolant at
any s, and ``PeriodicPrimitive`` takes the primitive of samples and, where
they are positive, inverts it.
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


def periodic_grid(n: int, period: float = 2.0 * np.pi) -> np.ndarray:
    return period * np.arange(n) / n


def cyclic_shift(a: np.ndarray, k: int) -> np.ndarray:
    """Rows of ``a`` shifted so that row i holds ``a[(i + k) % n]``.

    The same array as ``np.roll(a, -k, axis=0)``, built by one concatenate:
    on the short arrays of the per-step CSF kernels, np.roll's argument
    handling costs several times the copy.
    """
    k %= a.shape[0]
    return np.concatenate((a[k:], a[:k]))


def wavenumbers(n: int, period: float = 2.0 * np.pi) -> np.ndarray:
    """i k 2 pi / period for k = 0 ... n // 2: the rfft multipliers of d/ds on
    the n-point grid. The Nyquist entry of an even n is 0: the grid carries
    only the cosine of that mode, which has no odd derivative or primitive
    on it."""
    ik = 1j * (2.0 * np.pi / period) * np.arange(n // 2 + 1)
    if n % 2 == 0:
        ik[-1] = 0.0
    return ik


def trig_interpolant(samples: np.ndarray, period: float = 2.0 * np.pi):
    """The trigonometric interpolant of periodic samples, as a function of s.

    ``samples`` has shape (n,) or (n, d); an evaluation at one point returns
    a scalar or (d,), at m points (m,) or (m, d), and the d columns share
    its mode matrix. The spectrum and mode weights are taken once. An
    evaluation builds the mode matrix as the powers of e^{i s 2 pi / period},
    one cumulative product over the modes, and sums it against them: O(n)
    per point, exact for band-limited data. The Nyquist mode (even n) is
    treated as a pure cosine. The sum is numpy's own ``einsum`` loop, not a
    BLAS product, so its bits do not depend on the BLAS thread count.
    """
    y = np.asarray(samples, dtype=float)
    n = y.shape[0]
    spec = rfft(y.T) / n
    weights = np.full(spec.shape[-1], 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    coef = (weights * spec).T
    modes = "...k,k->..." if coef.ndim == 1 else "...k,kd->...d"
    istep = 1j * (2.0 * np.pi / period)

    def interp(s):
        s = np.asarray(s, dtype=float)[..., None]
        powers = np.empty(s.shape[:-1] + coef.shape[:1], dtype=complex)
        powers[..., 0] = 1.0
        powers[..., 1:] = np.exp(istep * s)
        np.cumprod(powers, axis=-1, out=powers)
        return np.einsum(modes, powers, coef).real

    return interp


NEWTON_ITERS = 4  # Newton steps that polish each seeded inversion


class PeriodicPrimitive:
    """F(s) = integral of f from 0 to s, for samples f of a periodic function
    on the n-point grid of [0, period), with its inverse where f is positive.

    F is mean(f) s plus a periodic part whose spectrum is that of f divided
    by ``wavenumbers`` (exact for band-limited f). ``nodes`` holds F at the
    grid, ``total`` F(period) = mean(f) period. A call returns F and f at s,
    from one two-column trigonometric interpolant.
    """

    def __init__(self, f: np.ndarray, period: float = 2.0 * np.pi):
        f = np.asarray(f, dtype=float)
        n = f.size
        self.period = period
        self.mean = mean = float(np.mean(f))
        ik = wavenumbers(n, period)
        spec = np.zeros_like(ik)
        np.divide(rfft(f - mean), ik, out=spec, where=ik != 0.0)
        osc = irfft(spec, n)
        osc -= osc[0]
        self.grid = periodic_grid(n, period)
        self.nodes = mean * self.grid + osc
        self.total = mean * period
        self._columns = trig_interpolant(np.column_stack((osc, f)), period)

    def __call__(self, s):
        """(F(s), f(s)) at a point or an array of points."""
        both = self._columns(s)
        return self.mean * s + both[..., 0], both[..., 1]

    def inverse(self, targets: np.ndarray) -> np.ndarray:
        """The s in [0, period] with F(s) = each target: seeded by linear
        interpolation of the nodes and polished by ``NEWTON_ITERS`` Newton
        steps, each kept inside [0, period]."""
        s = np.interp(targets, np.append(self.nodes, self.total),
                      np.append(self.grid, self.period))
        for _ in range(NEWTON_ITERS):
            value, slope = self(s)
            s = np.clip(s - (value - targets) / slope, 0.0, self.period)
        return s
