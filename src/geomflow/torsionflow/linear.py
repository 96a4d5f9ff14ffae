"""Exact solver for the helix linearization w_t + 2 w_s + (1/2) w_sss = 0.

On the periodic mesh the equation diagonalizes: mode e^{ins} picks up the
unimodular multiplier exp(i (n^3/2 - 2n) t), so the evolution is exactly
norm-preserving and commutes with spatial translations.
"""

from __future__ import annotations

import numpy as np

from ..numerics.periodic import irfft, rfft


def linearized_solution(w0: np.ndarray, t: float) -> np.ndarray:
    """Evolve periodic initial data w0 to time t via the Fourier multiplier.

    The data are real, so only modes 0..n/2 are transformed; the multiplier
    of mode -k is the conjugate of that of mode k."""
    w0 = np.asarray(w0, dtype=float)
    n = w0.size
    if n < 8:
        raise ValueError("grid too small")
    freqs = np.arange(n // 2 + 1, dtype=float)
    mult = np.exp(1j * (freqs ** 3 / 2.0 - 2.0 * freqs) * t)
    if n % 2 == 0:
        # the grid carries only the cosine component of the Nyquist mode and
        # both terms of the equation are odd derivatives, so that mode is frozen
        mult[n // 2] = 1.0
    return irfft(rfft(w0) * mult, n)
