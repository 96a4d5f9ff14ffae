"""Exact solver for the helix linearization w_t + 2 w_s + (1/2) w_sss = 0.

On the periodic mesh the equation diagonalizes: mode e^{ins} picks up the
unimodular multiplier exp(i (n^3/2 - 2n) t), so the evolution is exactly
norm-preserving and commutes with spatial translations.
"""

from __future__ import annotations

import numpy as np

from ..numerics.periodic import irfft, rfft, wavenumbers


def linearized_solution(w0: np.ndarray, t: float) -> np.ndarray:
    """Evolve periodic initial data w0 to time t via the Fourier multiplier.

    The data are real, so only modes 0..n/2 are transformed; the multiplier
    of mode -k is the conjugate of that of mode k."""
    w0 = np.asarray(w0, dtype=float)
    n = w0.size
    if n < 8:
        raise ValueError("grid too small")
    # both terms of the equation are odd derivatives, so the Nyquist mode,
    # whose wavenumber is 0, is frozen
    k = wavenumbers(n).imag
    mult = np.exp(1j * (k ** 3 / 2.0 - 2.0 * k) * t)
    return irfft(rfft(w0) * mult, n)
