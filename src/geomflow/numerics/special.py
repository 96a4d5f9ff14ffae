"""Special functions: the complete elliptic integral K.

K takes the *parameter* m (so K(m) = integral of 1/sqrt(1 - m sin^2 t) over
[0, pi/2]), not the modulus k = sqrt(m).
"""

from __future__ import annotations

import math


def elliptic_K(m: float) -> float:
    """Complete elliptic integral of the first kind, parameter convention.

    Computed by the arithmetic-geometric mean iteration: with a0 = 1 and
    b0 = sqrt(1 - m), the common limit M of the AGM recursion gives
    K(m) = pi / (2 M). Quadratic convergence reaches full double precision
    in a handful of iterations for m in [0, 1).
    """
    if not 0.0 <= m < 1.0:
        raise ValueError(f"elliptic_K requires 0 <= m < 1, got {m}")
    a, b = 1.0, math.sqrt(1.0 - m)
    for _ in range(60):
        if abs(a - b) <= 1e-17 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (a + b)

