"""Quadrature for integrands with inverse-square-root behavior at both
endpoints: a sine substitution removes the singularities, and a composite
Gauss-Legendre rule integrates what remains.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from ..errors import QuadratureError

QUAD_TOL = 1e-10  # relative agreement of two successive resolutions that ends the doubling


@lru_cache(maxsize=1)
def _gauss32() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 32-point Gauss-Legendre rule, built on first
    use: importing numpy.polynomial costs a process about 2 MB and 5 ms, and
    only this quadrature needs it."""
    return np.polynomial.legendre.leggauss(32)


def integrate_singular(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> float:
    """Integral of ``f`` over (a, b) where f blows up like 1/sqrt((t-a)(b-t)).

    ``f`` maps an array of nodes to the array of its values; it is called
    once per resolution.

    The substitution t = mid + half*sin(u) maps (a, b) to (-pi/2, pi/2) and
    contributes a factor half*cos(u) that exactly cancels simple
    inverse-square-root endpoint singularities, leaving a smooth integrand.
    That integrand is evaluated with a composite 32-point Gauss-Legendre rule
    (nodes never touch the endpoints), doubling the panel count until two
    successive resolutions agree to ``QUAD_TOL``; the result is therefore
    invariant under a further doubling of the resolution, up to ``QUAD_TOL``.
    """
    if not b > a:
        raise ValueError("integration interval must satisfy a < b")
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x32, w32 = _gauss32()

    prev = None
    panels = 1
    while panels <= 1 << 13:
        edges = np.linspace(-0.5 * math.pi, 0.5 * math.pi, panels + 1)
        halfw = 0.5 * (edges[1] - edges[0])
        centers = 0.5 * (edges[:-1] + edges[1:])
        u = (centers[:, None] + halfw * x32[None, :]).ravel()
        t = np.clip(mid + half * np.sin(u), a, b)
        vals = np.asarray(f(t), dtype=float) * half * np.cos(u)
        if not np.all(np.isfinite(vals)):
            raise QuadratureError("integrand is not integrable after the sine substitution "
                                  "(non-finite values at interior nodes)")
        cur = halfw * float(np.sum(w32[None, :] * vals.reshape(panels, 32)))
        if prev is not None and abs(cur - prev) <= QUAD_TOL * max(1.0, abs(cur)):
            return cur
        prev = cur
        panels *= 2
    raise QuadratureError(f"no convergence to tol={QUAD_TOL} at {panels // 2} panels")
