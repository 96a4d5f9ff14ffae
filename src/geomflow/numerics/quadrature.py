"""Quadrature for integrands with inverse-square-root behavior at both
endpoints: a sine substitution removes the singularities, and a composite
Gauss-Legendre rule integrates what remains.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..errors import QuadratureError

QUAD_TOL = 1e-10  # relative agreement of two successive resolutions that ends the doubling

# Nodes and weights of the 32-point Gauss-Legendre rule on [-1, 1], the bits of
# ``numpy.polynomial.legendre.leggauss(32)``: importing numpy.polynomial costs a
# process about 5 ms and 1.75 MB, and nothing else here needs it.
_GAUSS32_NODES = np.array([
    -0.9972638618494816, -0.9856115115452684, -0.9647622555875064, -0.9349060759377397,
    -0.8963211557660521, -0.84936761373257, -0.7944837959679424, -0.7321821187402897,
    -0.6630442669302152, -0.5877157572407623, -0.5068999089322294, -0.42135127613063533,
    -0.33186860228212767, -0.23928736225213706, -0.1444719615827965, -0.048307665687738324,
    0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767,
    0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
    0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521,
    0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816,
])
_GAUSS32_WEIGHTS = np.array([
    0.007018610009470506, 0.016274394730905743, 0.025392065309262024, 0.034273862913021765,
    0.042835898022226836, 0.05099805926237609, 0.058684093478535565, 0.06582222277636168,
    0.07234579410884834, 0.07819389578707023, 0.08331192422694671, 0.08765209300440378,
    0.09117387869576378, 0.09384439908080451, 0.09563872007927471, 0.09654008851472766,
    0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378,
    0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
    0.06582222277636168, 0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
    0.034273862913021765, 0.025392065309262024, 0.016274394730905743, 0.007018610009470506,
])


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

    prev = None
    panels = 1
    while panels <= 1 << 13:
        edges = np.linspace(-0.5 * math.pi, 0.5 * math.pi, panels + 1)
        halfw = 0.5 * (edges[1] - edges[0])
        centers = 0.5 * (edges[:-1] + edges[1:])
        u = (centers[:, None] + halfw * _GAUSS32_NODES[None, :]).ravel()
        t = np.clip(mid + half * np.sin(u), a, b)
        vals = np.asarray(f(t), dtype=float) * half * np.cos(u)
        if not np.all(np.isfinite(vals)):
            raise QuadratureError("integrand is not integrable after the sine substitution "
                                  "(non-finite values at interior nodes)")
        cur = halfw * float(np.sum(_GAUSS32_WEIGHTS[None, :] * vals.reshape(panels, 32)))
        if prev is not None and abs(cur - prev) <= QUAD_TOL * max(1.0, abs(cur)):
            return cur
        prev = cur
        panels *= 2
    raise QuadratureError(f"no convergence to tol={QUAD_TOL} at {panels // 2} panels")
