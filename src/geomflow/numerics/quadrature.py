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
QUAD_BLOCK = 1 << 16  # node values per integrand in one evaluation of a block of rows

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


def integrate_singular(f: Callable[..., np.ndarray], a, b, *params) -> float | np.ndarray:
    """Integral of ``f`` over (a, b) where f blows up like 1/sqrt((t-a)(b-t)).

    ``a`` and ``b`` are floats, or equal-length 1-D arrays of m rows, row i
    integrated over (a[i], b[i]). ``f`` maps a (rows, nodes) array of nodes
    to their values, of that shape for one integrand or (p, rows, nodes)
    for p integrands sharing the nodes; ``params`` are per-row arrays
    aligned with ``a``, and ``f`` receives each of them as a column of the
    rows it evaluates. It is called once per block of rows at each
    resolution; a block holds at most ``QUAD_BLOCK`` nodes (or one row).
    The result is a float (or (p,) array) for float bounds and an (m,) (or
    (p, m)) array for rows.

    The substitution t = mid + half*sin(u) maps (a, b) to (-pi/2, pi/2) and
    contributes a factor half*cos(u) that exactly cancels simple
    inverse-square-root endpoint singularities, leaving a smooth integrand.
    That integrand is evaluated with a composite 32-point Gauss-Legendre rule
    (nodes never touch the endpoints), doubling the panel count until two
    successive resolutions agree to ``QUAD_TOL`` in every integrand of a
    row; the row keeps the values of that resolution, which are therefore
    invariant under a further doubling, up to ``QUAD_TOL``. Rows that have
    converged are not evaluated again.
    """
    scalar = np.ndim(a) == 0
    a, b = np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    if not np.all(b > a):
        raise ValueError("integration interval must satisfy a < b")
    # the per-row columns of the rows still active, compacted as rows converge
    cols = [a, b, 0.5 * (a + b), 0.5 * (b - a),
            *(np.atleast_1d(np.asarray(p, dtype=float)) for p in params)]
    active = np.arange(a.size)
    result = prev = None
    panels = 1
    while panels <= 1 << 13:
        edges = np.linspace(-0.5 * math.pi, 0.5 * math.pi, panels + 1)
        halfw = 0.5 * (edges[1] - edges[0])
        centers = 0.5 * (edges[:-1] + edges[1:])
        u = (centers[:, None] + halfw * _GAUSS32_NODES[None, :]).ravel()
        sin_u, cos_u = np.sin(u), np.cos(u)
        step = max(1, QUAD_BLOCK // u.size)
        parts = []
        for start in range(0, active.size, step):
            lo, hi, mid, half, *p = (col[start:start + step, None] for col in cols)
            t = np.clip(mid + half * sin_u, lo, hi)
            vals = np.asarray(f(t, *p), dtype=float) * half * cos_u
            if not np.all(np.isfinite(vals)):
                raise QuadratureError("integrand is not integrable after the sine substitution "
                                      "(non-finite values at interior nodes)")
            weighted = _GAUSS32_WEIGHTS * vals.reshape(vals.shape[:-1] + (panels, 32))
            parts.append(halfw * np.sum(weighted.reshape(vals.shape), axis=-1))
        cur = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
        if result is None:
            result = np.empty(cur.shape[:-1] + a.shape)
        else:
            ok = np.abs(cur - prev) <= QUAD_TOL * np.maximum(1.0, np.abs(cur))
            ok = ok.reshape(-1, active.size).all(axis=0)
            result[..., active[ok]] = cur[..., ok]
            if ok.all():
                if not scalar:
                    return result
                return float(result[0]) if result.ndim == 1 else result[..., 0]
            if ok.any():
                cur, active = cur[..., ~ok], active[~ok]
                cols = [col[~ok] for col in cols]
        prev = cur
        panels *= 2
    raise QuadratureError(f"no convergence to tol={QUAD_TOL} at {panels // 2} panels "
                          f"in {active.size} row(s)")
