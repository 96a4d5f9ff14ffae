"""Bracketed scalar root finding."""

from __future__ import annotations

from typing import Callable

from ..errors import BracketError


def find_root(f: Callable[[float], float], bracket: tuple[float, float], tol: float = 1e-12) -> float:
    """Root of ``f`` inside ``bracket``, located to bracket width <= ``tol``.

    Secant-accelerated bisection: each iteration proposes the secant point of
    the current bracket and falls back to the midpoint whenever the proposal
    leaves the bracket; a bisection step is forced whenever an iteration fails
    to halve the bracket, so convergence is never slower than bisection.
    """
    a, b = float(bracket[0]), float(bracket[1])
    if not b > a:
        raise ValueError("bracket must satisfy a < b")
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    # signs are compared, never multiplied: a product of two tiny values
    # underflows to zero and would pass for a sign change
    if (fa > 0.0) == (fb > 0.0):
        raise BracketError(f"no sign change on [{a}, {b}]: f(a)={fa:.3g}, f(b)={fb:.3g}")

    for _ in range(500):
        width = b - a
        if width <= tol:
            break
        if fb != fa:
            x = b - fb * (b - a) / (fb - fa)
        else:
            x = 0.5 * (a + b)
        margin = 0.01 * width
        if not (a + margin < x < b - margin):
            x = 0.5 * (a + b)
        fx = f(x)
        if fx == 0.0:
            return x
        if (fa > 0.0) != (fx > 0.0):
            b, fb = x, fx
        else:
            a, fa = x, fx
        if b - a > 0.5 * width:
            m = 0.5 * (a + b)
            fm = f(m)
            if fm == 0.0:
                return m
            if (fa > 0.0) != (fm > 0.0):
                b, fb = m, fm
            else:
                a, fa = m, fm
    return 0.5 * (a + b)
