"""Bracketed scalar root finding."""

from __future__ import annotations

import sys
from typing import Callable

from ..errors import BracketError

_EPS = sys.float_info.epsilon


def find_root(f: Callable[[float], float], bracket: tuple[float, float], tol: float) -> float:
    """Root of ``f`` inside ``bracket``, to within ``tol`` + 4 eps |root|.

    Brent's method (Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 4), in the form of scipy's ``brentq``: each step
    is an inverse quadratic or secant step from the best point so far, or a
    bisection of the bracket when that step would leave the bracket or shrink
    too slowly; a step is never shorter than half the tolerance, and the sign
    change stays bracketed throughout. The search stops once the bracket is
    narrower than ``tol`` + 4 eps |x|, so a root whose float spacing exceeds
    ``tol`` ends it too.
    """
    pre, cur = float(bracket[0]), float(bracket[1])
    if not cur > pre:
        raise ValueError("bracket must satisfy a < b")
    f_pre, f_cur = f(pre), f(cur)
    if f_pre == 0.0:
        return pre
    if f_cur == 0.0:
        return cur
    # signs are compared, never multiplied: a product of two tiny values
    # underflows to zero and would pass for a sign change
    if (f_pre > 0.0) == (f_cur > 0.0):
        raise BracketError(f"no sign change on [{pre}, {cur}]: f(a)={f_pre:.3g}, f(b)={f_cur:.3g}")

    # cur is the best point, blk the other end of the bracket around the
    # root, pre the previous best point; step_pre is the step before last
    blk = f_blk = step = step_pre = 0.0
    for _ in range(500):
        if (f_pre > 0.0) != (f_cur > 0.0):
            blk, f_blk = pre, f_pre
            step = step_pre = cur - pre
        if abs(f_blk) < abs(f_cur):
            pre, cur, blk = cur, blk, cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = 0.5 * (tol + 4.0 * _EPS * abs(cur))
        half = 0.5 * (blk - cur)
        if f_cur == 0.0 or abs(half) < delta:
            return cur
        if abs(step_pre) > delta and abs(f_cur) < abs(f_pre):
            if pre == blk:  # secant
                trial = -f_cur * (cur - pre) / (f_cur - f_pre)
            else:  # inverse quadratic interpolation
                d_pre = (f_pre - f_cur) / (pre - cur)
                d_blk = (f_blk - f_cur) / (blk - cur)
                trial = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (d_blk * d_pre * (f_blk - f_pre))
            if 2.0 * abs(trial) < min(abs(step_pre), 3.0 * abs(half) - delta):
                step_pre, step = step, trial
            else:
                step_pre = step = half
        else:
            step_pre = step = half
        pre, f_pre = cur, f_cur
        cur += step if abs(step) > delta else (delta if half > 0.0 else -delta)
        f_cur = f(cur)
    return cur
