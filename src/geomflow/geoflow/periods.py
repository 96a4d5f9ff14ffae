"""Period functions of loop level sets.

The period of the loop labeled by beta is

    P(beta) = integral from -t1 to t0 of 2 dt / sqrt(R(t)),
    R(t) = 1 - (beta^2/(a+1)) (a e^{2t} + e^{-2at}),

where t0 > 0 and t1 > 0 are the simple roots of R(t) and R(-t): the times to
flow from the reference tangent to the equator with and against the flow.
Closed elliptic-integral forms exist for a = 1 and a = 1/2 and both are
implemented; the a = 1/2 endpoint times involve cube roots of a negative
radicand and are evaluated through the real trigonometric resolution of the
underlying cubic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import BracketError, SetupError
from ..numerics.quadrature import integrate_singular
from ..numerics.roots import find_root
from ..numerics.special import elliptic_K
from .group import check_alpha


@dataclass
class PeriodRecord:
    alpha: float
    beta: float
    t0: float
    t1: float
    period: float
    source: str

    def __post_init__(self):
        if not (self.t0 > 0.0 and self.t1 > 0.0 and self.period > 0.0):
            raise ValueError("period record requires positive t0, t1, period")


def _radicand(alpha: float, beta: float):
    c = beta * beta / (alpha + 1.0)

    def R(t: float) -> float:
        return 1.0 - c * (alpha * math.exp(2.0 * t) + math.exp(-2.0 * alpha * t))

    return R


def _grow_bracket(f) -> float:
    hi = 1e-3  # first trial endpoint, doubled until f changes sign
    for _ in range(80):
        if f(hi) < 0.0:
            return hi
        hi *= 2.0
    raise BracketError("endpoint-time bracketing failed (degenerate level set, beta ~ 1?)")


def endpoint_times(alpha: float, beta: float) -> tuple[float, float]:
    """Roots t0, t1 > 0 of the period radicand, by geometric bracket growth."""
    R = _radicand(alpha, beta)
    t0 = find_root(R, (0.0, _grow_bracket(R)), 1e-14)
    Rm = lambda t: R(-t)
    t1 = find_root(Rm, (0.0, _grow_bracket(Rm)), 1e-14)
    return t0, t1


def orbit_terms(alpha: float, c, t0, t1, t: np.ndarray):
    """(e^{2t}, e^{-2at}, R(t)) at the period's times t of the loop with
    c = beta^2/(a+1) and root times t0, t1; a c e^{2t} and c e^{-2at} are
    x^2 and y^2 there. R is anchored at the nearer root s, R(t) = R(t) - R(s)
    written with expm1, so no catastrophic cancellation occurs near the
    endpoints, and held at 1e-300 where rounding leaves it nonpositive."""
    ex, ey = np.exp(2.0 * t), np.exp(-2.0 * alpha * t)
    s = np.where(t >= 0.5 * (t0 - t1), t0, -t1)
    r = c * (alpha * ex * np.expm1(2.0 * (s - t)) + ey * np.expm1(-2.0 * alpha * (s - t)))
    return ex, ey, np.where(r > 0.0, r, 1e-300)


def period_numeric(alpha: float, beta: float) -> PeriodRecord:
    """Period by de-singularized quadrature of the defining integral, to the
    quadrature's ``QUAD_TOL``."""
    check_alpha(alpha, 0.0, 1.0, open_lo=True)
    if not 0.0 < beta < 1.0:
        raise SetupError(f"beta={beta} outside (0, 1)")
    t0, t1 = endpoint_times(alpha, beta)
    c = beta * beta / (alpha + 1.0)

    def integrand(t: np.ndarray) -> np.ndarray:
        return 2.0 / np.sqrt(orbit_terms(alpha, c, t0, t1, t)[2])

    period = integrate_singular(integrand, -t1, t0)
    return PeriodRecord(alpha=alpha, beta=beta, t0=t0, t1=t1, period=period, source="numeric")


def orbit_times(alpha: float, beta: float) -> tuple[float, float]:
    """The root times t0, t1: closed forms at a = 1 and 1/2, ``endpoint_times``
    otherwise."""
    if alpha == 1.0:
        # a e^{2t} + e^{-2t} = 2/beta^2 with a = 1: cosh(2 t0) = 1/beta^2
        t0 = 0.5 * math.acosh(1.0 / (beta * beta))
        return t0, t0
    if alpha == 0.5:
        # Endpoint times via the real trigonometric form of the cubic roots;
        # the nominal radicand beta^6 - 1 is negative for beta < 1, so the cube
        # roots live on the unit circle and their sum is 2 cos(angle/3).
        b3 = beta ** 3
        t0 = math.log(2.0 * math.cos(math.acos(-b3) / 3.0) / beta)
        t1 = math.log((1.0 + 2.0 * math.cos(2.0 * math.asin(b3) / 3.0)) / (2.0 * beta * beta))
        return t0, t1
    return endpoint_times(alpha, beta)


def _closed_form_sol(beta: float) -> PeriodRecord:
    m = (1.0 - beta * beta) / (1.0 + beta * beta)
    period = 4.0 / math.sqrt(1.0 + beta * beta) * elliptic_K(m)
    t0, t1 = orbit_times(1.0, beta)
    return PeriodRecord(alpha=1.0, beta=beta, t0=t0, t1=t1, period=period,
                        source="closed_form_sol")


def _closed_form_half(beta: float) -> PeriodRecord:
    t0, t1 = orbit_times(0.5, beta)
    denom = math.exp(t0 - t1) + 2.0 * math.exp(t1)
    m = 2.0 * (math.exp(t1) - math.exp(-t0)) / denom
    period = 4.0 * math.sqrt(3.0) / (beta * math.sqrt(denom)) * elliptic_K(m)
    return PeriodRecord(alpha=0.5, beta=beta, t0=t0, t1=t1, period=period,
                        source="closed_form_half")


def period_closed_form(alpha: float, beta: float) -> PeriodRecord:
    """Closed-form period; only a = 1 (Sol) and a = 1/2 admit one."""
    if not 0.0 < beta < 1.0:
        raise SetupError(f"beta={beta} outside (0, 1)")
    if alpha == 1.0:
        return _closed_form_sol(beta)
    if alpha == 0.5:
        return _closed_form_half(beta)
    raise ValueError(f"no closed-form period for alpha={alpha} (only 1 and 1/2)")


def period(alpha: float, beta: float) -> PeriodRecord:
    """Closed form when available, numeric quadrature otherwise."""
    if alpha in (1.0, 0.5):
        return period_closed_form(alpha, beta)
    return period_numeric(alpha, beta)
