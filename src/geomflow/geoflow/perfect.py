"""Checks on perfect vectors: partner endpoints, reciprocity, holonomy.

A perfect vector has length equal to the period of its loop level set. Its
geodesic makes exactly one circuit of the loop, so both endpoints sit in the
same horizontal plane, partner vectors (x, y, +-z) share an endpoint, the
endpoint is collinear with (a*y, x, 0), and the holonomy sqrt(|a1^a * b1|)
does not depend on where on the loop the circuit starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geodesic import geodesic_endpoints
from .group import check_alpha
from .periods import period
from .structure import TIGHT, flow_tangent, v_beta


def _holonomy(endpoint: np.ndarray, alpha: float) -> float:
    return math.sqrt(abs(endpoint[0]) ** alpha * abs(endpoint[1]))


@dataclass
class PerfectVectorReport:
    alpha: float
    beta: float
    period: float
    endpoint_plus: np.ndarray
    endpoint_minus: np.ndarray
    partner_mismatch: float
    endpoint_z: float
    collinearity_defect: float
    holonomy_values: tuple[float, float]
    holonomy_mismatch: float


def perfect_vector_checks(alpha: float, beta: float) -> PerfectVectorReport:
    """Run the full slate of perfect-vector identities for the loop level set
    of ``beta``.

    The partner endpoints come from geodesics of length P at ``TIGHT``; the
    holonomy is compared between circuits started at V_beta and at a point
    reached by flowing 30% of the way around the loop. The three geodesics
    are integrated as one batch.
    """
    check_alpha(alpha, 0.0, 1.0, open_lo=True)
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta={beta} outside (0, 1)")

    P = period(alpha, beta).period
    v_plus = v_beta(beta, alpha)
    v_minus = v_plus * np.array([1.0, 1.0, -1.0])

    # holonomy from a second starting point on the same loop
    shifted = flow_tangent(v_plus, alpha, 0.3 * P, n_samples=3).end
    shifted = shifted / np.linalg.norm(shifted)
    (end_plus, end_minus, end_shifted), _ = geodesic_endpoints(
        np.array([v_plus, v_minus, shifted]), alpha, P, TIGHT)
    partner_mismatch = float(np.linalg.norm(end_plus - end_minus))
    endpoint_z = max(abs(end_plus[2]), abs(end_minus[2]))

    # reciprocity direction (a*y, x, 0) built from the initial tangent
    recip = np.array([alpha * v_plus[1], v_plus[0]])
    e2d = end_plus[:2]
    collinearity = abs(e2d[0] * recip[1] - e2d[1] * recip[0]) / (
        np.linalg.norm(e2d) * np.linalg.norm(recip))

    h1 = _holonomy(end_plus, alpha)
    h2 = _holonomy(end_shifted, alpha)

    return PerfectVectorReport(
        alpha=alpha, beta=beta, period=P,
        endpoint_plus=end_plus, endpoint_minus=end_minus,
        partner_mismatch=partner_mismatch,
        endpoint_z=endpoint_z,
        collinearity_defect=float(collinearity),
        holonomy_values=(h1, h2),
        holonomy_mismatch=abs(h1 - h2),
    )
