"""Parameter range and curvature data of the solvable family.

The underlying set is R^3 with the product

    (x, y, z) * (x', y', z') = (x' e^z + x, y' e^{-a z} + y, z' + z)

and left-invariant metric ds^2 = e^{-2z} dx^2 + e^{2az} dy^2 + dz^2, where
``a`` is the interpolation parameter in [-1, 1] (a=1 is Sol, a=0 is H^2 x R,
a=-1 is hyperbolic 3-space). The library integrates in the left-invariant
frame and never multiplies group elements; the product above lives in the
tests, as the law behind the concatenation oracle of the geodesics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import SetupError

_BASIS = ("X", "Y", "Z")


def check_alpha(alpha: float, lo: float = -1.0, hi: float = 1.0, *, open_lo: bool = False) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise SetupError("alpha must be finite")
    if alpha > hi or alpha < lo or (open_lo and alpha == lo):
        lo_br = "(" if open_lo else "["
        raise SetupError(f"alpha={alpha} outside admissible range {lo_br}{lo}, {hi}]")
    return alpha


def scalar_curvature(alpha: float) -> float:
    return 2.0 * alpha - 2.0 - 2.0 * alpha * alpha


@dataclass
class CurvatureData:
    """Connection coefficients, coordinate-plane curvatures, scalar curvature.

    ``connection[(A, B)]`` holds the components of the covariant derivative of
    B along A in the orthonormal frame (X, Y, Z). ``plane_curvatures`` maps
    each coordinate plane to its sectional / intrinsic / extrinsic (Gaussian)
    / mean curvature. ``structure_field_defect`` is the max componentwise
    difference between the structure field and minus the self-covariant
    derivative, evaluated on a grid of unit vectors.
    """

    alpha: float
    scalar: float
    connection: dict = field(default_factory=dict)
    plane_curvatures: dict = field(default_factory=dict)
    structure_field_defect: float = 0.0


def _connection_table(alpha: float) -> dict:
    zero = np.zeros(3)
    X = np.array([1.0, 0.0, 0.0])
    Y = np.array([0.0, 1.0, 0.0])
    Z = np.array([0.0, 0.0, 1.0])
    return {
        ("X", "X"): Z,
        ("X", "Y"): zero.copy(),
        ("X", "Z"): -X,
        ("Y", "X"): zero.copy(),
        ("Y", "Y"): -alpha * Z,
        ("Y", "Z"): alpha * Y,
        ("Z", "X"): zero.copy(),
        ("Z", "Y"): zero.copy(),
        ("Z", "Z"): zero.copy(),
    }


def covariant_self_derivative(v, alpha: float) -> np.ndarray:
    """The self-covariant derivative of the constant frame field with components v."""
    conn = _connection_table(alpha)
    v = np.asarray(v, dtype=float)
    out = np.zeros(3)
    for i, a in enumerate(_BASIS):
        for j, b in enumerate(_BASIS):
            out += v[i] * v[j] * conn[(a, b)]
    return out


def curvature_data(alpha: float) -> CurvatureData:
    alpha = check_alpha(alpha)
    plane = {
        "XY": {"sectional": alpha, "intrinsic": 0.0, "extrinsic": -alpha,
               "mean": (1.0 - alpha) / 2.0},
        "XZ": {"sectional": -1.0, "intrinsic": -1.0, "extrinsic": 0.0, "mean": 0.0},
        "YZ": {"sectional": -alpha * alpha, "intrinsic": -alpha * alpha,
               "extrinsic": 0.0, "mean": 0.0},
    }
    from .structure import structure_field  # local import avoids a cycle

    defect = 0.0
    rng = np.random.default_rng(12345)
    for _ in range(64):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        defect = max(defect, float(np.max(np.abs(
            structure_field(v, alpha) + covariant_self_derivative(v, alpha)))))
    return CurvatureData(
        alpha=alpha,
        scalar=scalar_curvature(alpha),
        connection=_connection_table(alpha),
        plane_curvatures=plane,
        structure_field_defect=defect,
    )
