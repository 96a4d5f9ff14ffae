"""Curvature-preserving flow on positive space curves: torsion evolution,
stationary profiles, linearized solver, transformation chain, and
Frenet-Serret reconstruction.
"""

from .core import (CurvatureProfile, TorsionField, UNIT_CURVATURE, l2_norm,
                   make_torsion_rhs, torsion_invariants, torsion_rhs)
from .evolve import (POSITIVITY_FLOOR, STEP_BUDGET, EvolvedFields, QuasiPeriodResult,
                     StabilitySeries, helix_stability, quasi_period, torsion_evolve)
from .frenet import (FRAME_DRIFT_TOL, FRENET_CONTROL, FrenetState, ReconstructedCurve,
                     frenet_reconstruct)
from .linear import linearized_solution
from .stationary import CLOSURE_TOL, stationary_torsion, stationary_torsion_general, tau_one
from .transform import TransformRecord, cdf_transform_roundtrip

__all__ = [
    "CLOSURE_TOL", "CurvatureProfile", "EvolvedFields", "FRAME_DRIFT_TOL", "FRENET_CONTROL",
    "FrenetState",
    "POSITIVITY_FLOOR", "QuasiPeriodResult", "ReconstructedCurve", "STEP_BUDGET",
    "StabilitySeries", "TorsionField", "TransformRecord", "UNIT_CURVATURE",
    "cdf_transform_roundtrip", "frenet_reconstruct",
    "helix_stability", "l2_norm", "linearized_solution", "make_torsion_rhs",
    "quasi_period", "stationary_torsion", "stationary_torsion_general",
    "tau_one", "torsion_evolve", "torsion_invariants", "torsion_rhs",
]
