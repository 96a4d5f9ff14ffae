"""Curvature-preserving flow on positive space curves.

The package re-exports the flow itself: the torsion field and its right-hand
side (``core``) and the ETDRK4 evolution (``evolve``). The tools beside it
are imported from their own modules, so a torsion evolution does not load
them: stationary profiles (``stationary``), the linearized solver
(``linear``), the transformation chain (``transform``) and Frenet-Serret
reconstruction (``frenet``).
"""

from .core import (CurvatureProfile, TorsionField, UNIT_CURVATURE, l2_norm,
                   make_torsion_rhs, torsion_invariants, torsion_rhs)
from .evolve import (POSITIVITY_FLOOR, STEP_BUDGET, EvolvedFields, QuasiPeriodResult,
                     StabilitySeries, helix_stability, quasi_period, torsion_evolve)

__all__ = [
    "CurvatureProfile", "EvolvedFields", "POSITIVITY_FLOOR", "QuasiPeriodResult",
    "STEP_BUDGET", "StabilitySeries", "TorsionField", "UNIT_CURVATURE",
    "helix_stability", "l2_norm", "make_torsion_rhs", "quasi_period",
    "torsion_evolve", "torsion_invariants", "torsion_rhs",
]
