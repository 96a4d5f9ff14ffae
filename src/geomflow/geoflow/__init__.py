"""One-parameter solvable-group family: group law, structure field, geodesics,
period functions, symmetric/variational flowline systems, and the scans built
on them.
"""

from .geodesic import (CYLINDER_SETUP_TOL, SPHERE_CONTROL, GeodesicPath,
                       concatenation_endpoint, cylinder_invariant, exponential,
                       fibonacci_directions, geodesic, geodesic_sphere)
from .group import (CurvatureData, check_alpha, covariant_self_derivative,
                    curvature_data, group_inv, group_mul, scalar_curvature)
from .perfect import PerfectVectorReport, perfect_vector_checks
from .periods import (PERIOD_TOL, PeriodRecord, endpoint_times, period, period_closed_form,
                      period_numeric)
from .structure import (TIGHT, UNIT_TANGENT_TOL, Flowline, admissible_x0_interval, beta_from_x0,
                        equilibrium_tangent, flow_tangent, flow_to_equator,
                        level_value, structure_field, unit_tangent, v_beta)
from .symmetric import (FD_STEP, PASS_FLOOR, BoundaryCurve, BoundaryPoint, BoxScanRecord,
                        GCheckPoint, SymmetricRun, boundary_curve, bounding_box_scan, dP_dx0,
                        g_function_check, symmetric_system, variational_residuals,
                        variational_system)

__all__ = [
    "BoundaryCurve", "BoundaryPoint", "BoxScanRecord", "CYLINDER_SETUP_TOL", "CurvatureData",
    "FD_STEP", "Flowline", "GCheckPoint", "GeodesicPath", "PASS_FLOOR", "PERIOD_TOL",
    "PerfectVectorReport", "PeriodRecord", "SPHERE_CONTROL", "SymmetricRun", "TIGHT",
    "UNIT_TANGENT_TOL",
    "admissible_x0_interval", "beta_from_x0", "boundary_curve", "bounding_box_scan", "check_alpha",
    "concatenation_endpoint", "covariant_self_derivative", "curvature_data",
    "cylinder_invariant", "dP_dx0", "endpoint_times", "equilibrium_tangent",
    "exponential", "fibonacci_directions", "flow_tangent", "flow_to_equator",
    "g_function_check", "geodesic", "geodesic_sphere", "group_inv", "group_mul",
    "level_value", "period", "period_closed_form", "period_numeric",
    "perfect_vector_checks", "scalar_curvature", "structure_field",
    "symmetric_system", "unit_tangent", "v_beta", "variational_residuals",
    "variational_system",
]
