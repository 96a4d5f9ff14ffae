"""One-parameter solvable-group family: parameter range, structure field,
geodesics, period functions, symmetric/variational flowline systems, and the
scans built on them.
"""

from .geodesic import (CYLINDER_SETUP_TOL, SPHERE_CONTROL, GeodesicPath, cylinder_invariant,
                       fibonacci_directions, geodesic, geodesic_sphere)
from .group import (CurvatureData, check_alpha, covariant_self_derivative,
                    curvature_data, scalar_curvature)
from .periods import PeriodRecord, endpoint_times, period, period_closed_form, period_numeric
from .structure import (TIGHT, UNIT_TANGENT_TOL, VARIATIONAL_CONTROL, Flowline,
                        admissible_x0_interval, beta_from_x0, flow_tangent, level_value,
                        structure_field, unit_tangent, v_beta)
from .symmetric import (FD_STEP, PASS_FLOOR, SLOPE_TOL, BoundaryCurve, BoundaryPoint,
                        BoxScanRecord, GCheckPoint, SymmetricRun, boundary_curve,
                        bounding_box_scan, dP_dx0, g_function_check, symmetric_system,
                        variational_residuals, variational_system)

__all__ = [
    "BoundaryCurve", "BoundaryPoint", "BoxScanRecord", "CYLINDER_SETUP_TOL", "CurvatureData",
    "FD_STEP", "Flowline", "GCheckPoint", "GeodesicPath", "PASS_FLOOR",
    "PeriodRecord", "SLOPE_TOL", "SPHERE_CONTROL", "SymmetricRun",
    "TIGHT", "UNIT_TANGENT_TOL", "VARIATIONAL_CONTROL",
    "admissible_x0_interval", "beta_from_x0", "boundary_curve", "bounding_box_scan", "check_alpha",
    "covariant_self_derivative", "curvature_data",
    "cylinder_invariant", "dP_dx0", "endpoint_times",
    "fibonacci_directions", "flow_tangent",
    "g_function_check", "geodesic", "geodesic_sphere",
    "level_value", "period", "period_closed_form", "period_numeric",
    "scalar_curvature", "structure_field",
    "symmetric_system", "unit_tangent", "v_beta", "variational_residuals",
    "variational_system",
]
