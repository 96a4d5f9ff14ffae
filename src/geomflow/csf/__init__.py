"""Curve-shortening flow on immersed plane curves with figure-eight diagnostics."""

from .analysis import (MIN_TIP_POINTS, BowtieRecord, GrimReaperSeries, ThetaSeries,
                       affine_rescale_and_bowtie, axis_shrink_products, grim_reaper_check,
                       grim_reaper_profile_error, reaper_profile_defect,
                       resolvable_frames, theta_monotonicity_series)
from .curve import (EightDiagnostics, PlaneCurve, curvature_and_angles, curvature_vector,
                    curve_geometry, curve_length, edge_lengths, enclosed_area, lobe_areas,
                    make_concinnous_eight, self_intersection, turning_number)
from .evolve import (CFL, LENGTH_FLOOR, RECORD_SHRINK, CsfRun, StopRule, csf_evolve,
                     resample_uniform)

__all__ = [
    "BowtieRecord", "CFL", "CsfRun", "EightDiagnostics", "GrimReaperSeries",
    "LENGTH_FLOOR", "MIN_TIP_POINTS", "PlaneCurve", "RECORD_SHRINK", "StopRule", "ThetaSeries",
    "affine_rescale_and_bowtie", "axis_shrink_products", "csf_evolve",
    "curvature_and_angles", "curvature_vector", "curve_geometry", "curve_length", "edge_lengths",
    "enclosed_area", "grim_reaper_check", "grim_reaper_profile_error",
    "lobe_areas", "make_concinnous_eight", "reaper_profile_defect",
    "resample_uniform", "resolvable_frames", "self_intersection",
    "theta_monotonicity_series", "turning_number",
]
