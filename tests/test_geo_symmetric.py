"""Symmetric/variational flowline systems, boundary curve, derivative scans."""

import math

import numpy as np
import pytest

from geomflow.geoflow import (beta_from_x0, boundary_curve, bounding_box_scan, dP_dx0,
                              g_function_check, geodesic, symmetric_system, variational_residuals,
                              variational_system)
from geomflow.errors import SetupError
from geomflow.geoflow.perfect import perfect_vector_checks
from geomflow.numerics.ode import SolverStats
from oracles import boundary_endpoint_reference


class TestSymmetricSystem:
    def test_half_period_matches_period_function(self):
        run = symmetric_system(0.8, 0.5)
        assert run.rho == pytest.approx(run.predicted_rho, abs=1e-6)

    def test_a_prime_positive_and_z_concave(self):
        run = symmetric_system(0.8, 0.5)
        ts = np.linspace(0.0, run.rho, 1500)[1:-1]
        x, y, z, a, b = (run.sample(ts)[:, i] for i in range(5))
        assert np.all(2 * x + a * z > 0)
        assert np.all(z > 0)
        # z'' = -2 z (x^2 + a y^2) < 0 strictly inside the interval
        assert np.all(-2 * z * (x**2 + 0.5 * y**2) < 0)

    def test_endpoint_matches_direct_geodesic(self):
        # the symmetric flowline of duration 2t from the partner point lands at
        # (a(t), b(t), 0): cross-check against the exponential map itself
        alpha, x0 = 0.5, 0.8
        run = symmetric_system(x0, alpha)
        t_mid = 0.6 * run.rho
        x, y, z, a, b = run.sample(t_mid)
        path = geodesic(np.array([x, y, z]) / np.linalg.norm([x, y, z]),
                        alpha, 2 * t_mid, n_samples=2)
        assert np.max(np.abs(path.positions[-1] - np.array([a, b, 0.0]))) < 1e-7

    def test_inadmissible_x0_rejected(self):
        with pytest.raises(ValueError):
            symmetric_system(0.5, 0.5)

    def test_detection_guard_against_convention_drift(self):
        # event detection and P(beta)/2 must agree; a run that cannot return
        # raises instead of silently reporting a wrong half period
        run = symmetric_system(0.61, 0.5)
        assert run.rho == pytest.approx(run.predicted_rho, rel=1e-7)


class TestVariationalSystem:
    @pytest.mark.parametrize("alpha,x0", [
        (0.25, 0.7), (0.25, 0.9), (0.5, 0.8), (0.75, 0.9), (1.0, 0.8),
    ])
    def test_algebraic_identities(self, alpha, x0):
        run = variational_system(x0, alpha)
        res = variational_residuals(run)
        assert res["sphere_orthogonality"] < 1e-8
        assert res["endpoint_identity"] < 1e-8
        assert res["bar_orthogonality"] < 1e-8

    def test_bar_initial_conditions(self):
        run = variational_system(0.8, 0.5)
        u0 = run.trajectory.states[0]
        assert u0[5] == 1.0
        assert u0[6] == pytest.approx(-0.8 / math.sqrt(1 - 0.64))

    def test_bars_track_finite_differences(self):
        # independent check: bars vs central differences of neighboring runs
        alpha, x0, h = 0.5, 0.8, 1e-6
        run = variational_system(x0, alpha)
        lo = symmetric_system(x0 - h, alpha)
        hi = symmetric_system(x0 + h, alpha)
        t_probe = 0.5 * run.rho
        fd = (hi.sample(t_probe) - lo.sample(t_probe)) / (2 * h)
        bars = run.sample(t_probe)[5:]
        assert np.max(np.abs(bars - fd[:5])) < 1e-5


class TestBoundingBoxScan:
    def test_half_alpha_grid_passes(self):
        recs, stats = bounding_box_scan(0.5, np.arange(0.60, 0.951, 0.05))
        assert all(r.admissible for r in recs)
        assert stats.accepted > 0 and stats.event_evals > 0
        assert all(r.passed for r in recs)

    def test_sol_grid_passes_with_skips(self):
        recs, _ = bounding_box_scan(1.0, np.arange(0.60, 0.951, 0.05))
        admissible = [r for r in recs if r.admissible]
        skipped = [r for r in recs if not r.admissible]
        # 0.60, 0.65, 0.70 sit below the Sol equilibrium abscissa 1/sqrt(2)
        assert len(skipped) == 3
        assert admissible and all(r.passed for r in admissible)

    def test_scan_without_admissible_rows_integrates_nothing(self):
        recs, stats = bounding_box_scan(1.0, [0.6, 0.65])
        assert not any(r.admissible for r in recs)
        assert stats == SolverStats()

    def test_b_closed_form_residual(self):
        recs, _ = bounding_box_scan(0.5, [0.8])
        assert recs[0].b_integral_residual < 1e-7


class TestBoundaryCurve:
    def test_half_alpha_monotonicity(self):
        bc = boundary_curve(0.5, np.arange(0.60, 0.981, 0.02))
        assert bc.a_increasing
        assert bc.b_nonincreasing

    @pytest.mark.parametrize("alpha,x0", [(0.25, 0.8), (0.5, 0.6), (0.5, 0.999), (0.75, 0.9),
                                          (1.0, 0.72)])
    def test_endpoints_match_a_40_digit_reference(self, alpha, x0):
        # the quadrature against mpmath at 40 digits: measured at most 3.2e-13
        # relative (a at alpha = 1/2, x0 = 0.999) at these points; the
        # symmetric system's DOP853 end states at TIGHT read up to 7.7e-13
        # over the same alphas (x0 = lo + 0.01, 0.8, 0.9, 0.95, 0.999)
        pytest.importorskip("mpmath")
        ref_a, ref_b = boundary_endpoint_reference(alpha, x0)
        point = boundary_curve(alpha, [x0, 0.5 * (x0 + 1.0)]).points[0]
        assert abs(point.a_end / ref_a - 1.0) < 1e-12
        assert abs(point.b_end / ref_b - 1.0) < 1e-12

    @pytest.mark.parametrize("alpha,grid", [(0.5, np.arange(0.60, 0.981, 0.02)),
                                            (0.25, np.arange(0.75, 0.96, 0.025)),
                                            (0.75, np.arange(0.75, 0.96, 0.025)),
                                            (1.0, np.arange(0.75, 0.96, 0.025))])
    def test_endpoints_match_the_symmetric_system(self, alpha, grid):
        # the grids of criteria 7 and 19, against the z-return states of the
        # 5-system by DOP853 at TIGHT: measured at most 2.1e-12 relative (alpha
        # = 1/2), 1.5e-12 at alpha = 1
        curve = boundary_curve(alpha, grid)
        for point in curve.points:
            end = symmetric_system(point.x0, alpha).end_state
            assert abs(point.a_end / end[3] - 1.0) < 1e-11
            assert abs(point.b_end / end[4] - 1.0) < 1e-11
        assert curve.nodes > 0

    def test_single_point_grid_rejected(self):
        # the slopes need two points
        with pytest.raises(SetupError):
            boundary_curve(0.5, [0.8])

    def test_b_limit_near_one(self):
        run = symmetric_system(0.999, 0.5)
        assert run.end_state[4] == pytest.approx(4.0, abs=0.05)


class TestGFunction:
    def test_negative_on_default_grid(self):
        pts = g_function_check()
        assert all(p.conclusive for p in pts)
        assert all(p.g_value < 0 for p in pts)
        assert all(p.dP_dx0 > 0 for p in pts)

    def test_near_lower_endpoint(self):
        pts = g_function_check([1 / math.sqrt(3) + 0.01])
        p = pts[0]
        assert p.dP_dx0 > 0 and math.isfinite(p.envelope) and p.g_value < 0

    def test_derivative_richardson_error_small(self):
        val, err = dP_dx0(0.8)
        assert err < 1e-7
        assert val > 0


class TestPerfectVectors:
    @pytest.mark.parametrize("alpha,beta", [(0.5, 0.5), (0.5, 0.8), (1.0, 0.5), (1.0, 0.8)])
    def test_full_slate(self, alpha, beta):
        rep = perfect_vector_checks(alpha, beta)
        assert rep.partner_mismatch < 1e-5
        assert rep.endpoint_z < 1e-6
        assert rep.collinearity_defect < 1e-5
        assert rep.holonomy_mismatch < 1e-6

    def test_x0_entry_point(self):
        rep = perfect_vector_checks(0.5, beta_from_x0(0.8, 0.5))
        assert 0.0 < rep.beta < 1.0
        assert rep.partner_mismatch < 1e-5

    def test_argument_validation(self):
        for alpha, beta in ((0.5, 0.0), (0.5, 1.0), (0.0, 0.5), (1.5, 0.5)):
            with pytest.raises(ValueError):
                perfect_vector_checks(alpha, beta)
