"""Symmetric/variational flowline systems, boundary curve, derivative scans."""

import math

import numpy as np
import pytest

from geomflow.geoflow import (beta_from_x0, boundary_curve, bounding_box_scan, dP_dx0,
                              g_function_check, geodesic, symmetric_system, variational_residuals,
                              variational_system)
from geomflow.geoflow.perfect import perfect_vector_checks
from geomflow.geoflow.symmetric import _symmetric_runs
from geomflow.numerics.ode import SolverStats


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

    def test_event_only_batch_keeps_the_bits_of_stored_nodes(self):
        # the curve's batch stores no nodes: its half periods and end states
        # are those of the same batch with stored nodes, bit for bit, and it
        # skips the three dense stages in every step without a z-return
        alpha, xs = 0.5, np.arange(0.60, 0.981, 0.02)
        lean_runs = _symmetric_runs(xs, alpha, nodes=False)
        full_runs = _symmetric_runs(xs, alpha)
        lean, full = lean_runs[0].trajectory.stats, full_runs[0].trajectory.stats
        assert [r.rho for r in lean_runs] == [r.rho for r in full_runs]
        for lean_run, full_run in zip(lean_runs, full_runs):
            assert np.array_equal(lean_run.end_state, full_run.end_state)
        curve = boundary_curve(alpha, xs)
        points = curve.points
        assert [(p.a_end, p.b_end) for p in points] == [
            (r.end_state[3], r.end_state[4]) for r in full_runs]
        # every run of a batch carries the batch's record, and so does the curve
        assert all(r.trajectory.stats is full for r in full_runs)
        assert curve.stats == lean
        assert (lean.accepted, lean.rejected, lean.event_evals) == (
            full.accepted, full.rejected, full.event_evals)
        # a z-return at rho lies in the step (times[i], times[i + 1]] that ends at or after it
        times = full_runs[0].trajectory.times  # the batch's nodes, shared by its rows
        crossing_steps = np.unique(np.searchsorted(times, [r.rho for r in full_runs]) - 1)
        assert 0 < crossing_steps.size < full.accepted
        assert full.rhs_evals - lean.rhs_evals == 3 * (full.accepted - crossing_steps.size)

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
