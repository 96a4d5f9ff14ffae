"""Group law, curvature data, structure field, flowlines."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from geomflow.geoflow import (admissible_x0_interval, beta_from_x0, covariant_self_derivative,
                              curvature_data, cylinder_invariant, flow_tangent, geodesic,
                              geodesic_sphere, level_value, scalar_curvature,
                              structure_field, symmetric_system, v_beta)
from geomflow.numerics.ode import SolverStats
from geomflow.numerics.roots import find_root
from oracles import (concatenation_endpoint, group_inv, group_mul, h2xr_distance,
                     hyperbolic_distance)

ALPHAS = st.floats(-1.0, 1.0)
POINTS = st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3).map(np.array)


class TestGroupLaw:
    """The group axioms of the test-side group law across the family."""

    @settings(max_examples=300, deadline=None)
    @given(p=POINTS, alpha=ALPHAS)
    def test_identity(self, p, alpha):
        assert np.array_equal(group_mul(p, np.zeros(3), alpha), p)
        assert np.array_equal(group_mul(np.zeros(3), p, alpha), p)

    @settings(max_examples=300, deadline=None)
    @given(p=POINTS, alpha=ALPHAS)
    def test_inverse_formula_and_composition(self, p, alpha):
        inv = group_inv(p, alpha)
        assert np.max(np.abs(group_mul(p, inv, alpha))) < 1e-14
        assert np.max(np.abs(group_mul(inv, p, alpha))) < 1e-14
        assert np.max(np.abs(group_inv(inv, alpha) - p)) < 1e-14

    @settings(max_examples=300, deadline=None)
    @given(p=POINTS, q=POINTS, r=POINTS, alpha=ALPHAS)
    def test_associativity_on_random_triples(self, p, q, r, alpha):
        lhs = group_mul(group_mul(p, q, alpha), r, alpha)
        rhs = group_mul(p, group_mul(q, r, alpha), alpha)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestCurvatureData:
    def test_scalar_curvature_spot_values(self):
        assert scalar_curvature(0.5) == pytest.approx(-1.5, abs=0.0)
        assert scalar_curvature(-1.0) == pytest.approx(-6.0, abs=0.0)

    def test_scalar_symmetry(self):
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert scalar_curvature(alpha) == pytest.approx(scalar_curvature(1.0 - alpha),
                                                            abs=1e-15)

    def test_plane_table(self):
        alpha = 0.37
        data = curvature_data(alpha)
        assert data.plane_curvatures["XY"] == {
            "sectional": alpha, "intrinsic": 0.0, "extrinsic": -alpha,
            "mean": (1 - alpha) / 2}
        assert data.plane_curvatures["XZ"] == {
            "sectional": -1.0, "intrinsic": -1.0, "extrinsic": 0.0, "mean": 0.0}
        assert data.plane_curvatures["YZ"] == {
            "sectional": -alpha**2, "intrinsic": -alpha**2, "extrinsic": 0.0, "mean": 0.0}

    def test_structure_field_is_minus_self_derivative(self):
        for alpha in (0.2, 0.5, 1.0):
            data = curvature_data(alpha)
            assert data.structure_field_defect < 1e-14

    def test_covariant_self_derivative_formula(self):
        rng = np.random.default_rng(5)
        alpha = 0.6
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        expected = np.array([-v[0] * v[2], alpha * v[1] * v[2],
                             v[0] ** 2 - alpha * v[1] ** 2])
        assert np.allclose(covariant_self_derivative(v, alpha), expected, atol=1e-14)


class TestStructureField:
    def test_pole_equilibrium(self):
        assert np.allclose(structure_field([0.0, 0.0, 1.0], 0.7), 0.0, atol=0.0)

    def test_flat_equilibrium(self):
        alpha = 0.5
        v = np.array([math.sqrt(alpha / (1 + alpha)), math.sqrt(1 / (1 + alpha)), 0.0])
        assert np.max(np.abs(structure_field(v, alpha))) < 1e-15
        assert np.allclose(v_beta(1.0, alpha), v)

    def test_tangency(self):
        rng = np.random.default_rng(2)
        for alpha in (0.25, 0.75, 1.0):
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            assert abs(np.dot(v, structure_field(v, alpha))) < 1e-14


class TestFlowlines:
    def test_equilibrium_is_constant(self):
        fl = flow_tangent(v_beta(1.0, 0.5), 0.5, 5.0, n_samples=50)
        assert np.max(np.abs(fl.tangents - fl.tangents[0])) < 1e-12

    def test_level_conservation_long_run(self):
        v0 = np.array([0.55, 0.6, math.sqrt(1 - 0.55**2 - 0.6**2)])
        fl = flow_tangent(v0, 0.5, 50.0)
        assert fl.level_drift < 1e-8
        assert fl.norm_drift < 1e-8

    def test_equator_return_symmetry(self):
        # from a flat point, the backward flowline of the symmetric system
        # returns to z = 0 at the other flat point of the same loop
        x0, alpha = 0.8, 0.5
        v0 = np.array([x0, math.sqrt(1 - x0 * x0), 0.0])
        run = symmetric_system(x0, alpha)
        v_cross = run.end_state[:3]
        # H matches, z = 0, and the crossing sits across the equilibrium abscissa
        assert abs(v_cross[2]) < 1e-9
        assert abs(level_value(v_cross, alpha) - level_value(v0, alpha)) < 1e-9
        assert 0.0 < v_cross[0] < admissible_x0_interval(alpha)[0]
        # the loop is symmetric in z, so the forward flowline from v0 reaches
        # the same crossing in the same time: the two halves close the loop
        v_forward = flow_tangent(v0, alpha, run.rho, n_samples=2).end
        assert np.max(np.abs(v_forward - v_cross)) < 1e-6


class TestBetaFromX0:
    def test_closed_form_for_half(self):
        for x0 in (0.62, 0.75, 0.9, 0.97):
            expected = ((3.0 * math.sqrt(3.0) / 2.0) * (x0 - x0**3)) ** (1.0 / 3.0)
            assert beta_from_x0(x0, 0.5) == pytest.approx(expected, abs=1e-12)

    def test_equilibrium_limit(self):
        alpha = 0.5
        lo, _ = admissible_x0_interval(alpha)
        assert beta_from_x0(lo + 1e-9, alpha) == pytest.approx(1.0, abs=1e-5)

    def test_level_match_for_sol(self):
        x0, alpha = 0.9, 1.0
        beta = beta_from_x0(x0, alpha)
        p0 = np.array([x0, math.sqrt(1 - x0 * x0), 0.0])
        assert level_value(p0, alpha) == pytest.approx(
            level_value(v_beta(beta, alpha), alpha), abs=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(alpha=st.floats(0.01, 1.0), frac=st.floats(1e-9, 1.0 - 1e-9))
    def test_closed_form_is_the_root_of_the_level_match(self, alpha, frac):
        # the root of beta^(1+a) h_max = x0^a sqrt(1 - x0^2), searched by
        # Brent's method down to float resolution (tol 0), and the level of
        # V_beta, both reproduced by the closed form
        lo, hi = admissible_x0_interval(alpha)
        x0 = lo + frac * (hi - lo)
        assume(lo < x0 < hi)
        beta = beta_from_x0(x0, alpha)
        level = x0 ** alpha * math.sqrt(1.0 - x0 * x0)
        h_max = alpha ** (alpha / 2.0) / (1.0 + alpha) ** ((1.0 + alpha) / 2.0)
        if level >= h_max:  # rounding next to the equilibrium: no root below 1
            assert beta == 1.0
        else:
            root = find_root(lambda b: b ** (1.0 + alpha) * h_max - level, (1e-12, 1.0), 0.0)
            assert beta == pytest.approx(root, rel=1e-14, abs=0.0)
        assert level_value(v_beta(beta, alpha), alpha) == pytest.approx(level, rel=1e-14, abs=0.0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            beta_from_x0(0.5, 0.5)  # below the equilibrium abscissa
        with pytest.raises(ValueError):
            beta_from_x0(1.0, 0.5)


class TestGeodesics:
    def test_pole_geodesic_is_vertical_line(self):
        path = geodesic(np.array([0.0, 0.0, 1.0]), 0.5, 4.0)
        assert np.allclose(path.positions[-1], [0.0, 0.0, 4.0], atol=1e-12)
        assert path.stats.accepted > 0 and path.stats.rhs_evals >= 12 * path.stats.accepted

    def test_zero_length_integrates_nothing(self):
        path = geodesic(np.array([0.0, 0.0, 1.0]), 0.5, 0.0)
        assert np.array_equal(path.positions, np.zeros((1, 3)))
        assert path.stats == SolverStats()

    def test_concatenation_oracle(self):
        rng = np.random.default_rng(3)
        v0 = rng.standard_normal(3)
        v0 /= np.linalg.norm(v0)
        frame_end = geodesic(v0, 0.5, 5.0, n_samples=2).positions[-1]
        concat_end = concatenation_endpoint(v0, 0.5, 5.0)
        assert np.max(np.abs(frame_end - concat_end)) < 1e-5

    def test_positive_sector_preserved(self):
        v0 = np.array([0.6, 0.7, math.sqrt(1 - 0.6**2 - 0.7**2)])
        for alpha in (0.3, 0.5, 1.0):
            end = geodesic(v0, alpha, 5.0, n_samples=2).positions[-1]
            assert end[0] > 0 and end[1] > 0

    def test_reflection_equivariance(self):
        v0 = np.array([0.5, 0.6, math.sqrt(1 - 0.5**2 - 0.6**2)])
        alpha = 0.5
        end = geodesic(v0, alpha, 3.0, n_samples=2).positions[-1]
        end_rx = geodesic(v0 * np.array([-1, 1, 1]), alpha, 3.0, n_samples=2).positions[-1]
        end_ry = geodesic(v0 * np.array([1, -1, 1]), alpha, 3.0, n_samples=2).positions[-1]
        assert np.max(np.abs(end_rx - end * np.array([-1, 1, 1]))) < 1e-9
        assert np.max(np.abs(end_ry - end * np.array([1, -1, 1]))) < 1e-9

    def test_metric_speed(self):
        v0 = np.array([0.5, 0.6, math.sqrt(1 - 0.5**2 - 0.6**2)])
        path = geodesic(v0, 0.5, 10.0)
        assert path.speed_drift < 1e-6

    def test_alpha_zero_equilibrium_directions_are_lines(self):
        # for parameter 0 the whole equator x = 0 consists of equilibria, so
        # those directions develop as straight lines
        v0 = np.array([0.0, 0.6, 0.8])
        path = geodesic(v0, 0.0, 3.0)
        expected = np.outer(path.times, v0)
        assert np.max(np.abs(path.positions - expected)) < 1e-9


class TestCylinderInvariant:
    def test_drift_small(self):
        path = geodesic(v_beta(0.5, 0.5), 0.5, 10.0, n_samples=1001)
        q, drift = cylinder_invariant(path, 0.5)
        assert drift < 1e-6

    def test_initial_value_matches_prediction(self):
        alpha, beta = 0.5, 0.5
        path = geodesic(v_beta(beta, alpha), alpha, 1.0)
        q, _ = cylinder_invariant(path, beta)
        assert q[0] == pytest.approx((1 + alpha) / alpha / beta**2, abs=1e-10)

    def test_flat_equilibrium_exactly_constant(self):
        alpha = 0.5
        path = geodesic(v_beta(1.0, alpha), alpha, 5.0)
        q, drift = cylinder_invariant(path, 1.0)
        assert drift < 1e-12

    def test_wrong_level_set_rejected(self):
        from geomflow.errors import SetupError
        path = geodesic(v_beta(0.5, 0.5), 0.5, 1.0)
        with pytest.raises(SetupError):
            cylinder_invariant(path, 0.9)


class TestGeodesicSphere:
    def test_small_radius_is_euclidean(self):
        dirs, ends, stats = geodesic_sphere(0.5, 0.01, n_dirs=100)
        assert stats.accepted > 0 and stats.rhs_evals >= 12 * stats.accepted
        assert np.max(np.linalg.norm(ends - 0.01 * dirs, axis=1)) < 1e-4

    def test_lobe_asymmetry_grows_with_alpha(self):
        _, ends1, _ = geodesic_sphere(1.0, 5.0, n_dirs=100)
        _, ends0, _ = geodesic_sphere(0.0, 5.0, n_dirs=100)
        def asym(e):
            r = np.linalg.norm(e, axis=1)
            return r.max() / r.min()
        assert asym(ends1) > asym(ends0)

    def test_direction_count_guard(self):
        with pytest.raises(ValueError):
            geodesic_sphere(0.5, 1.0, n_dirs=10)


DISTANCE = {-1.0: hyperbolic_distance, 0.0: h2xr_distance}
DIRECTIONS = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(np.array)


class TestClosedFormDistance:
    """At a = -1 (hyperbolic space) and a = 0 (H^2 x R) no geodesic from the
    identity has a cut point, so its endpoint at length R lies at distance
    exactly R, which these two members give in closed form."""

    @settings(max_examples=20, deadline=None)
    @given(alpha=st.sampled_from([-1.0, 0.0]), R=st.floats(0.1, 20.0))
    def test_sphere_endpoints_lie_at_distance_R(self, alpha, R):
        # at SPHERE_CONTROL (tolerances 1e-10), 400 directions measured |d - R|
        # up to 1.1e-11 at R = 1 and 3.0e-11 at R = 10 at both alphas, and 100
        # directions up to 5.3e-11 at R = 20
        _, ends, _ = geodesic_sphere(alpha, R, n_dirs=100)
        assert np.max(np.abs(DISTANCE[alpha](ends) - R)) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.sampled_from([-1.0, 0.0]), R=st.floats(0.1, 20.0), v=DIRECTIONS)
    def test_geodesic_endpoint_lies_at_distance_R(self, alpha, R, v):
        # at TIGHT (tolerances 1e-12), 20 random directions measured |d - R| up
        # to 1.6e-12 at R = 20 and 8.4e-13 at R = 10
        assume(np.linalg.norm(v) > 0.1)
        path = geodesic(v / np.linalg.norm(v), alpha, R, n_samples=2)
        assert abs(DISTANCE[alpha](path.positions[-1]) - R) < 1e-11
