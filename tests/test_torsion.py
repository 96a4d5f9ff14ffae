"""Torsion field core: right-hand side, invariants, stationary profiles,
linearized solver, transformation chain, Frenet reconstruction."""

import math

import numpy as np
import pytest

from geomflow.acceptance import linear_mode1_period
from geomflow.errors import ConstructionError, PositivityError, SetupError
from geomflow.numerics.ode import IMAGINARY_AXIS_REACH, StepControl, integrate_ode
from geomflow.numerics.periodic import periodic_grid
from geomflow.torsionflow import (CurvatureProfile, TorsionField, UNIT_CURVATURE, l2_norm,
                                  torsion_invariants, torsion_rhs)
from geomflow.torsionflow.frenet import frenet_reconstruct
from geomflow.torsionflow.linear import linearized_solution
from geomflow.torsionflow.stationary import stationary_torsion, stationary_torsion_general, tau_one
from geomflow.torsionflow.transform import cdf_transform_roundtrip
from oracles import fd4_derivative, spectral_derivative


def five_fft_rhs(tau, kappa):
    """kappa D u + D((D^2 u - tau^{3/2}) / kappa), u = tau^{-1/2}, term by
    term: one FFT for u, two inverse FFTs for D u and D^2 u, and a forward
    and inverse FFT for the outer derivative. Odd derivatives drop the
    Nyquist mode."""
    n = tau.size
    k = np.fft.rfftfreq(n, d=1.0 / n)
    ik = 1j * k
    ik[-1] = 0.0
    root = np.sqrt(tau)
    spec_u = np.fft.rfft(1.0 / root)
    du = np.fft.irfft(ik * spec_u, n)
    d2u = np.fft.irfft(-(k * k) * spec_u, n)
    inner = (d2u - tau * root) / kappa
    return kappa * du + np.fft.irfft(ik * np.fft.rfft(inner), n)


class TestTorsionField:
    def test_validation(self):
        with pytest.raises(ValueError):
            TorsionField(np.ones(16))  # too small
        with pytest.raises(ValueError):
            TorsionField(np.ones(33))  # odd
        with pytest.raises(PositivityError):
            TorsionField(np.zeros(64))

    def test_curvature_profile_validation(self):
        for bad in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(SetupError):
                CurvatureProfile(constant=bad)


class TestTorsionRhs:
    def test_constant_is_fixed_point(self):
        tau = TorsionField(np.full(64, 3.7))
        assert np.max(np.abs(torsion_rhs(tau))) == 0.0

    def test_tau_one_is_stationary(self):
        r = torsion_rhs(tau_one(256))
        assert np.max(np.abs(r)) < 1e-6

    def test_against_finite_difference_oracle(self):
        s = periodic_grid(256)
        tau = TorsionField(10.0 + np.sin(s) / 2.0)
        spec = torsion_rhs(tau)
        u = tau.samples ** -0.5
        fd = (fd4_derivative(u, 1) + fd4_derivative(u, 3)
              - fd4_derivative(tau.samples ** 1.5, 1))
        assert np.max(np.abs(spec - fd)) < 1e-4

    @pytest.mark.parametrize("n", [32, 64, 128, 256, 512])
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("profile", ["sin-half", "sin-cos", "tau_one"])
    def test_matches_five_fft_reference(self, n, kappa, profile):
        s = periodic_grid(n)
        samples = {"sin-half": lambda: 10.0 + np.sin(s) / 2.0,
                   "sin-cos": lambda: 10.0 + np.sin(s) + np.cos(s),
                   "tau_one": lambda: tau_one(n).samples}[profile]()
        fused = torsion_rhs(TorsionField(samples), CurvatureProfile(constant=kappa))
        reference = five_fft_rhs(samples, kappa)
        assert np.max(np.abs(fused - reference)) < 1e-10


class TestInvariants:
    def test_unit_field(self):
        inv = torsion_invariants(TorsionField(np.ones(64)))
        assert inv[0] == pytest.approx(2 * math.pi, abs=1e-12)
        assert inv[1] == pytest.approx(2 * math.pi, abs=1e-12)

    def test_l2_norm_of_sine(self):
        s = periodic_grid(64)
        assert l2_norm(np.sin(s)) == pytest.approx(math.sqrt(math.pi), abs=1e-12)


class TestStationary:
    def test_degenerate_constant(self):
        tau = stationary_torsion(2.0, n=64)
        assert np.allclose(tau.samples, 1.0, atol=1e-15)

    def test_reference_profile(self):
        s = periodic_grid(128)
        tau = stationary_torsion(3.0, n=128)
        expected = 2.0 / (3.0 + math.sqrt(5.0) * np.sin(2 * s))
        assert np.allclose(tau.samples, expected, atol=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            stationary_torsion(1.5)

    def test_general_quadrature_path_matches_closed_form(self):
        general, stats = stationary_torsion_general(0.0, 3.0, n=256)
        # the general path puts a maximum of tau at s = 0; the closed form has
        # its maxima at s = 3*pi/4 and 7*pi/4, and rolling its samples on by
        # 32 mesh steps (pi/4) brings the second one to s = 0
        closed = np.roll(stationary_torsion(3.0, n=256).samples, 32)
        assert np.max(np.abs(general.samples - closed)) < 1e-6
        assert stats.accepted > 0 and stats.rhs_evals >= 12 * stats.accepted

    def test_general_path_rejects_nonclosing_orbit(self):
        with pytest.raises(ConstructionError):
            stationary_torsion_general(0.05, 3.0)

    def test_general_path_rejects_empty_orbit(self):
        with pytest.raises(ConstructionError):
            stationary_torsion_general(0.0, 1.0)


class TestLinearized:
    def test_constant_unchanged(self):
        w0 = np.full(64, 1.3)
        assert np.allclose(linearized_solution(w0, 7.7), w0, atol=1e-12)

    def test_norm_preservation(self):
        rng = np.random.default_rng(11)
        w0 = rng.standard_normal(128)
        for t in (0.3, 1.0, 10.0):
            wt = linearized_solution(w0, t)
            assert l2_norm(wt) == pytest.approx(l2_norm(w0), abs=1e-12)

    def test_single_mode_phase(self):
        # the n = +-1 modes pick up exp(+-i(1/2 - 2)t), so sin(s) travels
        # rigidly: w(s, t) = sin(s - 3t/2)
        s = periodic_grid(64)
        t = 0.37
        wt = linearized_solution(np.sin(s), t)
        assert np.allclose(wt, np.sin(s - 1.5 * t), atol=1e-12)

    def test_against_method_of_lines(self):
        n = 64
        s = periodic_grid(n)
        w0 = np.sin(s) + 0.3 * np.cos(2 * s)
        t_end = 0.5

        def rhs(t, w):
            return -2.0 * spectral_derivative(w, 1) - 0.5 * spectral_derivative(w, 3)

        cap = IMAGINARY_AXIS_REACH / (0.5 * (n // 2) ** 3 + 2.0 * (n // 2))
        ctrl = StepControl(initial_step=cap, abs_tol=1e-11, rel_tol=1e-11,
                           max_steps=10_000_000, max_step=cap)
        traj = integrate_ode(rhs, w0, (0.0, t_end), ctrl)
        exact = linearized_solution(w0, t_end)
        assert np.max(np.abs(traj.y_end - exact)) < 1e-6

    def test_mode1_period_matches_rhs_linearization(self):
        # tau_mean + eps sin(s) travels as sin(s - omega_1 t) to first order,
        # so the directional derivative of the rhs along sin(s) is
        # -omega_1 cos(s) with omega_1 = 2 pi / period
        s = periodic_grid(64)
        eps = 1e-4
        for tau_mean in (1.0, 10.0, 11.0):
            plus = torsion_rhs(TorsionField(tau_mean + eps * np.sin(s)))
            minus = torsion_rhs(TorsionField(tau_mean - eps * np.sin(s)))
            omega1 = 2.0 * math.pi / linear_mode1_period(tau_mean)
            assert np.allclose((plus - minus) / (2.0 * eps), -omega1 * np.cos(s), atol=1e-6)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(5)
        w0 = rng.standard_normal(64)
        shift = 7
        lhs = linearized_solution(np.roll(w0, shift), 0.9)
        rhs = np.roll(linearized_solution(w0, 0.9), shift)
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestTransformChain:
    def test_unit_field_is_fixed(self):
        rec, err = cdf_transform_roundtrip(TorsionField(np.ones(64)))
        assert err < 1e-14
        assert np.allclose(rec.v, 1.0)
        assert rec.M == pytest.approx(2 * math.pi, abs=1e-14)
        assert np.allclose(rec.z, 1.0, atol=1e-13)
        assert np.allclose(rec.u, 0.0, atol=1e-13)

    def test_tau_one_roundtrip(self):
        rec, err = cdf_transform_roundtrip(tau_one(512))
        assert err < 1e-8
        assert rec.u_periodicity_defect < 1e-8

    def test_sine_data_roundtrip_and_periodicity(self):
        s = periodic_grid(512)
        rec, err = cdf_transform_roundtrip(TorsionField(10.0 + np.sin(s) / 2.0))
        assert err < 1e-8
        assert rec.u_periodicity_defect < 1e-8

    def test_w_strictly_increasing_and_endpoint(self):
        rec, _ = cdf_transform_roundtrip(tau_one(256))
        assert np.all(np.diff(rec.w) > 0)
        assert rec.w[-1] == pytest.approx(rec.M, abs=1e-12)
        # q = sinh(z/2) pointwise
        assert np.allclose(rec.q, np.sinh(rec.z / 2.0), atol=1e-14)


class TestFrenet:
    def test_helix_oracle(self):
        # kappa = tau = 1: closed-form circular helix from the standard frame
        curve = frenet_reconstruct(UNIT_CURVATURE, TorsionField(np.ones(64)),
                                   s_span=(0.0, 4 * math.pi), n_samples=257)
        om = math.sqrt(2.0)
        sg = curve.s
        exact = 0.5 * np.column_stack([
            sg + np.sin(om * sg) / om,
            math.sqrt(2.0) * (1.0 - np.cos(om * sg)) / om,
            -sg + np.sin(om * sg) / om,
        ])
        assert np.max(np.abs(curve.positions - exact)) < 1e-6
        assert curve.frame_drift < 1e-8

    def test_tau_one_curve_bounded(self):
        curve = frenet_reconstruct(UNIT_CURVATURE, tau_one(128),
                                   s_span=(0.0, 8 * math.pi), n_samples=257)
        assert np.max(np.linalg.norm(curve.positions, axis=1)) < 20.0
        assert curve.frame_drift < 1e-8

    @pytest.mark.parametrize("kappa", [1.0, 2.5])
    @pytest.mark.parametrize("name", ["tau1", "sin-half"])
    def test_matches_scipy_dop853(self, name, kappa):
        # Against scipy's DOP853 at atol 1e-14 and its smallest rtol, 100 eps,
        # on the CLI's default run (n = 128, s in [0, 8 pi], 513 samples).
        # Measured with numpy 2.4 and scipy 1.17: tau1 4.6e-12 (kappa 1) and
        # 3.9e-12 (kappa 2.5), sin-half 3.5e-13 and 8.5e-13.
        integrate = pytest.importorskip("scipy.integrate")
        from geomflow.cli import _initial_torsion
        from geomflow.numerics.periodic import trig_interpolant
        tau = _initial_torsion(name, 128)
        curve = frenet_reconstruct(CurvatureProfile(constant=kappa), tau,
                                   s_span=(0.0, 8 * math.pi), n_samples=513)
        tau_of = trig_interpolant(tau.samples)

        def rhs(s, y):
            t = float(tau_of(s % (2.0 * math.pi)))
            return np.concatenate([y[3:6], kappa * y[6:9], -kappa * y[3:6] - t * y[9:12],
                                   t * y[6:9]])

        ref = integrate.solve_ivp(rhs, (0.0, 8 * math.pi), np.r_[np.zeros(3), np.eye(3).ravel()],
                                  method="DOP853", rtol=100 * np.finfo(float).eps, atol=1e-14,
                                  t_eval=curve.s)
        assert np.max(np.abs(curve.positions - ref.y[:3].T)) < 5e-12
        # the drift is the worst deviation of the uncorrected output frames
        frames = np.stack([curve.tangents, curve.normals, curve.binormals], axis=1)
        gram = frames @ frames.transpose(0, 2, 1)
        assert curve.frame_drift == np.max(np.abs(gram - np.eye(3)))
        assert curve.frame_drift < 2e-11  # 1.2e-11 at most, tau1 at kappa 2.5
