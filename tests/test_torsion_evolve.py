"""Method-of-lines evolution: fixed points, conservation, quasi-periods,
stability series. Long pinned runs live in the acceptance suite; these use
short horizons and small meshes.
"""

import math
import time

import numpy as np
import pytest

from geomflow.acceptance import linear_mode1_period
from geomflow.errors import BudgetError, PositivityError
from geomflow.numerics.etd import Etdrk4
from geomflow.numerics.ode import StepControl, integrate_ode
from geomflow.numerics.periodic import periodic_grid
from geomflow.torsionflow import (STEP_BUDGET, CurvatureProfile, TorsionField,
                                  UNIT_CURVATURE, helix_stability, make_torsion_rhs,
                                  quasi_period, torsion_evolve, torsion_invariants)
from geomflow.torsionflow.stationary import tau_one
from geomflow.torsionflow.evolve import (ABS_TOL, ETD_SAFETY, REL_TOL, remainder_rate,
                                         torsion_stepper)


class TestEvolve:
    def test_helix_is_fixed(self):
        out = torsion_evolve(TorsionField(np.ones(64)), T=1.0)
        assert np.max(np.abs(out[0].samples - 1.0)) < 1e-10

    def test_positivity_floor_guard(self):
        s = periodic_grid(64)
        with pytest.raises(PositivityError):
            torsion_evolve(TorsionField(0.06 + 0.01 * np.sin(s) + 0.01), T=0.1)

    def test_invariant_conservation_short(self):
        s = periodic_grid(128)
        tau0 = TorsionField(10.0 + np.sin(s) / 2.0)
        i0 = torsion_invariants(tau0)
        out = torsion_evolve(tau0, T=0.5, output_times=[0.25, 0.5])
        for f in out:
            i1 = torsion_invariants(f)
            assert abs(i1[0] - i0[0]) / i0[0] < 1e-7
            assert abs(i1[1] - i0[1]) / i0[1] < 1e-7

    def test_stationary_profile_persists(self):
        t1 = tau_one(64)
        out = torsion_evolve(t1, T=0.25, output_times=[0.25])
        assert np.max(np.abs(out[0].samples - t1.samples)) < 1e-3

    def test_mesh_refinement_order(self):
        # halving the mesh spacing must cut the evolve-vs-fine discrepancy by >= 4x
        T = 0.05

        def terminal(n):
            s = periodic_grid(n)
            tau0 = TorsionField(2.0 + 0.5 * np.sin(s))
            return torsion_evolve(tau0, T=T, output_times=[T])[0].samples

        coarse = terminal(32)
        mid = terminal(64)
        fine = terminal(128)
        err_coarse = np.max(np.abs(coarse - fine[::4]))
        err_mid = np.max(np.abs(mid - fine[::2]))
        assert err_coarse / max(err_mid, 1e-15) > 4.0


def _profile(name: str, n: int) -> np.ndarray:
    s = periodic_grid(n)
    return 10.0 + (np.sin(s) / 2.0 if name == "half" else np.sin(s) + np.cos(s))


def _tight_dop853(tau0: np.ndarray, kappa: CurvatureProfile, times) -> list[np.ndarray]:
    """DOP853 at rel_tol = abs_tol = 1e-13, its steps capped at the explicit
    stability bound of the third- and first-derivative terms."""
    n, kap = tau0.size, kappa.constant
    kmax = n // 2
    lam = (kmax ** 3 * np.max(tau0 ** -1.5) / (2.0 * kap)
           + kmax * np.max(0.5 * kap * tau0 ** -1.5 + 1.5 * np.sqrt(tau0) / kap))
    cap = 2.0 / lam
    ctrl = StepControl(initial_step=cap, abs_tol=1e-13, rel_tol=1e-13, max_step=cap)
    return integrate_ode(make_torsion_rhs(kappa, n), tau0, (0.0, times[-1]), ctrl,
                         output_times=times).states


def _fixed_steps(data: np.ndarray, T: float, m: int) -> np.ndarray:
    """m equal ETDRK4 steps to time T."""
    stepper, _ = torsion_stepper(UNIT_CURVATURE, data.size, float(np.mean(data)))
    v, h = np.fft.rfft(data), T / m
    for j in range(m):
        v = stepper.step(v, j * h, h, stepper.coefficients(h), stepper.remainder(j * h, v))
    return np.fft.irfft(v, data.size)


class TestEtdrk4:
    # largest difference from the tight reference over two frames to T = 0.2
    # at N = 128, measured against RK4(5) at rel_tol = abs_tol = 1e-13, times
    # 10; DOP853 at the same tolerances measures 1.3e-10, 5.9e-11, 2.3e-11,
    # 1.6e-11, 5.7e-12 and 2.3e-12
    @pytest.mark.parametrize("name,kappa,tol", [
        ("half", 0.5, 1.3e-9), ("half", 1.0, 6e-10), ("half", 2.0, 2.3e-10),
        ("sincos", 0.5, 1.6e-10), ("sincos", 1.0, 5.5e-11), ("sincos", 2.0, 2.1e-11)])
    def test_agrees_with_tight_rk45(self, name, kappa, tol):
        n, times = 128, [0.1, 0.2]
        tau0 = TorsionField(_profile(name, n))
        kap = CurvatureProfile(constant=kappa)
        fields = torsion_evolve(tau0, kap, 0.2, output_times=times)
        ref = _tight_dop853(tau0.samples, kap, times)
        assert max(np.max(np.abs(f.samples - r)) for f, r in zip(fields, ref)) < tol

    @pytest.mark.parametrize("name,kappa", [("half", 0.5), ("half", 1.0),
                                            ("sincos", 0.5), ("sincos", 1.0)])
    def test_coarse_mesh_meets_local_tolerance(self, name, kappa):
        # at N = 64 the stability bound alone allows steps whose local error
        # exceeds the tolerance (sin-half at kappa = 0.5 ended 3.0e-7 off with
        # ten such steps); under the accuracy bound the difference from tight
        # DOP853 stays below the sum of the per-step tolerances
        n, times = 64, [0.1, 0.2]
        tau0 = TorsionField(_profile(name, n))
        kap = CurvatureProfile(constant=kappa)
        fields = torsion_evolve(tau0, kap, 0.2, output_times=times)
        rec = fields.record
        ref = _tight_dop853(tau0.samples, kap, times)
        err = max(np.max(np.abs(f.samples - r)) for f, r in zip(fields, ref))
        assert err < rec["steps"] * (ABS_TOL + REL_TOL * np.max(tau0.samples))
        assert rec["step_max"] < ETD_SAFETY / rec["rho0"]

    def test_accuracy_bound_catches_slow_growth(self):
        # under the stability bound alone, ETDRK4 amplifies high modes of
        # 2 + sin(s)/2 at N = 128 (its minimum at t = 1 fell to 1.28, and it
        # went nonpositive at t = 1.62); the checks shrink the step instead,
        # and the minimum stays at RK4(5)'s 1.54953
        data = 2.0 + 0.5 * np.sin(periodic_grid(128))
        fields = torsion_evolve(TorsionField(data), T=1.0)
        rec = fields.record
        assert np.min(fields[0].samples) == pytest.approx(1.54953, abs=1e-4)
        assert rec["step_min"] < 0.5 * ETD_SAFETY / rec["rho0"]

    def test_mean_conserved_to_roundoff(self):
        data = _profile("sincos", 128)
        fields = torsion_evolve(TorsionField(data), T=0.5, output_times=[0.25, 0.5])
        for f in fields:
            assert abs(np.mean(f.samples) - np.mean(data)) < 4e-15 * np.mean(data)

    @pytest.mark.parametrize("n", [32, 64, 128, 256, 512])
    def test_constant_is_exact_fixed_point(self, n):
        tau0 = TorsionField(np.full(n, 3.7))
        fields = torsion_evolve(tau0, T=2.0, output_times=[0.5, 2.0])
        rec = fields.record
        assert rec["rho0"] < 1e-9 and rec["rejected"] == 0  # the mean rounds
        for f in fields:
            assert np.array_equal(f.samples, tau0.samples)

    def test_step_fits_output_times(self):
        tau0 = TorsionField(_profile("half", 128))
        rec = torsion_evolve(tau0, T=0.17, output_times=np.linspace(0.0, 0.17, 18)[1:]).record
        assert rec["step_max"] <= ETD_SAFETY / remainder_rate(tau0.samples, 1.0, 10.0)
        assert rec["step_min"] == pytest.approx(rec["step_max"], rel=1e-12)
        assert 0.01 / rec["step_max"] == pytest.approx(round(0.01 / rec["step_max"]), abs=1e-9)

    def test_nonpositive_stage_raises_with_time(self):
        # twice the stability bound loses positivity on 2 + sin(s)/2 at N = 128
        data = 2.0 + 0.5 * np.sin(periodic_grid(128))
        h = 2.0 * ETD_SAFETY / remainder_rate(data, 1.0, 2.0)
        with pytest.raises(PositivityError, match="t="):
            _fixed_steps(data, 1000 * h, 1000)

    @pytest.mark.parametrize("tau0", [TorsionField(_profile("half", 512)), tau_one(512)])
    def test_impossible_budget_fails_fast(self, tau0):
        start = time.perf_counter()
        with pytest.raises(BudgetError, match=str(STEP_BUDGET)):
            torsion_evolve(tau0, T=1e4)
        assert time.perf_counter() - start < 1.0


class TestOutputsInsideAStep:
    """Outputs closer together than the step bound: a step goes to the
    furthest output within the bound, and the outputs inside it come from
    one stacked pass from the step's start."""

    def test_stacked_pass_equals_single_steps(self):
        # the helix's bound at t = 0 is 0.064: one checked step to t = 0.06,
        # and five outputs inside it, each the bits of its own single step
        # from the start state with freshly built coefficients
        data = 1.0 + 0.01 * np.sin(periodic_grid(32))
        times = np.linspace(0.0, 0.06, 7)[1:]
        fields = torsion_evolve(TorsionField(data), T=0.06, output_times=times)
        assert fields.record["steps"] == 3 and fields.record["checks"] == 1
        assert fields.record["stacked_outputs"] == 5
        stepper, flux = torsion_stepper(UNIT_CURVATURE, 32, float(np.mean(data)))
        v = np.fft.rfft(data)
        Nv = flux(data) - stepper.L * v
        for h, row in zip(times[:-1], fields.samples):
            single = stepper.step(v, 0.0, h, stepper.coefficients(h), Nv)
            assert np.array_equal(row, np.fft.irfft(single, 32))

    def test_dense_outputs_take_no_more_steps(self):
        # the bench's T = 1 stability job: 1,000 outputs cost no step more
        # than one output at T, and every row stays within 1e-9 of DOP853
        data = 1.0 + 0.01 * np.sin(periodic_grid(32))
        times = np.linspace(0.0, 1.0, 1001)[1:]
        dense = torsion_evolve(TorsionField(data), T=1.0, output_times=times)
        one = torsion_evolve(TorsionField(data), T=1.0)
        assert dense.record["steps"] <= one.record["steps"] <= 20
        ref = _tight_dop853(data, UNIT_CURVATURE, times)
        assert np.max(np.abs(dense.samples - ref)) < 1e-9

    def test_nonpositive_stacked_row_raises_with_its_time(self, monkeypatch):
        # the fourth of five outputs inside the first step (0 to 0.06) is
        # made nonpositive: the error names its time, 0.04
        step = Etdrk4.step

        def negate_a_row(self, v, t, h, coef, Nv):
            out = step(self, v, t, h, coef, Nv)
            if np.ndim(h) and len(h) == 5:  # the output pass, not a check's pair
                out[3] = -out[3]
            return out

        monkeypatch.setattr(Etdrk4, "step", negate_a_row)
        data = 1.0 + 0.01 * np.sin(periodic_grid(32))
        with pytest.raises(PositivityError, match=r"t=0\.04 "):
            torsion_evolve(TorsionField(data), T=0.06, output_times=np.linspace(0.0, 0.06, 7)[1:])


class TestQuasiPeriod:
    def test_travelling_sine_recurrence(self):
        n = 128
        s = periodic_grid(n)
        data = 10.0 + np.sin(s) / 2.0
        times = np.linspace(0.0, 1.7, 171)
        fields = torsion_evolve(TorsionField(data), T=1.7, output_times=times)
        res = quasi_period(times, fields.samples)
        assert not res.stationary
        assert res.t_star == pytest.approx(1.32, abs=0.05)

    @pytest.mark.parametrize("profile", ["half", "sincos"])
    def test_recurrence_matches_radau_oracle(self, profile):
        # an independent stiff solve of tau_t = D_s(W - tau^{3/2} + D_s^2 W),
        # W = tau^{-1/2}, written out here with numpy FFTs: the program's t*
        # must agree with it, and both sit within the amplitude shift of the
        # linear mode-1 period 2 pi / (1.5 sqrt(10)) = 1.3246
        integrate = pytest.importorskip("scipy.integrate")
        n = 64
        s = periodic_grid(n)
        data = 10.0 + (np.sin(s) / 2.0 if profile == "half" else np.sin(s) + np.cos(s))
        ik = 1j * np.fft.rfftfreq(n, d=1.0 / n)
        ik[-1] = 0.0

        def ds(f):
            return np.fft.irfft(ik * np.fft.rfft(f), n)

        def rhs(t, tau):
            w = tau ** -0.5
            return ds(w - tau ** 1.5 + ds(ds(w)))

        times = np.linspace(0.0, 1.7, 171)
        sol = integrate.solve_ivp(rhs, (0.0, 1.7), data, method="Radau",
                                  rtol=1e-8, atol=1e-8, t_eval=times)
        assert sol.success
        oracle = quasi_period(times, sol.y.T).t_star
        fields = torsion_evolve(TorsionField(data), T=1.7, output_times=times)
        t_star = quasi_period(times, fields.samples).t_star
        assert t_star == pytest.approx(oracle, abs=1e-5)
        assert oracle == pytest.approx(linear_mode1_period(10.0), abs=2e-3)

    def test_stationary_flag(self):
        # synthetic frames: a stationary profile plus integrator-level noise
        rng = np.random.default_rng(0)
        base = tau_one(64)
        times = np.linspace(0.0, 1.0, 11)
        noisy = base.samples + 1e-9 * rng.standard_normal((times.size - 1, 64))
        res = quasi_period(times, np.vstack([base.samples, noisy]))
        assert res.stationary
        assert res.t_star == pytest.approx(0.5)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            quasi_period([0.0, 1.0], np.vstack([tau_one(64).samples] * 2))


class TestHelixStability:
    def test_initial_norm_value(self):
        ser = helix_stability(amplitude=0.01, T=0.2)
        assert ser.initial == pytest.approx(math.sqrt(math.pi) / 100.0, abs=1e-9)
        assert ser.initial == pytest.approx(0.0177245, abs=1e-6)

    def test_zero_amplitude(self):
        ser = helix_stability(amplitude=0.0, T=0.2)
        assert ser.peak < 1e-10

    def test_short_run_stays_bounded(self):
        ser = helix_stability(amplitude=0.01, T=2.0)
        assert ser.peak <= 2.0 * ser.initial
