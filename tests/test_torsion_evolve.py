"""Method-of-lines evolution: fixed points, conservation, quasi-periods,
stability series. Long pinned runs live in the acceptance suite; these use
short horizons and small meshes.
"""

import math

import numpy as np
import pytest

from geomflow.acceptance import linear_mode1_period
from geomflow.errors import PositivityError
from geomflow.numerics import periodic_grid
from geomflow.torsionflow import (TorsionField, helix_stability, quasi_period, tau_one,
                                  torsion_evolve, torsion_invariants)


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


class TestQuasiPeriod:
    def test_travelling_sine_recurrence(self):
        n = 128
        s = periodic_grid(n)
        data = 10.0 + np.sin(s) / 2.0
        times = np.linspace(0.0, 1.7, 171)
        fields = torsion_evolve(TorsionField(data), T=1.7, output_times=times[1:])
        res = quasi_period(times, [TorsionField(data)] + fields)
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
        oracle = quasi_period(times, [TorsionField(y) for y in sol.y.T]).t_star
        fields = torsion_evolve(TorsionField(data), T=1.7, output_times=times[1:])
        t_star = quasi_period(times, [TorsionField(data)] + fields).t_star
        assert t_star == pytest.approx(oracle, abs=1e-5)
        assert oracle == pytest.approx(linear_mode1_period(10.0), abs=2e-3)

    def test_stationary_flag(self):
        # synthetic frames: a stationary profile plus integrator-level noise
        rng = np.random.default_rng(0)
        base = tau_one(64)
        times = np.linspace(0.0, 1.0, 11)
        fields = [base] + [TorsionField(base.samples + 1e-9 * rng.standard_normal(64))
                           for _ in times[1:]]
        res = quasi_period(times, fields)
        assert res.stationary
        assert res.t_star == pytest.approx(0.5)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            quasi_period([0.0, 1.0], [tau_one(64), tau_one(64)])


class TestHelixStability:
    def test_initial_norm_value(self):
        ser = helix_stability(amplitude=0.01, T=0.2, n_frames=21)
        assert ser.initial == pytest.approx(math.sqrt(math.pi) / 100.0, abs=1e-9)
        assert ser.initial == pytest.approx(0.0177245, abs=1e-6)

    def test_zero_amplitude(self):
        ser = helix_stability(amplitude=0.0, T=0.2, n_frames=11)
        assert ser.peak < 1e-10

    def test_short_run_stays_bounded(self):
        ser = helix_stability(amplitude=0.01, T=2.0, n_frames=101)
        assert ser.peak <= 2.0 * ser.initial
