"""The tangent-angle/length CSF engine: exact laws, the closure and symmetry
projections, landing on the end time, and the shared ETDRK4 coefficients."""

import math

import numpy as np
import pytest

from geomflow.csf import (PlaneCurve, StopRule, csf_evolve, lobe_areas,
                          make_concinnous_eight, resample_uniform)
from geomflow.csf.evolve import LADDER, ThetaLengthFlow
from geomflow.numerics.etd import etdrk4_coefficients


def regular_polygon(n, r=1.0):
    th = (np.arange(n) + 0.5) * 2 * math.pi / n
    return PlaneCurve(np.column_stack([r * np.cos(th), r * np.sin(th)]))


def bent_eight(n=128):
    """The lemniscate sheared and bent: no reflection or half-turn symmetry."""
    P = make_concinnous_eight(1.0, n_points=n).points
    x, y = P[:, 0], P[:, 1]
    return PlaneCurve(np.column_stack([x + 0.05 * y, y + 0.1 * x * x]))


def lobe_asymmetry(frame, diag):
    a1, a2 = lobe_areas(frame.points, diag.crossing)
    return abs(a1 - a2) / (a1 + a2)


class TestExactLaws:
    def test_circle_length_law_to_roundoff(self):
        # on a circle the state length obeys L^2 = L0^2 - 8 pi^2 t exactly; the
        # frame is the regular polygon inscribed in it
        n = 256
        run = csf_evolve(regular_polygon(n), StopRule(time=0.45, kmax_spacing=None),
                         record_dt=0.02)
        L = run.series("length") * (math.pi / n) / math.sin(math.pi / n)
        t = np.array(run.times)
        assert len(t) > 20 and t[-1] == 0.45
        assert np.max(np.abs(L ** 2 - (L[0] ** 2 - 8 * math.pi ** 2 * t))) < 1e-14 * L[0] ** 2

    @pytest.mark.parametrize("shape", ["eight", "bent eight"])
    def test_closure_residual(self, shape, monkeypatch):
        gaps = []
        accept = ThetaLengthFlow.accept

        def recording_accept(self, v):
            accept(self, v)
            gaps.append(abs(np.exp(1j * self.theta()).mean()))

        monkeypatch.setattr(ThetaLengthFlow, "accept", recording_accept)
        curve = make_concinnous_eight(1.0, n_points=128) if shape == "eight" else bent_eight()
        stop = StopRule(kmax_spacing=0.5) if shape == "eight" else StopRule(time=0.1)
        run = csf_evolve(curve, stop, record_dt=3.2e-3, expect_double_point=True)
        assert len(gaps) == run.steps > 40
        assert max(gaps) <= 1e-13

    def test_run_lands_on_time(self):
        run = csf_evolve(make_concinnous_eight(1.0, n_points=128),
                         StopRule(time=0.0123, kmax_spacing=None), record_dt=0.005)
        assert run.times[-1] == 0.0123 and run.stop_reason == "time reached"
        assert np.all(np.diff(run.times) > 0.0)


class TestSymmetry:
    def test_eight_has_the_three_symmetries(self):
        flow = ThetaLengthFlow(resample_uniform(make_concinnous_eight(1.0, n_points=256).points))
        assert [s.name for s in flow.symmetries] == ["conj", "neg_conj", "neg"]
        for sym in flow.symmetries:
            assert np.array_equal(np.sort(sym.perm), np.arange(256))
            assert np.array_equal(sym.perm[sym.perm], np.arange(256))  # an involution
            assert np.all(np.abs(sym.offset / math.pi - np.round(sym.offset / math.pi)) == 0.0)

    @pytest.mark.parametrize("curve", [
        lambda: PlaneCurve(make_concinnous_eight(1.0, n_points=256).points
                           + 1e-3 * np.random.default_rng(0).standard_normal((256, 2))),
        bent_eight,
    ], ids=["noisy eight", "bent eight"])
    def test_asymmetric_curves_have_none(self, curve):
        assert ThetaLengthFlow(resample_uniform(curve().points)).symmetries == []

    def test_fine_eight_keeps_balanced_lobes(self):
        # at n = 1024 the collapse amplifies roundoff asymmetry to about 4e-13
        # by L/L0 = 0.09 unless the engine averages over the symmetry group
        run = csf_evolve(make_concinnous_eight(1.0, n_points=1024),
                         StopRule(time=0.23, kmax_spacing=None), record_dt=1.0,
                         expect_double_point=True)
        assert run.series("length")[-1] < 0.1 * run.series("length")[0]
        assert max(lobe_asymmetry(f, d) for f, d in zip(run.frames, run.diagnostics)) <= 1e-13


class TestSteps:
    def test_ladder_coefficients_are_cached(self):
        flow = ThetaLengthFlow(resample_uniform(make_concinnous_eight(1.0, n_points=128).points))
        coef = flow.coefficients(-5 * LADDER)
        assert flow.coefficients(-5 * LADDER) is coef
        for got, want in zip(coef, etdrk4_coefficients(flow.linear, 2.0 ** -5)):
            assert np.array_equal(got, want)

    def test_zero_multiplier_gets_rk4_weights(self):
        h = 0.01
        E, E2, Q, f1, f2x2, f3 = etdrk4_coefficients(np.zeros(1), h)
        for got, want in [(E, 1.0), (E2, 1.0), (Q, h / 2), (f1, h / 6), (f2x2, h / 3),
                          (f3, h / 6)]:
            assert abs(got[0] - want) <= 1e-15 * max(want, 1.0)

    def test_run_records_its_steps_and_phases(self):
        run = csf_evolve(make_concinnous_eight(1.0, n_points=128),
                         StopRule(time=0.02, kmax_spacing=None), record_dt=0.005)
        assert run.steps > 0 and run.checks >= 1 and run.rejected >= 0
        assert set(run.seconds) == {"steps", "projections", "diagnostics"}
        assert all(s > 0.0 for s in run.seconds.values())
