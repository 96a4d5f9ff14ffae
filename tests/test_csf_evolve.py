"""The tangent-angle/length CSF engine: exact laws, the closure and symmetry
projections, landing on the end time, the extinction time across meshes,
the cached ETDRK4 coefficients, and the double-point rule read from frame
0."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geomflow.csf import (PlaneCurve, StopRule, csf_evolve, lobe_areas,
                          make_concinnous_eight, resample_uniform)
from geomflow.csf.evolve import Symmetry, ThetaLengthFlow, close_angles
from geomflow.errors import TopologyError
from geomflow.numerics.etd import etdrk4_coefficients


def regular_polygon(n, r=1.0):
    th = (np.arange(n) + 0.5) * 2 * math.pi / n
    return PlaneCurve(np.column_stack([r * np.cos(th), r * np.sin(th)]))


def bent_eight(n=128):
    """The lemniscate sheared and bent: no reflection or half-turn symmetry."""
    P = make_concinnous_eight(1.0, n_points=n).points
    x, y = P[:, 0], P[:, 1]
    return PlaneCurve(np.column_stack([x + 0.05 * y, y + 0.1 * x * x]))


def lobe_asymmetry(P, diag):
    a1, a2 = lobe_areas(P, diag.crossing)
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
        run = csf_evolve(curve, stop, record_dt=3.2e-3)
        assert len(gaps) == run.steps > 40
        assert max(gaps) <= 1e-13

    def test_run_lands_on_time(self):
        run = csf_evolve(make_concinnous_eight(1.0, n_points=128),
                         StopRule(time=0.0123, kmax_spacing=None), record_dt=0.005)
        assert run.times[-1] == 0.0123 and run.stop_reason == "time reached"
        assert np.all(np.diff(run.times) > 0.0)


    def test_extinction_time_agrees_across_meshes(self):
        # the acceptance eight's T* at n = 128 and 256 differs by 5e-12
        # (measured, 0.231292564792 and 0.231292564797); the periodic cubic
        # spline start left the O(n^-2) gap 2.2e-7 here
        times = []
        for n in (128, 256):
            run = csf_evolve(make_concinnous_eight(1.0, n_points=n), StopRule(kmax_spacing=0.5),
                             record_dt=8e-4)
            assert run.stop_reason == "extinction reached"
            times.append(run.times[-1])
        assert abs(times[0] - times[1]) < 1e-10


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
                         StopRule(time=0.23, kmax_spacing=None), record_dt=1.0)
        assert run.series("length")[-1] < 0.1 * run.series("length")[0]
        assert max(lobe_asymmetry(f, d) for f, d in zip(run.frames, run.diagnostics)) <= 1e-13


def _close_angles_reference(theta):
    """``close_angles`` as one expression per Newton step, on numpy scalars."""
    n = theta.size
    for _ in range(4):
        c, s = np.cos(theta), np.sin(theta)
        gx, gy = c.sum() / n, s.sum() / n
        if math.hypot(gx, gy) <= 1e-16:
            break
        cc, ss, cs = (c @ c) / n, (s @ s) / n, (c @ s) / n
        det = cc * ss - cs * cs
        a = -(gx * cs + gy * ss) / det
        b = (gx * cc + gy * cs) / det
        theta = theta + a * c + b * s
        if math.hypot(gx, gy) < 1e-8:
            break
    return theta


class TestProjections:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(8, 300), m=st.integers(-2, 2), seed=st.integers(0, 2**32 - 1),
           amplitude=st.floats(1e-3, 1.5), sign=st.sampled_from([1.0, -1.0]))
    def test_same_bits_as_the_expressions(self, n, m, seed, amplitude, sign):
        # closure on Python-float Newton scalars and the symmetry average on
        # its gathered copy give the bits of the plain expressions, and
        # leave their input as it was
        rng = np.random.default_rng(seed)
        theta = m * 2.0 * math.pi * np.arange(n) / n + amplitude * rng.standard_normal(n)
        before = theta.copy()
        closed = close_angles(theta)
        assert np.array_equal(closed.view(np.uint64),
                              _close_angles_reference(theta).view(np.uint64))
        sym = Symmetry("test", rng.permutation(n), sign,
                       math.pi * rng.integers(-3, 4, n).astype(float))
        want = 0.5 * (closed + (sym.sign * closed[sym.perm] + sym.offset))
        assert np.array_equal(sym.average(closed).view(np.uint64), want.view(np.uint64))
        assert np.array_equal(theta.view(np.uint64), before.view(np.uint64))


class TestSteps:
    def test_ladder_coefficients_are_cached(self):
        flow = ThetaLengthFlow(resample_uniform(make_concinnous_eight(1.0, n_points=128).points))
        coef = flow.etd.coefficients(2.0 ** -5)
        assert flow.etd.coefficients(2.0 ** -5) is coef
        for got, want in zip(coef, etdrk4_coefficients(flow.etd.L, 2.0 ** -5)):
            assert np.array_equal(got, want)

    def test_run_records_its_steps_and_phases(self):
        run = csf_evolve(make_concinnous_eight(1.0, n_points=128),
                         StopRule(time=0.02, kmax_spacing=None), record_dt=0.005)
        assert run.steps > 0 and run.checks >= 1 and run.rejected >= 0
        assert set(run.seconds) == {"steps", "projections", "diagnostics"}
        assert all(s > 0.0 for s in run.seconds.values())


def circle_in_block(monkeypatch, block, row):
    """Make row ``row`` of the ``block``-th block of frames that the flow
    builds a small circle, a frame without a double point."""
    points = ThetaLengthFlow.points
    calls = []

    def patched(self, states):
        P = points(self, states)
        calls.append(1)
        if len(calls) == block:
            th = (np.arange(self.n) + 0.5) * 2 * math.pi / self.n
            P[row] = 0.1 * np.column_stack([np.cos(th), np.sin(th)])
        return P

    monkeypatch.setattr(ThetaLengthFlow, "points", patched)


class TestDoublePointRule:
    """Frame 0 says whether every later frame must keep a double point."""

    def test_eight_that_loses_its_crossing_fails_naming_the_time(self, monkeypatch):
        # frame 0 is measured alone, so row 3 of the second block is frame 4
        args = (make_concinnous_eight(1.0, n_points=128), StopRule(time=0.05, kmax_spacing=None),
                0.005)
        t = csf_evolve(*args).times[4]
        circle_in_block(monkeypatch, block=2, row=3)
        with pytest.raises(TopologyError, match=re.escape(f"t={t:.6g} has no double point")):
            csf_evolve(*args)

    def test_frame_0_without_a_crossing_asks_for_none(self, monkeypatch):
        circle_in_block(monkeypatch, block=1, row=0)
        run = csf_evolve(make_concinnous_eight(1.0, n_points=128),
                         StopRule(time=0.05, kmax_spacing=None), record_dt=0.005)
        crossings = [d.crossing is not None for d in run.diagnostics]
        assert crossings == [False] + [True] * (len(run.frames) - 1)
        assert math.isnan(run.diagnostics[0].alpha_angle)
