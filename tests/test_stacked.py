"""Stacked evaluations against their row-by-row and frame-by-frame values:
the CSF rate and the torsion remainder on a stack of states, and the frame
measurement of a block of frames."""

import math
import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from geomflow.csf import (PlaneCurve, StopRule, csf_evolve, curve_geometry,  # noqa: E402
                          make_concinnous_eight, resample_uniform)
from geomflow.csf.evolve import _FRAME_BLOCK, ThetaLengthFlow  # noqa: E402
from geomflow.errors import PositivityError  # noqa: E402
from geomflow.numerics.periodic import periodic_grid  # noqa: E402
from geomflow.torsionflow import UNIT_CURVATURE  # noqa: E402
from geomflow.torsionflow.evolve import torsion_stepper  # noqa: E402
from oracles import frame_geometry  # noqa: E402


def circle(n=128):
    th = (np.arange(n) + 0.5) * 2 * math.pi / n
    return PlaneCurve(np.column_stack([np.cos(th), np.sin(th)]))


def egg(n=128):
    """A convex curve with one reflection and no half-turn symmetry."""
    th = (np.arange(n) + 0.5) * 2 * math.pi / n
    r = 1.0 + 0.2 * np.cos(th)
    return PlaneCurve(np.column_stack([r * np.cos(th), r * np.sin(th)]))


def bent_eight(n=128):
    """The lemniscate sheared and bent: no reflection or half-turn symmetry."""
    P = make_concinnous_eight(1.0, n_points=n).points
    x, y = P[:, 0], P[:, 1]
    return PlaneCurve(np.column_stack([x + 0.05 * y, y + 0.1 * x * x]))


def assert_same_record(got, want):
    """Every field equal, NaN to NaN, and the same crossing."""
    for name in got.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        if name == "crossing":
            assert (a is None) == (b is None), name
            if a is not None:
                assert a[:2] == b[:2] and np.array_equal(a[2], b[2]), name
        else:
            assert a == b or (math.isnan(a) and math.isnan(b)), (name, a, b)


class TestStackedRemainders:
    @pytest.mark.parametrize("curve,m,fixed", [
        (lambda: make_concinnous_eight(1.0, n_points=128), 0, True),
        (bent_eight, 0, False),
        (circle, 1, True),
        (egg, 1, False),
    ], ids=["symmetric eight", "bent eight", "circle", "egg"])
    def test_csf_rate_of_a_stack_is_its_rows(self, curve, m, fixed):
        flow = ThetaLengthFlow(resample_uniform(curve().points))
        assert (abs(flow.m), flow.fixed_centroid) == (m, fixed)
        v = flow.v
        w = flow.etd.step(v, 0.0, 2.0 ** -8, flow.etd.coefficients(2.0 ** -8), flow.rate(v)[0])
        rates, slopes = flow.rate(np.stack((v, w)))
        for row, state in enumerate((v, w)):
            rate, slope = flow.rate(state)
            assert np.array_equal(rates[row], rate) and np.array_equal(slopes[row], slope)
        assert rates[1, flow.M + 2] != 0.0 or fixed  # the centroid rate is computed
        if fixed:  # and otherwise set to 0, single and stacked
            assert np.all(rates[:, flow.M + 2] == 0.0)
            assert all(flow.rate(state)[0][flow.M + 2] == 0.0 for state in (v, w))

    def test_torsion_remainder_of_a_stack_is_its_rows(self):
        n = 64
        s = periodic_grid(n)
        stepper, _ = torsion_stepper(UNIT_CURVATURE, n, 2.0)
        V = np.fft.rfft(np.stack((2.0 + 0.5 * np.sin(s), 2.0 + 0.3 * np.cos(2.0 * s))))
        stacked = stepper.remainder(np.array([[0.1], [0.05]]), V)
        for row, t in enumerate((0.1, 0.05)):
            assert np.array_equal(stacked[row], stepper.remainder(t, V[row]))

    @pytest.mark.parametrize("amplitude,h", [(1.9, 0.1), (1.0, 1.0)])
    def test_stacked_torsion_stage_names_a_time_in_the_step(self, amplitude, h):
        # steps far past the stability bound take a stage of the checked
        # step's stacked pass nonpositive (the first stage, or the last)
        n, t = 128, 0.3
        tau = 2.0 + amplitude * np.sin(periodic_grid(n))
        stepper, flux = torsion_stepper(UNIT_CURVATURE, n, 2.0)
        v = np.fft.rfft(tau)
        stages = []
        remainder = stepper.remainder

        def record_stage(t_stage, state):
            stages.append(np.shape(t_stage))
            return remainder(t_stage, state)

        stepper.remainder = record_stage
        with pytest.raises(PositivityError) as err:
            stepper.advance(v, t, h, flux(tau) - stepper.L * v, lambda f, c: 0.0)
        assert set(stages) == {(2, 1)}  # the stacked pass failed
        named = float(re.search(r"t=(\S+)", str(err.value)).group(1))
        assert t <= named <= t + h

    def test_stacked_torsion_stage_names_the_row_that_failed(self):
        n = 64
        stepper, _ = torsion_stepper(UNIT_CURVATURE, n, 2.0)
        V = np.fft.rfft(np.stack((np.full(n, 2.0), 2.0 + 3.0 * np.sin(periodic_grid(n)))))
        with pytest.raises(PositivityError, match=r"t=0\.125 "):
            stepper.remainder(np.array([[0.25], [0.125]]), V)


@pytest.fixture(scope="module")
def collapse_run():
    # the n = 128 bench eight to the singularity stop, 267 frames
    return csf_evolve(make_concinnous_eight(1.0, n_points=128), StopRule(kmax_spacing=0.5),
                      record_dt=3.2e-3)


class TestFrameBlocks:
    def test_every_frame_of_a_collapse_is_its_own_measurement(self, collapse_run):
        assert len(collapse_run.frames) > 8 * _FRAME_BLOCK
        for frame, time, diag in zip(collapse_run.frames, collapse_run.times,
                                     collapse_run.diagnostics):
            assert diag.time == time
            assert_same_record(diag, frame_geometry(frame, time))

    def test_a_block_across_a_block_boundary(self, collapse_run):
        lo, hi = 3 * _FRAME_BLOCK - 5, 3 * _FRAME_BLOCK + 6
        frames, times = np.array(collapse_run.frames[lo:hi]), collapse_run.times[lo:hi]
        for got, frame, time in zip(curve_geometry(frames, times), frames, times):
            assert_same_record(got, frame_geometry(frame, time))
        assert_same_record(curve_geometry(frames[0], times[0]),
                           frame_geometry(frames[0], times[0]))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), log_amplitude=st.floats(-12.0, -2.5),
           angle=st.floats(-math.pi, math.pi), shift=st.tuples(st.floats(-0.5, 0.5),
                                                               st.floats(-0.5, 0.5)),
           start=st.integers(0, 127), size=st.integers(1, 6))
    def test_perturbed_eights(self, seed, log_amplitude, angle, shift, start, size):
        # moved, turned and perturbed eights, with a circle (no crossing,
        # NaN fields) in the same block
        rng = np.random.default_rng(seed)
        c, s = math.cos(angle), math.sin(angle)
        base = np.roll(make_concinnous_eight(1.0, n_points=128).points, start, axis=0)
        frames = [circle().points]
        for _ in range(size):
            P = base + 10.0 ** log_amplitude * rng.standard_normal(base.shape)
            frames.append(P @ np.array([[c, s], [-s, c]]) + np.array(shift))
        frames = np.array(frames)
        times = [0.01 * j for j in range(len(frames))]
        for got, frame, time in zip(curve_geometry(frames, times), frames, times):
            assert_same_record(got, frame_geometry(frame, time))
