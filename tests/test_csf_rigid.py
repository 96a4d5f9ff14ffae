"""CSF runs under rigid motions of their input: every frame moves with the
input, and length, area and peak curvature stay."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from geomflow.csf import PlaneCurve, StopRule, csf_evolve, make_concinnous_eight  # noqa: E402
from oracles import dist_points_to_segments  # noqa: E402
from test_csf_evolve import bent_eight  # noqa: E402


class TestRigidMotions:
    # a moved eight can leave the upper-right quadrant that the quarter-curve
    # measurements (x*, k at the top) look in; they are not compared here
    @settings(max_examples=8, deadline=None)
    @given(angle=st.floats(0.0, 2 * math.pi), dx=st.floats(-5.0, 5.0), dy=st.floats(-5.0, 5.0))
    def test_frames_move_rigidly(self, angle, dx, dy):
        # The moved input is resampled from another anchor, so its samples sit
        # elsewhere on the same spline curve: the frames agree to the spline's
        # interpolation error, and k_max to its sampling-dependent refinement.
        curve = bent_eight()
        R = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        shift = np.array([dx, dy])
        stop = StopRule(time=0.005, kmax_spacing=None)
        base = csf_evolve(curve, stop, record_dt=0.005)
        moved = csf_evolve(PlaneCurve(curve.points @ R.T + shift), stop, record_dt=0.005)
        assert moved.times == base.times == [0.0, 0.005]
        for f0, f1, d0, d1 in zip(base.frames, moved.frames, base.diagnostics,
                                  moved.diagnostics):
            image = _fine_polygon(f0 @ R.T + shift)
            gap = dist_points_to_segments(f1[:, 0], f1[:, 1], image[:, 0],
                                          image[:, 1], np.roll(image[:, 0], -1),
                                          np.roll(image[:, 1], -1))
            assert float(np.max(gap)) < 1e-5 * d0.length
            assert d1.length == pytest.approx(d0.length, rel=1e-6)
            assert d1.total_area == pytest.approx(d0.total_area, rel=1e-5)
            assert d1.k_max == pytest.approx(d0.k_max, rel=2e-3)

    def test_symmetric_eight_keeps_its_peak_curvature(self):
        # the symmetric eight's curvature tip lies midway between two samples
        # of equal |k|; refined to the parabola vertex, k_max no longer
        # depends on where the samples sit (4.5e-4 apart before, 1.0e-6 now)
        curve = make_concinnous_eight(1.0, n_points=128)
        R = np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])
        stop = StopRule(time=0.005, kmax_spacing=None)
        base = csf_evolve(curve, stop, record_dt=0.005)
        moved = csf_evolve(PlaneCurve(curve.points @ R.T + np.array([0.2, -1.0])), stop,
                           record_dt=0.005)
        for d0, d1 in zip(base.diagnostics, moved.diagnostics):
            assert d1.k_max == pytest.approx(d0.k_max, rel=1e-5)


def _fine_polygon(P, factor=32):
    """The trigonometric interpolant of a closed polygon at ``factor`` times
    its samples."""
    n = P.shape[0]
    spec = np.fft.fft(P[:, 0] + 1j * P[:, 1])
    padded = np.zeros(n * factor, dtype=complex)
    padded[:n // 2] = spec[:n // 2]
    padded[-(n // 2):] = spec[-(n // 2):]
    Z = np.fft.ifft(padded) * factor
    return np.column_stack([Z.real, Z.imag])
