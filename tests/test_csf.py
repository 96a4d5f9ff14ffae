"""Plane-curve geometry, figure-eight construction, and the analysis helpers.

Evolution trends at full depth live in the acceptance suite; the runs here
are short or synthetic.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from geomflow.csf.curve import (_check_concinnity, _lemniscate_quarter, _median, _three_point,
                                edge_lengths, quarter_arc_length, row_lengths)
from geomflow.errors import ConstructionError, ResolutionError, TopologyError
from geomflow.csf import (MIN_TIP_POINTS, PlaneCurve, StopRule, affine_rescale_and_bowtie,
                          axis_shrink_products, csf_evolve, curvature_and_angles,
                          curvature_vector, curve_geometry, curve_length,
                          grim_reaper_check, grim_reaper_profile_error, lobe_areas,
                          make_concinnous_eight, reaper_profile_defect, resample_uniform,
                          resolvable_frames, self_intersection, theta_monotonicity_series,
                          turning_number)
from oracles import bowtie_distance, lemniscate_eight


def unit_circle(n=256, r=1.0):
    th = (np.arange(n) + 0.5) * 2 * math.pi / n
    return PlaneCurve(np.column_stack([r * np.cos(th), r * np.sin(th)]))


def parametric_curve(xy_of_t, n_points):
    """The closed curve t -> (x, y) on [0, 2*pi), traced on 2^15 parameter
    samples and resampled uniformly in chord length (half a cell from the
    start), so a custom figure-eight can enter the flow."""
    t_dense = np.linspace(0.0, 2 * math.pi, 1 << 15, endpoint=False)
    xy = np.array([xy_of_t(t) for t in t_dense], dtype=float)
    chord = np.linalg.norm(np.diff(xy, axis=0, append=xy[:1]), axis=1)
    s_cum = np.concatenate([[0.0], np.cumsum(chord)])
    targets = (np.arange(n_points) + 0.5) * s_cum[-1] / n_points
    idx = np.searchsorted(s_cum, targets, side="right") - 1
    frac = (targets - s_cum[idx]) / chord[idx]
    nxt = (idx + 1) % t_dense.size
    return PlaneCurve(xy[idx] + frac[:, None] * (xy[nxt] - xy[idx]))


class TestCurveBasics:
    def test_circle_geometry(self):
        d = curve_geometry(unit_circle(512).points)
        assert d.total_area == pytest.approx(math.pi, abs=1e-4)
        assert d.length == pytest.approx(2 * math.pi, abs=1e-4)
        k, _ = curvature_and_angles(unit_circle(512).points)
        assert np.max(np.abs(np.abs(k) - 1.0)) < 1e-3

    def test_circle_has_no_double_point(self):
        with pytest.raises(TopologyError):
            self_intersection(unit_circle().points)
        d = curve_geometry(unit_circle().points)
        assert math.isnan(d.alpha_angle) and math.isnan(d.k_top) and d.crossing is None

    def test_row_lengths_is_norm(self):
        V = np.random.default_rng(3).standard_normal((1000, 2)) * np.logspace(-8, 8, 1000)[:, None]
        assert np.array_equal(row_lengths(V), np.linalg.norm(V, axis=1))

    def test_validation(self):
        with pytest.raises(ValueError):
            PlaneCurve(np.zeros((10, 2)))
        pts = unit_circle().points.copy()
        pts[5] = pts[6]
        with pytest.raises(ValueError):
            PlaneCurve(pts)


class TestConcinnousEight:
    def test_curvature_vanishes_only_near_double_point(self):
        c = make_concinnous_eight(1.0, n_points=512)
        P = c.points
        k = np.abs(curvature_and_angles(P)[0])
        _, _, pt = self_intersection(P)
        away = np.linalg.norm(P - pt, axis=1) > 0.05 * curve_length(P)
        assert np.min(k[away]) > 0.1  # bounded well away from zero

    def test_balanced_lobes(self):
        c = make_concinnous_eight(1.0, n_points=512)
        a1, a2 = lobe_areas(c.points)
        assert abs(a1 - a2) < 1e-10

    def test_rotation_number_zero(self):
        c = make_concinnous_eight(2.0, n_points=256)
        assert abs(turning_number(c.points)) < 1e-6 / (2 * math.pi)

    def test_double_point_at_origin_and_symmetry(self):
        c = make_concinnous_eight(1.0, n_points=512)
        _, _, pt = self_intersection(c.points)
        assert np.linalg.norm(pt) < 1e-12
        P = c.points
        for refl in (np.array([1.0, -1.0]), np.array([-1.0, 1.0])):
            Q = P * refl
            d2 = np.sum((Q[:, None, :] - P[None, :, :]) ** 2, axis=2)
            assert math.sqrt(np.max(np.min(d2, axis=1))) < 1e-12

    def test_geometry_conventions(self):
        d = curve_geometry(make_concinnous_eight(1.0, n_points=512).points)
        assert d.x_max == pytest.approx(math.sqrt(2.0), abs=1e-4)
        assert 0.0 < d.alpha_angle < math.pi / 2
        assert d.alpha_angle == pytest.approx(math.pi / 4, abs=1e-3)
        assert d.theta_min == pytest.approx(math.pi - d.theta_max, abs=1e-10)
        assert math.pi < d.theta_max - d.theta_min < 2 * math.pi
        assert d.x_star <= d.x_max

    def test_peak_between_equal_samples_is_refined(self):
        # the far end x = sqrt(2) lies midway between two samples of equal x;
        # the parabola vertex through them is 1.2e-8 from it, the sample 5.6e-5
        d = curve_geometry(make_concinnous_eight(1.0, n_points=512).points)
        assert abs(d.x_max - math.sqrt(2.0)) < 1e-6

    def test_override_family(self):
        def squashed(t):
            den = 1.0 + math.sin(t) ** 2
            x = math.sqrt(2.0) * math.cos(t) / den
            return x, 0.8 * x * math.sin(t)

        c = parametric_curve(squashed, 256)
        _check_concinnity(c)
        a1, a2 = lobe_areas(c.points)
        assert abs(a1 - a2) < 1e-6

    def test_override_rejected_when_not_concinnous(self):
        # an embedded ellipse is not a figure-eight at all
        with pytest.raises(ConstructionError):
            _check_concinnity(parametric_curve(lambda t: (2 * math.cos(t), math.sin(t)), 256))

    @pytest.mark.parametrize("scale", [1.0, 0.9])
    @pytest.mark.parametrize("n", [128, 512, 1024])
    def test_points_keep_their_bits(self, scale, n):
        assert np.array_equal(make_concinnous_eight(scale, n_points=n).points,
                              lemniscate_eight(scale, n))

    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=64))
    @example([1.0, 2.0]).via("even size")
    @example([1e308, 1.7e308, 1e308]).via("odd size, sums overflow")
    @example([1.7e308, 1.7e308]).via("even size, the sum overflows")
    def test_median_matches_numpy_bit_for_bit(self, values):
        k = np.abs(np.array(values))  # the concinnity check takes the median of |k|
        with np.errstate(over="ignore"):
            assert np.float64(_median(k)).tobytes() == np.float64(np.median(k)).tobytes()

    @given(st.floats(1e-3, 7.5))
    @example(1.0)
    def test_quarter_arc_length_matches_the_one_shot_sum(self, scale):
        # the reference: every chord from one (65,537, 2) array of points
        t = np.linspace(0.0, 0.5 * math.pi, (1 << 16) + 1)
        chords = np.linalg.norm(np.diff(_lemniscate_quarter(scale, t), axis=0), axis=1)
        assert quarter_arc_length(scale) == float(np.sum(chords))

    def test_quarter_arc_length_builds_no_full_size_temporaries(self):
        # tracemalloc peaks of quarter_arc_length(1.0), Python 3.11 and numpy 2.4:
        # 3.50 MB computed in one shot, 1.25 MB by blocks (the parameters and the
        # chords at 0.5 MB each, and one block's temporaries); 2 MB sits between
        import tracemalloc

        quarter_arc_length(1.0)
        tracemalloc.start()
        try:
            quarter_arc_length(1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_concinnous_eight(-1.0)
        with pytest.raises(ValueError):
            make_concinnous_eight(1.0, n_points=64)


def _reference_spline(values, period):
    """The per-column periodic cubic spline as it was before the batched fit:
    one transform per coordinate, evaluated through mod/clip/fancy indexing."""
    y = np.asarray(values, dtype=float)
    n = y.size
    h = period / n
    rhs = 6.0 * (np.roll(y, 1) - 2.0 * y + np.roll(y, -1)) / (h * h)
    eig = 4.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(n // 2 + 1) / n)
    m = np.fft.irfft(np.fft.rfft(rhs) / eig, n=n)

    def evaluate(s):
        u = np.mod(s, period) / h
        j = np.clip(u.astype(int), 0, n - 1)
        t = u - j
        jp = (j + 1) % n
        h2 = h * h
        return ((1 - t) * y[j] + t * y[jp]
                + h2 / 6.0 * ((1 - t) ** 3 - (1 - t)) * m[j]
                + h2 / 6.0 * (t ** 3 - t) * m[jp])
    return evaluate


def _reference_resample(P, refine=4):
    """``resample_uniform`` as it was with two splines and four evaluations."""
    n = P.shape[0]
    sx = _reference_spline(P[:, 0], float(n))
    sy = _reference_spline(P[:, 1], float(n))
    u_fine = np.arange(n * refine) / refine
    fine = np.column_stack([sx(u_fine), sy(u_fine)])
    seg = np.linalg.norm(np.diff(fine, axis=0, append=fine[:1]), axis=1)
    s_cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = s_cum[-1]
    y = fine[:, 1]
    y_next = np.roll(y, -1)
    crossing = np.nonzero(((y > 0.0) & (y_next <= 0.0)) | ((y >= 0.0) & (y_next < 0.0)))[0]
    if crossing.size:
        fracs = y[crossing] / (y[crossing] - y_next[crossing])
        x_cross = fine[crossing, 0] + fracs * (fine[(crossing + 1) % fine.shape[0], 0]
                                               - fine[crossing, 0])
        best = int(np.argmax(x_cross))
        s_anchor = s_cum[crossing[best]] + fracs[best] * seg[crossing[best]]
    else:
        s_anchor = 0.0
    targets = (s_anchor + (np.arange(n) + 0.5) * (total / n)) % total
    u_targets = np.interp(targets, s_cum, np.concatenate([u_fine, [float(n)]]))
    return np.column_stack([sx(u_targets), sy(u_targets)])


def _perturbed_eight(n, seed=0, amplitude=1e-3):
    P = make_concinnous_eight(1.0, n_points=n).points
    return P + amplitude * np.random.default_rng(seed).standard_normal(P.shape)


class TestResample:
    @pytest.mark.parametrize("n", [128, 512])
    @pytest.mark.parametrize("shape", ["circle", "eight", "perturbed eight"])
    def test_matches_two_spline_reference(self, shape, n):
        P = {"circle": lambda: unit_circle(n).points,
             "eight": lambda: make_concinnous_eight(1.0, n_points=n).points,
             "perturbed eight": lambda: _perturbed_eight(n)}[shape]()
        assert np.array_equal(resample_uniform(P), _reference_resample(P))

    def test_preserves_circle(self):
        P = unit_circle(128).points
        Q = resample_uniform(P)
        r = np.linalg.norm(Q, axis=1)
        assert np.max(np.abs(r - 1.0)) < 1e-5
        gaps = np.linalg.norm(np.diff(Q, axis=0, append=Q[:1]), axis=1)
        assert np.max(gaps) / np.min(gaps) < 1.001


class TestEvolve:
    def test_circle_area_law(self):
        run = csf_evolve(unit_circle(), StopRule(time=0.1, kmax_spacing=None),
                         record_dt=0.02)
        for t, d in zip(run.times, run.diagnostics):
            exact = math.pi * (1.0 - 2.0 * t)
            assert abs(d.total_area - exact) / exact < 0.01

    def test_length_decreases(self):
        run = csf_evolve(unit_circle(), StopRule(time=0.05, kmax_spacing=None),
                         record_dt=0.01)
        L = run.series("length")
        assert np.all(np.diff(L) < 0)

    def test_eight_short_run_keeps_symmetry(self):
        eight = make_concinnous_eight(1.0, n_points=256)
        run = csf_evolve(eight, StopRule(time=0.02, kmax_spacing=None),
                         record_dt=0.005)
        P = run.frames[-1]
        for refl in (np.array([1.0, -1.0]), np.array([-1.0, 1.0])):
            Q = P * refl
            d2 = np.sum((Q[:, None, :] - P[None, :, :]) ** 2, axis=2)
            assert math.sqrt(np.max(np.min(d2, axis=1))) < 1e-6
        _, _, pt = self_intersection(P)
        assert np.linalg.norm(pt) < 1e-3

    def test_stop_rule_validation(self):
        with pytest.raises(ValueError):
            csf_evolve(unit_circle(), StopRule(time=None, kmax_spacing=None))

    def test_double_point_angle_decreases(self):
        eight = make_concinnous_eight(1.0, n_points=256)
        run = csf_evolve(eight, StopRule(time=0.05, kmax_spacing=None),
                         record_dt=0.01)
        alphas = run.series("alpha_angle")
        assert np.all(np.diff(alphas) < 0)


class TestThetaSeries:
    def test_eight_run_verdict(self):
        eight = make_concinnous_eight(1.0, n_points=256)
        run = csf_evolve(eight, StopRule(time=0.03, kmax_spacing=None),
                         record_dt=0.005)
        ts = theta_monotonicity_series(run.times, run.diagnostics)
        assert ts.verdict

    def test_symmetric_branch_convention(self):
        d = curve_geometry(make_concinnous_eight(1.0, n_points=512).points)
        assert d.theta_min == pytest.approx(-d.theta_max + math.pi, abs=1e-10)

    def test_perturbed_balanced_eight(self):
        # break the x-axis symmetry but keep the lobes balanced
        def bent(t):
            den = 1.0 + math.sin(t) ** 2
            x = math.sqrt(2.0) * math.cos(t) / den
            y = x * math.sin(t)
            return x, y + 0.1 * x * x

        curve = parametric_curve(bent, 256)
        a1, a2 = lobe_areas(curve.points)
        assert abs(a1 - a2) < 1e-6
        run = csf_evolve(curve, StopRule(time=0.03, kmax_spacing=None),
                         record_dt=0.005)
        assert theta_monotonicity_series(run.times, run.diagnostics).verdict

    def test_rejects_non_eight(self):
        run = csf_evolve(unit_circle(), StopRule(time=0.02, kmax_spacing=None),
                         record_dt=0.005)
        with pytest.raises(TopologyError):
            theta_monotonicity_series(run.times, run.diagnostics)


class TestGrimReaper:
    def test_exact_profile_scores_zero(self):
        phi = np.linspace(0.0, math.pi, 256)
        assert reaper_profile_defect(phi, np.sin(phi)) < 1e-14

    def test_initial_lemniscate_is_far_from_profile(self):
        P = make_concinnous_eight(1.0, n_points=512).points
        err = grim_reaper_profile_error(P, curve_geometry(P))
        assert 0.2 < err < 1.0

    def test_resolution_guard(self):
        # moving the far-right sample outward by 5 % leaves a spike that only
        # 3 samples see in the top curvature decade
        P = make_concinnous_eight(1.0, n_points=128).points.copy()
        P[int(np.argmax(P[:, 0]))] *= 1.05
        with pytest.raises(ResolutionError, match="only 3 samples"):
            grim_reaper_profile_error(P, curve_geometry(P))


class TestBowtie:
    def test_exact_bowtie_polygon_scores_zero(self):
        # trace the four-corner bow-tie path as a polygon
        corners = [(-1.0, -1.0), (1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]
        pts = []
        per_edge = 63  # odd, so the center crossing is not a shared vertex
        for (x0, y0), (x1, y1) in zip(corners[:-1], corners[1:]):
            for u in np.arange(per_edge) / per_edge:
                pts.append((x0 + u * (x1 - x0), y0 + u * (y1 - y0)))
        tie = np.array(pts)
        rec = affine_rescale_and_bowtie(tie, curve_geometry(tie))
        assert rec.bowtie_distance < 1e-9

    def test_bernoulli_initial_ratio(self):
        P = make_concinnous_eight(1.0, n_points=512).points
        rec = affine_rescale_and_bowtie(P, curve_geometry(P))
        assert 0.0 < rec.ratio_xstar < 1.0
        assert rec.rescaled[:, 0].max() <= 1.0 + 1e-9
        assert rec.rescaled[:, 1].max() <= 1.0 + 1e-9


# The per-frame analyses as they were before they read the frame's
# ``curve_geometry`` record: each measured its frames again from the points.

def _reference_signed_curvature(P):
    first, second = _three_point(P)
    speed = row_lengths(first)
    cross = first[:, 0] * second[:, 1] - first[:, 1] * second[:, 0]
    return cross / speed ** 3


def _reference_tangent_angles(P):
    first, _ = _three_point(P)
    theta = np.unwrap(np.arctan2(first[:, 1], first[:, 0]))
    mid = 0.5 * (theta.max() + theta.min())
    shift = 2.0 * math.pi * round((0.5 * math.pi - mid) / (2.0 * math.pi))
    return theta + shift


def _reference_resolvable_frames(run):
    out = []
    for idx, P in enumerate(run.frames):
        k = np.abs(_reference_signed_curvature(P))
        k_max = float(np.max(k))
        if k_max == 0.0:
            continue
        h = float(np.min(edge_lengths(P)))
        if 6.0 / (k_max * h) >= MIN_TIP_POINTS:
            out.append(idx)
    return out


def _top_index(P):
    """The highest sample in the closed upper-right quadrant (sample 0 when
    none lies in it)."""
    return int(np.argmax(np.where((P[:, 0] >= 0.0) & (P[:, 1] >= 0.0), P[:, 1], -np.inf)))


def _reference_k_top(P):
    """|k| at the vertex of the parabola through the top height and its two
    neighbours, quadratic in the vertex offset; a flat top (the top height
    and the two after it, or before it, agree to 1e-13) keeps its sample."""
    n, iy = P.shape[0], _top_index(P)
    k = np.abs(_reference_signed_curvature(P))
    h = [P[(iy + j) % n, 1] for j in range(-2, 3)]
    flat = 1e-13 * max(abs(v) for v in h)
    denom = h[1] - 2.0 * h[2] + h[3]
    if (denom == 0.0 or max(abs(h[0] - h[2]), abs(h[1] - h[2])) <= flat
            or max(abs(h[3] - h[2]), abs(h[4] - h[2])) <= flat):
        delta = 0.0
    else:
        delta = float(np.clip(0.5 * (h[1] - h[3]) / denom, -1.0, 1.0))
    k0, k1, k2 = k[(iy - 1) % n], k[iy], k[(iy + 1) % n]
    return k1 + 0.5 * delta * (k2 - k0) + 0.5 * delta * delta * (k0 - 2.0 * k1 + k2)


def _reference_axis_shrink_products(run):
    px, py = [], []
    for P, diag in zip(run.frames, run.diagnostics):
        px.append(diag.y_max * diag.k_max)
        py.append(diag.x_max * _reference_k_top(P))
    return np.asarray(run.times, dtype=float), np.array(px), np.array(py)


def _reference_profile_error(P):
    k_abs = np.abs(_reference_signed_curvature(P))
    k_max = float(np.max(k_abs))
    if int(np.sum(k_abs >= 0.1 * k_max)) < MIN_TIP_POINTS:
        raise ResolutionError("tip not resolved")
    i, j, _ = self_intersection(P)
    theta = _reference_tangent_angles(P)
    arcs = (np.arange(i + 1, j + 1), np.concatenate([np.arange(j + 1, P.shape[0]),
                                                     np.arange(0, i + 1)]))
    peak = int(np.argmax(k_abs))
    lobe = arcs[0] if peak in set(arcs[0].tolist()) else arcs[1]
    return reaper_profile_defect(theta[lobe], k_abs[lobe] / k_max)


@pytest.fixture(scope="module")
def collapse_run():
    # the canonical bench job: the n = 128 eight to the singularity stop,
    # 274 frames, about half of them resolvable
    return csf_evolve(make_concinnous_eight(1.0, n_points=128), StopRule(kmax_spacing=0.5),
                      record_dt=3.2e-3)


class TestFrameRecord:
    def test_curvature_and_angles_match_two_stencils(self, collapse_run):
        curves = [unit_circle(256).points] + collapse_run.frames[::10]
        for P in curves:
            k, theta = curvature_and_angles(P)
            assert np.array_equal(k, _reference_signed_curvature(P))
            assert np.array_equal(theta, _reference_tangent_angles(P))

    def test_curvature_vector_matches_three_point_stencil(self, collapse_run):
        # the step's velocity from its measured gaps has the bits of the
        # second derivative of the full stencil
        curves = [unit_circle(256).points] + collapse_run.frames[::10]
        for P in curves:
            assert np.array_equal(curvature_vector(P, edge_lengths(P)), _three_point(P)[1])

    def test_resolvable_frames_match_per_frame_measurement(self, collapse_run):
        idxs = resolvable_frames(collapse_run)
        assert 0 < len(idxs) < len(collapse_run.frames)
        assert idxs == _reference_resolvable_frames(collapse_run)

    def test_axis_shrink_products_match_per_frame_measurement(self, collapse_run):
        # on the eight turned upright the top sample's left neighbour lies
        # outside the upper-right quadrant, and the vertex is still taken
        upright = make_concinnous_eight(1.0, n_points=128).points[:, ::-1]
        upright_run = csf_evolve(PlaneCurve(upright), StopRule(time=0.01, kmax_spacing=None),
                                 record_dt=0.005)
        for run in (collapse_run, upright_run):
            for got, want in zip(axis_shrink_products(run), _reference_axis_shrink_products(run)):
                assert np.array_equal(got, want)

    def test_k_top_is_taken_where_y_max_is_refined(self):
        # k_top is the |k| at the vertex offset that refines y_max and x*: a
        # neighbour outside the upper-right quadrant no longer holds it at
        # its sample, a flat top keeps its sample, and no RuntimeWarning is
        # raised on the way
        eight = make_concinnous_eight(1.0, n_points=128).points
        upright = eight[:, ::-1]  # the top sample's left neighbour is outside
        below = eight + np.array([0.2, -1.0])  # no sample in the quadrant
        flat = eight.copy()
        iy = _top_index(eight)
        flat[iy + 1:iy + 3, 1] = flat[iy, 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            diags = [curve_geometry(P) for P in (upright, below, flat)]
        for P, diag in zip((upright, below, flat), diags):
            assert diag.k_top == _reference_k_top(P)
        k_upright, k_flat = (np.abs(curvature_and_angles(P)[0]) for P in (upright, flat))
        assert upright[_top_index(upright) - 1, 0] < 0.0
        assert diags[0].k_top != k_upright[_top_index(upright)]
        assert diags[2].k_top == k_flat[iy]

    def test_bowtie_distance_matches_full_matrix(self, collapse_run):
        # the pruned distance search against every (point, segment) pair
        idxs = resolvable_frames(collapse_run)
        for k in idxs:
            P, diag = collapse_run.frames[k], collapse_run.diagnostics[k]
            rec = affine_rescale_and_bowtie(P, diag)
            assert rec.bowtie_distance == bowtie_distance(P, diag.x_max, diag.y_max)

    def test_grim_reaper_check_matches_per_frame_measurement(self, collapse_run):
        idxs = resolvable_frames(collapse_run)
        series = grim_reaper_check(collapse_run, idxs)
        assert np.array_equal(series.errors,
                              [_reference_profile_error(collapse_run.frames[k]) for k in idxs])
        assert np.array_equal(series.times, [collapse_run.times[k] for k in idxs])
