"""The pruned bow-tie distance against the full (points, segments) matrix."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from geomflow.csf import affine_rescale_and_bowtie, curve_geometry  # noqa: E402
from geomflow.csf import make_concinnous_eight  # noqa: E402
from oracles import bowtie_distance  # noqa: E402


def tie_polygon(per_edge):
    """The bow-tie path traced as a polygon, ``per_edge`` points an edge."""
    corners = [(-1.0, -1.0), (1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]
    u = np.arange(per_edge)[:, None] / per_edge
    return np.concatenate([np.array(a) + u * (np.array(b) - np.array(a))
                           for a, b in zip(corners[:-1], corners[1:])])


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(["eight", "tie"]), n=st.sampled_from([128, 256, 512]),
       seed=st.integers(0, 2**32 - 1), log_amplitude=st.floats(-12.0, -2.0),
       stretch=st.floats(0.5, 2.0), start=st.integers(0, 511))
def test_matches_full_matrix(shape, n, seed, log_amplitude, stretch, start):
    # eights, and polygons on the bow-tie itself, where samples of the tie
    # sit on (or next to) the polygon's vertices
    P = (make_concinnous_eight(1.0, n_points=n).points if shape == "eight"
         else tie_polygon(n // 4 + 1))
    P = P * np.array([stretch, 1.0 / stretch])
    P = P + 10.0 ** log_amplitude * np.random.default_rng(seed).standard_normal(P.shape)
    P = np.roll(P, start % P.shape[0], axis=0)
    diag = curve_geometry(P)
    assume(not math.isnan(diag.x_star))
    rec = affine_rescale_and_bowtie(P, diag)
    assert rec.bowtie_distance == bowtie_distance(P, diag.x_max, diag.y_max)
