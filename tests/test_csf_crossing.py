"""The blocked, broadcast crossing search against a plain pair loop."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from geomflow.csf import make_concinnous_eight, self_intersection  # noqa: E402
from geomflow.errors import TopologyError  # noqa: E402


def brute_force_crossing(P):
    """Every segment pair (i, j), i < j and not neighbours, in row-major order,
    with the same crossing formulas and the same merge of coinciding hits."""
    n = P.shape[0]
    pts = [(float(x), float(y)) for x, y in P]
    found = []
    for i in range(n):
        px, py = pts[i]
        rx, ry = pts[(i + 1) % n][0] - px, pts[(i + 1) % n][1] - py
        for j in range(i + 2, min(n, i + n - 1)):
            qx, qy = pts[j]
            sx, sy = pts[(j + 1) % n][0] - qx, pts[(j + 1) % n][1] - qy
            denom = rx * sy - ry * sx
            if denom == 0.0:
                continue
            dqx, dqy = qx - px, qy - py
            t = (dqx * sy - dqy * sx) / denom
            u = (dqx * ry - dqy * rx) / denom
            if 0.0 < t < 1.0 and 0.0 < u < 1.0:
                found.append((i, j, P[i] + t * (P[(i + 1) % n] - P[i])))
    if not found:
        raise TopologyError("no self-intersection found")
    scale = math.sqrt(np.max(np.sum((P - P.mean(axis=0)) ** 2, axis=1)))
    clusters = []
    for hit in found:
        if all(np.linalg.norm(hit[2] - other[2]) >= 1e-6 * scale for other in clusters):
            clusters.append(hit)
    if len(clusters) > 1:
        raise TopologyError("more than one crossing")
    return clusters[0]


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([128, 130, 200, 257, 300]),
       seed=st.integers(0, 2**32 - 1),
       log_amplitude=st.floats(-6.0, -1.5),
       start=st.integers(0, 299),
       angle=st.floats(0.0, 2.0 * math.pi))
def test_matches_brute_force_pair_loop(n, seed, log_amplitude, start, angle):
    # a perturbed eight, rotated and with its first sample moved, so that the
    # crossing falls in every block position of the search (n > 128 uses
    # several blocks, 130 and 257 a partial last block); an eight takes a
    # multiple of 4 points, so the extra ones are dropped from a lobe
    m = -(-n // 4)
    P = np.delete(make_concinnous_eight(1.0, n_points=4 * m).points,
                  np.arange(m // 2, m // 2 + 4 * m - n), axis=0)
    assert P.shape == (n, 2)
    P = P + 10.0 ** log_amplitude * np.random.default_rng(seed).standard_normal(P.shape)
    c, s = math.cos(angle), math.sin(angle)
    P = np.roll(P @ np.array([[c, s], [-s, c]]), start % n, axis=0)
    try:
        expected = brute_force_crossing(P)
    except TopologyError:
        with pytest.raises(TopologyError):
            self_intersection(P)
        return
    i, j, pt = self_intersection(P)
    assert (i, j) == expected[:2]
    assert np.array_equal(pt, expected[2])
